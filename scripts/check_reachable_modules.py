#!/usr/bin/env python3
"""Dead-module gate: every header under src/ must be reached by real code.

A header counts as reached when some file in src/, bench/, examples/ or
fleetbench/ other than its own .cpp `#include`s it. A module that only
tests include is library weight that no experiment, example or benchmark
exercises; it is either wired into a real path or deleted.

Includes resolve the way the build resolves them: rooted at src/
("dp/crp.hpp") or relative to the including file's directory.

Exit codes: 0 every header reached, 1 unreached headers (listed).

Usage:
  check_reachable_modules.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CONSUMER_DIRS = ("src", "bench", "examples", "fleetbench")
SOURCE_SUFFIXES = {".cpp", ".hpp"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

# Headers exempt from the gate, each with the reason it may stay unreached.
ALLOWLIST = {
    "linalg/reference.hpp": "scalar reference kernels that the SIMD "
    "lane-contract tests compare every dispatch backend against",
}


def find_unreached(root: Path) -> list[str]:
    src = root / "src"
    headers = {p.relative_to(src).as_posix() for p in src.rglob("*.hpp")}
    reached: set[str] = set()
    for directory in CONSUMER_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for include in INCLUDE_RE.findall(text):
                for candidate in (src / include, path.parent / include):
                    try:
                        header = candidate.resolve().relative_to(src.resolve()).as_posix()
                    except ValueError:
                        continue
                    if header not in headers:
                        continue
                    # A module's own implementation file does not reach it.
                    if path.resolve() == (src / header).with_suffix(".cpp").resolve():
                        continue
                    reached.add(header)
    return sorted(headers - reached)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    unreached = find_unreached(root)
    failures = [h for h in unreached if h not in ALLOWLIST]
    for header in unreached:
        if header in ALLOWLIST:
            print(f"allowlisted: src/{header} ({ALLOWLIST[header]})")
    for header in failures:
        print(f"UNREACHED: src/{header} is included by nothing outside tests/ and its own .cpp")
    if failures:
        print(f"check_reachable_modules: {len(failures)} header(s) reached by no "
              f"file in {', '.join(d + '/' for d in CONSUMER_DIRS)}; delete the "
              "module or wire it into a real path")
        return 1
    print("check_reachable_modules: every src/ header is reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
