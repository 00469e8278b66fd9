#!/usr/bin/env python3
"""Dead-code gate: every header and every function declared under src/
must be reached by real code.

Two passes over the same files:

* Header pass. A header counts as reached when some file in src/, bench/,
  examples/ or fleetbench/ other than its own .cpp `#include`s it.
  Includes resolve the way the build resolves them: rooted at src/
  ("dp/crp.hpp") or relative to the including file's directory.
* Symbol pass. Every function or method declared in a src/ header must be
  named by some non-test file, outside comments and string literals, at a
  site that is not itself a declaration or definition. A call inside the
  function's own module counts; its declaration, its definition and the
  parameter names of other declarations do not.

The symbol pass works on names, not on overload sets or scopes: a name
used anywhere reaches every function that carries it. Constructors,
destructors and operators are not checked.

Code that only tests reach is library weight that no experiment, example
or benchmark exercises; it is either wired into a real path or deleted.
Each file is tokenized once, so the whole gate runs in about a second.

Exit codes: 0 everything reached, 1 unreached headers or symbols (listed).

Usage:
  check_reachable_modules.py [ROOT]    (ROOT defaults to the repository)
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from pathlib import Path

CONSUMER_DIRS = ("src", "bench", "examples", "fleetbench")
SOURCE_SUFFIXES = {".cpp", ".hpp"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

# Headers exempt from the header pass, each with the reason it may stay
# unreached.
HEADER_ALLOWLIST = {
    "linalg/reference.hpp": "scalar reference kernels that the SIMD "
    "lane-contract tests compare every dispatch backend against",
}

# Functions exempt from the symbol pass, keyed "header:name", each with the
# reason it may stay. Only test hooks and the reference oracles tests check
# production code against belong here. Functions declared in an allowlisted
# header are exempt too.
_ORACLE = "reference oracle: tests check the production kernel against it"
_JSON = "test hook: tests read emitted JSON documents back through it"
_SIMD = "test hook: tests pin and enumerate the SIMD dispatch backends"
_GOLDEN = "test hook: the golden snapshots pin this document byte for byte"
SYMBOL_ALLOWLIST = {
    "dp/mixture_prior.hpp:em_surrogate": _ORACLE + " (test_dp checks the fused "
    "em_surrogate_with_gradient_ws against it bit for bit)",
    "optim/objective.hpp:numerical_gradient": "reference oracle: finite "
    "differences that every analytic gradient is checked against",
    "linalg/matrix.hpp:max_abs_diff": "reference oracle: matrix equality to a "
    "tolerance in the linalg tests",
    "stats/alias_table.hpp:aliases": "reference oracle input: tests rebuild the "
    "table's pmf with linalg::reference::alias_pmf",
    "linalg/simd.hpp:active_backend": _SIMD,
    "linalg/simd.hpp:backend_available": _SIMD,
    "linalg/simd.hpp:backend_name": _SIMD,
    "edgesim/server.hpp:churn_decisions_for_testing": "test hook: pins the "
    "parallel churn pre-pass against the serial decision rule",
    "obs/timeseries.hpp:buffer_allocated": "test hook: pins that a disabled "
    "flight recorder never allocates its ring",
    "obs/metrics.hpp:deterministic_json": _GOLDEN,
    "obs/profiler.hpp:deterministic_json": _GOLDEN,
    "obs/json.hpp:parse": _JSON,
    "obs/json.hpp:contains": _JSON,
    "obs/json.hpp:is_null": _JSON,
    "obs/json.hpp:is_number": _JSON,
}

TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<pp>^[ \t]*\#(?:\\\n|[^\n])*)
    | (?P<raw>R"(?P<delim>[^(\s]*)\(.*?\)(?P=delim)")
    | (?P<string>(?:u8|u|U|L)?"(?:\\.|[^"\\\n])*")
    | (?P<number>\.?\d(?:[eEpP][+-]|'?[\w.])*)
    | (?P<char>(?:u8|u|U|L)?'(?:\\.|[^'\\\n])+')
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<punct>::|->|>>|[^\s\w])
    """,
    re.VERBOSE | re.DOTALL | re.MULTILINE,
)

# Identifiers followed by "(" that never name a declared function.
KEYWORDS = frozenset("""
    alignas alignof asm auto bool case catch char char16_t char32_t char8_t
    class const const_cast consteval constexpr constinit co_await co_return
    co_yield decltype default delete do double dynamic_cast else enum
    explicit export extern false float for friend goto if inline int long
    mutable namespace new noexcept nullptr operator private protected public
    register reinterpret_cast requires return short signed sizeof static
    static_assert static_cast struct switch template this thread_local throw
    true try typedef typeid typename union unsigned using virtual void
    volatile wchar_t while __attribute__ __declspec
""".split())

Token = tuple[str, str]  # (kind, text); kind is "ident" or "punct"


def tokenize(text: str) -> tuple[list[Token], list[str]]:
    """Returns the code tokens and the identifiers of preprocessor lines.

    Comments and string, character and number literals are dropped.
    Directive lines are kept apart: macro bodies can name functions, but
    they hold no declarations.
    """
    tokens: list[Token] = []
    directive_idents: list[str] = []
    for match in TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "delim":  # the raw-string delimiter group closes last
            kind = "raw"
        if kind in ("ident", "punct"):
            tokens.append((kind, match.group()))
        elif kind == "pp":
            body = re.sub(r'"(?:\\.|[^"\\\n])*"|//[^\n]*', " ", match.group())
            directive_idents.extend(re.findall(r"[A-Za-z_]\w*", body))
    return tokens, directive_idents


def _matching_brace(tokens: list[Token], i: int) -> int:
    """Index of the "}" closing the "{" at tokens[i] (len on overrun)."""
    depth = 0
    for j in range(i, len(tokens)):
        text = tokens[j][1]
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(tokens)


class _Statement:
    """Parse state of one declaration at namespace or class scope."""

    def __init__(self) -> None:
        self.paren = 0
        self.angle = 0
        self.bracket = 0
        self.after_eq = False
        self.is_function = False
        self.name_index: int | None = None
        self.operator = False
        self.keyword: str | None = None  # namespace / class / enum / alias
        self.class_name: str | None = None


def parse_declarations(tokens: list[Token]) -> tuple[list[int], set[int]]:
    """Finds the functions a file declares or defines at namespace or class
    scope.

    Returns the token indices of the checked function names (constructors,
    destructors and operators excluded) and the set of every token index
    that is a declaration site: those names, constructor names and the
    parameter names of declarations. Function bodies are skipped; only
    their calls are uses.
    """
    names: list[int] = []
    sites: set[int] = set()
    classes: list[str | None] = [None]  # enclosing class per open scope
    stmt = _Statement()
    i = 0
    n = len(tokens)
    while i < n:
        kind, text = tokens[i]
        prev = tokens[i - 1] if i else ("punct", "")
        if stmt.operator and text != "(":
            i += 1
            continue
        if text == "{" and stmt.paren == 0:
            if stmt.keyword == "namespace" or (stmt.keyword is None and prev[1] == "extern"):
                classes.append(None)
                stmt = _Statement()
            elif stmt.is_function and not stmt.after_eq:
                if stmt.name_index is not None:
                    names.append(stmt.name_index)
                i = _matching_brace(tokens, i)
                stmt = _Statement()
            elif stmt.keyword == "class":
                classes.append(stmt.class_name)
                stmt = _Statement()
            else:  # enum body, braced initializer
                i = _matching_brace(tokens, i)
            i += 1
            continue
        if text == "}" and stmt.paren == 0:
            if len(classes) > 1:
                classes.pop()
            stmt = _Statement()
            i += 1
            continue
        if text == ";" and stmt.paren == 0:
            if stmt.is_function and stmt.name_index is not None:
                names.append(stmt.name_index)
            stmt = _Statement()
            i += 1
            continue
        if text == "(":
            if stmt.operator:
                stmt.operator = False
                if i + 1 < n and tokens[i + 1][1] == ")":  # operator()
                    i += 2
                    continue
            elif (stmt.paren == 0 and stmt.angle == 0 and stmt.bracket == 0
                  and not stmt.after_eq and not stmt.is_function
                  and stmt.keyword not in ("alias", "namespace")
                  and prev[0] == "ident" and prev[1] not in KEYWORDS):
                stmt.is_function = True
                before = tokens[i - 2][1] if i >= 2 else ""
                qualifier = tokens[i - 3][1] if i >= 3 and before == "::" else None
                sites.add(i - 1)
                is_ctor = before == "~" or prev[1] == classes[-1] or prev[1] == qualifier
                if not is_ctor:
                    stmt.name_index = i - 1
            stmt.paren += 1
        elif text == ")":
            stmt.paren -= 1
        elif stmt.paren > 0:
            # A parameter name: an identifier that ends a parameter
            # declarator inside the parameter list.
            if (kind == "ident" and stmt.is_function and stmt.paren == 1
                    and i + 1 < n and tokens[i + 1][1] in (",", ")", "=", "[")
                    and (prev[0] == "ident" or prev[1] in ("&", "*", ">"))):
                sites.add(i)
        elif text == "[":
            stmt.bracket += 1
        elif text == "]":
            stmt.bracket -= 1
        elif text == "<" and prev[0] == "ident" and not stmt.after_eq:
            stmt.angle += 1
        elif text == ">" and stmt.angle:
            stmt.angle -= 1
        elif text == ">>" and stmt.angle:
            stmt.angle = max(0, stmt.angle - 2)
        elif text == "=" and stmt.angle == 0 and stmt.bracket == 0:
            stmt.after_eq = True
        elif kind == "ident" and stmt.angle == 0:
            if text == "operator":
                stmt.operator = True
                stmt.is_function = True
                stmt.name_index = None
            elif text == "namespace" and stmt.keyword != "alias":
                stmt.keyword = "namespace"
            elif text in ("class", "struct", "union") and stmt.keyword is None:
                stmt.keyword = "class"
            elif text == "enum" and stmt.keyword is None:
                stmt.keyword = "enum"
            elif text in ("using", "typedef"):
                stmt.keyword = "alias"
            elif stmt.keyword == "class" and text not in KEYWORDS and text != "final":
                if stmt.class_name is None:
                    stmt.class_name = text
        i += 1
    return names, sites


def scan(root: Path) -> tuple[list[str], list[str]]:
    """Returns (unreached headers, unreached "header:name" symbols)."""
    src = root / "src"
    headers = {p.relative_to(src).as_posix() for p in src.rglob("*.hpp")}
    reached: set[str] = set()
    uses: Counter[str] = Counter()
    declared: dict[str, set[str]] = {}  # name -> headers declaring it
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
            tokens, directive_idents = tokenize(text)
            names, sites = parse_declarations(tokens)
            uses.update(directive_idents)
            uses.update(tok[1] for j, tok in enumerate(tokens)
                        if tok[0] == "ident" and j not in sites)
            if path.suffix == ".hpp" and directory == "src":
                header = path.relative_to(src).as_posix()
                for j in names:
                    declared.setdefault(tokens[j][1], set()).add(header)
    unreached_symbols = sorted(f"{header}:{name}"
                               for name, owners in declared.items() if not uses[name]
                               for header in owners if header not in HEADER_ALLOWLIST)
    return sorted(headers - reached), unreached_symbols


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    unreached_headers, unreached_symbols = scan(root)
    header_failures = [h for h in unreached_headers if h not in HEADER_ALLOWLIST]
    symbol_failures = [s for s in unreached_symbols if s not in SYMBOL_ALLOWLIST]
    for header in unreached_headers:
        if header in HEADER_ALLOWLIST:
            print(f"allowlisted: src/{header} ({HEADER_ALLOWLIST[header]})")
    for symbol in unreached_symbols:
        if symbol in SYMBOL_ALLOWLIST:
            print(f"allowlisted: src/{symbol} ({SYMBOL_ALLOWLIST[symbol]})")
    for header in header_failures:
        print(f"UNREACHED: src/{header} is included by nothing outside tests/ and its own .cpp")
    for symbol in symbol_failures:
        print(f"UNREACHED: src/{symbol} is named by no non-test code beyond its "
              "declaration and definition")
    consumers = ", ".join(d + "/" for d in CONSUMER_DIRS)
    if header_failures:
        print(f"check_reachable_modules: {len(header_failures)} header(s) reached by no "
              f"file in {consumers}; delete the module or wire it into a real path")
    if symbol_failures:
        print(f"check_reachable_modules: {len(symbol_failures)} function(s) named by no "
              f"file in {consumers}; delete them or wire them into a real path")
    if header_failures or symbol_failures:
        return 1
    print("check_reachable_modules: every src/ header and declared function is reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
