#!/usr/bin/env python3
"""Unit tests for scripts/check_reachable_modules.py (the dead-code gate).

Builds small fixture trees (src/, bench/, tests/) in a temporary directory
and runs the script on them as a subprocess, so the exit-code contract
(0 everything reached, 1 something unreached) is what gets pinned. Wired
into ctest by tests/CMakeLists.txt as `reachable_modules_selftest`.
"""

import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "check_reachable_modules.py")

WIDGET_HPP = """\
#pragma once
namespace demo {
int used_free(int x);
int internal_helper(int x);
class Widget {
 public:
    explicit Widget(int value) : value_(value) {}
    int used_method() const;
    int inline_used() const { return value_; }
 private:
    int value_ = 0;
};
}  // namespace demo
"""

WIDGET_CPP = """\
#include "lib/widget.hpp"
namespace demo {
int internal_helper(int x) { return 2 * x; }
int used_free(int x) { return internal_helper(x) + 1; }
int Widget::used_method() const { return used_free(value_); }
}  // namespace demo
"""

BENCH_MAIN = """\
#include "lib/widget.hpp"
int main() {
    const demo::Widget w(3);
    return w.used_method() + w.inline_used() + demo::used_free(1);
}
"""


class ReachableModulesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.root = self.tmp.name
        self.files = {
            "src/lib/widget.hpp": WIDGET_HPP,
            "src/lib/widget.cpp": WIDGET_CPP,
            "bench/main.cpp": BENCH_MAIN,
            "tests/test_widget.cpp": '#include "lib/widget.hpp"\n',
        }

    def add(self, path, text):
        """Appends `text` to a fixture file (creating it if needed)."""
        self.files[path] = self.files.get(path, "") + textwrap.dedent(text)

    def declare(self, declaration):
        """Adds a declaration inside the Widget class or the namespace."""
        header = self.files["src/lib/widget.hpp"]
        if declaration.startswith("    "):
            marker = " private:\n"
        else:
            marker = "class Widget {\n"
        self.files["src/lib/widget.hpp"] = header.replace(marker, declaration + marker, 1)

    def run_gate(self):
        for path, text in self.files.items():
            full = os.path.join(self.root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(text)
        return subprocess.run([sys.executable, SCRIPT, self.root],
                              capture_output=True, text=True)

    def assert_unreached(self, result, *symbols):
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        for symbol in symbols:
            self.assertIn(f"UNREACHED: src/{symbol} ", result.stdout)

    def test_fixture_passes(self):
        result = self.run_gate()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("every src/ header and declared function is reached", result.stdout)

    def test_test_only_free_function_fails(self):
        self.declare("int test_only_free(int x);\n")
        self.add("src/lib/widget.cpp", "int demo::test_only_free(int x) { return x; }\n")
        self.add("tests/test_widget.cpp", "int t() { return demo::test_only_free(1); }\n")
        self.assert_unreached(self.run_gate(), "lib/widget.hpp:test_only_free")

    def test_test_only_method_fails(self):
        self.declare("    int test_only_method() const;\n")
        self.add("src/lib/widget.cpp",
                 "int demo::Widget::test_only_method() const { return value_; }\n")
        self.add("tests/test_widget.cpp",
                 "int t() { return demo::Widget(1).test_only_method(); }\n")
        self.assert_unreached(self.run_gate(), "lib/widget.hpp:test_only_method")

    def test_inline_header_accessor_fails(self):
        self.declare("    int peek() const noexcept { return value_; }\n")
        self.assert_unreached(self.run_gate(), "lib/widget.hpp:peek")

    def test_name_in_comment_or_string_only_fails(self):
        self.declare("int in_comment();\nint in_string();\nint in_raw_string();\n")
        self.add("bench/main.cpp", """\
            // in_comment() used to be called here.
            /* in_comment(); */
            const char* kLabel = "in_string()";
            const char* kRaw = R"x(in_raw_string())x";
            """)
        self.assert_unreached(self.run_gate(), "lib/widget.hpp:in_comment",
                              "lib/widget.hpp:in_string", "lib/widget.hpp:in_raw_string")

    def test_parameter_name_does_not_reach_a_function(self):
        self.declare("int gain();\n")
        self.add("bench/main.cpp", "int scaled(int gain, int offset = 0);\n")
        self.assert_unreached(self.run_gate(), "lib/widget.hpp:gain")

    def test_function_called_inside_its_own_cpp_passes(self):
        # internal_helper is named only by widget.cpp; used_free calls it.
        result = self.run_gate()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("internal_helper", result.stdout)

    def test_allowlisted_hook_passes(self):
        self.files["src/edgesim/server.hpp"] = textwrap.dedent("""\
            #pragma once
            const int& churn_decisions_for_testing();
            """)
        self.add("bench/main.cpp", '#include "edgesim/server.hpp"\n')
        result = self.run_gate()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("allowlisted: src/edgesim/server.hpp:churn_decisions_for_testing",
                      result.stdout)

    def test_header_included_only_by_tests_fails(self):
        self.files["src/lib/orphan.hpp"] = "#pragma once\nint orphan_value();\n"
        self.files["src/lib/orphan.cpp"] = (
            '#include "lib/orphan.hpp"\nint orphan_value() { return 1; }\n')
        self.add("tests/test_widget.cpp",
                 '#include "lib/orphan.hpp"\nint u() { return orphan_value(); }\n')
        result = self.run_gate()
        self.assert_unreached(result, "lib/orphan.hpp:orphan_value")
        self.assertIn("UNREACHED: src/lib/orphan.hpp is included by nothing", result.stdout)


if __name__ == "__main__":
    unittest.main()
