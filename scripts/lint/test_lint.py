#!/usr/bin/env python3
"""Pytest-style test runner for kronlab_lint (stdlib unittest under the
hood so it needs no third-party packages; `python3 -m pytest` also
collects it).  Wired into ctest as `test_lint`.

Covers:
  * --self-test passes (every fixture trips exactly its expected rules);
  * each fixture, linted directly, exits non-zero;
  * the real tree exits zero (the invariants hold on HEAD);
  * the compile-database entry point works when a build dir exists;
  * the allow() escape hatch suppresses only the named rule;
  * tmp-path is scoped to tests/ and to string literals.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT_DIR = Path(__file__).resolve().parent
LINT = SCRIPT_DIR / "kronlab_lint.py"
REPO = SCRIPT_DIR.parent.parent
FIXTURES = SCRIPT_DIR / "fixtures"
CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


class TestSelfTest(unittest.TestCase):
    def test_self_test_passes(self):
        r = run_lint("--self-test")
        self.assertEqual(r.returncode, 0, msg=r.stdout + r.stderr)
        self.assertIn("fixtures OK", r.stdout)


class TestFixturesAreFlagged(unittest.TestCase):
    """Every fixture must make the lint exit non-zero on its own.

    Fixtures declare a virtual path (LINT-AS) for path-scoped rules; when
    linted directly we pass --root so the relative path falls outside every
    scoped root, so only path-independent rules apply — we therefore lint
    via --self-test semantics here and only assert direct non-zero exit for
    fixtures whose rules are path-independent.
    """

    def test_each_fixture_trips_lint(self):
        fixtures = sorted(
            f for f in FIXTURES.iterdir() if f.suffix in CXX_SUFFIXES
        )
        self.assertGreaterEqual(len(fixtures), 8, "fixture set went missing")
        r = run_lint("--self-test")
        self.assertEqual(r.returncode, 0, msg=r.stdout + r.stderr)
        for f in fixtures:
            with self.subTest(fixture=f.name):
                self.assertIn(f"{f.name}: OK", r.stdout)

    def test_fixture_dir_lint_is_nonzero(self):
        # Linting the fixture dir as real code (header rules always apply,
        # and the naked-new/span rules are path-independent) must fail.
        r = run_lint(str(FIXTURES), "--root", str(REPO))
        self.assertEqual(r.returncode, 1, msg=r.stdout + r.stderr)


class TestRealTreeIsClean(unittest.TestCase):
    def test_tree_scan_clean(self):
        r = run_lint()
        self.assertEqual(r.returncode, 0, msg=r.stdout + r.stderr)
        self.assertIn("clean", r.stdout)

    def test_compdb_scan_clean_when_available(self):
        compdb = None
        for cand in sorted(REPO.glob("build*/compile_commands.json")):
            compdb = cand
            break
        if compdb is None:
            self.skipTest("no compile_commands.json in any build dir")
        r = run_lint("--compdb", str(compdb))
        self.assertEqual(r.returncode, 0, msg=r.stdout + r.stderr)


class TestEscapeHatch(unittest.TestCase):
    def test_allow_suppresses_only_named_rule(self):
        fixture = FIXTURES / "allow_escape.cpp"
        text = fixture.read_text()
        self.assertIn("kronlab-lint: allow(naked-new)", text)
        # The fixture still expects naked-new overall (the unmarked site).
        self.assertIn("LINT-EXPECT: naked-new", text)
        r = run_lint("--self-test")
        self.assertIn("allow_escape.cpp: OK", r.stdout)


class TestRuleInteractions(unittest.TestCase):
    """Multiple rules in one file, including two on the same line where an
    allow() marker names only one — suppression is per-rule, not per-line."""

    def test_multi_rule_fixture_expectations(self):
        text = (FIXTURES / "multi_rule.cpp").read_text()
        for rule in ("naked-new", "no-endl", "no-assert"):
            self.assertIn(f"LINT-EXPECT: {rule}", text)
        r = run_lint("--self-test")
        self.assertEqual(r.returncode, 0, msg=r.stdout + r.stderr)
        self.assertIn("multi_rule.cpp: OK", r.stdout)

    def test_allowed_rule_does_not_shield_other_rule_on_same_line(self):
        # Lint under the fixture's virtual src/ path and look at the
        # allow(naked-new) line itself: its naked-new is suppressed, its
        # no-endl is not.
        sys.path.insert(0, str(SCRIPT_DIR))
        import kronlab_lint

        fixture = FIXTURES / "multi_rule.cpp"
        marked_line = next(
            i for i, line in enumerate(fixture.read_text().splitlines(), 1)
            if "STILL fires" in line
        )
        findings = kronlab_lint.lint_file(
            fixture, "src/kronlab/obs/multi_fixture.cpp"
        )
        rules_on_line = {f.rule for f in findings if f.line == marked_line}
        self.assertIn("no-endl", rules_on_line)
        self.assertNotIn("naked-new", rules_on_line)

    def test_direct_lint_suppresses_only_marked_site(self):
        # Outside src/ only path-independent rules apply: the unmarked
        # `new` fires, the allow-marked one stays quiet.
        r = run_lint(str(FIXTURES / "multi_rule.cpp"), "--root", str(REPO))
        self.assertEqual(r.returncode, 1, msg=r.stdout + r.stderr)
        self.assertEqual(r.stdout.count("[naked-new]"), 1, msg=r.stdout)

    def test_allow_marker_on_wrong_line_does_not_suppress(self):
        # The marker window is the finding's line and the line directly
        # above; two lines up must NOT suppress.
        with tempfile.TemporaryDirectory() as td:
            p = Path(td) / "wrong_line.cpp"
            p.write_text(
                "// kronlab-lint: allow(naked-new) marker is too far up\n"
                "\n"
                "int* make() { return new int(7); }\n"
            )
            r = run_lint(str(p), "--root", str(REPO))
            self.assertEqual(r.returncode, 1, msg=r.stdout + r.stderr)
            self.assertIn("naked-new", r.stdout)

    def test_allow_marker_directly_above_does_suppress(self):
        with tempfile.TemporaryDirectory() as td:
            p = Path(td) / "right_line.cpp"
            p.write_text(
                "// kronlab-lint: allow(naked-new) placement control\n"
                "int* make() { return new int(7); }\n"
            )
            r = run_lint(str(p), "--root", str(REPO))
            self.assertEqual(r.returncode, 0, msg=r.stdout + r.stderr)


class TestTmpPathRule(unittest.TestCase):
    """tmp-path flags a "/tmp literal in tests/ only, and only inside a
    string: comments that mention /tmp paths stay quiet."""

    def findings(self, rel: str):
        sys.path.insert(0, str(SCRIPT_DIR))
        import kronlab_lint

        return kronlab_lint.lint_file(FIXTURES / "tmp_path.cpp", rel)

    def test_fires_once_on_the_unmarked_literal(self):
        hits = [f for f in self.findings("tests/test_tmp.cpp")
                if f.rule == "tmp-path"]
        self.assertEqual(len(hits), 1, msg=[str(f) for f in hits])
        line = (FIXTURES / "tmp_path.cpp").read_text().splitlines()[
            hits[0].line - 1]
        self.assertIn("rule fires", line)

    def test_scoped_to_tests(self):
        self.assertEqual(
            [f for f in self.findings("src/kronlab/io/x.cpp")
             if f.rule == "tmp-path"], [])


class TestAnalyzerSelfTest(unittest.TestCase):
    """kronlab_analyze's fixture battery, reachable from the same runner so
    `python3 scripts/lint/test_lint.py` covers both static-analysis tools."""

    def test_analyze_self_test_passes(self):
        analyze = REPO / "scripts" / "analyze" / "kronlab_analyze.py"
        r = subprocess.run(
            [sys.executable, str(analyze), "--self-test"],
            capture_output=True, text=True, cwd=REPO,
        )
        self.assertEqual(r.returncode, 0, msg=r.stdout + r.stderr)
        self.assertIn("0 failure(s)", r.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
