"""The repro-lint suite linting itself: fixture modules under
``tests/fixtures/lint/`` seed one violation per rule (plus a clean
twin); these tests pin the exact codes and positions, the CLI surface,
and — the acceptance bar — that the real tree lints clean."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import CHECKERS, run_lint
from repro.analysis.cli import main as lint_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = "tests/fixtures/lint"


def lint(*paths):
    return run_lint(ROOT, paths)


def findings(*paths):
    return [(d.path, d.line, d.col, d.code) for d in lint(*paths).diagnostics]


# ----------------------------------------------------------------------
# one seeded violation per rule, exact code and position
# ----------------------------------------------------------------------
class TestSeededViolations:
    def test_same_class_reader_path_mutation_is_rl006(self):
        # reported at the read-locked call that reaches the helper's write
        assert findings(f"{FIXTURES}/rl001_bad.py") == [
            (f"{FIXTURES}/rl001_bad.py", 16, 20, "RL006")
        ]

    def test_same_class_message_names_the_call_chain(self):
        (diag,) = lint(f"{FIXTURES}/rl001_bad.py").diagnostics
        assert "'lookup'" in diag.message
        assert "'_fetch'" in diag.message
        assert "'self._cache'" in diag.message

    def test_rl004_lock_closure_and_blocking_call(self):
        # the direct blocking call on line 17 moved to RL008's
        # jurisdiction when the transitive check subsumed RL004's
        assert findings(f"{FIXTURES}/rl004_bad.py") == [
            (f"{FIXTURES}/rl004_bad.py", 8, 8, "RL004"),
            (f"{FIXTURES}/rl004_bad.py", 13, 44, "RL004"),
            (f"{FIXTURES}/rl004_bad.py", 17, 5, "RL008"),
        ]

    @pytest.mark.parametrize(
        "twin",
        [
            "rl001_clean.py",
            "rl004_clean.py",
            "rl006_clean.py",
            "rl006_release_clean.py",
            "rl008_clean.py",
        ],
    )
    def test_clean_twins(self, twin):
        assert findings(f"{FIXTURES}/{twin}") == []

    def test_each_violation_is_nonzero_exit(self):
        for bad in (
            "rl001_bad.py",
            "rl004_bad.py",
            "rl006_bad.py",
            "rl006_direct_bad.py",
            "rl006_try_bad.py",
            "rl008_bad.py",
        ):
            assert lint(f"{FIXTURES}/{bad}").exit_code == 1


# ----------------------------------------------------------------------
# the flow-sensitive rules: call graph + CFG dataflow
# ----------------------------------------------------------------------
class TestFlowRules:
    def test_rl006_all_four_violation_shapes(self):
        assert findings(f"{FIXTURES}/rl006_bad.py") == [
            (f"{FIXTURES}/rl006_bad.py", 31, 17, "RL006"),
            (f"{FIXTURES}/rl006_bad.py", 37, 17, "RL006"),
            (f"{FIXTURES}/rl006_bad.py", 41, 20, "RL006"),
            (f"{FIXTURES}/rl006_bad.py", 46, 18, "RL006"),
        ]

    def test_rl006_messages_name_the_chain_and_the_lock(self):
        mutate, upgrade_chain, fork, upgrade = lint(
            f"{FIXTURES}/rl006_bad.py"
        ).diagnostics
        assert "'warm_cache'" in mutate.message
        assert "'self._cache'" in mutate.message
        assert "'rebuild'" in upgrade_chain.message
        assert "write lock" in upgrade_chain.message
        assert "ProcessPoolExecutor" in fork.message
        assert "upgrading the read lock" in upgrade.message
        assert "'self._lock'" in upgrade.message

    def test_rl006_covers_the_non_blocking_acquire(self):
        path = f"{FIXTURES}/rl006_try_bad.py"
        assert findings(path) == [
            (path, 21, 13, "RL006"),
            (path, 28, 16, "RL006"),
        ]
        mutate, reentrant = lint(path).diagnostics
        assert "'remember'" in mutate.message
        assert "'self._seen.add()'" in mutate.message
        assert "re-acquiring the read lock" in reentrant.message

    def test_rl006_flags_direct_writes_in_a_read_region(self):
        path = f"{FIXTURES}/rl006_direct_bad.py"
        assert findings(path) == [
            (path, 15, 13, "RL006"),
            (path, 16, 13, "RL006"),
            (path, 22, 13, "RL006"),
        ]
        augmented, mutator, imperative = lint(path).diagnostics
        assert "'count'" in augmented.message
        assert "'self._n'" in augmented.message
        assert "'self._seen.add()'" in mutator.message
        assert "'bump'" in imperative.message
        assert "read lock" in imperative.message

    def test_rl006_exempts_the_locks_own_release(self):
        # read_locked() -> release_read() updates the reader count under
        # the lock's own condition variable; RWLock itself has the shape
        assert findings(f"{FIXTURES}/rl006_release_clean.py") == []
        assert findings("src/repro/api/locks.py") == []

    def test_rl008_transitive_and_direct_blocking(self):
        assert findings(f"{FIXTURES}/rl008_bad.py") == [
            (f"{FIXTURES}/rl008_bad.py", 22, 12, "RL008"),
            (f"{FIXTURES}/rl008_bad.py", 26, 5, "RL008"),
        ]
        transitive, direct = lint(f"{FIXTURES}/rl008_bad.py").diagnostics
        assert "'load_page -> fetch_rows'" in transitive.message
        assert "sqlite3.connect" in transitive.message
        assert "time.sleep" in direct.message


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
RULES = ["RL002", "RL004", "RL006", "RL008"]


class TestRegistry:
    def test_registry_has_the_four_rules(self):
        assert sorted(CHECKERS) == RULES

    def test_every_run_runs_every_rule(self):
        assert lint(f"{FIXTURES}/rl006_clean.py").rules == tuple(RULES)


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert lint_main([f"{FIXTURES}/rl006_clean.py"]) == 0
        assert lint_main([f"{FIXTURES}/rl006_bad.py"]) == 1
        assert lint_main([f"{FIXTURES}/no_such_fixture.py"]) == 2

    def test_text_output_is_ruff_style(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        lint_main([f"{FIXTURES}/rl006_bad.py"])
        out = capsys.readouterr().out
        assert f"{FIXTURES}/rl006_bad.py:31:17 RL006 " in out
        assert out.splitlines()[-1] == "4 finding(s), 1 file(s) scanned"

    def test_json_output_shape(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        lint_main(["--output", "json", f"{FIXTURES}/rl004_bad.py"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert [f["code"] for f in payload["findings"]] == [
            "RL004",
            "RL004",
            "RL008",
        ]
        assert payload["findings"][0]["line"] == 8
        assert payload["stats"]["findings_by_code"] == {"RL004": 2, "RL008": 1}

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_github_actions_mirrors_findings_to_stderr(
        self, monkeypatch, capsys, output
    ):
        monkeypatch.chdir(ROOT)
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        lint_main(["--output", output, f"{FIXTURES}/rl006_bad.py"])
        err = capsys.readouterr().err
        assert (
            f"::error file={FIXTURES}/rl006_bad.py,line=31,col=17,title=RL006::"
            in err
        )
        assert len(err.splitlines()) == 4

    def test_no_mirror_outside_github_actions(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
        lint_main([f"{FIXTURES}/rl006_bad.py"])
        assert capsys.readouterr().err == ""

    def test_stats_mode_emits_machine_readable_summary(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(ROOT)
        lint_main(["--stats", f"{FIXTURES}/rl001_bad.py"])
        stats = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert stats == {
            "files_scanned": 1,
            "rules": RULES,
            "findings": 1,
            "findings_by_code": {"RL006": 1},
        }

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in CHECKERS:
            assert code in out

    @pytest.mark.parametrize(
        "flag",
        [
            ["--select", "RL006"],
            ["--ignore", "RL006"],
            ["--cache-dir", "lint-cache"],
            ["--no-cache"],
            ["--output", "github"],
        ],
        ids=lambda flag: flag[0] + (f"={flag[1]}" if len(flag) > 1 else ""),
    )
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([*flag, "--list-rules"])
        assert excinfo.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "RL006" in proc.stdout

    def test_repro_audit_has_no_lint_subcommand(self, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", "--", "--list-rules"])
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# the acceptance bar: the shipped tree is clean
# ----------------------------------------------------------------------
class TestRealTree:
    def test_src_lints_clean(self):
        result = lint()  # default path: src
        assert result.diagnostics == ()
        assert result.exit_code == 0
        assert result.files_scanned > 80

    def test_discovery_skips_the_seeded_fixtures(self):
        result = lint("tests")
        assert all(FIXTURES not in d.path for d in result.diagnostics)


# ----------------------------------------------------------------------
# typed errors on the wire tier (ruff's E722/BLE001/TRY002 in CI)
# ----------------------------------------------------------------------
WIRE_TIER = ("src/repro/server", "src/repro/api", "src/repro/client")


def untyped_error_sites(source):
    """``(line, what)`` for every bare ``except:`` and every ``raise
    Exception``/``raise BaseException``, called or not."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append((node.lineno, "bare except"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in (
                "Exception",
                "BaseException",
            ):
                out.append((node.lineno, f"raise {exc.id}"))
    return out


class TestWireTierErrors:
    @pytest.mark.parametrize("package", WIRE_TIER)
    def test_no_bare_except_or_untyped_raise(self, package):
        sites = [
            (path.relative_to(ROOT).as_posix(), line, what)
            for path in sorted(Path(ROOT, package).rglob("*.py"))
            for line, what in untyped_error_sites(path.read_text("utf-8"))
        ]
        assert sites == []

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("try:\n    f()\nexcept:\n    pass\n", [(3, "bare except")]),
            ("raise Exception('boom')\n", [(1, "raise Exception")]),
            ("raise BaseException\n", [(1, "raise BaseException")]),
            (
                "try:\n    f()\nexcept Exception as exc:\n"
                "    raise TypedError(str(exc)) from exc\n",
                [],
            ),
        ],
        ids=["bare-except", "raise-exception", "raise-base", "typed"],
    )
    def test_the_check_sees_each_shape(self, source, expected):
        assert untyped_error_sites(source) == expected
