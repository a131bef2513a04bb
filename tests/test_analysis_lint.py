"""The repro-lint suite linting itself: fixture modules under
``tests/fixtures/lint/`` seed one violation per rule (plus a clean
twin); these tests pin the exact codes and positions, the suppression
comment, the CLI surface, and — the acceptance bar — that the real
tree lints clean."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import CHECKERS, run_lint
from repro.analysis.cli import main as lint_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = "tests/fixtures/lint"


def lint(*paths, **kwargs):
    return run_lint(ROOT, tuple(paths), **kwargs)


def findings(*paths, **kwargs):
    return [
        (d.path, d.line, d.col, d.code)
        for d in lint(*paths, **kwargs).diagnostics
    ]


# ----------------------------------------------------------------------
# one seeded violation per rule, exact code and position
# ----------------------------------------------------------------------
class TestSeededViolations:
    def test_rl001_reader_path_mutation(self):
        assert findings(f"{FIXTURES}/rl001_bad.py") == [
            (f"{FIXTURES}/rl001_bad.py", 20, 13, "RL001")
        ]

    def test_rl001_message_names_the_call_chain(self):
        (diag,) = lint(f"{FIXTURES}/rl001_bad.py").diagnostics
        assert "'lookup'" in diag.message
        assert "'_fetch'" in diag.message
        assert "'self._cache'" in diag.message

    def test_rl003_swallow_and_bare_raise(self):
        assert findings(f"{FIXTURES}/rl003_bad.py") == [
            (f"{FIXTURES}/rl003_bad.py", 7, 5, "RL003"),
            (f"{FIXTURES}/rl003_bad.py", 12, 5, "RL003"),
        ]

    def test_rl004_lock_closure_and_blocking_call(self):
        # the direct blocking call on line 16 moved to RL008's
        # jurisdiction when the transitive check subsumed RL004's
        assert findings(f"{FIXTURES}/rl004_bad.py") == [
            (f"{FIXTURES}/rl004_bad.py", 7, 8, "RL004"),
            (f"{FIXTURES}/rl004_bad.py", 12, 22, "RL004"),
            (f"{FIXTURES}/rl004_bad.py", 16, 5, "RL008"),
        ]

    def test_rl005_missing_envelope_and_smoke(self):
        result = lint(f"{FIXTURES}/bench_rl005_bad.py")
        assert [
            (d.line, d.col, d.code) for d in result.diagnostics
        ] == [(1, 1, "RL005"), (1, 1, "RL005")]
        blob = " ".join(d.message for d in result.diagnostics)
        assert "REPRO_BENCH_SMOKE" in blob
        assert "benchlib" in blob

    @pytest.mark.parametrize(
        "twin",
        [
            "rl001_clean.py",
            "rl003_clean.py",
            "rl004_clean.py",
            "bench_rl005_clean.py",
            "rl006_clean.py",
            "rl007_clean.py",
            "rl008_clean.py",
        ],
    )
    def test_clean_twins(self, twin):
        assert findings(f"{FIXTURES}/{twin}") == []

    def test_each_violation_is_nonzero_exit(self):
        for bad in (
            "rl001_bad.py",
            "rl003_bad.py",
            "rl004_bad.py",
            "bench_rl005_bad.py",
            "rl006_bad.py",
            "rl007_bad.py",
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
            f"{FIXTURES}/rl006_bad.py", select=frozenset({"RL006"})
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

    def test_rl007_taint_reaches_every_sink_spelling(self):
        assert findings(f"{FIXTURES}/rl007_bad.py") == [
            (f"{FIXTURES}/rl007_bad.py", 6, 18, "RL007"),
            (f"{FIXTURES}/rl007_bad.py", 11, 24, "RL007"),
            (f"{FIXTURES}/rl007_bad.py", 15, 20, "RL007"),
            (f"{FIXTURES}/rl007_bad.py", 19, 22, "RL007"),
        ]

    def test_rl007_message_points_at_the_fix(self):
        diag = lint(f"{FIXTURES}/rl007_bad.py").diagnostics[0]
        assert "quote_ident()" in diag.message
        assert "parameters" in diag.message

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
# suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    def test_coded_and_bare_ignores_silence_wrong_code_does_not(self):
        result = lint(f"{FIXTURES}/suppressed.py")
        assert [(d.line, d.code) for d in result.diagnostics] == [(21, "RL003")]
        assert result.suppressed == 2

    def test_suppressed_findings_do_not_fail_the_run(self):
        result = lint(f"{FIXTURES}/suppressed.py", select=frozenset({"RL001"}))
        assert result.exit_code == 0

    def test_ignore_for_the_wrong_code_is_reported_unused(self):
        result = lint(f"{FIXTURES}/suppressed.py")
        assert result.unused_suppressions == (
            (f"{FIXTURES}/suppressed.py", 21, "RL001"),
        )

    def test_unused_suppressions_never_affect_the_exit_code(self):
        # With only RL001 active, nothing fires: the bare ignore and the
        # RL001-coded ignore both silence nothing, yet the run is clean.
        result = lint(f"{FIXTURES}/suppressed.py", select=frozenset({"RL001"}))
        assert result.unused_suppressions == (
            (f"{FIXTURES}/suppressed.py", 14, ""),
            (f"{FIXTURES}/suppressed.py", 21, "RL001"),
        )
        assert result.exit_code == 0

    def test_coded_ignore_for_an_inactive_rule_is_not_judged(self):
        # ignore[RL001] cannot be called unused by a run that never ran
        # RL001; the bare/RL003 ignores are used by the RL003 findings.
        result = lint(f"{FIXTURES}/suppressed.py", select=frozenset({"RL003"}))
        assert result.unused_suppressions == ()

    def test_doc_mentions_of_the_syntax_are_not_suppressions(self):
        # The linter's own diagnostics module *documents* the ignore
        # comment in docstrings and doc-comments; only genuine comment
        # tokens opening with the directive may count.
        result = lint("src/repro/analysis/diagnostics.py")
        assert result.unused_suppressions == ()
        assert result.suppressed == 0


# ----------------------------------------------------------------------
# the incremental result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_warm_hit_reproduces_the_result_without_parsing(
        self, tmp_path, monkeypatch
    ):
        cdir = tmp_path / "cache"
        cold = lint(f"{FIXTURES}/rl003_bad.py", cache_dir=cdir)
        assert cold.diagnostics

        from repro.analysis.project import Project

        def no_parse(self, rel, explicit):  # pragma: no cover - must not run
            raise AssertionError("a cache hit must not parse any file")

        monkeypatch.setattr(Project, "_parse", no_parse)
        warm = lint(f"{FIXTURES}/rl003_bad.py", cache_dir=cdir)
        assert warm == cold

    def test_editing_a_file_invalidates_the_entry(self, tmp_path):
        mod = tmp_path / "src" / "broken.py"
        mod.parent.mkdir()
        mod.write_text("def f(:\n", encoding="utf-8")
        cdir = tmp_path / ".cache"

        first = run_lint(tmp_path, ("src/broken.py",), cache_dir=cdir)
        assert [d.code for d in first.diagnostics] == ["RL000"]
        assert run_lint(tmp_path, ("src/broken.py",), cache_dir=cdir) == first

        mod.write_text("def f():\n    return 1\n", encoding="utf-8")
        fixed = run_lint(tmp_path, ("src/broken.py",), cache_dir=cdir)
        assert fixed.diagnostics == ()

    def test_rule_selection_is_part_of_the_key(self, tmp_path):
        cdir = tmp_path / "cache"
        full = lint(f"{FIXTURES}/rl003_bad.py", cache_dir=cdir)
        narrow = lint(
            f"{FIXTURES}/rl003_bad.py",
            select=frozenset({"RL001"}),
            cache_dir=cdir,
        )
        assert full.diagnostics and not narrow.diagnostics

    def test_corrupt_entry_is_treated_as_a_miss(self, tmp_path):
        cdir = tmp_path / "cache"
        cold = lint(f"{FIXTURES}/rl003_bad.py", cache_dir=cdir)
        for entry in cdir.glob("*.json"):
            entry.write_text("not json", encoding="utf-8")
        rerun = lint(f"{FIXTURES}/rl003_bad.py", cache_dir=cdir)
        assert rerun == cold


# ----------------------------------------------------------------------
# select / ignore / registry
# ----------------------------------------------------------------------
class TestRuleSelection:
    def test_registry_has_the_eight_rules(self):
        assert sorted(CHECKERS) == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        ]

    def test_select_restricts(self):
        result = lint(f"{FIXTURES}/rl003_bad.py", select=frozenset({"RL001"}))
        assert result.diagnostics == ()
        assert result.rules == ("RL001",)

    def test_ignore_drops(self):
        result = lint(f"{FIXTURES}/rl003_bad.py", ignore=frozenset({"RL003"}))
        assert result.diagnostics == ()

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="RL999"):
            lint(f"{FIXTURES}/rl003_bad.py", select=frozenset({"RL999"}))


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture(autouse=True)
    def _cache_in_tmp(self, tmp_path, monkeypatch):
        """Keep the default-on result cache out of the real checkout."""
        monkeypatch.setattr(
            "repro.analysis.cli.DEFAULT_CACHE_DIR", str(tmp_path / "cache")
        )

    def test_exit_codes(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert lint_main([f"{FIXTURES}/rl003_clean.py"]) == 0
        assert lint_main([f"{FIXTURES}/rl003_bad.py"]) == 1
        assert lint_main(["--select", "NOPE"]) == 2

    def test_text_output_is_ruff_style(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        lint_main([f"{FIXTURES}/rl003_bad.py"])
        out = capsys.readouterr().out
        assert f"{FIXTURES}/rl003_bad.py:7:5 RL003 " in out

    def test_json_output_shape(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        lint_main(["--output", "json", f"{FIXTURES}/rl003_bad.py"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert [f["code"] for f in payload["findings"]] == ["RL003", "RL003"]
        assert payload["findings"][0]["line"] == 7
        assert payload["stats"]["findings_by_code"] == {"RL003": 2}

    def test_github_output_renders_error_annotations(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        lint_main(["--output", "github", f"{FIXTURES}/rl003_bad.py"])
        out = capsys.readouterr().out
        assert (
            f"::error file={FIXTURES}/rl003_bad.py,line=7,col=5,title=RL003::"
            in out
        )

    def test_stats_mode_emits_machine_readable_summary(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(ROOT)
        lint_main(["--stats", f"{FIXTURES}/suppressed.py"])
        stats = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert stats["files_scanned"] == 1
        assert stats["rules"] == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        ]
        assert stats["findings"] == 1
        assert stats["suppressed"] == 2
        assert stats["unused_suppressions"] == [
            f"{FIXTURES}/suppressed.py:21 [RL001]"
        ]

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in CHECKERS:
            assert code in out

    def test_cache_dir_flag_and_no_cache(self, monkeypatch, tmp_path):
        monkeypatch.chdir(ROOT)
        cdir = tmp_path / "lint-cache"
        args = ["--cache-dir", str(cdir), f"{FIXTURES}/rl003_bad.py"]
        assert lint_main(args) == 1
        assert any(p.name != "stat.json" for p in cdir.glob("*.json"))
        assert lint_main(args) == 1  # warm hit, same verdict
        assert lint_main(["--no-cache", f"{FIXTURES}/rl003_bad.py"]) == 1

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
        assert "RL001" in proc.stdout

    def test_repro_audit_lint_subcommand(self, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.chdir(ROOT)
        assert cli_main(["lint", "--", "--list-rules"]) == 0
        assert "RL005" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the acceptance bar: the shipped tree is clean
# ----------------------------------------------------------------------
class TestRealTree:
    def test_src_and_benchmarks_lint_clean(self):
        result = lint()  # default paths: src + benchmarks
        assert result.diagnostics == ()
        assert result.exit_code == 0
        assert result.files_scanned > 90

    def test_discovery_skips_the_seeded_fixtures(self):
        result = lint("tests")
        assert all(FIXTURES not in d.path for d in result.diagnostics)
