"""Renderer contracts: GitHub workflow-command escaping, the version-2
JSON payload's key set (consumed by CI — additive changes only without a
version bump), and the CLI's usage exit codes."""

import json

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.diagnostics import (
    Diagnostic,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.runner import LintResult


def diag(**overrides):
    base = dict(path="src/x.py", line=3, col=7, code="RL001", message="boom")
    base.update(overrides)
    return Diagnostic(**base)


def result(*diagnostics):
    return LintResult(
        diagnostics=tuple(diagnostics),
        files_scanned=1,
        rules=("RL001",),
    )


class TestGithubEscaping:
    def test_percent_cr_and_lf_are_workflow_escaped(self):
        line = diag(message="50% done\r\nnext line").render_github()
        assert line == (
            "::error file=src/x.py,line=3,col=7,title=RL001"
            "::50%25 done%0D%0Anext line"
        )

    def test_escaping_keeps_one_command_per_line(self):
        out = render_github((diag(message="a\nb"), diag(line=9)))
        assert len(out.splitlines()) == 2
        assert all(ln.startswith("::error ") for ln in out.splitlines())

    def test_plain_message_is_untouched(self):
        assert diag().render_github().endswith("::boom")


class TestJsonSchema:
    def test_payload_key_set_is_stable(self):
        payload = json.loads(render_json((diag(),), result(diag()).stats()))
        assert set(payload) == {"version", "findings", "stats"}
        assert payload["version"] == 2
        assert set(payload["findings"][0]) == {
            "path",
            "line",
            "col",
            "code",
            "message",
        }
        assert set(payload["stats"]) == {
            "files_scanned",
            "rules",
            "findings",
            "findings_by_code",
        }

    def test_text_render_is_ruff_style_one_line_per_finding(self):
        out = render_text((diag(), diag(line=9, code="RL003")))
        assert out.splitlines() == [
            "src/x.py:3:7 RL001 boom",
            "src/x.py:9:7 RL003 boom",
        ]


class TestUsageExitCodes:
    def test_empty_tree_is_clean_exit_zero(self, tmp_path):
        assert lint_main(["--root", str(tmp_path)]) == 0

    def test_missing_explicit_path_is_a_usage_error(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path), "does/not/exist.py"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_flag_is_argparse_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--definitely-not-a-flag"])
        assert excinfo.value.code == 2
