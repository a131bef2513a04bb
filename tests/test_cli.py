"""Tests for the command-line interface (generate/groups/mine/explain/
audit/evaluate) driving a real round-trip through the CSV store."""

import os

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def dbdir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "hospital")
    code = main(["generate", "--out", path, "--scale", "tiny", "--seed", "5"])
    assert code == 0
    code = main(["groups", "--db", path])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_database_dir(self, dbdir):
        assert os.path.exists(os.path.join(dbdir, "_schema.json"))
        assert os.path.exists(os.path.join(dbdir, "Log.csv"))

    def test_output_mentions_log(self, dbdir, capsys):
        main(["generate", "--out", dbdir + "2", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert "log=" in out and "saved to" in out


class TestGroups:
    def test_groups_table_persisted(self, dbdir):
        assert os.path.exists(os.path.join(dbdir, "Groups.csv"))

    def test_reports_depths(self, dbdir, capsys):
        main(["groups", "--db", dbdir])
        out = capsys.readouterr().out
        assert "depth 0" in out and "group rows" in out


class TestMine:
    def test_one_way(self, dbdir, capsys):
        code = main(
            [
                "mine",
                "--db",
                dbdir,
                "--support",
                "0.02",
                "--max-length",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "templates" in out
        assert "support queries (" in out and " join steps), " in out
        assert "SELECT DISTINCT L.Lid" in out

    def test_bridge(self, dbdir, capsys):
        code = main(
            [
                "mine",
                "--db",
                dbdir,
                "--support",
                "0.05",
                "--max-length",
                "2",
                "--algorithm",
                "bridge",
            ]
        )
        assert code == 0
        assert "bridge-2" in capsys.readouterr().out


class TestExplain:
    def test_explain_lid(self, dbdir, capsys):
        code = main(["explain", "--db", dbdir, "--lid", "1"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "access 1" in out

    def test_explain_patient_report(self, dbdir, capsys):
        # find a patient from the CSV log
        with open(os.path.join(dbdir, "Log.csv")) as fh:
            next(fh)
            patient = next(fh).strip().split(",")[3]
        code = main(["explain", "--db", dbdir, "--patient", patient])
        assert code == 0
        assert f"patient {patient}" in capsys.readouterr().out

    def test_explain_requires_target(self, dbdir, capsys):
        assert main(["explain", "--db", dbdir]) == 2


class TestAuditAndEvaluate:
    def test_audit_summary(self, dbdir, capsys):
        assert main(["audit", "--db", dbdir]) == 0
        out = capsys.readouterr().out
        assert "review queue" in out
        assert "unexplained" in out

    def test_evaluate_coverage(self, dbdir, capsys):
        assert main(["evaluate", "--db", dbdir]) == 0
        out = capsys.readouterr().out
        assert "explained" in out and "%" in out


class TestTemplateLibraryFlow:
    def test_mine_save_then_audit_with_library(self, dbdir, tmp_path, capsys):
        lib_path = str(tmp_path / "templates.sql")
        code = main(
            [
                "mine",
                "--db",
                dbdir,
                "--support",
                "0.02",
                "--max-length",
                "2",
                "--save",
                lib_path,
            ]
        )
        assert code == 0
        assert os.path.exists(lib_path)
        text = open(lib_path).read()
        assert "-- status: suggested" in text
        # approve everything by editing the artifact (the admin's action)
        with open(lib_path, "w") as fh:
            fh.write(text.replace("-- status: suggested", "-- status: approved"))
        capsys.readouterr()
        code = main(["audit", "--db", dbdir, "--templates", lib_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "review queue" in out
        assert "note: no approved" not in out

    def test_explain_with_library_renders_descriptions(
        self, dbdir, tmp_path, capsys
    ):
        """Library templates get CareWeb natural-language descriptions in
        explain output (not the generic join-chain fallback)."""
        lib_path = str(tmp_path / "desc.sql")
        main(
            [
                "mine", "--db", dbdir, "--support", "0.02",
                "--max-length", "2", "--save", lib_path,
            ]
        )
        text = open(lib_path).read()
        with open(lib_path, "w") as fh:
            fh.write(text.replace("-- status: suggested", "-- status: approved"))
        capsys.readouterr()
        for lid in range(1, 40):
            code = main(
                ["explain", "--db", dbdir, "--lid", str(lid),
                 "--templates", lib_path]
            )
            out = capsys.readouterr().out
            if code == 0:
                assert "because" in out, out
                assert "connection:" not in out, out
                return
        pytest.fail("no explained access found in the first 40 lids")

    def test_unapproved_library_falls_back_with_note(self, dbdir, tmp_path, capsys):
        lib_path = str(tmp_path / "raw.sql")
        main(
            [
                "mine", "--db", dbdir, "--support", "0.05",
                "--max-length", "2", "--save", lib_path,
            ]
        )
        capsys.readouterr()
        code = main(["evaluate", "--db", dbdir, "--templates", lib_path])
        assert code == 0
        assert "note: no approved" in capsys.readouterr().out


class TestJsonOutput:
    """--json prints the typed response's to_dict() form."""

    def test_audit_json(self, dbdir, capsys):
        import json

        assert main(["audit", "--db", dbdir, "--json", "--limit", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"total", "explained", "unexplained", "coverage", "queue",
                "user_risk"} <= set(payload)
        assert len(payload["queue"]) <= 3

    def test_explain_lid_json(self, dbdir, capsys):
        import json

        code = main(["explain", "--db", dbdir, "--lid", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["lid"] == 1
        assert code == (0 if payload["explained"] else 1)

    def test_explain_patient_json(self, dbdir, capsys):
        import json
        import os

        with open(os.path.join(dbdir, "Log.csv")) as fh:
            next(fh)
            patient = next(fh).strip().split(",")[3]
        assert main(["explain", "--db", dbdir, "--patient", patient, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["patient"] == patient
        assert payload["entries"]

    def test_evaluate_json(self, dbdir, capsys):
        import json

        assert main(["evaluate", "--db", dbdir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["coverage"] <= 1.0 and payload["total"] > 0

    def test_mine_json_and_save_json(self, dbdir, tmp_path, capsys):
        import json

        lib_path = str(tmp_path / "mined.json")
        code = main(
            [
                "mine", "--db", dbdir, "--support", "0.05",
                "--max-length", "2", "--json", "--save-json", lib_path,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "one-way"
        assert set(payload["support_stats"]) == {
            "queries_run", "cache_hits", "skipped", "query_time", "join_steps",
        }
        assert all({"sql", "support", "length"} <= set(t)
                   for t in payload["templates"])
        from repro.api import TemplateLibrary

        loaded = TemplateLibrary.load(lib_path)
        assert len(loaded) == len(payload["templates"])


class TestReproduce:
    def test_writes_markdown_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.md")
        code = main(["reproduce", "--out", out, "--scale", "tiny", "--seed", "3"])
        assert code == 0
        text = open(out).read()
        assert text.startswith("# Explanation-Based Auditing")
        for heading in ("Figure 6", "Figure 9", "Figure 12", "Figure 14",
                        "Table 1", "Headline"):
            assert heading in text
        # Figure 13 omitted unless explicitly requested
        assert "Figure 13" not in text


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            pytest.param("audit", "--shards", "2", id="audit-shards"),
            pytest.param("evaluate", "--shards", "2", id="evaluate-shards"),
            pytest.param("serve", "--shards", "2", id="serve-shards"),
            pytest.param("audit", "--executor-kind", "process", id="audit"),
            pytest.param("evaluate", "--executor-kind", "process", id="evaluate"),
            pytest.param("serve", "--executor-kind", "process", id="serve"),
            pytest.param("serve", "--workers", "2", id="serve-workers"),
        ],
    )
    def test_executor_kind_flag_is_gone(self, tmp_path, command, flag, value, capsys):
        """One service runs one engine in one process; there is no shard,
        executor or worker flag left to pass.  (The database directory
        does not exist, so a parser that still took the flag fails
        opening it instead of serving.)"""
        missing = str(tmp_path / "no-such-db")
        with pytest.raises(SystemExit) as exited:
            main([command, "--db", missing, flag, value])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
