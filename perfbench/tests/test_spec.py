"""BENCHMARK.json states exactly what perfbench.spec defines, within the
limits of the benchmark contract."""

import json
import os
import re

from perfbench import spec
from perfbench.run import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_the_spec():
    assert load() == spec.benchmark_json()


def test_benchmark_json_is_within_the_contract_limits():
    doc = load()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = (
        [w["name"] for w in doc["workloads"]]
        + [m["name"] for m in doc["end_to_end"]]
        + [m["name"] for m in doc["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # 4 + 22 x workloads runs must fit the driver's 3420 s at the run
    # length measured on the sizing machine (README: about 22 s a run)
    assert (4 + 22 * len(doc["workloads"])) * 25 < 3420


def test_named_metrics_point_at_real_workloads():
    for named in spec.NAMED:
        assert NAME.match(named.name)
        assert set(named.workloads) <= set(spec.WORKLOADS)
