"""Shared fixtures and reporting for the paper-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper's evaluation and
appends a formatted block to a session report, printed in the terminal
summary and persisted to ``benchmarks/latest_results.txt`` — so
``pytest benchmarks/ --benchmark-only`` leaves a readable artifact even
with output capturing on.

Each benchmark additionally emits a machine-readable
``benchmarks/BENCH_<name>.json`` via :meth:`PaperReport.json`.  Every
record shares one schema (``benchlib.make_record``): a versioned
envelope with machine metadata (git SHA, CPU count, Python version) and
a smoke-mode flag.  The artifacts are gitignored.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from benchlib import make_record, write_record

from repro.ehr import SimulationConfig
from repro.evalx import CareWebStudy

_BENCH_DIR = os.path.dirname(__file__)
_RESULTS_PATH = os.path.join(_BENCH_DIR, "latest_results.txt")
_REPORT_SECTIONS: list[str] = []


class PaperReport:
    """Collects formatted result blocks for the terminal summary."""

    def section(self, title: str, lines) -> None:
        block = [f"== {title} =="]
        block.extend(str(line) for line in lines)
        _REPORT_SECTIONS.append("\n".join(block))

    def json(self, name: str, payload: dict) -> str:
        """Write ``BENCH_<name>.json`` in the shared schema.

        ``payload`` carries the benchmark's config, timings, and headline
        numbers (non-JSON values are stringified).  Returns the path
        written.
        """
        path = os.path.join(_BENCH_DIR, f"BENCH_{name}.json")
        return write_record(path, make_record(name, payload))

    @staticmethod
    def fmt_bars(values: dict, width: int = 40) -> list[str]:
        """Render a {label: fraction} dict as ASCII bars (paper bar charts)."""
        out = []
        for label, value in values.items():
            bar = "#" * max(0, int(round(value * width)))
            out.append(f"  {label:<16} {value:6.3f}  |{bar}")
        return out

    @staticmethod
    def fmt_pr_rows(rows) -> list[str]:
        """Render DepthRow/LengthRow sequences as a P/R/Rn table."""
        out = [f"  {'label':<12} {'precision':>9} {'recall':>9} {'recall_n':>9}"]
        for row in rows:
            s = row.scores
            out.append(
                f"  {row.label:<12} {s.precision:9.3f} {s.recall:9.3f} "
                f"{s.normalized_recall:9.3f}"
            )
        return out


@pytest.fixture(scope="session")
def report() -> PaperReport:
    return PaperReport()


@pytest.fixture(scope="session")
def study() -> CareWebStudy:
    """The main benchmark-scale study (Figs 6-12, 14, Table 1)."""
    return CareWebStudy.prepare(SimulationConfig.benchmark())


@pytest.fixture(scope="session")
def mining_study() -> CareWebStudy:
    """A smaller hospital for the mining-performance sweeps (Fig 13 and
    the ablations), where five full mining runs must stay affordable."""
    config = SimulationConfig.small(seed=7).scaled(
        n_teams=6,
        patients_per_team=(60, 110),
        nurses_per_team=(3, 5),
        students_per_team=(0, 1),
    )
    return CareWebStudy.prepare(config)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT_SECTIONS:
        return
    terminalreporter.write_sep("=", "paper reproduction results")
    text = "\n\n".join(_REPORT_SECTIONS)
    terminalreporter.write_line(text)
    with contextlib.suppress(OSError):
        with open(_RESULTS_PATH, "w") as fh:
            fh.write(text + "\n")
        terminalreporter.write_line(f"\n(saved to {_RESULTS_PATH})")
