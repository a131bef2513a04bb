"""``python -m perfbench.compare A.json B.json`` — the A/A tool and the
before/after tool.

Both files are results of ``python -m perfbench --workload all --runs N``
(N >= 1; several runs give a spread).  For every (end-to-end metric,
workload) pair it prints both medians, the ratio B/A with its base, the
metric's bound, and a verdict:

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``worse``      — it is, and the run-to-run spread is within the bound;
* ``unresolved`` — it is, but either side's spread is wider than the
  bound, so these runs cannot tell a regression from noise.

Exit status is 1 if any pair is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys

from . import spec, stats


def _metric_values(document: dict, workload: str, name: str) -> list[float]:
    """One value per run for a metric: the uniform end-to-end metrics come
    from the contract ``metrics`` block, the workload-specific ones from
    ``named``."""
    values = []
    for run in document["runs"]:
        result = run.get(workload, {}).get("end_to_end", {})
        if name.startswith("named."):
            value = result.get("named", {}).get(name[len("named.") :])
        else:
            value = result.get("metrics", {}).get(name, {}).get("value")
        if value is not None:
            values.append(float(value))
    return values


def pairs() -> list[tuple[str, str, str, float]]:
    """``(workload, metric key, better, bound)`` for every judged pair."""
    out = []
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            out.append((workload, metric.name, metric.better, metric.bound))
        for named in spec.NAMED:
            if workload in named.workloads:
                out.append((workload, f"named.{named.name}", named.better, named.bound))
    return out


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    base = statistics.median(a)
    new = statistics.median(b)
    if base == 0:
        # failed_share: any failure at all is worse than none
        worsening = 0.0 if new == 0 else float("inf")
        ratio = 1.0 if new == 0 else float("inf")
    else:
        ratio = new / base
        worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    spread = max(stats.spread(a), stats.spread(b))
    if worsening <= bound:
        verdict = "ok"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "worse"
    return {"a": base, "b": new, "ratio": ratio, "spread": spread, "verdict": verdict}


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload, key, better, bound in pairs():
        va, vb = _metric_values(a, workload, key), _metric_values(b, workload, key)
        if not va or not vb:
            rows.append(
                {"workload": workload, "metric": key, "bound": bound, "verdict": "missing"}
            )
            continue
        rows.append(
            {"workload": workload, "metric": key, "better": better, "bound": bound,
             "runs": (len(va), len(vb)), **judge(va, vb, better, bound)}
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':15s} {'metric':34s} {'A (base)':>13s} {'B':>13s} "
        f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:15s} {row['metric']:34s} {'':>50s}  missing")
            continue
        lines.append(
            f"{row['workload']:15s} {row['metric']:34s} {row['a']:13.4f} "
            f"{row['b']:13.4f} {row['ratio']:7.3f} {row['spread']:7.3f} "
            f"{row['bound']:6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as fh:
            documents.append(json.load(fh))
    rows = compare(*documents)
    print(render(rows))
    worse = [r for r in rows if r["verdict"] in ("worse", "missing")]
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
