"""Command line of the benchmark.

Contract form (what ``BENCHMARK.json`` names; one workload, one run)::

    python3 perfbench/run.py --workload serve_point --seed 7 --seconds 12 --trace 0

prints as its last line ``{"correct": ..., "attempted": ..., "failed": ...,
"metrics": {...}}`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.

Human form (every workload, each in its own subprocess; ``--trace`` adds
the traced run)::

    PYTHONPATH=src python -m perfbench --workload all --seed 7 [--trace] [--runs 3]

Each run is two child processes of this script: ``--role generate``
writes the inputs and the oracle, ``--role measure`` receives only those
files, so its peak RSS is the program's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Hard limits on the two child processes of one run, seconds; together
#: they stay under the 180 s a run may take.
GENERATE_TIMEOUT = 45
MEASURE_TIMEOUT = 125


def _bootstrap() -> None:
    """Make ``perfbench`` and ``repro`` importable when started as a
    script from a bare checkout; refuse to run without the program."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(
            "perfbench: src/repro is not in this checkout; the benchmark "
            "measures that program and cannot run without it"
        )
    # started as a script, sys.path[0] is this directory and would expose
    # trace.py, stats.py, ... as top-level modules shadowing the stdlib's
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.curdir) != HERE]
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: run with span wrappers installed and report per-layer metrics",
    )
    parser.add_argument("--runs", type=int, default=1, help="human form: repeat count")
    parser.add_argument("--smoke", action="store_true", help="tiny world (self-tests)")
    parser.add_argument("--out", default=None, help="human form: result file")
    parser.add_argument("--role", choices=("generate", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# child roles
# ----------------------------------------------------------------------
def _workload(name: str) -> tuple:
    """``(module, extra plan arguments)`` of a workload."""
    from perfbench.workloads import audit, ingest, mine, serve

    return {
        "audit_batch": (audit, {"backend": "memory"}),
        "audit_sqlite": (audit, {"backend": "sqlite"}),
        "serve_point": (serve, {}),
        "ingest_stream": (ingest, {}),
        "mine_templates": (mine, {}),
    }[name]


def full_plan(workload: str, seconds: float, smoke: bool) -> dict:
    module, extra = _workload(workload)
    return module.plan(seconds, smoke, **extra)


def role_generate(args: argparse.Namespace) -> dict:
    from perfbench import worlds
    from perfbench.workloads import ingest

    stream_rows = 0
    if args.workload == "ingest_stream":
        stream_rows = ingest.stream_rows(full_plan(args.workload, args.seconds, args.smoke))
    oracle = worlds.generate(
        args.workload, args.seed, stream_rows, args.smoke, args.workdir
    )
    return {"fingerprint": oracle["fingerprint"]}


def _overhead_ratio(reference: dict, traced: dict) -> float:
    """Traced over untraced time for the same operations: per-kind mean
    durations, weighted by the traced run's operation counts, over the
    kinds both runs performed."""
    traced_time = untraced_time = 0.0
    for kind, durations in traced.items():
        if kind in reference and reference[kind] and durations:
            traced_time += sum(durations)
            untraced_time += len(durations) * sum(reference[kind]) / len(reference[kind])
    return traced_time / untraced_time if untraced_time else 0.0


def pin_to_one_cpu() -> int | None:
    """Pin this process to the highest-numbered CPU it may use.  The
    program is bound by the interpreter lock, so a second CPU buys it
    nothing but cross-CPU thread wake-ups, whose cost on a virtual machine
    depends on the host's mood: unpinned, closed-loop serving capacity
    swung +-30 % between repetitions seconds apart, pinned +-5 % (README,
    sizing findings)."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def role_measure(args: argparse.Namespace) -> dict:
    import resource

    from perfbench import layers, spec
    from perfbench.trace import Tracer
    from perfbench.workloads import Run

    module, _ = _workload(args.workload)
    plan = full_plan(args.workload, args.seconds, args.smoke)
    started = time.perf_counter()
    result: dict = {}
    if not args.trace:
        ctx = Run(args.workdir, args.seed, plan)
        module.run(ctx)
        ctx.finish()
        ctx.e2e["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        ctx.named["peak_rss_mb"] = ctx.e2e["peak_rss_mb"]
        result["metrics"] = {
            m.name: {"value": ctx.e2e[m.name], "unit": m.unit}
            for m in spec.END_TO_END
        }
    else:
        reference = Run(args.workdir, args.seed, module.reference_plan(plan))
        module.run(reference)
        tracer = Tracer()
        layers.install(tracer)
        try:
            ctx = Run(args.workdir, args.seed, module.traced_plan(plan), tracer)
            module.run(ctx)
            ctx.finish()
        finally:
            layers.uninstall()
        index = layers.SpanIndex(tracer)
        values = layers.metrics(
            index, ctx.counters, ctx.notes, _overhead_ratio(reference.ops, ctx.ops)
        )
        result["metrics"] = {
            m.name: {"value": values[m.name], "unit": m.unit} for m in spec.PER_LAYER
        }
        wall, covered = layers.coverage(index)
        result["trace"] = {
            "spans": len(tracer.spans),
            "traced_wall_s": wall,
            "covered_s": covered,
            "remainder_s": wall - covered,
        }
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace_{args.workload}.json")
        tracer.dump(
            trace_path, index.selfs, {"workload": args.workload, "seed": args.seed}
        )
        result["trace"]["file"] = os.path.relpath(trace_path, ROOT)
        ctx.attempted += reference.attempted
        ctx.failed += reference.failed
    ctx.named["failed_share"] = ctx.failed / ctx.attempted
    result.update(
        correct=ctx.failed == 0,
        attempted=ctx.attempted,
        failed=ctx.failed,
        named=ctx.named,
        notes=ctx.notes,
        counters=ctx.counters,
        plan=ctx.plan,
        fingerprint=ctx.oracle["fingerprint"],
        measure_wall_s=time.perf_counter() - started,
    )
    return result


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def machine() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def _child(role: str, args: argparse.Namespace, trace: int, workdir: str, timeout: float) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--role", role, "--workdir", workdir,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    # a fixed hash seed: set and dict orders, and so the work done, repeat
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(args: argparse.Namespace, trace: int) -> dict:
    """One run of one workload: inputs generated in one child, measured
    in another, temp dir removed.  A child that hangs or dies fails the
    run (``failed`` = ``attempted`` = 1), never the caller."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    started = time.perf_counter()
    try:
        _child("generate", args, trace, workdir, GENERATE_TIMEOUT)
        result = _child("measure", args, trace, workdir, MEASURE_TIMEOUT)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        result = {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "named": {"failed_share": 1.0}, "error": f"{type(exc).__name__}: {exc}",
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=trace, smoke=args.smoke, wall_s=time.perf_counter() - started,
    )
    return result


def contract_line(result: dict) -> str:
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    from perfbench import spec

    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec.RUN_SECONDS)
    if args.role == "generate":
        print(json.dumps(role_generate(args)))
        return 0
    if args.role == "measure":
        cpu = pin_to_one_cpu()
        print(json.dumps({**role_measure(args), "pinned_cpu": cpu}))
        return 0
    if args.workload != "all":
        if args.workload not in spec.WORKLOADS:
            sys.exit(f"perfbench: unknown workload {args.workload!r}")
        result = run_once(args, args.trace)
        result["machine"] = machine()
        print(json.dumps(result))
        if "error" in result:
            print(f"perfbench: {result['error']}", file=sys.stderr)
            return 1
        print(contract_line(result))
        return 0

    document = {
        "format": "perfbench-result-1",
        "machine": machine(),
        "args": {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke},
        "runs": [],
    }
    ok = True
    for _ in range(args.runs):
        run: dict = {}
        for workload in spec.WORKLOADS:
            args.workload = workload
            entry = {"end_to_end": run_once(args, 0)}
            if args.trace:
                entry["per_layer"] = run_once(args, 1)
            ok = ok and all(r["correct"] for r in entry.values())
            run[workload] = entry
        document["runs"].append(run)
    text = json.dumps(document, indent=1)
    print(text)
    out = args.out or os.path.join(OUT, f"result-seed{args.seed}.json")
    with open(out, "w") as fh:
        fh.write(text + "\n")
    print(f"perfbench: wrote {os.path.relpath(out)}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
