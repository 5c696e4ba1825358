"""Run one benchmark workload, check its outputs, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload train_cnn --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with the layer seams wrapped (see tracing.py) and prints
the per-layer metrics plus the tracing overhead.  A table with units and
sample counts goes to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The run also writes
a result file (with a machine block) and, when traced, its spans under
``.bench_build/perfbench/``.  The exit code is non-zero when an output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

# One BLAS/OpenMP thread in this process and the workers it starts
# (they inherit the environment): each process then has one busy thread,
# its CPU time is its work and not a pool spin-waiting for cores another
# tenant holds.  Set before numpy is first imported.  See README.md,
# "Why CPU time".
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def machine_block() -> dict:
    """What a number depends on besides the code: CPUs, Python, numpy, BLAS."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def tail_quantile(n: int) -> float:
    """The highest quantile up to 0.9 with ``TAIL_SAMPLES`` samples beyond it.

    Below ``2 * TAIL_SAMPLES`` samples no such quantile reaches the median,
    and the median is reported.
    """
    return max(0.5, min(0.9, 1.0 - TAIL_SAMPLES / n)) if n else 0.5


def end_to_end(run) -> dict[str, dict]:
    """``name -> {value, unit, samples, ...}`` for every end-to-end metric.

    Times are CPU seconds (README.md, "Why CPU time").
    """
    from tracing import percentile

    q = tail_quantile(len(run.round_cpu_s))
    # A median, not a total: a slow spell of the host over one cell of a
    # run's three to six then leaves the figure alone.
    cells_per_cpu_min = (
        60.0 * run.cells_per_batch / statistics.median(run.cell_cpu_s)
        if run.cell_cpu_s else 0.0
    )
    return {
        "round_cpu_s.p50": {
            "value": percentile(run.round_cpu_s, 0.5), "unit": "s",
            "samples": len(run.round_cpu_s),
        },
        "round_cpu_s.p90": {
            "value": percentile(run.round_cpu_s, q), "unit": "s",
            "samples": len(run.round_cpu_s), "quantile": q,
        },
        "setup_s": {
            "value": statistics.median(run.setup_s), "unit": "s",
            "samples": len(run.setup_s),
        },
        "cells_per_cpu_min": {
            "value": cells_per_cpu_min, "unit": "cells/min",
            "samples": len(run.cell_cpu_s),
        },
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB", "samples": 1},
    }


def wall_times(run) -> dict[str, dict]:
    """The wall times beside the gated CPU times; printed, not gated."""
    from tracing import percentile

    return {
        "round_wall_s.p50": {
            "value": percentile(run.round_s, 0.5), "unit": "s",
            "samples": len(run.round_s),
        },
        "setup_wall_s": {
            "value": statistics.median(run.setup_wall_s), "unit": "s",
            "samples": len(run.setup_wall_s),
        },
    }


def print_table(title: str, rows: dict[str, dict]) -> None:
    print(title)
    for name, row in rows.items():
        extra = f"  n={row['samples']}" if "samples" in row else ""
        if "quantile" in row:
            extra += f" (quantile {row['quantile']:.3f})"
        print(f"  {name:42s} {row['value']:14.6g} {row['unit']:10s}{extra}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Anything the program or its workers put in a temp dir stays inside
    # the checkout.
    os.environ["TMPDIR"] = str(workdir)
    trace = bool(args.trace)
    try:
        fn = workloads.WORKLOADS[args.workload]
        if args.workload == "sweep_service":
            run = fn(args.seed, args.seconds, trace, workdir)
        else:
            run = fn(args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = machine_block()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"machine {json.dumps(machine)}")
    if trace:
        layers = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run.layers.items()
        }
        print_table("per-layer metrics (per traced round / build / sweep):", layers)
        for route, count in run.routes.items():
            print(f"  coordinator {route:30s} {count:10.2f} requests/sweep")
        # Busy time in each top-level phase over traced round wall time.
        for label, share in run.notes.get("round_split", {}).items():
            print(f"  busy share of traced round: {label:28s} {100 * share:6.2f} %")
        untraced = run.notes.get("untraced_round_s", [])
        print(
            f"tracing overhead: {run.layers['trace.overhead_s'][0]:+.4f} s per round "
            f"({len(run.traced_round_s)} traced, {len(untraced)} untraced)"
        )
        metrics = layers
    else:
        metrics = end_to_end(run)
        print_table("end-to-end metrics (CPU seconds):", metrics)
        print_table("wall time, not gated:", wall_times(run))
    # Checked on every run but not gated: final_accuracy is fixed by the
    # seed and spreads too widely across seeds on auction_hier to bound,
    # and failed_frac reads 0 on a healthy run (README.md, "End-to-end
    # metrics").
    failed = min(len(run.failed_units), run.attempted)
    accuracy = statistics.mean(run.accuracies) if run.accuracies else float("nan")
    print(f"final_accuracy {accuracy:.4f} fraction  n={len(run.accuracies)}")
    print(f"failed_frac {failed / max(run.attempted, 1):.4f} fraction  "
          f"({failed} of {run.attempted} attempted)")
    for problem in run.failures[:20]:
        print(f"CHECK FAILED: {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": failed,
        "final_accuracy": accuracy,
        "accuracies": run.accuracies,
        "failures": run.failures,
        "notes": run.notes,
        "round_s": run.round_s,
        "round_cpu_s": run.round_cpu_s,
        "setup_s": run.setup_s,
        "setup_wall_s": run.setup_wall_s,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        run.tracer.dump(OUT / f"spans-{tag}.jsonl")

    correct = not run.failures and run.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": failed,
                "metrics": {
                    k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
