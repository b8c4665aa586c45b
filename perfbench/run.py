"""The repository's end-to-end benchmark: one command, two workloads.

    python3 perfbench/run.py --workload {noise,memes} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Lines before it start with ``#`` and are for people.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Thread budget, fixed before numpy loads: BLAS pools stay at one thread
# so parallelism comes only from the explicit worker count (<= nproc),
# and no REPRO_* variable from the caller's environment can change what
# a run does.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]


def probe_ms() -> float:
    """A fixed pure-Python reference loop, to detect host drift."""
    import time

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def probes(n: int = 5) -> list[float]:
    return [probe_ms() for _ in range(n)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("noise", "memes"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import gc
    import json
    import resource
    import statistics

    start_probes = probes()
    from tracer import Tracer
    from workloads import Workload

    work_dir = HERE / ".work"
    work_dir.mkdir(exist_ok=True)
    tracer = Tracer(work_dir / "remote") if args.trace else None
    workload = Workload(args.workload, args.seed, work_dir, tracer)
    try:
        setup_times = workload.setup_times()
        # Set-up's long-lived objects leave the cyclic collector's view, so
        # collections during measurement scan what the operations allocate.
        gc.collect()
        gc.freeze()
        workload.run(args.seconds)
    finally:
        _reap_children()
    end_probes = probes()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s_each": setup_times,
        "probe_ms_start": statistics.median(start_probes),
        "probe_ms_end": statistics.median(end_probes),
        "round_busy_s": [round(t, 4) for _, t in workload.rounds],
        "study_s": [round(t, 4) for t in workload.study_s],
        "problems": workload.problems,
        "notes": workload.notes,
    }
    if tracer is not None:
        table = tracer.rollup()
        metrics = workload.layer_metrics(table)
        metrics["host.probe_ms"] = (statistics.median(start_probes + end_probes), "ms")
        metrics["trace.overhead_pct"] = (workload.overhead_pct(), "%")
        metrics["trace.uncovered_pct"] = (
            statistics.mean(workload.uncovered) if workload.uncovered else 0.0,
            "%",
        )
        trace_path = work_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["missing_hooks"] = tracer.missing
        info["spans"] = {
            name: {k: round(v, 6) for k, v in row.items()}
            for name, row in sorted(table.items())
        }
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
            **workload.end_to_end(),
        }
    for line in json.dumps(info, indent=1).splitlines():
        print("# " + line)
    print(
        json.dumps(
            {
                "correct": bool(workload.setup_ok),
                "attempted": int(workload.attempted),
                "failed": int(workload.failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def _reap_children() -> None:
    """Stop and wait for every process the run started (worker pools)."""
    import multiprocessing

    try:
        from repro.utils.parallel import get_worker_pool

        get_worker_pool().discard()
    except ImportError:
        pass
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


if __name__ == "__main__":
    sys.exit(main())
