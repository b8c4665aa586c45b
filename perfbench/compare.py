"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py --runs 10
    python3 perfbench/compare.py --workloads memes --runs 5

Each set runs every chosen workload ``--runs`` times, each run with its
own ``--seed`` (set 1 uses seeds 1.., set 2 seeds 101..).  For every
workload and end-to-end metric it prints each set's median and
quartiles, the spread (third minus first quartile, as a share of the
median) against the metric's bound from BENCHMARK.json, and whether the
second set's median is within the bound of the first set's, in either
direction.  It also checks that the share of failed operations is
identical in every run.  Raw results are saved to
``perfbench/.work/compare.json`` after every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
OUT = HERE / ".work" / "compare.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        + ["--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads("\n".join(line[2:] for line in lines[:-1] if line.startswith("# ")))
    result = json.loads(lines[-1])
    result["info"] = info
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(results: dict, spec: dict) -> bool:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload, sets in results.items():
        print(f"\n== {workload}")
        shares = {
            r["failed"] / r["attempted"] for runs in sets.values() for r in runs
        }
        print(f"   failed share per run: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
        names = [n for n in metrics if n in next(iter(sets.values()))[0]["metrics"]]
        for name in names:
            bound = metrics[name]["bound"]
            lower = metrics[name]["better"] == "lower"
            cells = []
            for set_name, runs in sorted(sets.items()):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                cells.append((set_name, q1, q2, q3, spread))
            base = cells[0][2]
            line = f"   {name:22s} bound {bound:.2f}"
            for set_name, q1, q2, q3, spread in cells:
                worse = (q2 - base) / base if lower else (base - q2) / base
                agree = abs(worse) <= bound
                steady = spread <= bound
                ok = ok and agree and steady
                line += (
                    f" | {set_name}: med {q2:.5g} [{q1:.5g}, {q3:.5g}] "
                    f"spread {spread:.3f}{'' if steady else ' (!)'} "
                    f"vs first {worse:+.3f}{'' if agree else ' (!)'}"
                )
            print(line)
    print("\nall within bounds" if ok else "\nSOME FIGURES OUTSIDE BOUNDS")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    results: dict = {}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    for set_index in range(SETS):
        set_name = f"set{set_index + 1}"
        for workload in args.workloads:
            runs = results.setdefault(workload, {}).setdefault(set_name, [])
            for i in range(args.runs):
                seed = set_index * 100 + i + 1
                result = run_once(workload, seed, spec["run_seconds"])
                runs.append(result)
                values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
                print(f"{set_name} {workload} seed {seed}: {values}", flush=True)
                OUT.write_text(json.dumps(results, indent=1))
    return 0 if report(results, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
