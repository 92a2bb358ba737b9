"""Run workloads over several seeds and record each metric's spread.

Usage, from the repository root::

    python3 perfbench/sweep.py --seeds 1-10 --seconds 15 --out perfbench/results/<name>.json

Each run is a fresh ``run.py`` process, as a benchmark driver would start
it.  For every end-to-end metric the record holds the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound.  One traced run per
workload (the first seed) adds the per-layer metrics.  The records in
``results/`` are the benchmark's trajectory: compare a change against them
only on the same host, and re-measure the parent commit before claiming a
gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        f"{seconds:g}",
        "--trace",
        str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def steal_frac(workload: str, seed: int) -> float:
    """The host's stolen-CPU share during one run, from its result file."""
    record = HERE / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(record.read_text())["detail"]["host.steal_frac"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    record = {
        "environment": environment(seeds[0]),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            # CPU stolen by other guests during each run's measured window:
            # a disturbed run shows here, not as a code change.
            "host_steal_frac": [steal_frac(workload, seed) for seed in seeds],
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            summary["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "values": values,
            }
            marker = "" if name == "setup_s" or spread <= bound else "  OVER BOUND"
            steady &= not marker
            print(f"{workload:20} {name:22} median {median:14.6g} spread {spread:7.4f} bound {bound}{marker}")
        traced = run_once(workload, seeds[0], seconds, 1)
        summary["traced_seed"] = seeds[0]
        summary["traced_correct"] = traced["correct"]
        summary["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        record["workloads"][workload] = summary
        print(f"{workload:20} correct {summary['correct']} traced {traced['correct']} "
              f"attempted {summary['attempted']} failed {summary['failed']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
