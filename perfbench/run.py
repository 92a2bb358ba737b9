"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload zoo_offline --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the same workload untraced and then traced, and
reports the per-layer metrics plus the tracing overhead; it also writes a
Perfetto-loadable span file.  Every result, with the environment it ran in,
is written to ``perfbench/out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark deliberately leaves BLAS/OpenMP thread counts as the
environment sets them (it records them instead), so that a change to how
the library uses threads shows up in the numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The commit of the checkout, or ``unknown`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        blas = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith(THREAD_ENV_PREFIXES)
        },
        "blas_threads_pinned_by_benchmark": False,
        "git_commit": git_commit(),
        "seed": seed,
    }


def finite(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from catalogue import DETAIL_UNITS, END_TO_END, PER_LAYER
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace)
    if trace:
        metrics = {
            name: (finite(outcome.layers.get(name, 0.0)), unit)
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: (finite(outcome.e2e[name]), unit)
            for name, (unit, _better, _bound) in END_TO_END.items()
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.tracer is not None:
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            outcome.tracer.recorder.to_chrome_trace()
        )
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "end_to_end": outcome.e2e,
        "detail": outcome.detail,
        "per_layer": outcome.layers if trace else {},
        "self_ms": outcome.self_ms,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))

    succeeded = outcome.attempted - outcome.failed
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"operations: attempted {outcome.attempted}  succeeded {succeeded}  failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in outcome.e2e.items():
        print(f"  {name:<34} {value:>16.6g} {END_TO_END[name][0]}")
    for name, value in outcome.detail.items():
        print(f"  {name:<34} {value:>16.6g} {DETAIL_UNITS.get(name, '')}")
    if trace:
        for name, value in outcome.layers.items():
            print(f"  {name:<44} {value:>14.6g} {PER_LAYER.get(name, ('',))[0]}")
        for name, value in sorted(outcome.self_ms.items()):
            print(f"  self.{name:<39} {value:>14.6g} ms")
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
