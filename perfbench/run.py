"""Benchmark of the Cordial reproduction: one workload, one run.

Run from the repository root::

    python3 perfbench/run.py --workload uer-dense --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` beside this directory.  The run
sets up, replays the workload for ``--seconds``, checks the output, and
prints a report line followed, as the last line, by the result object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (``BENCHMARK.json`` lists both); the
traced run also writes a Chrome trace and a self-time table under
``perfbench/out/<workload>/``.  A failed output check exits with code 1
and prints no result.  See ``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("uer-dense", "ce-background", "offline-eval")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every input size (smoke tests)")
    parser.add_argument("--perturb", action="store_true",
                        help="drop one UER event from the served input "
                             "(move one event to the neighbouring row on a "
                             "stream without UERs); the output check must "
                             "then fail")
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact directory (default perfbench/out)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be > 0")
    return args


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for spawned
    workers, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def print_self_times(report: dict) -> None:
    path = report.get("artifacts", {}).get("self_time")
    if path is None:
        return
    table = json.loads(Path(path).read_text(encoding="utf-8"))
    for stage in ("setup", "pass"):
        rows = sorted(table[stage].items(), key=lambda kv: -kv[1]["self_s"])
        print(f"self time, {stage} ({report['workload']}):", file=sys.stderr)
        for name, row in rows:
            print(f"  {name:<22} {row['spans']:>9} spans "
                  f"{row['self_s']:>10.4f} s self {row['total_s']:>10.4f} s "
                  "total", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark: {ROOT / 'src'} does not "
              "hold the repro package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cases

    try:
        outcome = cases.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), scale_factor=args.scale,
                            perturb=args.perturb,
                            out_dir=args.out)
    except cases.BenchmarkFailure as failure:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
        return 1
    finally:
        stop_resource_tracker()
    print_self_times(outcome["report"])
    print(json.dumps({"report": outcome["report"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
