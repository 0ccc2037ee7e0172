"""Run-to-run spread of the end-to-end metrics, the way they are accepted.

Runs the benchmark once per seed on one workload and prints, for every
end-to-end metric, the median and the distance between the first and the
third quartile as a share of the median, beside the metric's bound from
``BENCHMARK.json``::

    python3 perfbench/spread.py --workload uer-dense --seeds 0-9

Runs go one after another, each a separate process, exactly as
``BENCHMARK.json``'s command runs them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {metric["name"]: [] for metric in spec["end_to_end"]}
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={values[name][-1]:.5g}" for name in values), flush=True)
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median
        print(f"{metric['name']:<26} median {median:<12.5g} "
              f"spread {share:.3f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
