"""Record the output-check values of every workload for a range of seeds.

    python3 perfbench/record_reference.py --seeds 0-99

Fits the set-up pipeline once, then for each seed and workload sets up,
serves one untraced pass, checks it against its twin and stores its check
values in ``perfbench/reference.json``, together with the configuration
they depend on.  A run whose configuration differs from the recorded one
fails until the file is recorded again.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import cases
    from spread import seed_list

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    args = parser.parse_args(argv)
    fitted = cases.fit_pipeline()
    recorded = {name: {} for name in cases.WORKLOADS}
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as scratch:
        out_dir = Path(scratch)
        for seed in args.seeds:
            for name, workload in cases.WORKLOADS.items():
                inputs = cases.set_up(workload, seed, 1.0, False, out_dir,
                                      fitted=fitted)
                engine, inputs.engine = inputs.engine, None
                result = cases.run_pass(inputs, None, out_dir, engine)
                cases.verify(inputs, [result], None)
                recorded[name][str(seed)] = result.check
            print(f"seed {seed} recorded", flush=True)
    document = {"config": cases.reference_config(), "workloads": recorded}
    cases.REFERENCE_FILE.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
