"""Record the output-check references, one file per workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For every master seed in ``REFERENCE_SEEDS`` this stores the mean and
readout series (little-endian float64, base64), the target and argmax
bins and the score of ``run_experiment`` at one worker.  Rerun it only
when a change is meant to alter the physics outputs, and say so.
"""

import json
import sys

import pipeline
from repdtc.harness import run_experiment
from workloads import REFERENCE_DIR, REFERENCE_SEEDS, WORKLOADS


def record_workload(workload: str) -> dict:
    w = WORKLOADS[workload]
    entries = {}
    for index in range(len(REFERENCE_SEEDS)):
        config = pipeline.make_config(workload, index)
        entries[str(config.seed)] = pipeline.reference_entry(run_experiment(config))
    return {
        "workload": workload,
        "preset": w.preset,
        "realizations": w.realizations,
        "entries": entries,
    }


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or list(WORKLOADS):
        path = REFERENCE_DIR / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump(record_workload(workload), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
