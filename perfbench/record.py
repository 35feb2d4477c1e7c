"""Rewrite record.json, the fingerprint of every instance the benchmark runs.

    python3 perfbench/record.py

A fingerprint is the status, iteration count and final residual of a solve
(the CLI's %.5e format). run.py lists every instance whose fingerprint
drifts from this record; the drift is reported, not gated. Registry
instances do not depend on the seed; the roots of the `boundary` problems
do, so those are recorded for seeds 0 to BOUNDARY_RECORD_SEEDS - 1.
"""

import json
import sys

import run

BOUNDARY_RECORD_SEEDS = 10


def main():
    run.use_checkout_sources()
    import workloads

    record = {}
    for workload in workloads.WORKLOADS:
        seeds = range(BOUNDARY_RECORD_SEEDS) if workload == "boundary" else [0]
        for seed in seeds:
            for inst in workloads.build(workload, seed)[0]:
                outcome, _ = workloads.run_instance(inst)
                record[inst.key] = outcome.fingerprint
    run.RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} fingerprints to {run.RECORD.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
