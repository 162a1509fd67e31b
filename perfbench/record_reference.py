"""Rewrite perfbench/reference.json from the current sources.

    python3 perfbench/record_reference.py

Runs unit 0 of the default seed of every workload at full size and records
its numbers and report digest.  Only re-record when a change to the numbers
is intended and explained.
"""

import argparse
import json
import time

import run


def main():
    env = run.worker_env()
    out = {}
    for workload in ("certify", "converge", "omega"):
        args = argparse.Namespace(workload=workload, size="full",
                                  seed=run.DEFAULT_SEED,
                                  deadline=time.clock_gettime(time.CLOCK_MONOTONIC)
                                  + run.RUN_LIMIT_S)
        _, res = run._spawn(args, env, ["--units", "1"])
        if res["units"][0]["problems"]:
            raise SystemExit(f"{workload}: {res['units'][0]['problems']}")
        out[workload] = res["first"]
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
