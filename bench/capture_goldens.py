"""Capture the golden --machine stdouts the benchmark compares against.

    PYTHONPATH=src python3 bench/capture_goldens.py

Run from the root of a checkout of the reference commit.  For every
workload it writes bench/goldens/<workload>.json with the stdout of each
command of the DEFAULT_SEED list (at the run_seconds of BENCHMARK.json)
that exits 0; the README examples are keyed so that every seed checks them.
A command that fails is left out, so a later fix is checked by the oracles
alone.
"""

import json
import os
import shutil
import sys

import workloads
from worker import run_one

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload in sorted(workloads.GENERATORS):
        work = os.path.join(".bench", "work", workload)
        shutil.rmtree(work, ignore_errors=True)
        goldens = {}
        for cmd in workloads.build(workload, workloads.DEFAULT_SEED, seconds, work):
            res = run_one(cmd["argv"])
            if res["rc"] == 0 and cmd["golden"]:
                goldens[cmd["golden_key"]] = res["stdout"]
            print(f"{cmd['id']}: exit {res['rc']} in {res['seconds']:.3f} s", flush=True)
        with open(os.path.join(HERE, "goldens", f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(goldens, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
