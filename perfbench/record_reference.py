#!/usr/bin/env python3
"""Record perfbench/reference.json from traced runs.

    python3 perfbench/record_reference.py .bench_build/results/*-trace1.json

Takes the digests of the fixed reference inputs and, per workload, the Spark
jobs of one traced block. Run it only when a change to the program's outputs
or job structure is intended, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(paths):
    if not paths:
        sys.exit(__doc__)
    digests, jobs, cores = None, {}, set()
    for path in paths:
        with open(path) as fh:
            res = json.load(fh)
        calls = {k: v["digest"] for k, v in res["reference"]["calls"].items()}
        if digests is not None and calls != digests:
            sys.exit(f"{path}: digests differ from the other runs'")
        digests = calls
        jobs[res["workload"]] = res["spark"]["jobs"]
        cores.add(res["env"]["spark_cores"])
    if len(cores) != 1:
        sys.exit(f"runs used different local[N]: {sorted(cores)}")
    out = {"spark_cores": cores.pop(), "digests": digests, "jobs_per_block": jobs}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
