#!/usr/bin/env python3
"""Record the goldens: for each seed of a range, the combined digest of the
first batches of a run.

    python3 perfbench/goldens.py --workload sweep_rb2_n20 --seeds 0-19 --batches 4

writes ``perfbench/goldens/<workload>.json``.  A batch digest holds node and
backtrack sums, status counts and the harness CSV's sha256, or the sha256
of the ``gen`` output bytes; ``run.combine`` sums the counts and chains the
hashes.  ``run.py`` runs at least that many batches and compares, so
re-record only for a change that means to alter search behaviour or output
bytes, and say why.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-19", help="inclusive range a-b")
    parser.add_argument("--batches", type=int, default=4)
    args = parser.parse_args(argv)
    if not run.use_sources():
        return 2
    from workloads import WORKLOADS, batch_seed

    workload = WORKLOADS[args.workload]
    first, last = (int(x) for x in args.seeds.split("-"))
    workdir = run.OUT / f"goldens-{args.workload}"
    seeds = {}
    for seed in range(first, last + 1):
        digests = []
        for index in range(args.batches):
            batch = run.run_batch(workload, index, batch_seed(workload.name, seed, index),
                                  False, workdir, timed=False)
            if batch.failed:
                print(f"seed {seed} batch {index} failed its checks; not recorded", file=sys.stderr)
                return 1
            digests.append(batch.outcome.digest)
        seeds[str(seed)] = run.combine(digests)
    run.shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "goldens" / f"{args.workload}.json"
    text = json.dumps({"workload": args.workload, "batches": args.batches, "seeds": seeds}, indent=1)
    path.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
