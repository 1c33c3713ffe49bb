#!/usr/bin/env python3
"""Exact-count gate of the serving benchmark.

Replays each workload's request sequence in-process twice, in two fresh
processes, for the same seed, and fails when any deterministic counter
differs between the two: tuples read (the paper's cost unit, which
reads_per_query averages), probes, inserts, insert attempts, answer counts
and ladder attempts, request by request. Reference answer counts for the
first requests are compared too.

Usage (from the root of a checkout):

    python3 perfbench/test_exact_counts.py [--seed N] [--workload NAME]

Exit status 0 when every counter repeats exactly, 1 on any drift.
"""

import argparse
import os
import shutil
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNTERS = ("reads", "probes", "inserted", "insert_attempts", "answers",
            "attempts")


def replay_counts(replay_bin, work, spec, pairs, tag):
    store = os.path.join(work, "store-" + tag) if spec["store"] else None
    rep = run.run_replay(replay_bin, work, spec, False, pairs, store)
    counts = {k: rep["series"][k] for k in COUNTERS}
    counts["methods"] = rep["methods"]
    counts["check"] = rep["check"]
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=sorted(run.WORKLOADS))
    args = ap.parse_args()
    _, replay_bin = run.build()

    drift = False
    for name in [args.workload] if args.workload else sorted(run.WORKLOADS):
        spec = run.WORKLOADS[name]
        work = os.path.join(run.WORK_ROOT, "exact-%s-s%d-%d"
                            % (name, args.seed, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            _, requests, _ = run.generate(name, args.seed, work)
            pairs = os.path.join(work, "pairs.txt")
            with open(pairs, "w") as f:
                first50 = sorted(set(requests[:50]))
                f.write("".join("1 %d\n" % c for c in first50))
            first = replay_counts(replay_bin, work, spec, pairs, "a")
            second = replay_counts(replay_bin, work, spec, pairs, "b")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        drifted = [key for key in first if first[key] != second[key]]
        for key in drifted:
            diff = [i for i, (x, y) in enumerate(zip(first[key], second[key]))
                    if x != y]
            print("DRIFT %s seed %d: %s differs (first at request %s)"
                  % (name, args.seed, key, diff[:1] or "length"))
        drift = drift or bool(drifted)
        print("%s seed %d: %d requests, reads %d, probes %d, inserted %d, "
              "answers %d: %s"
              % (name, args.seed, len(first["reads"]), sum(first["reads"]),
                 sum(first["probes"]), sum(first["inserted"]),
                 sum(first["answers"]), "DRIFT" if drifted else "exact"))
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
