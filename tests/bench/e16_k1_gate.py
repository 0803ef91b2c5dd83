"""E16's k = 1 column is one enqueue or one dequeue, so it must equal E2's
and E3a's steps/op mean at the same p, --ops and --adversary; and a run of
64 enqueues must cost fewer steps per enqueue than a lone one.

  python3 e16_k1_gate.py E2.json E3.json E16.json

Each file is `bench_runner --format json` output of one experiment run with
the same --procs, --queues and --adversary.
"""

import json
import sys


def sections(path):
    with open(path) as f:
        return {s["id"]: s for s in json.load(f)["experiments"][0]["sections"]}


def main():
    e2, e3, e16 = (sections(p) for p in sys.argv[1:4])
    bad = []
    for sid, s in e16.items():
        kind, _, queue = sid.partition(":")
        if kind not in ("E16a", "E16b"):
            continue
        ref = e2["E2:" + queue] if kind == "E16a" else e3["E3a:" + queue]
        want = {row[0]: row[3] for row in ref["rows"]}  # p -> steps/op mean
        for row in s["rows"]:
            p, k1, k64 = row[1], row[2], row[-1]
            if k1 != want.get(p):
                bad.append(f"{sid} p={p}: k=1 reads {k1}, want {want.get(p)}")
            if kind == "E16a" and not k64 < k1:
                bad.append(f"{sid} p={p}: k=64 reads {k64} >= k=1 {k1}")
    for line in bad:
        print(line)
    print(f"{len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
