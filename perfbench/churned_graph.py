#!/usr/bin/env python3
"""Write the live graph of a serve-churn session after a number of script
requests, as an edge list forestd reads: the graph run.py's client holds
in its mirror at that point of the script.

    python3 perfbench/churned_graph.py --seed 4 --requests 3000 --out g.txt

Run from the repository root after one run.py run has built forestd.exe.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--requests", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    os.makedirs(run.WORK, exist_ok=True)
    n, edges = run.generate(run.SERVE_N, run.SERVE_ALPHA, a.seed, a.out, shuffle=False)
    mi = run.Mirror(edges)
    rng = run.script_rng(a.seed)
    for _ in range(a.requests):
        mi.apply(mi.next_request(rng))
    with open(a.out, "w") as f:
        f.write("n %d\n" % n)
        f.writelines("%d %d\n" % e for e, alive in zip(mi.slots, mi.live) if alive)


if __name__ == "__main__":
    main()
