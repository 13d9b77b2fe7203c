#!/usr/bin/env python3
"""Steadiness check: run one workload once per seed and report, for every
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload sfd-hpstar --seeds 1-10 [--json OUT]

Run from the repository root, like run.py. A spread below a third of its
bound is steady; setup_s has no spread gate, only its median is compared.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    runs = []
    for seed in seeds_of(a.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                     "failed": res["failed"],
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % kv for kv in runs[-1]["metrics"].items())), flush=True)
    summary = {}
    print("%-26s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "unit": m["unit"]}
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
        print("%-26s %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
            m["name"], med, q1, q3, spread, m["bound"], flag))
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"workload": a.workload, "run_seconds": bench["run_seconds"],
                       "runs": runs, "summary": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
