#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and judge steadiness.

    python3 perfbench/prove.py [--runs 10] [--workload NAME ...] [--out FILE]

For each workload it runs perfbench/run.py once per seed (1..runs, with
the run_seconds of BENCHMARK.json) and reports, per end-to-end metric,
the median and the spread: the distance between the first and third
quartile as a share of the median, as statistics.quantiles(values, n=4)
gives them. A metric is steady when its spread is below a third of its
bound (setup_s is judged on its median only). With --out the raw results
and the summary are written as JSON: the recorded baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
import pbstats  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"host": {"nproc": os.cpu_count()}, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    steady = True
    for w in workloads:
        results = []
        for seed in range(1, a.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            r = json.loads(last) if out.returncode == 0 else {}
            if not r.get("correct"):
                print("%s seed %d: not correct (rc %d)\n%s" % (w, seed, out.returncode,
                                                             out.stderr[-2000:]))
                steady = False
                continue
            results.append({"seed": seed, "attempted": r["attempted"], "failed": r["failed"],
                            "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v) for k, v in results[-1]["metrics"].items())), flush=True)
        summary = {}
        for m, bound in bounds.items():
            vals = [r["metrics"][m] for r in results]
            if len(vals) < 2:
                continue
            s = pbstats.spread(vals)
            ok = m == "setup_s" or s < bound / 3
            steady = steady and ok
            summary[m] = {"median": statistics.median(vals), "spread": s, "bound": bound,
                          "steady": ok}
            print("  %-18s median %-12.6g spread %.4f (bound %.2f) %s"
                  % (m, statistics.median(vals), s, bound, "ok" if ok else "NOT STEADY"))
        record["workloads"][w] = {"runs": results, "summary": summary}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
