#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

Runs each workload once per seed (end-to-end metrics, --trace 0, each run as
long as BENCHMARK.json's run_seconds) and prints, per metric, the median,
the first and third quartiles and the spread: the inter-quartile distance as
a share of the median, as statistics.quantiles(values, n=4) gives the
quartiles. Run it from the root of the repository:

    python3 e2ebench/steadiness.py --seeds 1-10 [workload ...]

It measures two sets of the same code, the second on the seeds shifted by
their count. The sets are interleaved run by run, in reversed order every
other round, the way a comparison of two commits alternates, so a slow spell
of the host falls on both alike. The second set's medians are compared with
the first's. It checks every spread (but setup_s's) and every median drift
against the metric's bound in BENCHMARK.json and exits 1 if one is beyond
it. With --json FILE it also writes every run's metrics and the summary
there.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: run failed: {res}")
    return res, time.monotonic() - start


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="the first set's seed range, e.g. 1-10")
    ap.add_argument("--json", help="also write runs and summary to this file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    args.workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    first = seeds(args.seeds)
    runs = {w: [[], []] for w in args.workloads}
    walls = {w: [] for w in args.workloads}
    for i, s in enumerate(first):
        for w in args.workloads:
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = s + k * len(first)
                res, wall = run(w, seed, bench["run_seconds"])
                runs[w][k].append({"seed": seed, "attempted": res["attempted"], "metrics": res["metrics"]})
                walls[w].append(wall)
        print(f"round {i + 1}/{len(first)} done", file=sys.stderr, flush=True)

    report, beyond = {}, []
    for w in args.workloads:
        sets = []
        for k, rs in enumerate(runs[w]):
            summary = {n: summarize([r["metrics"][n]["value"] for r in rs]) for n in metrics}
            sets.append({"runs": rs, "summary": summary})
        report[w] = {"sets": sets, "run_wall_s": summarize(walls[w])}
        ops = [r["attempted"] for rs in runs[w] for r in rs]
        print(f"{w}: ops per run {min(ops)}-{max(ops)}, wall per run median "
              f"{statistics.median(walls[w]):.1f}s max {max(walls[w]):.1f}s")
        for n, m in sorted(metrics.items()):
            base = sets[0]["summary"][n]
            for k, st in enumerate(sets):
                sm = st["summary"][n]
                line = (f"  {n:16s} set {k + 1}  median {sm['median']:11.6g}  q1 {sm['q1']:11.6g}  "
                        f"q3 {sm['q3']:11.6g}  spread {sm['spread']:.3f}")
                if n != "setup_s" and sm["spread"] > m["bound"]:
                    beyond.append(f"{w} set {k + 1} {n} spread {sm['spread']:.3f} > {m['bound']}")
                if k > 0:
                    drift = sm["median"] / base["median"] - 1
                    worse = drift if m["better"] == "lower" else -drift
                    sm["drift"] = drift
                    line += f"  drift {drift:+.3f}"
                    if worse > m["bound"]:
                        beyond.append(f"{w} set {k + 1} {n} median worse by {worse:.3f} > {m['bound']}")
                print(line)
        sys.stdout.flush()
    for b in beyond:
        print("beyond bound:", b)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(1 if beyond else 0)


if __name__ == "__main__":
    main()
