"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload rigidity-ladder --seeds 1-10

The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, printed next
to the bound BENCHMARK.json gives the metric.  Raw outputs are kept under
perfbench/out/runs/.  Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    outdir = os.path.join(ROOT, "perfbench", "out", "runs")
    os.makedirs(outdir, exist_ok=True)

    results = []
    for seed in seeds_from(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        tag = f"{args.workload}-trace{args.trace}-seed{seed}"
        with open(os.path.join(outdir, tag + ".txt"), "w") as fh:
            fh.write(proc.stdout + proc.stderr)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(last)
        shown = {k: round(v["value"], 4) for k, v in last["metrics"].items() if bounds.get(k)}
        print(f"seed {seed}: correct={last['correct']} {last['failed']}/{last['attempted']} {shown}",
              flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}  all correct: {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE" if spread >= bound else "  >1/3")
        print(f"{name:42s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
