#!/usr/bin/env python3
"""Run the benchmark once per seed, one run at a time, and summarise each
metric by its median, quartiles and spread (quartile distance over median).

    python3 perfbench/spread.py --workload grid --seeds 1-10
    python3 perfbench/spread.py --workload ladder --seeds 0-9 --out runs.json

Quartiles are those of ``statistics.quantiles(values, n=4)``.  Every
end-to-end metric of ``BENCHMARK.json`` whose spread is not below a third of
its bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "unit": results[0]["metrics"][name]["unit"], "values": values}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for seed in parse_seeds(args.seeds):
        res = run_once(args.workload, seed, seconds, args.trace)
        if not res["correct"]:
            raise SystemExit(f"seed {seed}: incorrect result {res}")
        results.append(res)
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    summary = summarise(results)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, s in summary.items():
        flag = ""
        if name in bounds and not s["spread"] < bounds[name] / 3:
            flag = "  <-- spread not below bound/3"
        print(f"{args.workload:14s} {name:36s} median {s['median']:12.6g} {s['unit']:8s} "
              f"spread {s['spread']:8.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
             "trace": args.trace, "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
