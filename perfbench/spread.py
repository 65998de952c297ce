#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload corruption --seeds 1-10

Spread is the distance between the first and third quartiles of the values
(``statistics.quantiles(values, n=4)``) as a share of their median, the
figure that ``BENCHMARK.json``'s bounds are compared against.  Each seed's
final result line is appended to ``.perfbench/spread.jsonl`` as it arrives.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    log = HERE.parent / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip().splitlines()[-1]
        res = json.loads(line)
        with open(log, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **res}) + "\n")
        if not res["correct"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} checks failed")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"  bound {bound}  ({spread / bound:.0%} of it)" if bound else ""
        print(f"{args.workload:13s} {name:28s} median {med:.6g}  spread {spread:.4f}{note}")


if __name__ == "__main__":
    main()
