#!/usr/bin/env python3
"""twrnnt benchmark: one workload per call, results as one JSON line.

    python3 perfbench/run.py --workload corruption --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` runs the workload untraced in a
fresh process and prints the end-to-end metrics.  ``--trace 1`` runs it
twice more briefly, untraced and then traced, and prints the per-layer
metrics plus the tracing overhead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count output checks; the line before it holds the run facts.
Result and span files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUPS = 3  # set-ups per untraced run; setup_s is their median

sys.path.insert(0, str(HERE))
from tracing import ROUND, TARGETS  # noqa: E402

WORKLOADS = ("corruption", "long-lattice", "label-pool")


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for label, _, _ in TARGETS:
        out += [(f"{label}.calls", "count"), (f"{label}.self_s", "s")]
        if label.startswith("kernels."):
            out.append((f"{label}.cells", "count"))
    return out + [
        ("kernels.forward_per_utt_step", "ratio"),
        (f"{ROUND}.self_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead", "ratio"),
    ]


def run_worker(args, tag, seconds, setups, traced, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One BLAS thread (at most nproc): the workloads are single-threaded
    # loops over small matrices, and extra threads only add noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = OUT / f"{args.workload}-seed{args.seed}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--setups", str(setups),
        "--traced", str(traced),
        "--work-dir", str(OUT / f"work-{args.workload}-seed{args.seed}"),
        "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"perfbench: {tag} worker exited with code {proc.returncode}")
    return json.loads(out.read_text())


def end_to_end(res):
    """Round cost in reference slices (see worker.SpeedProbe): each round's
    own seconds over the mean slice time measured during it."""
    cost = statistics.median(
        wall / statistics.fmean(sl) for wall, sl in zip(res["round_s"], res["slice_s"]) if sl
    )
    return {
        "round_cost": (cost, "slices"),
        "utt_passes_per_kslice": (1000.0 * res["passes_per_round"] / cost, "1/kslice"),
        "setup_s": (res["import_s"] + statistics.median(res["setup_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(base, traced):
    tr = traced["trace"]
    rounds = len(traced["round_s"])
    values = {}
    for name, stats in tr["summary"].items():
        values[f"{name}.calls"] = stats["calls"] / rounds
        values[f"{name}.self_s"] = stats["self_s"] / rounds
    for label, cells in tr["cells"].items():
        values[f"{label}.cells"] = cells / rounds
    steps = values.get("model.model_backward.calls", 0.0)
    forwards = values.get("kernels.forward_fill.calls", 0.0) + values.get("kernels.emission_sweep.calls", 0.0)
    values["kernels.forward_per_utt_step"] = forwards / steps if steps else 0.0
    values["trace.spans"] = tr["span_count"] / rounds
    values["trace.overhead"] = statistics.median(traced["round_s"]) / statistics.median(base["round_s"])
    # A layer function that a later refactor removed reads as 0 and is
    # named under "absent" in the run facts.
    return {name: (values.get(name, 0.0), unit) for name, unit in per_layer_names()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "twrnnt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no twrnnt sources under {ROOT / 'src'}; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        half = args.seconds / 2
        base = run_worker(args, "untraced", half, 1, 0, deadline)
        traced = run_worker(args, "traced", half, 1, 1, deadline)
        runs = [base, traced]
        metrics = per_layer(base, traced)
        checks = [c for r in runs for c in r["checks"]]
        checks.append(["tracing_leaves_outputs_unchanged", base["digest"] == traced["digest"]])
    else:
        runs = [run_worker(args, "plain", args.seconds, SETUPS, 0, deadline)]
        metrics = end_to_end(runs[0])
        checks = runs[0]["checks"]

    failed = [name for name, ok in checks if not ok]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rounds": [len(r["round_s"]) for r in runs],
                "wall_s": [statistics.median(r["round_s"]) for r in runs],
                "failed_checks": sorted(set(failed)),
                "digest": runs[0]["digest"],
                "record": runs[0]["record"],
                "facts": runs[0]["facts"],
                "absent": runs[-1].get("trace", {}).get("absent", []),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
