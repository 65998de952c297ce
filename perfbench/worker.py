"""One workload in one process: set up, time rounds, check outputs.

Started by ``run.py`` with the thread caps and ``PYTHONPATH`` already in its
environment; writes one JSON result file and, when traced, one span file.
Rounds repeat the same inputs until the next round would overrun
``--seconds``; at least one round always runs.

Untraced rounds run under a ``SpeedProbe``: a timer signal interrupts the
round twenty times a second to time a fixed slice of NumPy/Python work.  On a
shared host the machine's speed drifts by tens of percent within minutes,
and the slices see the same drift as the round around them, so the round's
cost in slices stays steady where its seconds do not.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def openblas_threads():
    """Thread count of the OpenBLAS bundled with NumPy, or None if unknown."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class SpeedProbe:
    """Times ``reference_slice`` from a SIGALRM handler every ``PERIOD_S``
    seconds while active.  The handler runs in the main thread between
    bytecodes, so slices interleave with the round and never overlap it."""

    PERIOD_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(24, 9, 17))
        self._logp = raw - np.log(np.exp(raw).sum(-1, keepdims=True))
        self._labels = rng.integers(0, 16, 8)
        self._feats, self._w = rng.normal(size=(24, 8)), rng.normal(size=(32, 8))
        self.samples = []

    def reference_slice(self):
        """A scalar log-add DP loop and a small tanh layer, ~1 ms."""
        logp, labels = self._logp, self._labels
        T, U1, blank = logp.shape[0], logp.shape[1], logp.shape[2] - 1
        alpha = np.full((T, U1), -np.inf)
        alpha[0, 0] = 0.0
        for t in range(T):
            for u in range(U1):
                if t or u:
                    a = alpha[t - 1, u] + logp[t - 1, u, blank] if t else -np.inf
                    if u:
                        a = np.logaddexp(a, alpha[t, u - 1] + logp[t, u - 1, labels[u - 1]])
                    alpha[t, u] = a
        return float(np.tanh(self._feats @ self._w.T).sum()) + alpha[-1, -1]

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.reference_slice()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setups", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import twrnnt.experiments  # noqa: F401  (imports every layer the workloads use)

    import_s = time.perf_counter() - t0
    from twrnnt import kernels

    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    setup_s = []
    for i in range(args.setups):
        t0 = time.perf_counter()
        st = wl.setup(args.seed, args.work_dir / f"data-{i}")
        setup_s.append(time.perf_counter() - t0)

    shutil.rmtree(args.work_dir)

    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install()
    probe = None if tracer else SpeedProbe()
    walls, slices, digests, first, error = [], [], [], None, None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            if tracer:
                out = tracer.round(lambda: wl.run(st))
            else:
                with probe:
                    out = wl.run(st)
        except Exception:  # a failed round is reported, never timed
            error = traceback.format_exc()
            print(error, file=sys.stderr)
            break
        wall = time.perf_counter() - t0
        if probe:
            # The round's own time excludes the slices run inside it.
            wall -= sum(probe.samples)
            slices.append(probe.samples)
        walls.append(wall)
        digests.append(wl.digest(out))
        if first is None:
            first = out
        if time.perf_counter() - start + walls[-1] > args.seconds:
            break
    if tracer:
        tracer.uninstall()
    if first is None:
        sys.exit("no round completed")

    checks = wl.check(st, first)
    checks += [("round_digest_repeats", d == digests[0]) for d in digests[1:]]
    if error is not None:
        checks.append(("round_completed", False))

    result = {
        "round_s": walls,
        "slice_s": slices,
        "setup_s": setup_s,
        "import_s": import_s,
        "passes_per_round": wl.passes(st),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": [[name, bool(ok)] for name, ok in checks],
        "digest": digests[0],
        "record": wl.record(st, first),
        "facts": {
            "backend": getattr(kernels, "BACKEND", None),
            "TWRNNT_BACKEND": os.environ.get("TWRNNT_BACKEND"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "openblas_threads": openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "inputs": wl.inputs(st),
        },
    }
    if tracer:
        spans_path = args.out.with_name(args.out.stem + "-spans.json")
        tracer.write(spans_path)
        result["trace"] = {
            "spans_file": str(spans_path.name),
            "span_count": len(tracer.spans),
            "summary": tracer.summary(),
            "cells": tracer.cells,
            "absent": tracer.absent,
        }
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
