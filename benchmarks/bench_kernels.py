#!/usr/bin/env python3
"""Benchmark the DP kernels: numba backend vs pure-NumPy fallback.

Builds a seeded desk-scale lattice and verifies every available backend
before timing anything: the emission sweep's log-likelihood must match the
backward table's, and the unit-weight gradient sweep must match the oracle
occupancy gradient, both to 1e-9.  With numba present the two backends'
emission-sweep tables must also be bit-identical.  Run from the repo root:

    python3 benchmarks/bench_kernels.py [--frames 50 --labels 20 --vocab 32]
"""

import argparse
import time

import numpy as np

from twrnnt import kernels
from twrnnt.lattice import PosteriorLattice
from twrnnt.oracle import loglik_grad

TOL = 1e-9


def make_instance(T, U, V, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(scale=1.5, size=(T, U + 1, V + 1))
    logp = raw - np.log(np.sum(np.exp(raw), axis=-1, keepdims=True))
    labels = rng.integers(0, V, size=U).astype(np.int64)
    return np.ascontiguousarray(logp), labels


def time_call(fn, args, repeats):
    fn(*args)  # warmup (and JIT compile for the numba table)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - t0) / repeats


def verify(name, table, logp, labels, occupancy):
    """Check one backend against the independent references; exit on failure."""
    A, R, prefix, ll = table["emission_sweep"](logp, labels)
    _, ll_b = table["backward_fill"](logp, labels)
    ones = np.ones(labels.size)
    g = table["weighted_grad"](logp, labels, A, R, prefix, ll, ones, 1.0)
    ll_gap = abs(ll - ll_b)
    grad_gap = float(np.max(np.abs(g + occupancy)))
    print(
        f"{name}: emission_sweep vs backward_fill loglik gap {ll_gap:.1e}, "
        f"unit-weight grad vs oracle occupancy gap {grad_gap:.1e}"
    )
    if not (ll_gap <= TOL and grad_gap <= TOL):
        raise SystemExit(f"{name} backend failed verification (tolerance {TOL})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=50)
    parser.add_argument("--labels", type=int, default=20)
    parser.add_argument("--vocab", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()

    logp, labels = make_instance(args.frames, args.labels, args.vocab)
    impls = kernels.implementations()
    if impls["numba"] is None:
        print("numba unavailable or disabled; benchmarking the NumPy path only")
    tables = {name: table for name, table in impls.items() if table is not None}

    occupancy = loglik_grad(PosteriorLattice(logp), labels)
    for name, table in tables.items():
        verify(name, table, logp, labels, occupancy)
    if len(tables) == 2:
        py = tables["numpy"]["emission_sweep"](logp, labels)
        nb = tables["numba"]["emission_sweep"](logp, labels)
        if not all(np.array_equal(a, b) for a, b in zip(py, nb)):
            raise SystemExit("backends disagree on the emission sweep")
        print("backend agreement check: OK")

    lam = np.linspace(0.5, 1.5, args.labels)
    level = args.labels // 2
    cases = {}
    for name, table in tables.items():
        A, R, prefix, ll = table["emission_sweep"](logp, labels)
        cases[name] = {
            "backward_fill": (table["backward_fill"], (logp, labels)),
            "emission_sweep": (table["emission_sweep"], (logp, labels)),
            "weighted_grad": (
                table["weighted_grad"],
                (logp, labels, A, R, prefix, ll, lam, 1.0),
            ),
            "next_symbol_masses": (
                table["next_symbol_masses"],
                (logp, np.ascontiguousarray(A[:, level]), level),
            ),
        }

    print(
        f"\nlattice T={args.frames} U={args.labels} |V|={args.vocab}, "
        f"{args.repeats} repeats\n"
    )
    header = f"{'kernel':<20}" + "".join(f"{n:>14}" for n in cases)
    if len(cases) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for kernel_name in next(iter(cases.values())):
        times = {}
        for backend, table in cases.items():
            fn, fargs = table[kernel_name]
            times[backend] = time_call(fn, fargs, args.repeats)
        row = f"{kernel_name:<20}" + "".join(
            f"{times[b] * 1e3:>12.3f}ms" for b in cases
        )
        if len(times) == 2:
            row += f"{times['numpy'] / times['numba']:>9.1f}x"
        print(row)


if __name__ == "__main__":
    main()
