"""Kernel edge cases: hard zeros and empty label sequences through the
emission sweep, the weighted gradient and the backward fill, and the edge
cases of the diagonal-major layout against the per-cell loops."""

import numpy as np
import pytest

from conftest import owned_cells, owned_label_cells, with_hard_zeros
from references import emission_sweep_scalar, loglik_grad, weighted_grad_scalar
from twrnnt import kernels
from twrnnt.lattice import PosteriorLattice


class TestKernelEdgeCases:
    def test_hard_zero_propagation(self):
        # -inf entries must flow through logaddexp without producing NaN.
        logp = np.full((3, 2, 3), -np.inf)
        logp[:, :, 2] = 0.0  # blanks certain, token impossible
        y = np.array([0], dtype=np.int64)
        cols = kernels.PaddedColumns.of(logp, y)
        A, R, prefix, ll = sweep = cols.sweep()
        assert ll[0] == -np.inf
        assert not np.isnan(A).any() and not np.isnan(R).any()
        beta, ll_b = kernels.backward_fill(logp, y)
        assert ll_b == -np.inf
        assert not np.isnan(beta).any()
        g_blank, g_emit = cols.grad(sweep, np.zeros((1, 1)), np.zeros(1))
        assert not np.isnan(g_blank).any() and not np.isnan(g_emit).any()

    def test_empty_label_sequence(self):
        rng = np.random.default_rng(93)
        raw = rng.normal(size=(4, 1, 3))
        logp = raw - np.log(np.sum(np.exp(raw), axis=-1, keepdims=True))
        y = np.zeros(0, dtype=np.int64)
        _, _, _, ll = kernels.PaddedColumns.of(logp, y).sweep()
        expected = np.sum(logp[:, 0, 2])
        assert ll[0] == pytest.approx(expected, abs=1e-12)


def lattice(T, U, V=2, zeros=(), seed=0):
    rng = np.random.default_rng(seed)
    raw = 1.5 * rng.normal(size=(T, U + 1, V + 1))
    lat, y = with_hard_zeros(raw, rng.integers(0, V, size=U), zeros)
    return lat.logp, y


# The edge cases of the diagonal-major layout, one lattice each.
EDGES = {
    "hard_zeros": lattice(3, 2, zeros=[(0, 1, 2), (1, 0, 2), (2, 1, 0)]),
    "unreachable": lattice(3, 2, zeros=[(2, 2, 2)]),
    "U=0": lattice(4, 0),
    "T=1": lattice(1, 3),
    "T=1,U=0": lattice(1, 0),
    "U>T": lattice(2, 5, V=3),
    "long_diagonals": lattice(7, 4, seed=1),
}


def padded(items, K=1):
    """K runs' rows stacked in one table: run k's copy of the lattices
    (each run's log-probabilities shifted by k) in rows k*B.., with their
    token weights and sentence-end weights, which depend on U alone."""
    B = len(items)
    stacked = kernels.PaddedColumns(
        np.tile([logp.shape[0] for logp, _ in items], K), np.tile([y.size for _, y in items], K)
    )
    lam = np.zeros((K * B, stacked.blank.shape[2] - 1))
    for k in range(K):
        for b, (logp, y) in enumerate(items):
            stacked.put(k * B + b, logp - 0.25 * k, y)
            lam[k * B + b, : y.size] = np.linspace(0.5, 1.5, y.size)
    return stacked, lam, 0.5 * (stacked.U % 3)


def check_rows(cols, lam, fb, items, K=1):
    """Every row of the batch equals the scalar loops on its own lattice,
    and nothing leaks outside its cells: the label columns sit at levels
    1..U, level 0 of the label table stays -inf and its gradient is 0."""
    sweep = cols.sweep()
    A, R, prefix, loglik = sweep
    g_blank, g_emit = cols.grad(sweep, lam, fb)
    B = len(items)
    for row in range(K * B):
        k, b = divmod(row, B)
        logp, y = items[b]
        logp = logp - 0.25 * k
        T, U = logp.shape[0], y.size
        ref = emission_sweep_scalar(logp, y)
        np.testing.assert_array_equal(kernels.grid(A, row, T, U + 1), ref[0])
        np.testing.assert_array_equal(kernels.grid(R, row, T, U + 1), ref[1])
        np.testing.assert_array_equal(prefix[row, : U + 1], ref[2])
        assert loglik[row] == ref[3]
        np.testing.assert_array_equal(
            kernels.dense_grad(g_blank, g_emit, row, T, y, logp.shape[2]),
            weighted_grad_scalar(logp, y, *ref, lam[row, :U], fb[row]),
        )
        own = owned_cells(A.shape, T, U)
        own_label = owned_label_cells(cols.emit.shape, T, U)
        assert g_emit.shape == cols.emit.shape == cols.blank.shape
        assert np.all(A[:, row][~own] == -np.inf) and np.all(R[:, row][~own] == -np.inf)
        assert np.all(cols.blank[:, row][~own] == -np.inf)
        assert np.all(cols.emit[:, row][~own_label] == -np.inf)
        assert np.all(cols.emit[:, row, 0] == -np.inf)
        assert np.all(prefix[row, U + 1 :] == -np.inf)
        assert not g_blank[:, row][~own].any()
        assert not g_emit[:, row][~own_label].any()
        assert np.all(g_emit[:, row, 0] == 0.0)
    return sweep, (g_blank, g_emit)


class TestDiagonalLayout:
    """The batched kernels on diagonal-major tables, equal with == to the
    per-cell loops of ``tests/references.py``."""

    @pytest.mark.parametrize("case", sorted(EDGES))
    def test_one_lattice(self, case):
        items = [EDGES[case]]
        check_rows(*padded(items), items)

    def test_mixed_batch_equals_each_utterance(self):
        items = [EDGES[case] for case in sorted(EDGES)]
        sweep, grads = check_rows(*padded(items), items)
        for b, item in enumerate(items):
            T, W = item[0].shape[0], item[1].size + 1
            own_sweep, own_grads = check_rows(*padded([item]), [item])
            for got, want in zip(sweep[:2] + grads, own_sweep[:2] + own_grads):
                np.testing.assert_array_equal(kernels.grid(got, b, T, W), kernels.grid(want, 0, T, W))
            np.testing.assert_array_equal(sweep[2][b, :W], own_sweep[2][0])
            assert sweep[3][b] == own_sweep[3][0]

    def test_stacked_runs(self):
        # Three runs' rows in one table, as a lockstep training step holds
        # them: each row equals its own lattice's scalar loops, and each
        # run's slab equals that run swept alone.
        items = [EDGES[case] for case in ("U>T", "hard_zeros", "U=0", "long_diagonals")]
        K, B = 3, len(items)
        stacked, lam, fb = padded(items, K)
        sweep, grads = check_rows(stacked, lam, fb, items, K)
        for k in range(K):
            rows = slice(k * B, (k + 1) * B)
            own = kernels.PaddedColumns(stacked.T[rows], stacked.U[rows])
            own.blank[...], own.emit[...] = stacked.blank[:, rows], stacked.emit[:, rows]
            own_sweep = own.sweep()
            own_grads = own.grad(own_sweep, lam[rows], fb[rows])
            for got, want in zip(sweep[:2] + grads, own_sweep[:2] + own_grads):
                np.testing.assert_array_equal(got[:, rows], want)
            np.testing.assert_array_equal(sweep[2][rows], own_sweep[2])
            np.testing.assert_array_equal(sweep[3][rows], own_sweep[3])


    def test_dense_grad_matches_oracle_occupancy(self):
        # The unit-weight gradient read out by ``dense_grad`` is minus the
        # occupancy gradient of the independent forward-backward oracle, for
        # every row of a stacked batch: a readout of the label cells one
        # level or diagonal off fails this, while comparisons of the kernel
        # with itself cannot.  Zero cells agree exactly.
        items = [EDGES[case] for case in sorted(EDGES)]
        K, B = 2, len(items)
        cols, lam, _ = padded(items, K)
        g_blank, g_emit = cols.grad(cols.sweep(), (lam > 0) * 1.0, np.ones(K * B))
        for row in range(K * B):
            k, b = divmod(row, B)
            logp, y = items[b]
            logp = logp - 0.25 * k
            got = kernels.dense_grad(g_blank, g_emit, row, logp.shape[0], y, logp.shape[2])
            want = -loglik_grad(PosteriorLattice(logp), y)
            np.testing.assert_array_equal(got == 0, want == 0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
