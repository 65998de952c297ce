"""Kernel edge cases: hard zeros and empty label sequences through the
emission sweep, the weighted gradient and the backward fill."""

import numpy as np
import pytest

from twrnnt import kernels


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
