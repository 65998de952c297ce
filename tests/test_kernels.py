"""Kernel edge cases, and backend equivalence: the numba-compiled
single-lattice kernels must reproduce the pure NumPy loops bit for bit
(same source, same operation order)."""

import numpy as np
import pytest

from conftest import random_instance, random_instance_nonempty
from twrnnt import kernels


requires_numba = pytest.mark.skipif(
    kernels.implementations()["numba"] is None, reason="numba unavailable/disabled"
)


def _instances(n=25, seed=90):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lat, y = random_instance(rng)
        yield lat.logp, y


@requires_numba
class TestBackendEquivalence:
    def test_backward_fill_identical(self):
        impls = kernels.implementations()
        for logp, y in _instances():
            b_py, bl_py = impls["numpy"]["backward_fill"](logp, y)
            b_nb, bl_nb = impls["numba"]["backward_fill"](logp, y)
            np.testing.assert_array_equal(b_py, b_nb)
            assert bl_py == bl_nb

    def test_next_symbol_masses_identical(self):
        impls = kernels.implementations()
        rng = np.random.default_rng(91)
        for _ in range(25):
            lat, y = random_instance_nonempty(rng)
            level = int(rng.integers(0, y.size + 1))
            A, _, _, _ = kernels.PaddedColumns.of(lat.logp, y).sweep()
            A_prev = np.ascontiguousarray(A[0, :, level])
            py = impls["numpy"]["next_symbol_masses"](lat.logp, A_prev, level)
            nb = impls["numba"]["next_symbol_masses"](lat.logp, A_prev, level)
            np.testing.assert_array_equal(py, nb)


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
