"""Backend equivalence: the numba-compiled kernels must reproduce the pure
NumPy fallback bit for bit (same source, same operation order)."""

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

    def test_emission_sweep_identical(self):
        impls = kernels.implementations()
        for logp, y in _instances(seed=91):
            py = impls["numpy"]["emission_sweep"](logp, y)
            nb = impls["numba"]["emission_sweep"](logp, y)
            for a, b in zip(py, nb):
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_gradients_agree_to_ulp(self):
        # The DP tables are bit-identical; the exp() in the reverse sweep
        # may differ by an ULP between numba's libm and numpy's.
        impls = kernels.implementations()
        rng = np.random.default_rng(92)
        for _ in range(20):
            lat, y = random_instance_nonempty(rng)
            logp = lat.logp
            A, R, prefix, ll2 = kernels.emission_sweep(logp, y)
            lam = rng.uniform(0, 2, size=y.size)
            w_py = impls["numpy"]["weighted_grad"](logp, y, A, R, prefix, ll2, lam, 1.0)
            w_nb = impls["numba"]["weighted_grad"](logp, y, A, R, prefix, ll2, lam, 1.0)
            np.testing.assert_allclose(w_py, w_nb, rtol=1e-14, atol=1e-17)


class TestKernelEdgeCases:
    def test_hard_zero_propagation(self):
        # -inf entries must flow through logaddexp without producing NaN.
        logp = np.full((3, 2, 3), -np.inf)
        logp[:, :, 2] = 0.0  # blanks certain, token impossible
        y = np.array([0], dtype=np.int64)
        A, R, prefix, ll = kernels.emission_sweep(logp, y)
        assert ll == -np.inf
        assert not np.isnan(A).any() and not np.isnan(R).any()
        beta, ll_b = kernels.backward_fill(logp, y)
        assert ll_b == -np.inf
        assert not np.isnan(beta).any()
        g = kernels.weighted_grad(logp, y, A, R, prefix, ll, np.zeros(1), 0.0)
        assert not np.isnan(g).any()

    def test_empty_label_sequence(self):
        rng = np.random.default_rng(93)
        raw = rng.normal(size=(4, 1, 3))
        logp = raw - np.log(np.sum(np.exp(raw), axis=-1, keepdims=True))
        y = np.zeros(0, dtype=np.int64)
        _, _, _, ll = kernels.emission_sweep(np.ascontiguousarray(logp), y)
        expected = np.sum(logp[:, 0, 2])
        assert ll == pytest.approx(expected, abs=1e-12)
