"""Property tests on small random lattices and padded batches of them.

Generated lattices range over T = 1, U = 0, U > T, logits up to 1e3 in
magnitude and -inf hard-zero cells; explicit examples pin each of those
cases.  Example counts stay small so the suite's wall time barely moves.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import PROPERTY, cases, with_hard_zeros
from references import emission_sweep_scalar, weighted_grad_scalar
from twrnnt import kernels
from twrnnt.errors import NumericalError
from twrnnt.lattice import backward, forward, rnnt_loss_grad
from twrnnt.oracle import loglik_grad
from twrnnt.weighting import TokenWeights, WeightConfig, weighted_loss_and_grad


def seeded(T, U, V, scale=1.5, zeros=(), seed=0):
    rng = np.random.default_rng(seed)
    raw = scale * rng.normal(size=(T, U + 1, V + 1))
    return with_hard_zeros(raw, rng.integers(0, V, size=U), zeros)


EDGE_CASES = [
    seeded(T=1, U=0, V=2),
    seeded(T=1, U=3, V=2),
    seeded(T=2, U=5, V=3),
    seeded(T=4, U=3, V=3, scale=1e3),
    seeded(T=3, U=2, V=2, zeros=[(0, 1, 2), (1, 0, 2)]),
    seeded(T=3, U=2, V=2, zeros=[(2, 2, 2)]),
]


def _edge_examples(fn):
    for case in EDGE_CASES:
        fn = example(case=case)(fn)
    return fn


@PROPERTY
@given(case=cases())
@_edge_examples
def test_forward_and_backward_loglik_agree(case):
    lat, y = case
    f, b = forward(lat, y).loglik, backward(lat, y).loglik
    if f == -np.inf or b == -np.inf:
        assert f == b
    else:
        assert abs(f - b) <= 1e-9 * max(1.0, abs(f))


@PROPERTY
@given(case=cases())
@_edge_examples
def test_standard_gradient_matches_occupancy_oracle(case):
    lat, y = case
    if forward(lat, y).loglik == -np.inf:
        with pytest.raises(NumericalError, match="zero probability"):
            rnnt_loss_grad(lat, y)
        return
    g = rnnt_loss_grad(lat, y)
    np.testing.assert_allclose(g, -loglik_grad(lat, y), rtol=0, atol=1e-9)
    assert g[lat.T - 1, lat.U, lat.blank] == -1.0


@PROPERTY
@given(case=cases(hard_zeros=False), data=st.data())
def test_weighted_loss_is_linear_in_weights(case, data):
    lat, y = case
    weights = hnp.arrays(np.float64, y.size, elements=st.floats(0.0, 4.0))
    lam1, lam2 = data.draw(weights), data.draw(weights)
    fb1, fb2 = data.draw(st.floats(0.0, 4.0)), data.draw(st.floats(0.0, 4.0))
    a = data.draw(st.floats(0.0, 3.0))

    def loss_and_grad(lam, fb):
        w = TokenWeights(lam, np.ones(y.size), WeightConfig(final_blank_weight=fb))
        return weighted_loss_and_grad(lat, y, w)

    l1, g1 = loss_and_grad(lam1, fb1)
    l2, g2 = loss_and_grad(lam2, fb2)
    l12, g12 = loss_and_grad(lam1 + a * lam2, fb1 + a * fb2)
    # Every term is a nonnegative weight times a nonnegative -log mass.
    assert abs(l12 - (l1 + a * l2)) <= 1e-10 * (1.0 + l1 + a * l2)
    scale = 1.0 + np.max(np.abs(g1)) + a * np.max(np.abs(g2))
    assert np.max(np.abs(g12 - (g1 + a * g2))) <= 1e-10 * scale


@st.composite
def weighted_batches(draw):
    """1..8 (lattice, labels, token weights, final-blank weight) tuples that
    share one vocabulary, as the utterances of a training batch do."""
    V = draw(st.integers(1, 3))
    batch = []
    for lat, y in draw(st.lists(cases(V=V), min_size=1, max_size=8)):
        lam = draw(hnp.arrays(np.float64, y.size, elements=st.sampled_from([0.0, 0.5, 1.0, 1.7])))
        fb = draw(st.sampled_from([0.0, 1.0, 0.3]))
        batch.append((lat, y, lam, fb))
    return batch


EDGE_BATCH = [
    (lat, y, np.linspace(0.0, 2.0, y.size), fb)
    for (lat, y), fb in zip(
        [
            seeded(T=1, U=0, V=2),
            seeded(T=1, U=3, V=2),
            seeded(T=2, U=5, V=2),
            seeded(T=4, U=3, V=2, scale=1e3),
            seeded(T=3, U=2, V=2, zeros=[(0, 1, 2), (1, 0, 2)]),
            seeded(T=3, U=2, V=2, zeros=[(2, 2, 2)]),
        ],
        [1.0, 0.0, 1.0, 0.3, 1.0, 1.0],
    )
]


def _padded(batch):
    cols = kernels.PaddedColumns([lat.T for lat, *_ in batch], [y.size for _, y, *_ in batch])
    lam = np.zeros((len(batch), cols.emit.shape[2]))
    for b, (lat, y, lam_b, _) in enumerate(batch):
        cols.put(b, lat.logp, y)
        lam[b, : y.size] = lam_b
    return cols, lam, np.array([fb for *_, fb in batch])


@PROPERTY
@given(batch=weighted_batches())
@example(batch=EDGE_BATCH)
def test_padded_batch_matches_scalar_loops_exactly(batch):
    cols, lam, fb = _padded(batch)
    sweep = cols.sweep()
    A, R, prefix, loglik = sweep
    g_blank, g_emit = cols.grad(sweep, lam, fb)
    for b, (lat, y, lam_b, fb_b) in enumerate(batch):
        T, U = lat.T, y.size
        ref = emission_sweep_scalar(lat.logp, y)
        np.testing.assert_array_equal(A[b, :T, : U + 1], ref[0])
        np.testing.assert_array_equal(R[b, :T, : U + 1], ref[1])
        np.testing.assert_array_equal(prefix[b, : U + 1], ref[2])
        assert loglik[b] == ref[3]
        np.testing.assert_array_equal(
            kernels.dense_grad(g_blank[b, :T], g_emit[b, :T], y, lat.logp.shape[2]),
            weighted_grad_scalar(lat.logp, y, *ref, lam_b, fb_b),
        )
        # Nothing leaks into the padding.
        for table in (A[b], R[b]):
            assert np.all(table[T:] == -np.inf) and np.all(table[:, U + 1 :] == -np.inf)
        assert np.all(prefix[b, U + 1 :] == -np.inf)
        assert not g_blank[b, T:].any() and not g_blank[b, :, U + 1 :].any()
        assert not g_emit[b, T:].any() and not g_emit[b, :, U:].any()


def test_long_lattice_stays_finite():
    # T in the thousands: log masses reach -1e3 and beyond, and nothing
    # may underflow to NaN.  Two lengths exercise the padding as well.
    batch = [seeded(T=2000, U=12, V=3, seed=1), seeded(T=1500, U=8, V=3, seed=2)]
    cols, lam, fb = _padded([(lat, y, np.ones(y.size), 1.0) for lat, y in batch])
    sweep = cols.sweep()
    g_blank, g_emit = cols.grad(sweep, lam, fb)
    assert np.all(np.isfinite(g_blank)) and np.all(np.isfinite(g_emit))
    for b, (lat, y) in enumerate(batch):
        loglik = sweep[3][b]
        assert np.isfinite(loglik) and loglik < -1e3
        _, ll_b = kernels.backward_fill(lat.logp, y)
        assert abs(loglik - ll_b) <= 1e-9
        # Standard-loss gradient identities: the final blank carries -1, and
        # every path takes exactly one blank per frame, so each frame's
        # blank gradients sum to -1.
        g = kernels.dense_grad(g_blank[b, : lat.T], g_emit[b, : lat.T], y, lat.logp.shape[2])
        assert g[lat.T - 1, y.size, lat.blank] == -1.0
        np.testing.assert_allclose(g[:, :, lat.blank].sum(axis=1), -1.0, atol=1e-9)
