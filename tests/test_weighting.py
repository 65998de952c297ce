import numpy as np
import pytest

from conftest import random_instance, random_instance_nonempty, random_lattice
from references import finite_diff_grad
from twrnnt.conditionals import conditional_profile
from twrnnt.errors import DataError, NumericalError
from twrnnt.lattice import rnnt_loss, rnnt_loss_grad
from twrnnt.oracle import exact_conditionals, exact_final_blank_logp
from twrnnt.weighting import (
    TokenWeights,
    WeightConfig,
    compute_weights,
    weighted_loss_and_grad,
    weighted_rnnt_loss,
    weighted_rnnt_loss_grad,
)


def grad_scale_error(analytic, numeric):
    denom = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    return np.max(np.abs(analytic - numeric)) / denom


class TestComputeWeights:
    def test_uniform_confidences_give_unit_weights(self):
        for alpha in (0.0, 1.0, 3.5):
            w = compute_weights(np.array([0.5, 0.5]), WeightConfig(alpha=alpha))
            np.testing.assert_allclose(w.lambdas, [1.0, 1.0], atol=1e-12)

    def test_formula_direct_evaluation(self):
        w = compute_weights(np.array([1.0, 0.25]), WeightConfig(alpha=1.0))
        np.testing.assert_allclose(w.lambdas, [1.6, 0.4], atol=1e-12)

    def test_alpha_zero_collapses_to_ones(self):
        rng = np.random.default_rng(60)
        c = rng.uniform(0.01, 1.0, size=7)
        w = compute_weights(c, WeightConfig(alpha=0.0))
        np.testing.assert_array_equal(w.lambdas, np.ones(7))

    def test_mean_one_per_utterance(self):
        rng = np.random.default_rng(61)
        for alpha in (0.5, 1.0, 4.0, 8.0):
            c = rng.uniform(0.01, 1.0, size=11)
            w = compute_weights(c, WeightConfig(alpha=alpha))
            assert np.mean(w.lambdas) == pytest.approx(1.0, abs=1e-9)

    def test_mean_one_per_batch(self):
        rng = np.random.default_rng(62)
        cs = [rng.uniform(0.01, 1.0, size=int(rng.integers(1, 9))) for _ in range(5)]
        ws = compute_weights(cs, WeightConfig(alpha=2.0))
        all_lams = np.concatenate([w.lambdas for w in ws])
        assert np.mean(all_lams) == pytest.approx(1.0, abs=1e-9)

    def test_order_preserved_and_ratio_monotone_in_alpha(self):
        rng = np.random.default_rng(63)
        c = rng.uniform(0.01, 1.0, size=9)
        prev_ratio = None
        i, j = int(np.argmax(c)), int(np.argmin(c))
        for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
            w = compute_weights(c, WeightConfig(alpha=alpha)).lambdas
            assert np.array_equal(np.argsort(w), np.argsort(c))
            ratio = w[i] / w[j]
            if prev_ratio is not None:
                assert ratio >= prev_ratio - 1e-12
            prev_ratio = ratio

    def test_rejects_bad_confidences(self):
        with pytest.raises(DataError, match="not in"):
            compute_weights(np.array([0.5, 0.0]), WeightConfig())
        with pytest.raises(DataError, match="exceeds 1"):
            compute_weights(np.array([1.5]), WeightConfig())
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match=r"c\[0\] = (nan|inf|-inf)"):
                compute_weights(np.array([bad, 0.5]), WeightConfig())
        with pytest.raises(DataError, match="empty"):
            compute_weights([], WeightConfig())

    def test_confidence_exactly_one_is_legal(self):
        w = compute_weights(np.array([1.0, 1.0]), WeightConfig(alpha=8.0))
        np.testing.assert_allclose(w.lambdas, [1.0, 1.0], atol=1e-12)

    def test_rejects_negative_alpha(self):
        with pytest.raises(DataError, match="alpha"):
            WeightConfig(alpha=-1.0)

    @pytest.mark.parametrize(
        "confidences, config, names",
        [
            (np.array([1e-60, 1e-70]), WeightConfig(alpha=6.0), "0"),
            ([np.array([1e-60]), np.zeros(0), np.array([1e-70])], WeightConfig(alpha=6.0), "0, 2"),
            (np.array([1e-4]), WeightConfig(alpha=100.0), "0"),
            ([np.zeros(0), np.array([1e-4, 1e-5])], WeightConfig(alpha=100.0), "1"),
        ],
    )
    def test_scope_that_underflows_raises(self, confidences, config, names):
        # Every c^alpha of the scope is 0, so the mean-1 normalization would
        # be 0 / 0: the error names alpha and the vectors, instead of NaN.
        with pytest.raises(NumericalError, match=f"utterances {names} raised to alpha {config.alpha:g} underflow"):
            compute_weights(confidences, config)

    def test_one_vector_is_a_scope_of_one(self):
        # One vector, bare or as the only vector of a list, gets the weights
        # c^alpha over np.sum(c^alpha) / size, bit for bit, at sizes below
        # and above NumPy's pairwise-summation block of 8.
        rng = np.random.default_rng(65)
        for size in (1, 7, 9, 130):
            c = rng.uniform(0.01, 1.0, size=size)
            for alpha in (0.0, 0.5, 2.0, 6.0):
                config = WeightConfig(alpha=alpha)
                one = compute_weights(c, config)
                np.testing.assert_array_equal(one.lambdas, compute_weights([c], config)[0].lambdas)
                powered = c**alpha
                np.testing.assert_array_equal(one.lambdas, powered / (np.sum(powered) / size))

    def test_partial_underflow_keeps_finite_weights(self):
        # Only some c^alpha underflow: the mean is positive, so the weights
        # are finite, and the underflowed tokens weigh exactly 0.
        w = compute_weights(np.array([1e-60, 0.5]), WeightConfig(alpha=6.0))
        assert np.all(np.isfinite(w.lambdas))
        np.testing.assert_array_equal(w.lambdas, [0.0, 2.0])


class TestWeightedLoss:
    def test_unit_weights_reduce_to_standard_loss(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            lat, y = random_instance(rng)
            w = TokenWeights.uniform(y.size)
            assert weighted_rnnt_loss(lat, y, w) == pytest.approx(
                rnnt_loss(lat, y), abs=1e-9
            )

    def test_zero_weights_zero_blank_give_zero_loss(self):
        rng = np.random.default_rng(65)
        lat, y = random_instance_nonempty(rng)
        w = TokenWeights(
            lambdas=np.zeros(y.size),
            config=WeightConfig(final_blank_weight=0.0),
        )
        assert weighted_rnnt_loss(lat, y, w) == 0.0

    def test_two_token_split_against_oracle(self):
        rng = np.random.default_rng(66)
        lat = random_lattice(rng, 3, 2, 3)
        y = np.array([0, 2])
        w = TokenWeights(
            lambdas=np.array([2.0, 0.0]),
            config=WeightConfig(),
        )
        c1 = exact_conditionals(lat, y)[0]
        fb = exact_final_blank_logp(lat, y)
        expected = 2.0 * (-np.log(c1)) - fb
        assert weighted_rnnt_loss(lat, y, w) == pytest.approx(expected, abs=1e-10)

    def test_misaligned_weights_rejected(self):
        rng = np.random.default_rng(67)
        lat = random_lattice(rng, 2, 2, 2)
        w = TokenWeights.uniform(1)
        with pytest.raises(DataError, match="mismatch"):
            weighted_rnnt_loss(lat, [0, 1], w)

    def test_matches_profile_formula(self):
        rng = np.random.default_rng(68)
        for _ in range(50):
            lat, y = random_instance_nonempty(rng)
            prof = conditional_profile(lat, y)
            lam = rng.uniform(0.0, 3.0, size=y.size)
            w = TokenWeights(lam, WeightConfig(final_blank_weight=1.0))
            expected = -np.sum(lam * np.log(prof.conditionals)) - prof.final_blank_logp
            assert weighted_rnnt_loss(lat, y, w) == pytest.approx(expected, abs=1e-9)


class TestWeightedGrad:
    def test_unit_weights_match_standard_grad(self):
        rng = np.random.default_rng(69)
        for _ in range(100):
            lat, y = random_instance(rng)
            w = TokenWeights.uniform(y.size)
            g = weighted_rnnt_loss_grad(lat, y, w)
            g_std = rnnt_loss_grad(lat, y)
            assert np.max(np.abs(g - g_std)) < 1e-9

    def test_finite_differences_spec_case(self):
        rng = np.random.default_rng(70)
        lat = random_lattice(rng, 3, 2, 3)
        y = np.array([1, 0])
        w = TokenWeights(
            lambdas=np.array([1.6, 0.4]),
            config=WeightConfig(),
        )
        analytic = weighted_rnnt_loss_grad(lat, y, w)
        numeric = finite_diff_grad(lambda l: weighted_rnnt_loss(l, y, w), lat, 1e-6)
        assert grad_scale_error(analytic, numeric) < 1e-4

    def test_zero_weights_zero_gradient(self):
        rng = np.random.default_rng(71)
        lat, y = random_instance_nonempty(rng)
        w = TokenWeights(
            lambdas=np.zeros(y.size),
            config=WeightConfig(final_blank_weight=0.0),
        )
        assert np.all(weighted_rnnt_loss_grad(lat, y, w) == 0.0)

    def test_gradient_linear_in_weights(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            lat, y = random_instance_nonempty(rng)
            lam1 = rng.uniform(0, 2, size=y.size)
            lam2 = rng.uniform(0, 2, size=y.size)
            cfg0 = WeightConfig(final_blank_weight=0.0)
            mk = lambda lam, cfg: TokenWeights(lam, cfg)
            g1 = weighted_rnnt_loss_grad(lat, y, mk(lam1, cfg0))
            g2 = weighted_rnnt_loss_grad(lat, y, mk(lam2, cfg0))
            g12 = weighted_rnnt_loss_grad(
                lat, y, mk(lam1 + lam2, WeightConfig(final_blank_weight=0.0))
            )
            assert np.max(np.abs(g12 - (g1 + g2))) < 1e-9

    def test_loss_and_grad_consistent(self):
        rng = np.random.default_rng(73)
        lat, y = random_instance_nonempty(rng)
        lam = rng.uniform(0, 2, size=y.size)
        w = TokenWeights(lam, WeightConfig())
        loss, grad = weighted_loss_and_grad(lat, y, w)
        assert loss == pytest.approx(weighted_rnnt_loss(lat, y, w), abs=1e-12)
        assert np.max(np.abs(grad - weighted_rnnt_loss_grad(lat, y, w))) == 0.0

    def test_zero_probability_prefix_raises(self):
        logp = np.full((2, 2, 3), -np.inf)
        logp[:, :, 2] = 0.0  # the token is impossible everywhere
        from twrnnt.lattice import PosteriorLattice
        from twrnnt.errors import NumericalError

        lat = PosteriorLattice(logp)
        w = TokenWeights.uniform(1)
        with pytest.raises(NumericalError, match="zero probability"):
            weighted_rnnt_loss(lat, [0], w)

    def test_empty_sequence_scales_standard_gradient(self):
        rng = np.random.default_rng(74)
        lat = random_lattice(rng, 3, 0, 2)
        w = TokenWeights(
            lambdas=np.zeros(0),
            config=WeightConfig(final_blank_weight=0.75),
        )
        g = weighted_rnnt_loss_grad(lat, [], w)
        assert np.max(np.abs(g - 0.75 * rnnt_loss_grad(lat, []))) < 1e-12
