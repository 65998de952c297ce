import json

import numpy as np
import pytest
from hypothesis import given

from conftest import PROPERTY, cases, random_instance_nonempty, random_lattice
from references import emission_forward, emission_sweep_quadratic, exact_final_blank_logp
from twrnnt.conditionals import conditional_profile, next_token_distribution, profile_to_json
from twrnnt.errors import DataError, NumericalError
from twrnnt.lattice import PosteriorLattice, rnnt_loss
from twrnnt.oracle import exact_conditionals, exact_prefix_logp, exact_sequence_logp


class TestEmissionForward:
    """The emission sweep's table A and prefix masses, read through
    ``references.emission_forward``."""

    def test_single_cell_boundary(self):
        rng = np.random.default_rng(40)
        lat = random_lattice(rng, 1, 1, 3)
        A, prefix_logp = emission_forward(lat, [2])
        # No blank run fits in one frame: the mass is the bare emission.
        assert A[0, 0] == pytest.approx(lat.logp[0, 0, 2], abs=1e-12)

    def test_first_row_is_blanks_then_emission(self):
        rng = np.random.default_rng(41)
        lat = random_lattice(rng, 4, 2, 3)
        y = [1, 0]
        A, prefix_logp = emission_forward(lat, y)
        for t in range(4):
            expected = np.sum(lat.logp[:t, 0, 3]) + lat.logp[t, 0, 1]
            assert A[t, 0] == pytest.approx(expected, abs=1e-12)

    def test_figure_style_partial_paths(self):
        # T=4, U=2: the mass of emitting the second token at frame t sums,
        # over every start frame t' <= t, the blank run from t' to t at the
        # first label level times both emissions.
        rng = np.random.default_rng(42)
        lat = random_lattice(rng, 4, 2, 4)
        y = [2, 0]
        A, prefix_logp = emission_forward(lat, y)
        for t in range(4):
            parts = []
            for tp in range(t + 1):
                logp = np.sum(lat.logp[:tp, 0, 4])  # blanks to the first emission
                logp += lat.logp[tp, 0, 2]  # first token at frame tp
                logp += np.sum(lat.logp[tp:t, 1, 4])  # blanks between emissions
                logp += lat.logp[t, 1, 0]  # second token at frame t
                parts.append(logp)
            expected = np.logaddexp.reduce(sorted(parts))
            assert A[t, 1] == pytest.approx(expected, abs=1e-12)

    def test_prefix_mass_matches_oracle(self):
        rng = np.random.default_rng(43)
        lat = random_lattice(rng, 5, 3, 3)
        y = np.array([0, 2, 1])
        A, prefix_logp = emission_forward(lat, y)
        for u in range(1, 4):
            assert np.exp(prefix_logp[u]) == pytest.approx(
                np.exp(exact_prefix_logp(lat, y, u)), abs=1e-10
            )

    def test_prefix_mass_monotone(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            lat, y = random_instance_nonempty(rng)
            A, prefix_logp = emission_forward(lat, y)
            mass = np.exp(prefix_logp)
            assert np.all(np.diff(mass) <= 1e-15)

    def test_rejects_empty_sequence(self):
        rng = np.random.default_rng(45)
        lat = random_lattice(rng, 2, 0, 2)
        with pytest.raises(DataError, match="U >= 1"):
            emission_forward(lat, [])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(46)
        lat = random_lattice(rng, 2, 1, 2)
        with pytest.raises(DataError, match="mismatch"):
            emission_forward(lat, [0, 1])

    def test_quadratic_reference_identical(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            lat, y = random_instance_nonempty(rng)
            fast_A, fast_prefix = emission_forward(lat, y)
            slow_A, slow_prefix, _ = emission_sweep_quadratic(lat, y)
            slow_A = slow_A[:, 1:]
            finite = np.isfinite(fast_A)
            assert np.array_equal(finite, np.isfinite(slow_A))
            assert np.max(np.abs(fast_A[finite] - slow_A[finite])) < 1e-12
            assert np.max(np.abs(fast_prefix - slow_prefix)) < 1e-12


class TestConditionalProfile:
    def test_single_cell(self):
        rng = np.random.default_rng(48)
        lat = random_lattice(rng, 1, 1, 3)
        prof = conditional_profile(lat, [1])
        assert prof.conditionals[0] == pytest.approx(
            np.exp(lat.logp[0, 0, 1]), abs=1e-12
        )
        assert prof.final_blank_logp == pytest.approx(lat.logp[0, 1, 3], abs=1e-12)

    def test_telescopes_to_sequence_loglik(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            lat, y = random_instance_nonempty(rng)
            prof = conditional_profile(lat, y)
            assert prof.loglik_check == pytest.approx(-rnnt_loss(lat, y), abs=1e-9)

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            lat, y = random_instance_nonempty(rng)
            prof = conditional_profile(lat, y)
            np.testing.assert_allclose(
                prof.conditionals, exact_conditionals(lat, y), atol=1e-10
            )
            assert prof.final_blank_logp == pytest.approx(
                exact_final_blank_logp(lat, y), abs=1e-10
            )

    def test_conditionals_in_unit_interval(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            lat, y = random_instance_nonempty(rng)
            c = conditional_profile(lat, y).conditionals
            assert np.all(c > 0) and np.all(c <= 1.0 + 1e-15)

    def test_zero_prefix_raises(self):
        logp = np.full((2, 2, 3), -np.inf)
        logp[:, :, 2] = 0.0  # blank-only lattice: the token is impossible
        lat = PosteriorLattice(logp)
        with pytest.raises(NumericalError, match="zero probability"):
            conditional_profile(lat, [0])

    def test_json_record_fields(self):
        rng = np.random.default_rng(52)
        lat = random_lattice(rng, 3, 2, 3)
        prof = conditional_profile(lat, [0, 1])
        record = json.loads(profile_to_json(prof))
        assert sorted(record) == ["conditionals", "final_blank_logp"]
        np.testing.assert_array_equal(record["conditionals"], prof.conditionals)
        assert record["final_blank_logp"] == prof.final_blank_logp


class TestNextTokenDistribution:
    def test_single_frame_matches_softmax_row(self):
        rng = np.random.default_rng(53)
        lat = random_lattice(rng, 1, 1, 4)
        dist = next_token_distribution(lat, [], 1)
        np.testing.assert_allclose(dist, np.exp(lat.logp[0, 0, :]), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            lat, y = random_instance_nonempty(rng, max_t=4, max_u=3, max_v=3)
            u = int(rng.integers(1, y.size + 2))  # also probe one past the end
            if u - 1 > lat.U:
                continue
            dist = next_token_distribution(lat, y[: u - 1], u)
            assert np.sum(dist) == pytest.approx(1.0, abs=1e-9)

    @PROPERTY
    @given(case=cases())
    def test_matches_oracle_ratios(self, case):
        # Every position u = 1..U+1.  The oracle extends y[:u-1] by one token
        # on a lattice with one more label level, a copy of the last, which
        # the extension's prefix mass never reads.
        lat, y = case
        ext = PosteriorLattice(np.concatenate([lat.logp, lat.logp[:, -1:]], axis=1))
        for u in range(1, y.size + 2):
            pre = exact_prefix_logp(lat, y, u - 1)
            if pre == -np.inf:
                with pytest.raises(NumericalError, match="zero probability"):
                    next_token_distribution(lat, y[: u - 1], u)
                continue
            dist = next_token_distribution(lat, y[: u - 1], u)
            for k in range(lat.blank):
                expected = np.exp(exact_prefix_logp(ext, np.append(y[: u - 1], k), u) - pre)
                assert dist[k] == pytest.approx(expected, abs=1e-10)
            # Terminal slot: probability the output is exactly the prefix.
            sub = PosteriorLattice(lat.logp[:, :u, :])
            end = np.exp(exact_sequence_logp(sub, y[: u - 1]) - pre)
            assert dist[-1] == pytest.approx(end, abs=1e-10)

    def test_zero_probability_prefix_raises(self):
        logp = np.full((2, 3, 3), -np.inf)
        logp[:, :, 2] = 0.0
        lat = PosteriorLattice(logp)
        with pytest.raises(NumericalError, match="zero probability"):
            next_token_distribution(lat, [0], 2)

    @pytest.mark.parametrize("u", [True, 1.5, 2.0, "2"])
    def test_position_must_be_an_integer(self, u):
        # Python takes True for 1; a float is no position, even 2.0.
        lat = random_lattice(np.random.default_rng(57), 2, 1, 2)
        with pytest.raises(DataError, match="position u must be an integer"):
            next_token_distribution(lat, [0], u)

    def test_numpy_integer_position(self):
        lat = random_lattice(np.random.default_rng(58), 3, 2, 3)
        np.testing.assert_array_equal(
            next_token_distribution(lat, [0], np.int64(2)), next_token_distribution(lat, [0], 2)
        )

    def test_position_validation(self):
        rng = np.random.default_rng(56)
        lat = random_lattice(rng, 2, 1, 2)
        with pytest.raises(DataError, match="^position u must be an integer >= 1, got 0$"):
            next_token_distribution(lat, [], 0)
        with pytest.raises(DataError, match="prefix"):
            next_token_distribution(lat, [], 3)
