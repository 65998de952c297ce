import math

import numpy as np
import pytest

from conftest import capped_lattice, random_instance, random_lattice
from references import finite_diff_grad
from twrnnt.errors import DataError
from twrnnt.lattice import PosteriorLattice, normalize_logits
from twrnnt.oracle import (
    BLANK_STEP,
    EMIT_STEP,
    enumerate_paths,
    exact_conditionals,
    exact_final_blank_logp,
    exact_prefix_logp,
    exact_sequence_logp,
    path_count,
    path_logp,
)


class TestEnumeration:
    def test_single_path(self):
        paths = enumerate_paths(1, 1)
        assert len(paths) == 1
        assert paths[0].steps == (EMIT_STEP, BLANK_STEP)

    def test_four_frames_one_token(self):
        # One start position per frame: four panels, four paths.
        paths = enumerate_paths(4, 1)
        assert len(paths) == 4
        emit_frames = sorted(p.frames()[p.steps.index(EMIT_STEP)] for p in paths)
        assert emit_frames == [0, 1, 2, 3]

    def test_combinatorial_count(self):
        paths = enumerate_paths(3, 2)
        assert len(paths) == math.comb(4, 2) == 6

    def test_count_formula_grid(self):
        for T in range(1, 9):
            for U in range(0, 7):
                assert len(enumerate_paths(T, U)) == path_count(T, U)

    def test_paths_unique_and_well_formed(self):
        for T, U in [(3, 2), (4, 3), (5, 1)]:
            paths = enumerate_paths(T, U)
            assert len({p.steps for p in paths}) == len(paths)
            for p in paths:
                assert sum(1 for s in p.steps if s == BLANK_STEP) == T
                assert sum(1 for s in p.steps if s == EMIT_STEP) == U
                assert p.steps[-1] == BLANK_STEP
                assert max(p.frames()) == T  # terminal blank exits the lattice

    def test_guard(self):
        with pytest.raises(DataError, match="guard"):
            enumerate_paths(200, 100)


class TestExactProbabilities:
    def test_single_cell_sequence(self):
        rng = np.random.default_rng(7)
        lat = random_lattice(rng, 1, 1, 2)
        y = np.array([1])
        expected = lat.logp[0, 0, 1] + lat.logp[0, 1, 2]
        assert exact_sequence_logp(lat, y) == pytest.approx(expected, abs=1e-12)

    def test_prefix_single_cell(self):
        rng = np.random.default_rng(8)
        lat = random_lattice(rng, 1, 1, 3)
        y = np.array([2])
        assert exact_prefix_logp(lat, y, 1) == pytest.approx(
            lat.logp[0, 0, 2], abs=1e-12
        )

    def test_uniform_lattice_is_symmetric_in_token_choice(self):
        # With identical rows the conditionals cannot depend on which tokens
        # the sequence contains, only on position (later tokens have fewer
        # frames left, so values drift slightly across u).
        lat = normalize_logits(np.zeros((3, 4, 4)))
        c1 = exact_conditionals(lat, np.array([0, 1, 2]))
        c2 = exact_conditionals(lat, np.array([2, 0, 1]))
        np.testing.assert_array_equal(c1, c2)
        # Position drift is tiny but real: strictly decreasing here.
        assert np.all(np.diff(c1) < 0)

    def test_uniform_lattice_conditionals_closed_form(self):
        # prefix(u) = sum_b C(u-1+b, b) p^(u+b) over b = 0..T-1 blanks.
        T, V = 3, 3
        p = 1.0 / (V + 1)
        lat = normalize_logits(np.zeros((T, 4, V + 1)))
        prefix = [
            sum(math.comb(u - 1 + b, b) * p ** (u + b) for b in range(T))
            for u in range(1, 4)
        ]
        expected = np.array(
            [prefix[0], prefix[1] / prefix[0], prefix[2] / prefix[1]]
        )
        c = exact_conditionals(lat, np.array([0, 1, 2]))
        np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_prefix_mass_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            lat, y = random_instance(rng, max_t=4, max_u=3, max_v=3)
            prev = 0.0
            for u in range(1, y.size + 1):
                cur = exact_prefix_logp(lat, y, u)
                assert cur <= prev + 1e-12
                prev = cur

    def test_sequence_splits_into_prefix_and_final_blank(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            lat, y = random_instance(rng, max_t=4, max_u=3, max_v=3)
            if y.size == 0:
                continue
            seq = exact_sequence_logp(lat, y)
            pre = exact_prefix_logp(lat, y, y.size)
            fb = exact_final_blank_logp(lat, y)
            assert seq == pytest.approx(pre + fb, abs=1e-12)


class TestTotalProbability:
    def test_capped_lattice_total_is_one(self):
        # Token emission is impossible at the last label level, so outputs
        # cannot be longer than U_max and the output distribution is finite.
        rng = np.random.default_rng(11)
        for T, U_max, V in [(2, 2, 2), (3, 3, 2), (3, 2, 1)]:
            lat = capped_lattice(rng, T, U_max, V)
            total = 0.0
            for U in range(U_max + 1):
                sub = PosteriorLattice(lat.logp[:, : U + 1, :])
                for combo in np.ndindex(*([V] * U)):
                    y = np.array(combo, dtype=np.int64)
                    total += np.exp(exact_sequence_logp(sub, y))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_partition_identity_uncapped(self):
        # P(|y| <= L outputs) + P(prefix of length L+1) partitions all paths.
        rng = np.random.default_rng(12)
        T, V, L = 3, 2, 3
        lat = random_lattice(rng, T, L + 1, V)
        total = 0.0
        for U in range(L + 1):
            sub = PosteriorLattice(lat.logp[:, : U + 1, :])
            for combo in np.ndindex(*([V] * U)):
                total += np.exp(exact_sequence_logp(sub, np.array(combo, dtype=np.int64)))
        for combo in np.ndindex(*([V] * (L + 1))):
            total += np.exp(exact_prefix_logp(lat, np.array(combo, dtype=np.int64), L + 1))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestFiniteDifferences:
    def test_linear_functional_recovers_weights(self):
        rng = np.random.default_rng(13)
        lat = random_lattice(rng, 3, 2, 3)
        w = rng.normal(size=lat.logp.shape)

        def f(l):
            return float(np.sum(w * l.logp))

        g = finite_diff_grad(f, lat, step=1e-5)
        assert np.max(np.abs(g - w)) < 1e-9

    def test_rejects_bad_step(self):
        rng = np.random.default_rng(14)
        lat = random_lattice(rng, 2, 1, 2)
        with pytest.raises(DataError, match="step"):
            finite_diff_grad(lambda l: 0.0, lat, step=0.0)

    def test_path_logp_consistent_with_walk(self):
        rng = np.random.default_rng(15)
        lat = random_lattice(rng, 3, 2, 2)
        y = np.array([0, 1])
        paths = enumerate_paths(3, 2)
        # Recompute one path by hand: emit, emit, blank, blank, blank.
        target = next(
            p for p in paths if p.steps == (EMIT_STEP, EMIT_STEP, BLANK_STEP, BLANK_STEP, BLANK_STEP)
        )
        expected = (
            lat.logp[0, 0, 0]
            + lat.logp[0, 1, 1]
            + lat.logp[0, 2, 2]
            + lat.logp[1, 2, 2]
            + lat.logp[2, 2, 2]
        )
        assert path_logp(lat, y, target) == pytest.approx(expected, abs=1e-12)
