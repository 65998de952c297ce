import json

import numpy as np
import pytest

from conftest import random_instance, random_lattice
from references import finite_diff_grad
from twrnnt.errors import DataError
from twrnnt.lattice import (
    PosteriorLattice,
    Vocabulary,
    as_labels,
    backward,
    forward,
    lattice_from_json,
    normalize_logits,
    rnnt_loss,
    rnnt_loss_grad,
)
from twrnnt.metrics import wer
from twrnnt.model import BatchLayout, TransducerModel
from twrnnt.oracle import exact_sequence_logp


def grad_scale_error(analytic, numeric):
    """Max cell error relative to the gradient's overall scale."""
    denom = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    return np.max(np.abs(analytic - numeric)) / denom


class TestVocabularyAndLabels:
    def test_blank_is_after_tokens(self):
        v = Vocabulary(5)
        assert v.blank == 5
        assert v.num_symbols == 6

    def test_size_must_be_positive(self):
        with pytest.raises(DataError, match="^vocabulary size must be an integer >= 1, got 0$"):
            Vocabulary(0)

    def test_labels_reject_blank_index(self):
        with pytest.raises(DataError, match="blank"):
            as_labels([0, 5], Vocabulary(5))

    def test_labels_may_be_longer_than_frames(self):
        assert as_labels([0, 1, 0, 1], Vocabulary(2)).size == 4

    @pytest.mark.parametrize(
        "labels",
        [[1.5], [1.0, 2.0], [True, 2], [np.True_, 1], ["3"], [1, "3"], np.array([1.0, 2.0]), np.array([True])],
        ids=["float", "integral_floats", "bool", "numpy_bool", "str", "int_and_str", "float_array", "bool_array"],
    )
    def test_non_integer_labels_are_refused(self, labels):
        # np.asarray(..., dtype=np.int64) would truncate, cast or parse them;
        # the model's layout and the error rate refuse them as well.
        with pytest.raises(DataError, match="labels must be integers"):
            as_labels(labels)
        with pytest.raises(DataError, match="labels must be integers"):
            wer(labels, [1])
        model = TransducerModel.zeros(2, 3, 4)
        with pytest.raises(DataError, match="^utterance 0: labels must be integers"):
            BatchLayout(model, [np.zeros((3, 2))], [labels])

    def test_empty_labels_are_valid(self):
        for empty in ([], (), np.zeros(0)):
            labels = as_labels(empty)
            assert labels.dtype == np.int64 and labels.size == 0


class TestNormalizeLogits:
    def test_equal_logits_give_uniform(self):
        lat = normalize_logits(np.zeros((2, 2, 3)))
        assert np.allclose(lat.logp, np.log(1.0 / 3.0), atol=1e-12)

    def test_softmax_saturation(self):
        M = 200.0
        raw = np.zeros((1, 1, 3))
        raw[0, 0, 2] = M
        lat = normalize_logits(raw)
        assert lat.logp[0, 0, 2] == pytest.approx(0.0, abs=1e-12)
        assert lat.logp[0, 0, 0] == pytest.approx(-M, abs=1e-6)

    def test_rows_logsumexp_to_zero(self):
        rng = np.random.default_rng(21)
        lat = random_lattice(rng, 2, 1, 2)
        assert lat.row_normalization_error() < 1e-12

    def test_rejects_nan_with_cell_diagnostic(self):
        raw = np.zeros((2, 2, 3))
        raw[1, 0, 2] = np.nan
        with pytest.raises(DataError, match=r"t=1, u=0, k=2"):
            normalize_logits(raw)

    def test_rejects_inf(self):
        raw = np.zeros((1, 1, 2))
        raw[0, 0, 1] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            normalize_logits(raw)


class TestForwardBackward:
    def test_single_path_loglik(self):
        rng = np.random.default_rng(22)
        lat = random_lattice(rng, 1, 1, 3)
        y = [1]
        tables = forward(lat, y)
        expected = lat.logp[0, 0, 1] + lat.logp[0, 1, 3]
        assert tables.loglik == pytest.approx(expected, abs=1e-12)
        assert tables.alpha[0, 0] == 0.0

    def test_all_blank_path(self):
        rng = np.random.default_rng(23)
        lat = random_lattice(rng, 2, 0, 3)
        tables = forward(lat, [])
        expected = lat.logp[0, 0, 3] + lat.logp[1, 0, 3]
        assert tables.loglik == pytest.approx(expected, abs=1e-12)

    def test_forward_matches_oracle(self):
        rng = np.random.default_rng(24)
        lat = random_lattice(rng, 3, 2, 3)
        y = np.array([0, 2])
        assert forward(lat, y).loglik == pytest.approx(
            exact_sequence_logp(lat, y), abs=1e-10
        )

    def test_backward_base_case(self):
        rng = np.random.default_rng(25)
        lat = random_lattice(rng, 1, 0, 2)
        tables = backward(lat, [])
        assert tables.beta[0, 0] == pytest.approx(lat.logp[0, 0, 2], abs=1e-12)

    def test_forward_backward_agree_thousand_instances(self):
        rng = np.random.default_rng(26)
        for _ in range(1000):
            lat, y = random_instance(rng)
            f = forward(lat, y)
            b = backward(lat, y)
            assert f.loglik == pytest.approx(b.loglik, abs=1e-9)

    def test_antidiagonal_cut_identity(self):
        # Every complete path crosses each anti-diagonal t+u = c exactly once,
        # so logsumexp(alpha + beta) along any cut reproduces the loglik.
        rng = np.random.default_rng(27)
        for _ in range(20):
            lat, y = random_instance(rng, max_t=5, max_u=3, max_v=3)
            alpha = forward(lat, y).alpha
            bt = backward(lat, y)
            beta, loglik = bt.beta, bt.loglik
            T, U1 = alpha.shape
            for c in range(0, T + U1 - 1):
                cells = [
                    alpha[t, u] + beta[t, u]
                    for t in range(T)
                    for u in range(U1)
                    if t + u == c
                ]
                cut = np.logaddexp.reduce(sorted(cells))
                assert cut == pytest.approx(loglik, abs=1e-9)

    def test_dimension_mismatch_names_expected_and_actual(self):
        rng = np.random.default_rng(28)
        lat = random_lattice(rng, 3, 2, 3)
        with pytest.raises(DataError, match=r"T=3, U=2.*U=3"):
            forward(lat, [0, 1, 2])


class TestRnntLoss:
    def test_half_half_single_cell(self):
        logp = np.full((1, 2, 2), np.log(0.5))
        lat = PosteriorLattice(logp)
        assert rnnt_loss(lat, [0]) == pytest.approx(-np.log(0.25), abs=1e-12)

    def test_matches_oracle_seeded(self):
        rng = np.random.default_rng(29)
        lat = random_lattice(rng, 4, 3, 3)
        y = np.array([1, 0, 2])
        assert rnnt_loss(lat, y) == pytest.approx(
            -exact_sequence_logp(lat, y), abs=1e-10
        )

    def test_degenerate_empty_sequence(self):
        rng = np.random.default_rng(30)
        lat = random_lattice(rng, 3, 0, 2)
        expected = -np.sum(lat.logp[:, 0, 2])
        assert rnnt_loss(lat, []) == pytest.approx(expected, abs=1e-12)

    def test_hard_zero_rows_are_legal(self):
        with np.errstate(divide="ignore"):
            logp = np.log(np.array([[[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]]))
        lat = PosteriorLattice(logp)
        assert rnnt_loss(lat, [0]) == pytest.approx(-np.log(0.5), abs=1e-12)


class TestRnntLossGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        lat = random_lattice(rng, 3, 2, 3)
        y = np.array([0, 1])
        analytic = rnnt_loss_grad(lat, y)
        numeric = finite_diff_grad(lambda l: rnnt_loss(l, y), lat, step=1e-6)
        assert grad_scale_error(analytic, numeric) < 1e-4

    def test_final_blank_cell_gradient_is_minus_one(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            lat, y = random_instance(rng, max_t=4, max_u=3, max_v=3)
            g = rnnt_loss_grad(lat, y)
            assert g[lat.T - 1, lat.U, lat.blank] == pytest.approx(-1.0, abs=1e-12)

    def test_empty_sequence_gradient_pattern(self):
        rng = np.random.default_rng(33)
        lat = random_lattice(rng, 3, 0, 2)
        g = rnnt_loss_grad(lat, [])
        expected = np.zeros_like(lat.logp)
        expected[:, 0, 2] = -1.0
        assert np.allclose(g, expected, atol=1e-12)

    def test_unreachable_cells_zero(self):
        rng = np.random.default_rng(34)
        lat = random_lattice(rng, 3, 2, 4)
        y = np.array([0, 1])
        g = rnnt_loss_grad(lat, y)
        # Tokens 2 and 3 never appear in the label sequence: untouched cells.
        assert np.all(g[:, :, 2] == 0.0)
        assert np.all(g[:, :, 3] == 0.0)


def interchange(lat):
    """The lattice interchange form, built as
    ``fixtures/make_loss_check_fixture.py`` builds it."""
    return {"t": lat.T, "u": lat.U, "v": lat.vocab.size, "logp": [float(x) for x in lat.logp.ravel()]}


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(35)
        lat = random_lattice(rng, 3, 2, 3)
        back = lattice_from_json(json.dumps(interchange(lat)))
        np.testing.assert_array_equal(back.logp, lat.logp)

    def test_neg_inf_survives(self):
        with np.errstate(divide="ignore"):
            logp = np.log(np.array([[[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]]))
        lat = PosteriorLattice(logp)
        back = lattice_from_json(json.dumps(interchange(lat)))
        np.testing.assert_array_equal(back.logp, lat.logp)

    @pytest.mark.parametrize(
        "logp",
        [["-0.5", -1.0], [True, -1.0], [None, -1.0], [[-0.5], -1.0], "-0.5", {"0": -0.5}],
        ids=["string", "boolean", "null", "nested", "not_a_list", "object"],
    )
    def test_non_numeric_logp_rejected(self, logp):
        # NumPy reads "-0.5" as -0.5 and true as 1.0; neither is a number in JSON.
        with pytest.raises(DataError, match="logp must be a flat list of numbers"):
            lattice_from_json({"t": 1, "u": 0, "v": 1, "logp": logp})

    def test_size_mismatch_rejected(self):
        with pytest.raises(DataError, match="entries"):
            lattice_from_json({"t": 2, "u": 1, "v": 2, "logp": [0.0] * 5})
