import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import references
from conftest import PROPERTY
from references import model_backward
from twrnnt import model as model_module
from twrnnt.errors import DataError, NumericalError
from twrnnt.kernels import PaddedColumns, dense_grad
from twrnnt.lattice import _row_logsumexp
from twrnnt.model import (
    BatchLayout,
    PackedUtterances,
    StepActivations,
    TransducerModel,
    adam_update,
    backward_columns,
    forward_columns,
    greedy_decode,
    load_checkpoint,
    model_forward,
    param_count,
    save_checkpoint,
)
from twrnnt.weighting import TokenWeights, WeightConfig, weighted_loss_and_grad, weighted_rnnt_loss


def make_model(seed=0, D=3, H=5, V=4, scale=0.5):
    rng = np.random.default_rng(seed)
    return TransducerModel.random(D, H, V, rng, scale=scale), rng


class TestForward:
    def test_param_count_is_function_of_dims(self):
        D, H, V = 3, 5, 4
        expected = H * D + H + (V + 1) * H + H * H + H + (V + 1) * H + (V + 1)
        assert param_count(D, H, V) == expected
        m = TransducerModel.zeros(D, H, V)
        assert m.params.size == expected

    def test_zero_parameters_give_uniform_rows(self):
        m = TransducerModel.zeros(2, 4, 3)
        lat = model_forward(m, np.zeros((3, 2)), [0, 1])
        assert np.allclose(lat.logp, np.log(0.25), atol=1e-12)

    def test_deterministic_across_runs(self):
        m, rng = make_model(seed=1)
        feats = rng.normal(size=(4, 3))
        a = model_forward(m, feats, [0, 2])
        b = model_forward(m, feats, [0, 2])
        np.testing.assert_array_equal(a.logp, b.logp)

    def test_rows_normalized(self):
        m, rng = make_model(seed=2)
        feats = rng.normal(size=(5, 3))
        lat = model_forward(m, feats, [1, 3, 0])
        assert lat.row_normalization_error() < 1e-9

    def test_dimension_check(self):
        m, _ = make_model()
        with pytest.raises(DataError, match="features"):
            model_forward(m, np.zeros((3, 7)), [0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_are_data_errors(self, bad):
        # The grouped forward does not re-check its lattices, so non-finite
        # features and parameters are refused where they enter.
        m, rng = make_model()
        feats = rng.normal(size=(4, 3))
        feats[2, 1] = bad
        with pytest.raises(DataError, match=r"utterance 1: non-finite feature .* \(t=2, d=1\)"):
            forward_columns(m, BatchLayout(m, [feats[:1], feats], [[0], [1, 2]]))
        params = m.params.copy()
        params[5] = bad
        with pytest.raises(DataError, match="non-finite parameter .* index 5"):
            TransducerModel(m.dim_in, m.dim_hidden, m.vocab_size, params)


class TestBackward:
    @staticmethod
    def check_full_pipeline(y, coordinates):
        # d(weighted loss)/d(params) through forward + lattice grad, checked
        # coordinate-by-coordinate against central differences.
        m, rng = make_model(seed=4, D=2, H=4, V=3)
        feats = rng.normal(size=(4, 2))
        y = np.array(y)
        w = TokenWeights(
            lambdas=np.array([1.5, 0.5, 1.0]),
            config=WeightConfig(),
        )

        def loss_at(params):
            mm = TransducerModel(m.dim_in, m.dim_hidden, m.vocab_size, params)
            return weighted_rnnt_loss(model_forward(mm, feats, y), y, w)

        lat = model_forward(m, feats, y)
        _, dlogp = weighted_loss_and_grad(lat, y, w)
        analytic = model_backward(m, feats, y, dlogp)
        h = 1e-5
        idx = rng.choice(m.params.size, size=coordinates or m.params.size, replace=False)
        for i in idx:
            p = m.params.copy()
            p[i] += h
            hi = loss_at(p)
            p[i] -= 2 * h
            lo = loss_at(p)
            numeric = (hi - lo) / (2 * h)
            rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-6)
            assert rel < 1e-3
        return BatchLayout(m, [feats], [y])

    def test_full_pipeline_finite_differences(self):
        self.check_full_pipeline([0, 2, 1], 10)

    def test_full_pipeline_finite_differences_with_shared_joins(self):
        # Token 1 is the predictor input at u = 1 and u = 3, so the nodes of
        # those levels share each frame's join: the backward sums their
        # gradients there and gives the predictor gradient of both uses to
        # the first.  Every coordinate is checked.
        layout = self.check_full_pipeline([1, 2, 1], None)
        assert layout.join_frame.size == 4 * 3 < layout.frame.size

    def test_zero_lattice_gradient_gives_zero_param_gradient(self):
        m, rng = make_model(seed=5)
        feats = rng.normal(size=(3, 3))
        g = model_backward(m, feats, [1], np.zeros((3, 2, 5)))
        assert np.all(g == 0.0)

    def test_gradient_linear_in_lattice_gradient(self):
        # A two-utterance batch loss is a sum, so its parameter gradient is
        # the sum of per-utterance backward passes; backward itself must be
        # linear in the incoming lattice gradient.
        m, rng = make_model(seed=6)
        feats = rng.normal(size=(3, 3))
        y = np.array([1, 2])
        d1 = rng.normal(size=(3, 3, 5))
        d2 = rng.normal(size=(3, 3, 5))
        g1 = model_backward(m, feats, y, d1)
        g2 = model_backward(m, feats, y, d2)
        g12 = model_backward(m, feats, y, d1 + d2)
        np.testing.assert_allclose(g12, g1 + g2, atol=1e-12)


@st.composite
def model_batches(draw):
    """(seed, [(T, U), ...]): 1-6 utterances with T in 1..40 and U in 0..25,
    so U = 0, T = 1, U > T and batches of several node groups all occur."""
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 40), st.integers(0, 25)), min_size=1, max_size=6)
    )
    return draw(st.integers(0, 2**16)), shapes


class TestGroupedPasses:
    """``forward_columns`` and ``backward_columns`` against the per-utterance
    ``model_forward`` and ``model_backward``.  Stacked rows round differently
    in matrix products, so the comparison is to 1e-12."""

    @settings(PROPERTY, max_examples=25)
    @given(case=model_batches())
    # One utterance above the 2048-node group bound, between small ones.
    @example(case=(1, [(1, 0), (70, 30), (3, 7)]))
    # Four utterances of 600-800 nodes: group boundaries between them.
    @example(case=(2, [(30, 19), (40, 19), (25, 23), (33, 20)]))
    def test_grouped_passes_match_per_utterance(self, case):
        seed, shapes = case
        rng = np.random.default_rng(seed)
        V = 5
        model = TransducerModel.random(3, 32, V, rng)
        feats = [rng.normal(size=(T, 3)) for T, _ in shapes]
        tokens = [rng.integers(0, V, size=U) for _, U in shapes]
        layout = BatchLayout(model, feats, tokens)
        keep = StepActivations(model)
        cols = forward_columns(model, layout, keep=keep)
        ref = PaddedColumns([T for T, _ in shapes], [U for _, U in shapes])
        for b, (f, y) in enumerate(zip(feats, tokens)):
            ref.put(b, model_forward(model, f, y).logp, y)
        for got, want in ((cols.blank, ref.blank), (cols.emit, ref.emit)):
            owned = np.isfinite(want)
            assert got.shape == want.shape
            assert np.all(np.isneginf(got[~owned]))  # padding is exactly -inf
            assert np.max(np.abs(got[owned] - want[owned]), initial=0.0) <= 1e-12

        g_blank = np.where(np.isfinite(ref.blank), rng.normal(size=ref.blank.shape), 0.0)
        g_emit = np.where(np.isfinite(ref.emit), rng.normal(size=ref.emit.shape), 0.0)
        grad = backward_columns(model, layout, g_blank, g_emit, keep)
        want = np.zeros_like(model.params)
        for b, (f, y) in enumerate(zip(feats, tokens)):
            T = f.shape[0]
            dlogp = dense_grad(g_blank, g_emit, b, T, y, V + 1)
            want += model_backward(model, f, y, dlogp)
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))

    def test_forward_fills_rows_of_a_larger_batch(self):
        # Two models write their rows of one stacked batch, as lockstep
        # training does; each block equals the model's own columns.
        rng = np.random.default_rng(6)
        models = [TransducerModel.random(3, 8, 5, rng) for _ in range(2)]
        feats = [rng.normal(size=(T, 3)) for T in (4, 7, 2)]
        tokens = [rng.integers(0, 5, size=U) for U in (3, 0, 5)]
        layout = BatchLayout(models[0], feats, tokens)
        stacked = PaddedColumns(np.tile(layout.T, 2), np.tile(layout.U, 2))
        for k, model in enumerate(models):
            assert forward_columns(model, layout, out=stacked, row0=3 * k) is stacked
        for k, model in enumerate(models):
            own = forward_columns(model, layout)
            np.testing.assert_array_equal(stacked.blank[:, 3 * k : 3 * k + 3], own.blank)
            np.testing.assert_array_equal(stacked.emit[:, 3 * k : 3 * k + 3], own.emit)
        # Rows 4..6 of a table of 6 rows, a table of 2 rows, rows 1..3 of
        # the batch's own tables, and a row before the first.
        short = PaddedColumns(layout.T[:2], layout.U[:2])
        for out, row0 in ((stacked, 4), (short, 0), (None, 1), (stacked, -1)):
            with pytest.raises(DataError, match="column tables have shapes"):
                forward_columns(models[0], layout, out=out, row0=row0)

    def test_rows_of_a_wider_longer_batch(self):
        # Two batches of other sizes share one table padded to the longest
        # utterance and transcript, as grouped lockstep training does: each
        # forward fills its rows, and each backward reads its rows of
        # gradient tables of that shape in place; both equal the batch's
        # own passes.
        rng = np.random.default_rng(7)
        model = TransducerModel.random(3, 8, 5, rng)
        batches = [
            BatchLayout(model, [rng.normal(size=(T, 3)) for T in Ts], [rng.integers(0, 5, size=U) for U in Us])
            for Ts, Us in [((4, 7, 2), (3, 0, 2)), ((9, 3), (1, 6))]
        ]
        T = np.concatenate([layout.T for layout in batches])
        U = np.concatenate([layout.U for layout in batches])
        wide = PaddedColumns(T, U)
        assert wide.blank.shape == (9 + 6, 5, 7)
        row0 = [0, 3]
        kept = [StepActivations(model) for _ in batches]
        for layout, r, keep in zip(batches, row0, kept):
            forward_columns(model, layout, out=wide, keep=keep, row0=r)
        g_blank = np.where(np.isfinite(wide.blank), rng.normal(size=wide.blank.shape), 0.0)
        g_emit = np.where(np.isfinite(wide.emit), rng.normal(size=wide.emit.shape), 0.0)
        for layout, r, keep in zip(batches, row0, kept):
            own_keep = StepActivations(model)
            own = forward_columns(model, layout, keep=own_keep)
            D, B, W = own.blank.shape
            rows = slice(r, r + B)
            np.testing.assert_array_equal(wide.blank[:D, rows, :W], own.blank)
            np.testing.assert_array_equal(wide.emit[:D, rows, :W], own.emit)
            assert np.all(wide.blank[D:, rows] == -np.inf) and np.all(wide.blank[:, rows, W:] == -np.inf)
            np.testing.assert_array_equal(
                backward_columns(model, layout, g_blank, g_emit, keep, row0=r),
                backward_columns(
                    model, layout, g_blank[:D, rows, :W].copy(), g_emit[:D, rows, :W].copy(), own_keep
                ),
            )
        keep = StepActivations(model)
        forward_columns(model, batches[1], keep=keep)
        for row0 in (4, -1):
            with pytest.raises(DataError, match="column gradients have shapes"):
                backward_columns(model, batches[1], g_blank, g_emit, keep, row0=row0)
        with pytest.raises(DataError, match="column gradients have shapes"):
            backward_columns(model, batches[1], g_blank[:, :, :6], g_emit[:, :, :6], keep, row0=3)
        with pytest.raises(DataError, match="column gradients have shapes"):
            backward_columns(model, batches[1], g_blank, g_emit[:, :, :6], keep, row0=3)

    def test_groups_are_runs_within_the_node_bound(self):
        # Node counts 600, 800, 600, 1 fit one group of 2001 <= 2048 nodes;
        # the 2170-node utterance is a group alone, and so is the last one.
        shapes = [(30, 19), (40, 19), (25, 23), (1, 0), (70, 30), (3, 7)]
        rng = np.random.default_rng(5)
        model = TransducerModel.random(3, 4, 5, rng)
        layout = BatchLayout(
            model,
            [np.zeros((T, 3)) for T, _ in shapes],
            [rng.integers(0, 5, size=U) for _, U in shapes],
        )
        spans = [(int(n0), int(n1)) for n0, n1, _, _ in layout.groups]
        assert spans == [(0, 2001), (2001, 4171), (4171, 4195)]

    @pytest.mark.parametrize(
        "shapes, idx, groups",
        [
            # A desk batch of a packed corpus, with a repeat, as mixed batches have.
            ([(11, 6), (9, 5), (14, 7), (8, 3), (12, 0), (10, 8), (13, 4)], [3, 6, 0, 2, 6, 5, 1, 4], 1),
            # Long lattices over several node groups.
            ([(75, 25), (60, 20), (30, 19), (40, 19), (25, 23), (70, 30), (3, 7)], [5, 0, 2, 3, 4, 1, 6], 4),
        ],
        ids=["desk_with_repeat", "long_several_groups"],
    )
    def test_packed_layout_equals_the_batch_own(self, shapes, idx, groups):
        # ``BatchLayout.of`` indexes a packed corpus; ``BatchLayout`` packs
        # the batch itself.  Every attribute must agree.
        rng = np.random.default_rng(9)
        model = TransducerModel.random(3, 4, 5, rng)
        feats = [rng.normal(size=(T, 3)) for T, _ in shapes]
        tokens = [rng.integers(0, 5, size=U) for _, U in shapes]
        packed = vars(BatchLayout.of(PackedUtterances(model, feats, tokens), idx))
        own = vars(BatchLayout(model, [feats[i] for i in idx], [tokens[i] for i in idx]))
        assert packed.keys() == own.keys() and len(own["groups"]) == groups
        for name, value in own.items():
            equal = value == packed[name] if name == "groups" else np.array_equal(value, packed[name])
            assert equal, name


class TestPairwiseSum:
    """``model._pairwise_sum`` adds the V + 1 rows of a transposed softmax
    in the order in which NumPy sums each contiguous row of the node-major
    table, so the kept softmax needs no row reduction: equal with ==."""

    @staticmethod
    def check(table):
        """``table`` (n, k) is node-major and C-contiguous, as the logits."""
        got = model_module._pairwise_sum(np.ascontiguousarray(table.T))
        np.testing.assert_array_equal(got, table.sum(axis=-1))

    @staticmethod
    def table(seed, n, k, lo, hi):
        """n rows of k values of random sign, magnitudes 10^lo..10^hi."""
        rng = np.random.default_rng(seed)
        return rng.choice([-1.0, 1.0], size=(n, k)) * 10.0 ** rng.uniform(lo, hi, size=(n, k))

    def test_every_width_up_to_300(self):
        for k in range(1, 301):
            self.check(self.table(k, 5, k, -300, 300))

    @settings(PROPERTY, max_examples=100)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        k=st.integers(1, 300),
        bounds=st.tuples(st.floats(-300, 300), st.floats(-300, 300)).map(sorted),
    )
    # Around the 8-value blocks, the 128-value limit and the split above it.
    @example(seed=0, n=3, k=7, bounds=[-300, 300])
    @example(seed=1, n=3, k=17, bounds=[0, 0.5])
    @example(seed=2, n=3, k=129, bounds=[-1, 1])
    @example(seed=3, n=3, k=300, bounds=[-300, 300])
    def test_matches_numpy_row_sums(self, seed, n, k, bounds):
        self.check(self.table(seed, n, k, *bounds))


def layout_of(shapes, seed, V=16, same_token=False):
    """A seeded model of 8 features, 32 hidden units and V tokens, and the
    layout of utterances of the given (T, U), with random transcripts or,
    given ``same_token``, transcripts of one repeated token each."""
    rng = np.random.default_rng(seed)
    model = TransducerModel.random(8, 32, V, rng)
    feats = [rng.normal(size=(T, 8)) for T, _ in shapes]
    if same_token:
        tokens = [np.full(U, rng.integers(0, V)) for _, U in shapes]
    else:
        tokens = [rng.integers(0, V, size=U) for _, U in shapes]
    return model, BatchLayout(model, feats, tokens), tokens


# Desk and long batches, each with an empty transcript; the long one spans
# several node groups.
SHORT_ROW_BATCHES = {
    "desk": [(11, 6), (9, 0), (14, 7), (8, 4), (12, 5)],
    "long": [(75, 25), (60, 0), (70, 30), (3, 7)],
}


class TestKeptSoftmax:
    @pytest.mark.parametrize("case", sorted(SHORT_ROW_BATCHES))
    def test_kept_forward_equals_plain_one(self, case):
        # A forward that keeps its softmax (``_kept_softmax``) writes the
        # columns of one that keeps nothing, and keeps, for every join, the
        # joiner activations and the row softmax that ``references.softmax``
        # gives on the join's logits, with ==; the log-normaliser that both
        # take from ``_kept_softmax`` equals ``_row_logsumexp``, with or
        # without the softmax.
        model, layout, _ = layout_of(SHORT_ROW_BATCHES[case], 81)
        keep = StepActivations(model)
        cols = forward_columns(model, layout, keep=keep)
        want = forward_columns(model, layout)
        np.testing.assert_array_equal(cols.blank, want.blank)
        np.testing.assert_array_equal(cols.emit, want.emit)
        p, enc, _, pred = model_module._encode(model, layout)
        work = model_module._work(layout.max_join_group, enc)
        assert len(layout.groups) > 1 or case == "desk"
        assert layout.join_frame.size < layout.frame.size  # some nodes share a join
        for j0, j1 in layout.join_groups:
            frames, positions = layout.join_frame[j0:j1], layout.join_pos[j0:j1]
            z, logits = model_module._join(p, enc, pred, frames, positions, *work)
            np.testing.assert_array_equal(keep.z[j0:j1], z)
            softmax = np.empty_like(logits)
            m, s = references.softmax(logits, softmax)
            np.testing.assert_array_equal(keep.softmax[j0:j1], softmax)
            scratch = np.empty((model.vocab_size + 1, j1 - j0))
            lse = model_module._kept_softmax(logits, scratch, np.empty_like(logits))
            np.testing.assert_array_equal(lse, (m + np.log(s))[:, 0])
            np.testing.assert_array_equal(lse, _row_logsumexp(logits)[:, 0])
            np.testing.assert_array_equal(model_module._kept_softmax(logits, scratch), lse)


class TestTwoEntryBackward:
    """``backward_columns`` builds each node's logit gradient from its blank
    and label entries; it equals ``_backward`` fed the dense rows of
    ``dense_grad`` on the same layout, with ==."""

    @pytest.mark.parametrize("kept", [False, True])
    @pytest.mark.parametrize("case", sorted(SHORT_ROW_BATCHES))
    def test_equals_dense_rows(self, case, kept):
        # ``kept``: the backward reads the activations of the forward that
        # made its columns, or of a second forward into fresh buffers.
        V = 16
        model, layout, tokens = layout_of(SHORT_ROW_BATCHES[case], 82, V)
        keep = StepActivations(model)
        cols = forward_columns(model, layout, keep=keep if kept else None)
        # Hard zeros: the first frame's blank at level 0 and the last
        # frame's first label, so some cells are unreachable and some
        # alignments dead, and their gradients are exactly 0.
        for b, (T, U) in enumerate(zip(layout.T, layout.U)):
            if U:
                cols.blank[0, b, 0] = -np.inf
                cols.emit[T - 1, b, 1] = -np.inf
        rng = np.random.default_rng(83)
        lam = rng.uniform(0.5, 1.5, size=(layout.T.size, cols.blank.shape[2] - 1))
        lam[np.arange(lam.shape[1]) >= layout.U[:, None]] = 0.0
        sweep = cols.sweep()
        g_blank, g_emit = cols.grad(sweep, lam, np.full(layout.T.size, 0.7))
        assert (g_blank == 0).any() and (g_emit != 0).any()
        if kept:
            got = backward_columns(model, layout, g_blank, g_emit, keep)
        else:
            got = references.fresh_backward(model, layout, g_blank, g_emit)
        dense = np.concatenate([
            dense_grad(g_blank, g_emit, b, int(T), y, V + 1).reshape(-1, V + 1)
            for b, (T, y) in enumerate(zip(layout.T, tokens))
        ])
        forward_columns(model, layout, keep=keep)
        want = model_module._backward(model, layout, references.dense_dlogit_rows(layout, dense), keep)
        np.testing.assert_array_equal(got, want)


class TestOneBackwardPath:
    """Every backward follows its kept forward: ``backward_columns`` needs
    the activations a forward kept, and a backward through buffers reused
    across batches equals one through fresh buffers (``references``'s
    ``fresh_backward`` and ``model_backward``), with ==, on desk and long
    batches."""

    @pytest.mark.parametrize("case", sorted(SHORT_ROW_BATCHES))
    def test_backward_columns_without_kept(self, case):
        model, layout, _ = layout_of(SHORT_ROW_BATCHES[case], 85)
        keep = StepActivations(model)
        cols = forward_columns(model, layout, keep=keep)
        rng = np.random.default_rng(86)
        g_blank = np.where(np.isfinite(cols.blank), rng.normal(size=cols.blank.shape), 0.0)
        g_emit = np.where(np.isfinite(cols.emit), rng.normal(size=cols.emit.shape), 0.0)
        with pytest.raises(TypeError):
            backward_columns(model, layout, g_blank, g_emit)
        with pytest.raises(DataError, match="no activations kept"):
            backward_columns(model, layout, g_blank, g_emit, StepActivations(model))
        want = backward_columns(model, layout, g_blank, g_emit, keep)
        np.testing.assert_array_equal(references.fresh_backward(model, layout, g_blank, g_emit), want)

    @pytest.mark.parametrize("case", sorted(SHORT_ROW_BATCHES))
    def test_model_backward(self, case):
        model, _, _ = layout_of(SHORT_ROW_BATCHES[case], 87)
        rng = np.random.default_rng(88)
        keep = StepActivations(model)  # reused, and grown, across the utterances
        for T, U in SHORT_ROW_BATCHES[case]:
            feats, y = rng.normal(size=(T, 8)), rng.integers(0, 16, size=U)
            dlogp = rng.normal(size=(T, U + 1, 17))
            layout = BatchLayout(model, [feats], [y])
            forward_columns(model, layout, keep=keep)
            rows = references.dense_dlogit_rows(layout, dlogp.reshape(-1, 17))
            want = model_module._backward(model, layout, rows, keep)
            np.testing.assert_array_equal(model_backward(model, feats, y, dlogp), want)


def smallest_product(layout):
    """The fewest rows of any node group or join group of the layout."""
    nodes = min(n1 - n0 for n0, n1, _, _ in layout.groups)
    return min(nodes, min(j1 - j0 for j0, j1 in layout.join_groups))


class TestJoins:
    """The nodes (b, t, u) of one utterance and frame whose predictor inputs
    have one id share a join (b, t, id): ``forward_columns`` runs the joiner
    once per join, and ``backward_columns`` sums each join's node gradients
    before the joiner's chain rule.  The forward equals the per-node pass of
    ``references.forward_columns_per_node``, with ==, when every node group
    and join group has at least 128 rows.  A product of fewer rows may take
    OpenBLAS's small-matrix path, whose rows depend on the product's height
    (ROADMAP item 3), so there a join product's rows may differ from the
    per-node product's in the last bit, and the passes agree to 1e-12.  The
    backward's sums over a join reassociate the per-node sums, so its
    gradient agrees with the per-node one to 1e-12 of its largest entry,
    and equals it, with ==, where no join is shared."""

    # Every node group and join group has at least 128 rows.
    LARGE = {
        # One repeated token per transcript: two joins per frame.
        "same_token": ([(75, 25), (70, 20)], True),
        # Empty transcripts and one-frame utterances beside desk ones.
        "u0_and_t1": ([(1, 0), (1, 6), (40, 9), (30, 0), (12, 5), (1, 3), (25, 7)], False),
        # Long lattices over three node groups.
        "several_groups": ([(3, 7), (75, 25), (60, 20), (70, 30)], False),
    }

    @staticmethod
    def passes(model, layout, seed):
        """The product's columns and gradient, and the per-node ones, under
        seeded column gradients."""
        keep = StepActivations(model)
        cols = forward_columns(model, layout, keep=keep)
        rng = np.random.default_rng(seed)
        g_blank = np.where(np.isfinite(cols.blank), rng.normal(size=cols.blank.shape), 0.0)
        g_emit = np.where(np.isfinite(cols.emit), rng.normal(size=cols.emit.shape), 0.0)
        grad = backward_columns(model, layout, g_blank, g_emit, keep)
        want, want_grad = references.per_node_passes(model, layout, g_blank, g_emit)
        return (cols, grad), (want, want_grad)

    @pytest.mark.parametrize("case", sorted(LARGE))
    def test_equals_per_node_passes(self, case):
        shapes, same_token = self.LARGE[case]
        model, layout, _ = layout_of(shapes, 90, same_token=same_token)
        assert smallest_product(layout) >= 128
        assert layout.join_frame.size < layout.frame.size
        (cols, grad), (want, want_grad) = self.passes(model, layout, 91)
        np.testing.assert_array_equal(cols.blank, want.blank)
        np.testing.assert_array_equal(cols.emit, want.emit)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    @pytest.mark.parametrize("shapes", [[(11, 6), (1, 0), (9, 15), (4, 1)], [(70, 16), (30, 12), (75, 16)]])
    def test_equals_per_node_passes_without_shared_joins(self, shapes):
        # Every join is one node, so each join's sums are its node's terms
        # and the products are the per-node ones: == at any group size.
        rng = np.random.default_rng(95)
        model = TransducerModel.random(8, 32, 16, rng)
        feats = [rng.normal(size=(T, 8)) for T, _ in shapes]
        tokens = [rng.permutation(16)[:U] for _, U in shapes]
        layout = BatchLayout(model, feats, tokens)
        assert layout.join_frame.size == layout.frame.size
        (cols, grad), (want, want_grad) = self.passes(model, layout, 96)
        np.testing.assert_array_equal(cols.blank, want.blank)
        np.testing.assert_array_equal(cols.emit, want.emit)
        np.testing.assert_array_equal(grad, want_grad)

    @settings(PROPERTY, max_examples=25)
    @given(case=model_batches(), same_token=st.booleans())
    @example(case=(3, [(1, 25), (2, 0)]), same_token=True)
    def test_close_to_per_node_passes(self, case, same_token):
        seed, shapes = case
        model, layout, _ = layout_of(shapes, seed, same_token=same_token)
        (cols, grad), (want, want_grad) = self.passes(model, layout, seed + 1)
        for got, ref in ((cols.blank, want.blank), (cols.emit, want.emit)):
            owned = np.isfinite(ref)
            np.testing.assert_array_equal(np.isfinite(got), owned)
            if smallest_product(layout) >= 128:
                np.testing.assert_array_equal(got, ref)
            assert np.max(np.abs(got[owned] - ref[owned]), initial=0.0) <= 1e-12
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    def test_one_join_per_node_without_repeated_inputs(self):
        # Transcripts without a repeated token (BOS is an id of its own):
        # every node is its own join, in node order.
        rng = np.random.default_rng(92)
        shapes = [(11, 6), (1, 0), (9, 15), (70, 16), (4, 1)]
        model = TransducerModel.random(8, 4, 16, rng)
        feats = [rng.normal(size=(T, 8)) for T, _ in shapes]
        tokens = [rng.permutation(16)[:U] for _, U in shapes]
        packed = PackedUtterances(model, feats, tokens)
        np.testing.assert_array_equal(packed.first_use, np.concatenate([np.arange(U + 1) for _, U in shapes]))
        layout = BatchLayout.of(packed, [3, 0, 1, 2, 4])
        np.testing.assert_array_equal(layout.node_join, np.arange(layout.frame.size))
        np.testing.assert_array_equal(layout.emit_join, layout.emit_rows)
        np.testing.assert_array_equal(layout.join_frame, layout.frame)
        np.testing.assert_array_equal(layout.join_pos, layout.pos)
        assert layout.join_groups == [(n0, n1) for n0, n1, _, _ in layout.groups]

    @pytest.mark.parametrize("same_token", [False, True])
    def test_joins_are_the_distinct_frame_id_pairs(self, same_token):
        # Each node's join has its frame and its predictor input's id; the
        # joins are the distinct (frame, id) pairs of the batch, each at its
        # first use, and none is shared across utterances, even by a
        # repeated one.
        rng = np.random.default_rng(94)
        model = TransducerModel.random(8, 4, 16, rng)
        shapes = [(11, 6), (9, 0), (14, 7), (75, 25), (1, 4)]
        feats = [rng.normal(size=(T, 8)) for T, _ in shapes]
        tokens = [np.full(U, U % 16) if same_token else rng.integers(0, 4, size=U) for _, U in shapes]
        layout = BatchLayout.of(PackedUtterances(model, feats, tokens), [3, 0, 1, 3, 2, 4])
        joins = layout.node_join
        np.testing.assert_array_equal(layout.join_frame[joins], layout.frame)
        np.testing.assert_array_equal(layout.ids[layout.join_pos[joins]], layout.ids[layout.pos])
        pairs = np.unique(layout.frame * 17 + layout.ids[layout.pos])
        assert pairs.size == layout.join_frame.size < layout.frame.size
        first = np.full(layout.join_frame.size, layout.pos.max() + 1)
        np.minimum.at(first, joins, layout.pos)
        np.testing.assert_array_equal(layout.join_pos, first)
        np.testing.assert_array_equal(layout.emit_join, joins[layout.emit_rows])
        # Join groups cover the joins of their node groups, in order.
        for (n0, n1, _, _), (j0, j1) in zip(layout.groups, layout.join_groups):
            assert joins[n0] == j0 and joins[n0:n1].max() == j1 - 1
        # The backward's tables: joins are frame-major, and ``by_pos`` lists
        # them position-major, each first use's joins in a run, in frame order.
        frames = layout.join_frame
        assert np.all(frames[1:] >= frames[:-1])
        np.testing.assert_array_equal(layout.frame_first, frames.searchsorted(np.arange(layout.feats.shape[0])))
        np.testing.assert_array_equal(layout.by_pos, np.lexsort((frames, layout.join_pos)))
        np.testing.assert_array_equal(layout.use_pos, np.unique(layout.join_pos))
        np.testing.assert_array_equal(layout.pos_first, layout.join_pos[layout.by_pos].searchsorted(layout.use_pos))


def test_sum_by_id_makes_the_additions_of_add_at():
    # Repeated ids in a scattered order, with values whose sums depend on
    # the order of the additions.
    rng = np.random.default_rng(84)
    ids = rng.integers(0, 6, size=200)
    rows = rng.choice([-1.0, 1.0], size=(200, 5)) * 10.0 ** rng.uniform(-8, 8, size=(200, 5))
    want = np.zeros((7, 5))
    np.add.at(want, ids, rows)
    got = model_module._sum_by_id(ids, rows, 7)
    np.testing.assert_array_equal(got, want)
    assert not got[6].any()


def adam_buffers(model):
    """A copy of the model's parameters and zero moments, for ``adam_update``."""
    return model.params.copy(), np.zeros(model.params.size), np.zeros(model.params.size)


class TestOptimizers:
    def test_adam_first_step_is_signed_lr(self):
        m, rng = make_model(seed=9)
        g = rng.normal(size=m.params.size)
        g[np.abs(g) < 0.1] = 0.5  # keep |g| >> eps so the limit is clean
        lr = 1e-2
        params, mom, vel = adam_buffers(m)
        adam_update(params, mom, vel, g, 1, lr)
        np.testing.assert_allclose(params - m.params, -lr * np.sign(g), atol=1e-6)

    def test_rate_column_equals_scalar_updates(self):
        # One update of K stacked rows, each at its own rate, equals K
        # scalar updates of the rows, bit for bit, over several steps.
        m, rng = make_model(seed=14)
        lrs = [5e-3, 1e-2, 2e-2]
        stacked = [np.tile(buf, (len(lrs), 1)) for buf in adam_buffers(m)]
        rows = [adam_buffers(m) for _ in lrs]
        for step in (1, 2, 3):
            g = rng.normal(size=stacked[0].shape)
            adam_update(*stacked, g, step, np.array(lrs)[:, None])
            for k, lr in enumerate(lrs):
                adam_update(*rows[k], g[k], step, lr)
        for k in range(len(lrs)):
            for got, want in zip(stacked, rows[k]):
                assert np.array_equal(got[k], want)

    def test_adam_update_writes_only_its_buffers(self):
        # Parameters and moments change in place; the gradient and the model
        # the parameters were copied from do not.
        m, rng = make_model(seed=13)
        before = m.params.copy()
        params, mom, vel = adam_buffers(m)
        for step in (1, 2):
            g = rng.normal(size=m.params.size)
            kept = g.copy(), params.copy(), mom.copy(), vel.copy()
            adam_update(params, mom, vel, g, step, 1e-2)
            np.testing.assert_array_equal(g, kept[0])
            for now, was in zip((params, mom, vel), kept[1:]):
                assert not np.array_equal(now, was)
        np.testing.assert_array_equal(m.params, before)

    def test_adam_nan_gradient_leaves_state_untouched(self):
        m, _ = make_model(seed=10)
        params, mom, vel = adam_buffers(m)
        g = np.zeros(m.params.size)
        g[0] = np.nan
        with pytest.raises(NumericalError):
            adam_update(params, mom, vel, g, 1, 1e-2)
        np.testing.assert_array_equal(params, m.params)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_raises_without_update(self, bad):
        # An infinite entry would make the parameters NaN; the step refuses
        # it as a numerical fault before the parameters are touched.
        m, _ = make_model(seed=10)
        params, mom, vel = adam_buffers(m)
        g = np.zeros(m.params.size)
        g[3] = bad
        with pytest.raises(NumericalError, match="non-finite gradient"):
            adam_update(params, mom, vel, g, 1, 1e-2)
        np.testing.assert_array_equal(mom, 0.0)
        np.testing.assert_array_equal(vel, 0.0)
        np.testing.assert_array_equal(params, m.params)


class TestGreedyDecode:
    def test_blank_dominant_model_emits_nothing(self):
        m = TransducerModel.zeros(2, 3, 2)
        p = m.params.copy()
        m2 = TransducerModel(2, 3, 2, p)
        jb = m2.slice("join_b")
        jb[2] = 5.0  # blank logit dominates every node
        hyp, clean = greedy_decode(m2, np.zeros((4, 2)))
        assert hyp.size == 0 and clean

    def test_single_frame_emits_dominant_token_then_blank(self):
        # Handcrafted: BOS state pushes token 0, token-0 state pushes blank.
        m = TransducerModel.zeros(1, 2, 2)
        emb = m.slice("emb")
        emb[2] = [1.0, 0.0]  # BOS row
        emb[0] = [0.0, 1.0]
        m.slice("pred_w")[...] = np.eye(2)
        jw = m.slice("join_w")
        jw[0] = [10.0, 0.0]  # token 0 keyed to the BOS direction
        jw[2] = [0.0, 10.0]  # blank keyed to the token-0 direction
        hyp, clean = greedy_decode(m, np.zeros((1, 1)))
        assert hyp.tolist() == [0] and clean

    @pytest.mark.parametrize("cap", [2.5, 4.0, True, "4"])
    def test_cap_must_be_an_integer(self, cap):
        m = TransducerModel.zeros(1, 2, 2)
        with pytest.raises(DataError, match=f"^max_symbols_per_frame must be an integer >= 1, got {cap!r}$"):
            greedy_decode(m, np.zeros((2, 1)), max_symbols_per_frame=cap)

    def test_cap_forces_termination(self):
        m = TransducerModel.zeros(1, 2, 2)
        m.slice("join_b")[0] = 5.0  # token 0 always wins: decoder would loop
        hyp, clean = greedy_decode(m, np.zeros((2, 1)), max_symbols_per_frame=4)
        assert hyp.size == 8 and not clean

    @staticmethod
    def keyed_model():
        """Token 0 wins at frames whose feature is 1 and blank wins at frames
        whose feature is 0, under the BOS state and under token 0's state,
        which is the BOS state again: at a feature-1 frame the decode emits
        token 0 until the cap."""
        m = TransducerModel.zeros(1, 2, 1)
        m.slice("enc_w")[0, 0] = 3.0
        m.slice("pred_w")[...] = np.eye(2)
        m.slice("join_w")[0] = [10.0, 0.0]
        m.slice("join_b")[1] = 1.0  # blank
        return m

    def decode_both(self, m, feats, cap):
        got = greedy_decode(m, feats, cap)
        want = references.greedy_decode(m, feats, cap)
        assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
        return got[0].tolist(), got[1]

    def test_label_first_wins_late_after_blanks(self):
        # Token 0's state now raises blank at every frame, so the decode
        # emits once, at the first feature-1 frame, after five blank frames.
        m = self.keyed_model()
        m.slice("emb")[0] = [0.0, 2.0]
        m.slice("join_w")[1] = [0.0, 10.0]
        feats = np.array([[0.0], [0.0], [0.0], [0.0], [0.0], [1.0], [0.0], [1.0]])
        assert self.decode_both(m, feats, 4) == ([0], True)

    def test_cap_hit_on_the_last_frame(self):
        feats = np.array([[0.0], [0.0], [0.0], [1.0]])
        assert self.decode_both(self.keyed_model(), feats, 3) == ([0, 0, 0], False)

    @pytest.mark.parametrize("feature, expected", [(1.0, ([0], False)), (0.0, ([], True))])
    def test_one_frame_cap_one(self, feature, expected):
        assert self.decode_both(self.keyed_model(), np.array([[feature]]), 1) == expected

    @settings(PROPERTY, max_examples=150)
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 6)),
        T=st.integers(1, 80),
        cap=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.3, 1.0, 3.0]),
        kind=st.sampled_from(["random", "blank_dominant", "label_biased"]),
    )
    def test_equals_frame_by_frame_reference(self, dims, T, cap, seed, scale, kind):
        D, H, V = dims
        rng = np.random.default_rng(seed)
        m = TransducerModel.random(D, H, V, rng, scale=scale)
        # A blank bias of +3 makes most frames blank; one of -1e3 makes a
        # label win every step, so every frame hits the cap.
        m.slice("join_b")[V] += {"random": 0.0, "blank_dominant": 3.0, "label_biased": -1e3}[kind]
        feats = rng.normal(size=(T, D))
        tokens, clean = self.decode_both(m, feats, cap)
        if kind == "label_biased":
            assert len(tokens) == T * cap and not clean

    def test_seeded_decode_is_stable(self):
        m, rng = make_model(seed=11, D=2, H=4, V=3, scale=1.0)
        feats = rng.normal(size=(5, 2))
        a, _ = greedy_decode(m, feats)
        b, _ = greedy_decode(m, feats)
        np.testing.assert_array_equal(a, b)


class TestCheckpoints:
    def test_round_trip_exact(self, tmp_path):
        m, _ = make_model(seed=12)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, m, meta={"note": "t"})
        m2, meta = load_checkpoint(path)
        np.testing.assert_array_equal(m2.params, m.params)
        assert meta == {"note": "t"}
        # Older checkpoints carry an optimizer block; it is ignored.
        obj = json.loads(path.read_text())
        obj["optimizer"] = {"step": 1, "m": [0.0] * m.params.size, "v": [0.0] * m.params.size}
        path.write_text(json.dumps(obj))
        m3, meta = load_checkpoint(path)
        np.testing.assert_array_equal(m3.params, m.params)
        assert meta == {"note": "t"}

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"kind": "other"}')
        with pytest.raises(DataError, match="not a model checkpoint"):
            load_checkpoint(path)
        # Files that used to escape as JSONDecodeError, AttributeError or KeyError.
        for text, message in [
            ("{not json", "invalid JSON"),
            ("[1, 2]", "not a model checkpoint"),
            ('{"kind": "twrnnt-checkpoint", "format_version": 1}', "malformed checkpoint"),
        ]:
            path.write_text(text)
            with pytest.raises(DataError, match=message):
                load_checkpoint(path)
