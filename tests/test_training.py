from dataclasses import replace

import numpy as np
import pytest

from twrnnt import kernels
from twrnnt.datagen import SyntheticSpec, Utterance, generate_synthetic_dataset, read_dataset
from twrnnt.errors import DataError, NumericalError
from twrnnt.conditionals import conditional_profile
from twrnnt.lattice import rnnt_loss, rnnt_loss_grad
from twrnnt.model import (
    _GROUP_NODES,
    AdamConfig,
    BatchLayout,
    StepActivations,
    TransducerModel,
    adam_update,
    backward_columns,
    forward_columns,
    model_backward,
    model_forward,
)
from twrnnt.seeds import stream
from twrnnt.training import (
    MODES,
    TrainConfig,
    _batch_loss_and_grad,
    _Corpus,
    evaluate_wer,
    score_confidences,
    train_model,
    train_runs,
)
from twrnnt.weighting import (
    TokenWeights,
    WeightConfig,
    _padded_weights,
    compute_weights,
    padded_loss_and_grad,
    weighted_loss_and_grad,
)


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    spec = SyntheticSpec(
        n_train=50, n_valid=10, n_test=40, n_pretrain=10,
        dim_features=8, vocab_size=16, noise_level=0.3, seed=21,
    )
    paths = generate_synthetic_dataset(spec, tmp_path_factory.mktemp("data"))
    out = {}
    for name, p in paths.items():
        meta, utts = read_dataset(p)
        out[name] = utts
        out["meta"] = meta
    return out


def batch_step(model, batch, cfg):
    """Loss and gradient of one batch, through the training corpus."""
    grad = np.empty((1, model.params.size))
    (loss,) = _batch_loss_and_grad([model], _Corpus(model, batch, [cfg]), np.arange(len(batch)), grad)
    return loss, grad[0]


def reference_batch_weights(batch, cfg):
    """One TokenWeights per utterance, from ``compute_weights`` and the
    utterance-weight formula, batch by batch."""
    if cfg.mode == "standard":
        return [TokenWeights.uniform(u.tokens.size) for u in batch]
    confidences = [
        u.confidences if u.confidences is not None else np.ones(u.tokens.size) for u in batch
    ]
    if cfg.mode == "token_weights":
        wcfg = WeightConfig(
            alpha=cfg.alpha, final_blank_weight=cfg.final_blank_weight, normalization="per_batch"
        )
        if not any(c.size for c in confidences):  # compute_weights refuses a scope of no tokens
            return [TokenWeights(np.zeros(0), np.zeros(0), wcfg) for _ in batch]
        return compute_weights(confidences, wcfg)
    means = np.array([float(np.mean(c)) if c.size else 1.0 for c in confidences])
    powered = means**cfg.alpha
    w = powered / np.mean(powered)
    return [
        TokenWeights(
            lambdas=np.full(c.size, wi),
            source_confidences=c,
            config=WeightConfig(alpha=cfg.alpha, final_blank_weight=float(wi)),
        )
        for wi, c in zip(w, confidences)
    ]


def reference_batches(labeled, pseudo, cfg, rng, ratio=(1, 9)):
    """Batches as lists of utterances: epoch shuffles of ``labeled``, or with
    a ``pseudo`` pool, slots drawn at the labeled:pseudo ratio."""
    if pseudo is None:
        for _ in range(cfg.epochs):
            order = rng.permutation(len(labeled))
            for start in range(0, len(labeled), cfg.batch_size):
                yield [labeled[i] for i in order[start : start + cfg.batch_size]]
        return
    p_pseudo = ratio[1] / (ratio[0] + ratio[1])
    steps = -(-(len(labeled) + len(pseudo)) // cfg.batch_size)
    for _ in range(cfg.epochs * steps):
        batch = []
        for _ in range(cfg.batch_size):
            if rng.random() < p_pseudo:
                batch.append(pseudo[int(rng.integers(0, len(pseudo)))])
            else:
                batch.append(labeled[int(rng.integers(0, len(labeled)))])
        yield batch


def reference_train(labeled, pseudo, cfg, init, order_rng):
    """Training one batch at a time: a layout of the batch's own utterances,
    weights from ``reference_batch_weights``, and ``adam_update`` on the
    loop's own copy of the parameters."""
    params, m, v = init.params.copy(), np.zeros_like(init.params), np.zeros_like(init.params)
    model = TransducerModel(init.dim_in, init.dim_hidden, init.vocab_size, params)
    losses = []
    for step, batch in enumerate(reference_batches(labeled, pseudo, cfg, order_rng), start=1):
        layout = BatchLayout(model, [u.features for u in batch], [u.tokens for u in batch])
        lam, w_fb = _padded_weights(reference_batch_weights(batch, cfg), layout.U)
        losses_u, g_blank, g_emit = padded_loss_and_grad(forward_columns(model, layout), lam, w_fb)
        loss = 0.0
        for loss_u in losses_u:
            loss += loss_u
        tokens = max(1, sum(u.tokens.size for u in batch))
        grad = backward_columns(model, layout, g_blank, g_emit)
        grad /= tokens
        adam_update(params, m, v, grad, step, AdamConfig(lr=cfg.lr))
        losses.append(loss / tokens)
    return model, losses


class TestTrainingLoop:
    def test_loss_halves_on_clean_data_three_seeds(self, small_data):
        # Smoke property: bounded-epoch training cuts the loss by > 2x.
        for seed in (0, 1, 2):
            cfg = TrainConfig(epochs=12, batch_size=8, lr=1e-2, dim_hidden=32)
            res = train_model(
                small_data["train"], 8, 16, cfg,
                stream(seed, "init"), stream(seed, "order"),
            )
            assert res.epoch_losses[-1] < 0.5 * res.epoch_losses[0]

    @pytest.mark.parametrize(
        "field, value", [("epochs", 0), ("batch_size", 0), ("dim_hidden", 0), ("dim_hidden", -1)]
    )
    def test_config_rejects_sizes_below_one(self, field, value):
        with pytest.raises(DataError, match=field):
            TrainConfig(**{field: value})

    def test_deterministic_given_streams(self, small_data):
        cfg = TrainConfig(epochs=2, batch_size=8)
        runs = [
            train_model(
                small_data["train"], 8, 16, cfg,
                stream(5, "init"), stream(5, "order"),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].model.params, runs[1].model.params)
        assert runs[0].batch_losses == runs[1].batch_losses

    def test_alpha_zero_collapses_weighted_modes(self, small_data):
        # c^0 = 1 for every token, so both weighted objectives match the
        # standard loss batch by batch.
        scored = [
            u for u in score_confidences(
                train_model(
                    small_data["train"][:20], 8, 16,
                    TrainConfig(epochs=3, batch_size=8),
                    stream(9, "init"), stream(9, "order"),
                ).model,
                small_data["train"],
            )
        ]
        traces = {}
        for mode in ("standard", "token_weights", "utterance_weights"):
            cfg = TrainConfig(epochs=3, batch_size=8, mode=mode, alpha=0.0)
            res = train_model(
                scored, 8, 16, cfg, stream(7, "init"), stream(7, "order")
            )
            traces[mode] = np.asarray(res.batch_losses)
        for mode in ("token_weights", "utterance_weights"):
            assert np.max(np.abs(traces[mode] - traces["standard"])) < 1e-9

    def test_utterance_mode_scales_standard_terms(self, small_data):
        # Utterance weighting is the standard loss and gradient of utterance
        # i scaled by w_i = mean(c_i)^alpha / batch mean, sentence-end term
        # included, summed and divided by the batch's token count.
        rng = np.random.default_rng(17)
        model = TransducerModel.random(8, 16, 16, rng)
        batch = [
            replace(u, confidences=rng.uniform(0.05, 1.0, size=u.tokens.size))
            for u in small_data["train"][:6]
        ]
        alpha = 3.0
        loss, grad = batch_step(model, batch, TrainConfig(mode="utterance_weights", alpha=alpha))
        powered = np.array([np.mean(u.confidences) ** alpha for u in batch])
        w = powered / np.mean(powered)
        tokens = sum(u.tokens.size for u in batch)
        ref_loss = 0.0
        ref_grad = np.zeros_like(model.params)
        for wi, u in zip(w, batch):
            lat = model_forward(model, u.features, u.tokens)
            dlogp = rnnt_loss_grad(lat, u.tokens)
            ref_loss += wi * rnnt_loss(lat, u.tokens)
            ref_grad += wi * model_backward(model, u.features, u.tokens, dlogp)
        assert np.ptp(w) > 0.5  # the weights really differ across utterances
        assert abs(loss - ref_loss / tokens) <= 1e-12
        assert np.max(np.abs(grad - ref_grad / tokens)) <= 1e-12

    def test_token_mode_requires_matching_confidences(self, small_data):
        utt = small_data["train"][0]
        bad = Utterance(
            id=utt.id, features=utt.features, tokens=utt.tokens,
            confidences=np.array([0.5]),
        )
        cfg = TrainConfig(epochs=1, batch_size=1, mode="token_weights", alpha=1.0)
        if bad.confidences.size != bad.tokens.size:
            with pytest.raises(DataError, match="confidences"):
                train_model([bad], 8, 16, cfg, stream(1, "i"), stream(1, "o"))

    def test_divergence_raises(self, small_data, monkeypatch):
        # The tanh-bounded architecture cannot produce NaN losses on its own,
        # so exercise the guard directly.
        import twrnnt.training as training_mod

        def nan_step(models, corpus, idx, grad, kept=None):
            grad[...] = 0.0
            return [float("nan")] * len(models)

        monkeypatch.setattr(training_mod, "_batch_loss_and_grad", nan_step)
        with pytest.raises(NumericalError, match="diverged"):
            train_model(
                small_data["train"][:12], 8, 16, TrainConfig(epochs=1),
                stream(3, "init"), stream(3, "order"),
            )


class TestPaddedBatchStep:
    """One grouped model pass and one padded DP sweep per batch must
    reproduce the per-utterance path: every loss term exactly, and the
    gradient up to the rounding of matrix products over stacked rows."""

    @pytest.mark.parametrize("mode", MODES)
    def test_batch_step_equals_per_utterance_sum(self, small_data, mode):
        rng = np.random.default_rng(40)
        model = TransducerModel.random(8, 16, 16, rng)
        batch = [
            replace(u, confidences=rng.uniform(0.05, 1.0, size=u.tokens.size))
            for u in small_data["train"][:8]
        ]
        assert len({u.features.shape[0] for u in batch}) > 1  # real padding
        cfg = TrainConfig(mode=mode, alpha=2.0, final_blank_weight=0.5)
        loss, grad = batch_step(model, batch, cfg)
        tokens = sum(u.tokens.size for u in batch)
        ref_loss = 0.0
        ref_grad = np.zeros_like(model.params)
        for u, w in zip(batch, reference_batch_weights(batch, cfg)):
            lat = model_forward(model, u.features, u.tokens)
            loss_u, dlogp = weighted_loss_and_grad(lat, u.tokens, w)
            ref_loss += loss_u
            ref_grad += model_backward(model, u.features, u.tokens, dlogp)
        ref_grad /= tokens
        assert loss == ref_loss / tokens
        # OpenBLAS rounds a row differently depending on the height of the
        # matrix that holds it, so stacked rows differ from single ones.
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
        again_loss, again_grad = batch_step(model, batch, cfg)
        assert again_loss == loss
        np.testing.assert_array_equal(again_grad, grad)

    def test_zero_probability_prefix_raises(self, small_data, monkeypatch):
        import twrnnt.training as training_mod

        def forward_with_hole(model, layout, out=None, keep=None):
            cols = forward_columns(model, layout, out=out, keep=keep)
            cols.emit[2, :, 0] = -np.inf  # utterance 2's first token can never be emitted
            return cols

        batch = small_data["train"][:4]
        monkeypatch.setattr(training_mod, "forward_columns", forward_with_hole)
        model = TransducerModel.random(8, 16, 16, np.random.default_rng(41))
        with pytest.raises(NumericalError, match="zero probability"):
            batch_step(model, batch, TrainConfig())


class TestScoring:
    def test_chunked_scores_equal_per_utterance_profiles(self, small_data):
        # More utterances than one scoring chunk, with empty transcripts
        # mixed in, including one that ends a chunk.
        model = TransducerModel.random(8, 16, 16, np.random.default_rng(42))
        pool = list(small_data["train"][:40])
        for i in (0, 31, 37):
            pool[i] = replace(pool[i], tokens=np.zeros(0, np.int64))
        scored = score_confidences(model, pool)
        assert [u.id for u in scored] == [u.id for u in pool]
        for u in scored:
            if u.tokens.size == 0:
                np.testing.assert_array_equal(u.confidences, np.zeros(0))
                continue
            lat = model_forward(model, u.features, u.tokens)
            np.testing.assert_array_equal(
                u.confidences, conditional_profile(lat, u.tokens).conditionals
            )

    def test_scores_are_valid_confidences(self, small_data):
        model = train_model(
            small_data["train"], 8, 16, TrainConfig(epochs=6),
            stream(11, "init"), stream(11, "order"),
        ).model
        scored = score_confidences(model, small_data["test"])
        for u in scored:
            assert u.confidences.size == u.tokens.size
            assert np.all(u.confidences > 0) and np.all(u.confidences <= 1.0)

    def test_trained_model_confident_on_clean_labels(self, small_data):
        model = train_model(
            small_data["train"], 8, 16, TrainConfig(epochs=30),
            stream(12, "init"), stream(12, "order"),
        ).model
        scored = score_confidences(model, small_data["train"])
        mean_c = np.mean(np.concatenate([u.confidences for u in scored]))
        assert mean_c > 0.5

    def test_empty_transcript_gets_empty_scores(self, small_data):
        model = train_model(
            small_data["train"][:10], 8, 16, TrainConfig(epochs=1),
            stream(13, "init"), stream(13, "order"),
        ).model
        utt = small_data["train"][0]
        empty = Utterance(id="e", features=utt.features, tokens=np.zeros(0, np.int64))
        scored = score_confidences(model, [empty])
        assert scored[0].confidences.size == 0


class TestEvaluate:
    def test_perfect_model_zero_wer(self, tmp_path):
        spec = SyntheticSpec(
            n_train=150, n_valid=5, n_test=60, n_pretrain=5,
            dim_features=8, vocab_size=16, noise_level=0.0,
            min_frames_per_token=1, max_frames_per_token=1, seed=22,
        )
        paths = generate_synthetic_dataset(spec, tmp_path)
        _, train = read_dataset(paths["train"])
        _, test = read_dataset(paths["test"])
        res = train_model(
            train, 8, 16, TrainConfig(epochs=30, batch_size=8),
            stream(14, "init"), stream(14, "order"),
        )
        assert evaluate_wer(res.model, test) < 0.02


class TestRunSetup:
    """``train_model`` checks and packs its utterances once, then updates
    one parameter buffer in place; the result must be bit-identical to the
    batch-by-batch reference loop."""

    @staticmethod
    def scored(utts, seed):
        rng = np.random.default_rng(seed)
        return [replace(u, confidences=rng.uniform(0.05, 1.0, size=u.tokens.size)) for u in utts]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mixed", [False, True], ids=["epochs", "pseudo"])
    def test_run_equals_reference_loop(self, small_data, mode, mixed):
        train = self.scored(small_data["train"][:20], 50)
        # An empty transcript, and labeled utterances without confidences.
        train[3] = replace(train[3], tokens=np.zeros(0, np.int64), confidences=np.zeros(0))
        labeled, pseudo = (train[:8], train[8:]) if mixed else (train, None)
        if mixed:
            labeled = [replace(u, confidences=None) for u in labeled]
        cfg = TrainConfig(epochs=2, batch_size=8, mode=mode, alpha=2.0, final_blank_weight=0.5)
        init = TransducerModel.random(8, 16, 16, np.random.default_rng(51))
        before = init.params.copy()
        res = train_model(
            labeled, 8, 16, cfg, stream(52, "init"), stream(52, "order"),
            init_model=init, pseudo=pseudo,
        )
        np.testing.assert_array_equal(init.params, before)  # init_model is copied
        ref_model, ref_losses = reference_train(labeled, pseudo, cfg, init, stream(52, "order"))
        assert len(res.batch_losses) == len(ref_losses) > 4
        assert res.batch_losses == ref_losses
        assert np.array_equal(res.model.params, ref_model.params)

    BAD = {
        "non_finite_features": lambda u: replace(
            u, features=np.vstack([u.features[:-1], np.full((1, 8), np.nan)])
        ),
        "mis_shaped_features": lambda u: replace(u, features=u.features[:, :5]),
        "out_of_range_label": lambda u: replace(u, tokens=np.append(u.tokens, 16)),
        "confidence_count": lambda u: replace(u, confidences=np.full(u.tokens.size + 1, 0.5)),
        "nan_confidence": lambda u: replace(
            u, confidences=np.append(np.full(u.tokens.size - 1, 0.5), np.nan)
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_utterance_fails_before_the_first_step(self, small_data, case, monkeypatch):
        import twrnnt.training as training_mod

        updates = []
        monkeypatch.setattr(training_mod, "adam_update", lambda *args: updates.append(args))
        utts = self.scored(small_data["train"][:17], 53)
        utts[-1] = self.BAD[case](utts[-1])
        cfg = TrainConfig(epochs=1, batch_size=4, mode="token_weights")
        with pytest.raises(DataError, match=f"utterance {utts[-1].id}: "):
            train_model(utts, 8, 16, cfg, stream(54, "init"), stream(54, "order"))
        with pytest.raises(DataError, match=f"utterance {utts[-1].id}: "):
            train_model(utts[:2], 8, 16, cfg, stream(54, "init"), stream(54, "order"), pseudo=utts[2:])
        assert updates == []

    def test_diagonal_cache_holds_every_shape_of_a_run(self, small_data, monkeypatch):
        # Every (rows, width, diags) shape the DP kernels ask for is built
        # once: no shape of a desk run is evicted and built again.
        shapes = set()
        skew, unskew = kernels._skew, kernels._unskew

        def recording_skew(table, diags, fill):
            shapes.add((table.shape[1], table.shape[2], diags))
            return skew(table, diags, fill)

        def recording_unskew(skewed, rows):
            shapes.add((rows, skewed.shape[2], skewed.shape[1]))
            return unskew(skewed, rows)

        monkeypatch.setattr(kernels, "_skew", recording_skew)
        monkeypatch.setattr(kernels, "_unskew", recording_unskew)
        kernels._diagonal_index.cache_clear()
        res = train_model(
            small_data["train"], 8, 16, TrainConfig(epochs=3), stream(55, "init"), stream(55, "order")
        )
        score_confidences(res.model, small_data["test"])
        info = kernels._diagonal_index.cache_info()
        assert len(shapes) > 4  # more than the cache used to hold
        assert info.misses == len(shapes) and info.hits > info.misses


# The runs of one (level, seed) in criterion 8: standard, and utterance and
# token weighting at each exponent of its grid.
CRITERION_8_RUNS = [("standard", 1.0)] + [
    (mode, alpha) for mode in ("utterance_weights", "token_weights") for alpha in (2.0, 6.0)
]


class TestLockstep:
    """``train_runs`` steps runs that differ only in their objective
    together; each must equal its own batch-by-batch reference run bit for
    bit."""

    @pytest.fixture(scope="class")
    def long_utts(self, tmp_path_factory):
        spec = SyntheticSpec(
            n_train=6, n_valid=1, n_test=1, n_pretrain=1, dim_features=8, vocab_size=16,
            min_tokens=20, max_tokens=30, min_frames_per_token=2, max_frames_per_token=4,
            seed=23,
        )
        _, utts = read_dataset(generate_synthetic_dataset(spec, tmp_path_factory.mktemp("long"))["train"])
        return TestRunSetup.scored(utts, 61)

    def pools(self, case, small_data, long_utts):
        """(labeled, pseudo, cfg) of a case."""
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-2, dim_hidden=32)
        train = TestRunSetup.scored(small_data["train"][:20], 62)
        if case == "epochs":
            return train, None, cfg
        labeled = [replace(u, confidences=None) for u in train[:8]]
        pseudo = train[8:]
        if case == "pseudo":
            return labeled, pseudo, cfg
        if case == "empty_transcript_in_pool":
            pseudo[2] = replace(pseudo[2], tokens=np.zeros(0, np.int64), confidences=np.zeros(0))
            return labeled, pseudo, cfg
        return long_utts, None, replace(cfg, epochs=1, batch_size=4)

    @pytest.mark.parametrize(
        "case", ["epochs", "pseudo", "empty_transcript_in_pool", "several_node_groups"]
    )
    def test_runs_equal_solo_reference_loops(self, small_data, long_utts, case, monkeypatch):
        labeled, pseudo, cfg = self.pools(case, small_data, long_utts)
        cfgs = [replace(cfg, mode=mode, alpha=alpha) for mode, alpha in CRITERION_8_RUNS]
        init = TransducerModel.random(8, 32, 16, stream(63, "init"), scale=cfg.init_scale)
        before = init.params.copy()
        layouts = []
        of = BatchLayout.of.__func__

        def recording_of(cls, packed, idx):
            layouts.append(of(cls, packed, idx))
            return layouts[-1]

        monkeypatch.setattr(BatchLayout, "of", classmethod(recording_of))
        # The init is drawn from the stream unless one is given.
        given = init if case in ("pseudo", "several_node_groups") else None
        results = train_runs(
            labeled, 8, 16, cfgs, stream(63, "init"), stream(63, "order"),
            init_model=given, pseudo=pseudo,
        )
        monkeypatch.undo()
        np.testing.assert_array_equal(init.params, before)  # init_model is copied
        assert len(layouts) == len(results[0].batch_losses) > 1  # one layout per step
        if case == "several_node_groups":
            assert max(len(layout.groups) for layout in layouts) > 1
        for run, res in zip(cfgs, results):
            ref_model, ref_losses = reference_train(labeled, pseudo, run, init, stream(63, "order"))
            assert res.batch_losses == ref_losses, run
            assert np.array_equal(res.model.params, ref_model.params), run

    def test_batch_of_empty_transcripts(self, small_data):
        # Batches of one: the empty transcript makes a batch with no label
        # slots at all.
        utts = TestRunSetup.scored(small_data["train"][:3], 66)
        utts[1] = replace(utts[1], tokens=np.zeros(0, np.int64), confidences=np.zeros(0))
        base = TrainConfig(epochs=1, batch_size=1, final_blank_weight=0.5)
        cfgs = [
            base,
            replace(base, mode="utterance_weights", alpha=2.0),
            replace(base, mode="token_weights", alpha=2.0),
        ]
        init = TransducerModel.random(8, 32, 16, np.random.default_rng(67))
        results = train_runs(utts, 8, 16, cfgs, stream(66, "init"), stream(66, "order"), init_model=init)
        for run, res in zip(cfgs, results):
            ref_model, ref_losses = reference_train(utts, None, run, init, stream(66, "order"))
            assert res.batch_losses == ref_losses
            assert np.array_equal(res.model.params, ref_model.params)

    @pytest.mark.parametrize("field, value", [("epochs", 3), ("lr", 2e-2), ("dim_hidden", 16)])
    def test_configs_may_differ_only_in_mode_and_alpha(self, small_data, field, value):
        base = TrainConfig(epochs=2)
        cfgs = [base, replace(base, mode="token_weights", alpha=2.0), replace(base, **{field: value})]
        with pytest.raises(DataError, match=f"not in {field}"):
            train_runs(small_data["train"][:8], 8, 16, cfgs, stream(64, "init"), stream(64, "order"))

    @pytest.mark.parametrize("bad", ["loss", "gradient"])
    def test_divergence_names_the_run(self, small_data, bad, monkeypatch):
        import twrnnt.training as training_mod

        step = training_mod._batch_loss_and_grad
        updates = []
        update = training_mod.adam_update

        def recording_update(params, *args):
            updates.append((params, params.copy()))
            update(params, *args)

        def diverging_step(models, corpus, idx, grad, kept=None):
            losses = step(models, corpus, idx, grad, kept)
            if len(updates) == 2:  # the third step of run 1
                if bad == "loss":
                    losses[1] = float("nan")
                else:
                    grad[1, 7] = np.inf
            return losses

        monkeypatch.setattr(training_mod, "_batch_loss_and_grad", diverging_step)
        monkeypatch.setattr(training_mod, "adam_update", recording_update)
        base = TrainConfig(epochs=2)
        cfgs = [base, replace(base, mode="utterance_weights", alpha=2.0), replace(base, mode="token_weights", alpha=6.0)]
        utts = TestRunSetup.scored(small_data["train"][:24], 65)
        with pytest.raises(NumericalError, match="diverged \\(utterance_weights at alpha 2\\)"):
            train_runs(utts, 8, 16, cfgs, stream(65, "init"), stream(65, "order"))
        # The guard fired on the third step, before any run was updated:
        # a bad loss before the update, a bad gradient inside it.
        assert len(updates) == (2 if bad == "loss" else 3)
        params, before = updates[-1]
        if bad == "gradient":
            np.testing.assert_array_equal(params, before)


class TestKeptActivations:
    """A training step's backward reuses the joiner activations and softmax
    that its forward kept for the first node group, if that ends within
    ``_GROUP_NODES`` nodes, and recomputes the rest.  Columns, losses and
    gradients must equal those of passes that keep nothing."""

    # (shapes, what the first layout keeps): a desk batch that fits whole,
    # a long batch of five groups whose first is kept, and one whose first
    # utterance alone is above the bound.
    BATCHES = {
        "fits_whole": ([(11, 6), (9, 5), (14, 7), (8, 4), (12, 0)], "all"),
        "several_groups": ([(75, 25), (60, 20), (30, 19), (40, 19), (25, 23), (70, 30), (3, 7)], "some"),
        "first_group_too_large": ([(70, 30), (11, 6), (5, 2)], "none"),
    }

    @staticmethod
    def runs(shapes, seed):
        """Utterances of the given (T, U), three runs (one per mode, each
        with its own parameters) and their corpus."""
        rng = np.random.default_rng(seed)
        utts = [
            Utterance(f"u{i}", rng.normal(size=(T, 8)), rng.integers(0, 16, size=U),
                      confidences=rng.uniform(0.05, 1.0, size=U))
            for i, (T, U) in enumerate(shapes)
        ]
        base = TrainConfig(final_blank_weight=0.5)
        cfgs = [base, replace(base, mode="utterance_weights", alpha=2.0),
                replace(base, mode="token_weights", alpha=6.0)]
        models = [TransducerModel.random(8, 32, 16, rng) for _ in cfgs]
        return utts, models, _Corpus(models[0], utts, cfgs)

    @pytest.mark.parametrize("case", sorted(BATCHES))
    def test_kept_equals_recomputed(self, case):
        shapes, keeps = self.BATCHES[case]
        utts, models, corpus = self.runs(shapes, 70)
        kept = [StepActivations(model) for model in models]
        scores = score_confidences(models[0], utts)
        n = len(utts)
        rng = np.random.default_rng(71)
        for step, idx in enumerate([np.arange(n), np.arange(n)[::-1], np.array([0, 0, n - 1])]):
            layout = BatchLayout.of(corpus.packed, idx)
            for model, keep in zip(models, kept):
                cols = forward_columns(model, layout, keep=keep)
                want = forward_columns(model, layout)
                np.testing.assert_array_equal(cols.blank, want.blank)
                np.testing.assert_array_equal(cols.emit, want.emit)
                assert keep.nodes <= _GROUP_NODES
                if step == 0:
                    nodes = {"all": layout.frame.size, "none": 0}.get(keeps, layout.groups[0][1])
                    assert keep.nodes == nodes
                    assert keeps != "some" or len(layout.groups) > 1
                g_blank = np.where(np.isfinite(cols.blank), rng.normal(size=cols.blank.shape), 0.0)
                g_emit = np.where(np.isfinite(cols.emit), rng.normal(size=cols.emit.shape), 0.0)
                np.testing.assert_array_equal(
                    backward_columns(model, layout, g_blank, g_emit, keep),
                    backward_columns(model, layout, g_blank, g_emit),
                )
            # The stacked step of the three runs, kept against recomputed.
            grad = np.empty((len(models), models[0].params.size))
            want = np.empty_like(grad)
            losses = _batch_loss_and_grad(models, corpus, idx, grad, kept)
            assert losses == _batch_loss_and_grad(models, corpus, idx, want)
            np.testing.assert_array_equal(grad, want)
        # Scoring keeps nothing and is not affected by what training kept.
        for got, before in zip(score_confidences(models[0], utts), scores):
            np.testing.assert_array_equal(got.confidences, before.confidences)

    def test_backward_needs_its_own_forward(self):
        shapes, _ = self.BATCHES["fits_whole"]
        _, models, corpus = self.runs(shapes, 72)
        layout = BatchLayout.of(corpus.packed, [0, 1])
        other = BatchLayout.of(corpus.packed, [0, 1])
        keep = StepActivations(models[0])
        cols = forward_columns(models[0], layout, keep=keep)
        g_blank, g_emit = np.isfinite(cols.blank) * 0.5, np.isfinite(cols.emit) * 0.5
        for model, lay in ((models[1], layout), (models[0], other)):
            with pytest.raises(DataError, match="no activations kept"):
                backward_columns(model, lay, g_blank, g_emit, keep)
        backward_columns(models[0], layout, g_blank, g_emit, keep)
        with pytest.raises(DataError, match="no activations kept"):  # consumed
            backward_columns(models[0], layout, g_blank, g_emit, keep)
