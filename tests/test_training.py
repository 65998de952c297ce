from dataclasses import replace

import numpy as np
import pytest

import references
from twrnnt import kernels
from twrnnt import model as model_module
from twrnnt.datagen import SyntheticSpec, Utterance, generate_synthetic_dataset, read_dataset
from twrnnt.errors import DataError, NumericalError
from twrnnt.conditionals import conditional_profile
from twrnnt.lattice import rnnt_loss, rnnt_loss_grad
from twrnnt.model import (
    BatchLayout,
    StepActivations,
    TransducerModel,
    adam_update,
    backward_columns,
    forward_columns,
    model_forward,
)
from twrnnt.seeds import stream
from twrnnt.training import (
    MODES,
    RunGroup,
    TrainConfig,
    _batch_loss_and_grad,
    _Corpus,
    evaluate_wer,
    mixed_batch_iterator,
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
    corpus = _Corpus(model, batch, [cfg])
    (loss,) = _batch_loss_and_grad([model], [(corpus, np.arange(len(batch)))], grad, [StepActivations(model)])
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
        wcfg = WeightConfig(alpha=cfg.alpha, final_blank_weight=cfg.final_blank_weight)
        if not any(c.size for c in confidences):  # compute_weights refuses a scope of no tokens
            return [TokenWeights(np.zeros(0), wcfg) for _ in batch]
        return compute_weights(confidences, wcfg)
    means = np.array([float(np.mean(c)) if c.size else 1.0 for c in confidences])
    powered = means**cfg.alpha
    w = powered / np.mean(powered)
    return [
        TokenWeights(
            lambdas=np.full(c.size, wi),
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
        keep = StepActivations(model)
        losses_u, g_blank, g_emit = padded_loss_and_grad(forward_columns(model, layout, keep=keep), lam, w_fb)
        loss = 0.0
        for loss_u in losses_u:
            loss += loss_u
        tokens = max(1, sum(u.tokens.size for u in batch))
        grad = backward_columns(model, layout, g_blank, g_emit, keep)
        grad /= tokens
        adam_update(params, m, v, grad, step, cfg.lr)
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
        "mode, alpha, confidence",
        [("token_weights", 6.0, 1e-60), ("utterance_weights", 100.0, 1e-4)],
    )
    def test_weights_that_underflow_raise(self, small_data, mode, alpha, confidence):
        # Every confidence of the batch, raised to alpha, underflows to 0:
        # the step stops before the 0 / 0 of the normalization, naming the
        # run, alpha and the batch's utterances, instead of diverging on a
        # NaN loss.
        utts = [
            replace(u, confidences=np.full(u.tokens.size, confidence))
            for u in small_data["train"][:4] if u.tokens.size
        ]
        cfg = TrainConfig(epochs=1, batch_size=8, mode=mode, alpha=alpha)
        ids = ", ".join(sorted(u.id for u in utts))
        with pytest.raises(NumericalError) as err:
            train_model(utts, 8, 16, cfg, stream(0, "init"), stream(0, "order"))
        message = str(err.value)
        assert message.startswith(f"{mode} at alpha {alpha:g}: confidences of utterances ")
        assert f"raised to alpha {alpha:g} underflow to 0" in message and "diverged" not in message
        named = message.split("utterances ")[1].split(" raised")[0]
        assert ", ".join(sorted(named.split(", "))) == ids

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("batch_size", 0), ("dim_hidden", 0), ("dim_hidden", -1), ("max_symbols_per_frame", 0)],
    )
    def test_config_rejects_sizes_below_one(self, field, value):
        with pytest.raises(DataError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 1.5), ("epochs", True), ("batch_size", 2.5), ("batch_size", 8.0), ("batch_size", "8"),
         ("dim_hidden", True), ("dim_hidden", 32.0), ("max_symbols_per_frame", 2.5),
         ("max_symbols_per_frame", False)],
    )
    def test_config_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be an integer >= 1, got {value!r}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("lr", np.nan), ("lr", np.inf), ("lr", 0.0), ("lr", -1e-2),
         ("init_scale", np.nan), ("init_scale", -np.inf)],
    )
    def test_config_rejects_bad_rate_and_init_scale(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", np.inf), ("alpha", np.nan), ("alpha", -1.0),
         ("final_blank_weight", np.inf), ("final_blank_weight", np.nan), ("final_blank_weight", -0.5)],
    )
    def test_config_refuses_what_the_cli_refuses(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be finite and >= 0"):
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
            ref_grad += wi * references.model_backward(model, u.features, u.tokens, dlogp)
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

        def nan_step(models, batches, grad, kept=None):
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
            ref_grad += references.model_backward(model, u.features, u.tokens, dlogp)
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

        def forward_with_hole(model, layout, out=None, keep=None, row0=0):
            cols = forward_columns(model, layout, out=out, keep=keep, row0=row0)
            cols.emit[:, row0 + 2, 1] = -np.inf  # utterance 2's first token can never be emitted
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
        group = RunGroup(
            labeled, [cfg], stream(52, "init"), stream(52, "order"), init_model=init, pseudo=pseudo
        )
        ((res,),) = train_runs([group], 8, 16)
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
            mixed = RunGroup(utts[:2], [cfg], stream(54, "init"), stream(54, "order"), pseudo=utts[2:])
            train_runs([mixed], 8, 16)
        assert updates == []

    @pytest.mark.parametrize(
        "ratio", [(0, 0), (-1, 2), (np.nan, 1), (1, np.inf)], ids=["zero_sum", "negative", "nan", "inf"]
    )
    def test_bad_mix_ratio_fails_before_any_work(self, small_data, ratio, monkeypatch):
        import twrnnt.training as training_mod

        packed = []
        pack = training_mod.PackedUtterances
        monkeypatch.setattr(training_mod, "PackedUtterances", lambda *args: packed.append(1) or pack(*args))
        utts = small_data["train"][:8]
        with pytest.raises(DataError, match="mix_ratio must be finite"):
            train_runs(
                [RunGroup(utts[:4], [TrainConfig(epochs=1)], stream(55, "init"), stream(55, "order"),
                          pseudo=utts[4:], mix_ratio=ratio)],
                8, 16,
            )
        assert packed == []

    @pytest.mark.parametrize("ratio", [(0, 0), (-1, 2), (np.nan, 1)], ids=["zero_sum", "negative", "nan"])
    def test_mixed_batch_iterator_checks_its_ratio(self, small_data, ratio):
        utts = small_data["train"][:8]
        with pytest.raises(DataError, match="^ratio must be finite"):
            mixed_batch_iterator(utts[:4], utts[4:], TrainConfig(epochs=1), stream(56, "order"), ratio)

    @pytest.mark.parametrize("pools", [(4, 0), (0, 4), (0, 0)], ids=["no_pseudo", "no_labeled", "neither"])
    def test_mixed_batch_iterator_checks_its_pools_at_the_call(self, small_data, pools):
        # The check runs when the iterator is made, before any batch is
        # drawn: no ``next`` call is needed to see it.
        utts = small_data["train"][:8]
        labeled, pseudo = utts[: pools[0]], utts[4 : 4 + pools[1]]
        with pytest.raises(DataError, match="both a labeled and a pseudo pool"):
            mixed_batch_iterator(labeled, pseudo, TrainConfig(epochs=1), stream(57, "order"))


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
        (results,) = train_runs(
            [RunGroup(labeled, cfgs, stream(63, "init"), stream(63, "order"),
                      init_model=given, pseudo=pseudo)],
            8, 16,
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
        (results,) = train_runs(
            [RunGroup(utts, cfgs, stream(66, "init"), stream(66, "order"), init_model=init)], 8, 16
        )
        for run, res in zip(cfgs, results):
            ref_model, ref_losses = reference_train(utts, None, run, init, stream(66, "order"))
            assert res.batch_losses == ref_losses
            assert np.array_equal(res.model.params, ref_model.params)

    @pytest.mark.parametrize("field, value", [("epochs", 3), ("lr", 2e-2), ("dim_hidden", 16)])
    def test_configs_may_differ_only_in_mode_and_alpha(self, small_data, field, value):
        base = TrainConfig(epochs=2)
        cfgs = [base, replace(base, mode="token_weights", alpha=2.0), replace(base, **{field: value})]
        with pytest.raises(DataError, match=f"not in {field}"):
            train_runs(
                [RunGroup(small_data["train"][:8], cfgs, stream(64, "init"), stream(64, "order"))], 8, 16
            )

    @pytest.mark.parametrize("bad", ["loss", "gradient"])
    def test_divergence_names_the_run(self, small_data, bad, monkeypatch):
        import twrnnt.training as training_mod

        step = training_mod._batch_loss_and_grad
        updates = []
        update = training_mod.adam_update

        def recording_update(params, *args):
            updates.append((params, params.copy()))
            update(params, *args)

        def diverging_step(models, batches, grad, kept=None):
            losses = step(models, batches, grad, kept)
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
            train_runs([RunGroup(utts, cfgs, stream(65, "init"), stream(65, "order"))], 8, 16)
        # The guard fired on the third step, before any run was updated:
        # a bad loss before the update, a bad gradient inside it.
        assert len(updates) == (2 if bad == "loss" else 3)
        params, before = updates[-1]
        if bad == "gradient":
            np.testing.assert_array_equal(params, before)


class TestGroupedLockstep:
    """One ``train_runs`` call over several run groups, each with its own
    corpus, streams and init: every run must equal its own batch-by-batch
    reference run bit for bit, and the results come back in the groups'
    order."""

    @staticmethod
    def hypotheses(utts, seed):
        """A teacher's pool: the utterances' features with other token
        sequences, some longer, some empty, scored."""
        rng = np.random.default_rng(seed)
        out = []
        for i, u in enumerate(utts):
            n = 0 if i % 4 == 1 else int(rng.integers(1, 12))
            out.append(replace(
                u, tokens=rng.integers(0, 16, size=n), confidences=rng.uniform(0.05, 1.0, size=n)
            ))
        return out

    @staticmethod
    def check(make, results):
        """Each group's runs against their reference loops, each on fresh
        streams from ``make()``, which builds the groups."""
        groups = make()
        assert len(results) == len(groups)
        for g, (group, runs) in enumerate(zip(groups, results)):
            cfg = group.cfgs[0]
            init = group.init_model or TransducerModel.random(
                8, cfg.dim_hidden, 16, group.init_rng, scale=cfg.init_scale
            )
            assert len(runs) == len(group.cfgs)
            for run, res in zip(group.cfgs, runs):
                ref_model, ref_losses = reference_train(
                    group.utterances, group.pseudo, run, init, make()[g].order_rng
                )
                assert res.batch_losses == ref_losses, run
                assert np.array_equal(res.model.params, ref_model.params), run

    @pytest.fixture(scope="class")
    def long_utts(self, tmp_path_factory):
        spec = SyntheticSpec(
            n_train=5, n_valid=1, n_test=1, n_pretrain=1, dim_features=8, vocab_size=16,
            min_tokens=20, max_tokens=30, min_frames_per_token=2, max_frames_per_token=4,
            seed=24,
        )
        _, utts = read_dataset(generate_synthetic_dataset(spec, tmp_path_factory.mktemp("long"))["train"])
        return TestRunSetup.scored(utts, 81)

    def test_groups_of_other_corpora_sizes_epochs_and_inits(self, small_data, long_utts, monkeypatch):
        import twrnnt.training as training_mod

        desk = TestRunSetup.scored(small_data["train"][:20], 80)
        base = TrainConfig(epochs=2, batch_size=8, final_blank_weight=0.5)
        init = TransducerModel.random(8, 32, 16, np.random.default_rng(82))

        def group(utts, runs, tag, epochs, **kwargs):
            cfgs = [replace(base, mode=m, alpha=a, epochs=epochs) for m, a in runs]
            return RunGroup(utts, cfgs, stream(83, "init", tag), stream(83, "order", tag), **kwargs)

        def make():
            return [
                # 1 step an epoch on long lattices (T ~ 75, U ~ 25), from a given init.
                group(long_utts, [("standard", 1.0), ("token_weights", 6.0)], "long", 3, init_model=init),
                # 3 steps an epoch on desk utterances, the longest group.
                group(desk, CRITERION_8_RUNS, "desk", 2),
                # A labeled pool and a pseudo pool of hypotheses, 3 steps.
                group(
                    [replace(u, confidences=None) for u in desk[:8]],
                    [("utterance_weights", 2.0), ("token_weights", 2.0)], "mixed", 1,
                    pseudo=self.hypotheses(desk[8:], 84),
                ),
                # One run of one epoch: 3 steps, the last batch of 4.
                group(desk[:20], [("standard", 1.0)], "one", 1),
            ]

        live = []
        update = training_mod.adam_update

        def recording_update(params, m, v, grad, step, lr):
            # The live runs are the leading rows: views, never copies.
            assert params.base is not None and m.base is not None and v.base is not None
            live.append(params.shape[0])
            update(params, m, v, grad, step, lr)

        monkeypatch.setattr(training_mod, "adam_update", recording_update)
        results = train_runs(make(), 8, 16)
        monkeypatch.undo()
        # Desk (5 runs) for 6 steps; long (2) for 3; mixed (2) and one (1) for 3.
        assert live == [10, 10, 10, 5, 5, 5]
        self.check(make, results)

    def test_groups_with_per_teacher_pools(self, small_data):
        # Pseudo-labeling: one group per teacher, on the same labeled pool
        # and the same stream, each with its own pool of hypotheses.
        desk = TestRunSetup.scored(small_data["train"][:24], 85)
        labeled = [replace(u, confidences=None) for u in desk[:8]]
        base = TrainConfig(epochs=2, batch_size=8)

        def groups():
            return [
                RunGroup(
                    labeled, [replace(base, mode=m, alpha=a) for m, a in runs],
                    stream(86, "init"), stream(86, "order"), pseudo=pool,
                )
                for runs, pool in [
                    ([("standard", 1.0)], self.hypotheses(desk[8:], 87)),
                    ([("utterance_weights", 2.0), ("utterance_weights", 6.0)], self.hypotheses(desk[8:], 88)),
                    ([("token_weights", 2.0), ("token_weights", 6.0)], desk[8:]),
                ]
            ]

        self.check(groups, train_runs(groups(), 8, 16))

    @pytest.mark.parametrize(
        "bad, row, name",
        [
            ("loss", 1, "token_weights at alpha 6\\) in run group 0"),
            ("gradient", 3, "utterance_weights at alpha 2\\) in run group 1"),
        ],
    )
    def test_divergence_names_the_group_and_run(self, small_data, bad, row, name, monkeypatch):
        import twrnnt.training as training_mod

        step = training_mod._batch_loss_and_grad
        calls = []

        def diverging_step(models, batches, grad, kept=None):
            losses = step(models, batches, grad, kept)
            calls.append(len(models))
            if len(calls) == 2:
                if bad == "loss":
                    losses[row] = float("nan")
                else:
                    grad[row, 5] = -np.inf
            return losses

        monkeypatch.setattr(training_mod, "_batch_loss_and_grad", diverging_step)
        utts = TestRunSetup.scored(small_data["train"][:16], 89)
        base = TrainConfig(epochs=1)
        groups = [
            RunGroup(utts, [replace(base, mode="token_weights", alpha=6.0)], stream(90, "i0"), stream(90, "o0")),
            RunGroup(utts, [base, replace(base, mode="utterance_weights", alpha=2.0)],
                     stream(90, "i1"), stream(90, "o1")),
            RunGroup(utts, [replace(base, epochs=2)], stream(90, "i2"), stream(90, "o2")),
        ]
        # Stacked longest first: group 2 is row 0, group 0 row 1, group 1 rows 2-3.
        with pytest.raises(NumericalError, match=f"diverged \\({name}"):
            train_runs(groups, 8, 16)
        assert calls == [4, 4]

    @pytest.mark.parametrize("field, value", [("lr", 2e-2), ("dim_hidden", 16), ("batch_size", 4)])
    def test_groups_may_differ_in_all_but_the_shape(self, small_data, field, value):
        # Groups of other learning rates, batch sizes, sentence-end weights,
        # init scales and epochs share one call, and each run equals its own
        # reference loop; another hidden size gives inits of another shape.
        utts = TestRunSetup.scored(small_data["train"][:8], 91)
        base = TrainConfig(epochs=2)

        def make():
            return [
                RunGroup(utts, [base], stream(91, "i0"), stream(91, "o0")),
                RunGroup(
                    utts,
                    [replace(base, mode="token_weights", alpha=2.0, epochs=3, lr=5e-3,
                             final_blank_weight=0.5, init_scale=0.3)],
                    stream(91, "i1"), stream(91, "o1"),
                ),
                RunGroup(utts, [replace(base, **{field: value})], stream(91, "i2"), stream(91, "o2")),
            ]

        if field == "dim_hidden":
            with pytest.raises(DataError, match="inits of one shape"):
                train_runs(make(), 8, 16)
        else:
            self.check(make, train_runs(make(), 8, 16))

    def test_groups_need_inits_of_one_shape(self, small_data):
        utts = small_data["train"][:8]
        inits = [TransducerModel.random(8, H, 16, np.random.default_rng(93)) for H in (32, 16)]
        groups = [
            RunGroup(utts, [TrainConfig()], stream(93, "i", H), stream(93, "o", H), init_model=init)
            for H, init in zip((32, 16), inits)
        ]
        with pytest.raises(DataError, match="inits of one shape"):
            train_runs(groups, 8, 16)

    def test_groups_need_their_own_order_streams(self, small_data):
        utts, order = small_data["train"][:8], stream(92, "order")
        groups = [RunGroup(utts, [TrainConfig()], stream(92, "init"), order) for _ in range(2)]
        with pytest.raises(DataError, match="their own order streams"):
            train_runs(groups, 8, 16)


class TestCorpusWeights:
    """``_Corpus.weights`` gathers each run's c^alpha, packed once per
    corpus; it writes the weights of the loop over the batch's rows that it
    replaced (``references.CorpusWeights``), with ==, in every mode."""

    # Utterances 1 and 4 have empty transcripts, 5 has no scores (c = 1),
    # and 6 and 7 have more tokens than NumPy's pairwise-summation block.
    SHAPES = [(11, 6), (9, 0), (14, 7), (8, 4), (6, 0), (12, 5), (20, 9), (40, 17)]
    CFGS = [
        TrainConfig(final_blank_weight=0.5),
        TrainConfig(mode="utterance_weights", alpha=2.0),
        TrainConfig(mode="utterance_weights", alpha=0.0),
        TrainConfig(mode="token_weights", alpha=6.0, final_blank_weight=0.5),
        TrainConfig(mode="token_weights", alpha=0.0),
    ]
    BATCHES = {
        "with_empty": [0, 1, 2, 3, 4, 5, 6, 7],
        "only_empty": [1, 4, 1],
        "repeats": [3, 0, 3, 6, 0, 7, 3, 5],  # as in mixed pseudo-label batches
    }

    @staticmethod
    def corpus(shapes, cfgs, seed, confidence=None):
        rng = np.random.default_rng(seed)
        utts = []
        for i, (T, U) in enumerate(shapes):
            c = rng.uniform(0.05, 1.0, size=U) if confidence is None else np.full(U, confidence)
            feats, tokens = rng.normal(size=(T, 8)), rng.integers(0, 16, size=U)
            utts.append(Utterance(f"u{i}", feats, tokens, confidences=c))
        if confidence is None:
            utts[5] = replace(utts[5], confidences=None)
        return utts, _Corpus(TransducerModel.random(8, 32, 16, rng), utts, cfgs)

    @staticmethod
    def both(utts, corpus, cfgs, idx):
        """(lam, w_fb) of ``_Corpus.weights`` and of the reference loop."""
        idx = np.asarray(idx)
        layout = BatchLayout.of(corpus.packed, idx)
        shape = (len(cfgs), idx.size, int(layout.U.max()) + 2)
        got, want = (np.zeros(shape), np.empty(shape[:2])), (np.zeros(shape), np.empty(shape[:2]))
        corpus.weights(idx, layout, *got)
        references.CorpusWeights(utts, cfgs).weights(idx, layout.U, *want)
        return got, want

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_equals_reference_loop(self, batch):
        utts, corpus = self.corpus(self.SHAPES, self.CFGS, 92)
        idx = self.BATCHES[batch]
        got, want = self.both(utts, corpus, self.CFGS, idx)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        if batch != "only_empty":
            assert np.unique(got[0][3]).size > 2  # weights that vary
            # At this seed, the sum of the batch's per-utterance sums of
            # c^6 differs from NumPy's sum over all its tokens, so the test
            # tells the two summation orders apart.
            U, starts = corpus.packed.U[idx], corpus.token0[idx]
            powered = [corpus.powered[3][s : s + n] for s, n in zip(starts, U)]
            assert sum(float(np.sum(p)) for p in powered) != np.sum(np.concatenate(powered))

    @pytest.mark.parametrize(
        "mode, alpha, confidence, idx, names",
        [
            ("token_weights", 6.0, 1e-60, [2, 1, 0, 2], "u2, u0"),
            ("utterance_weights", 100.0, 1e-4, [2, 0, 2], "u2, u0"),
        ],
    )
    def test_underflow_names_the_batch(self, mode, alpha, confidence, idx, names):
        cfgs = [TrainConfig(mode=mode, alpha=alpha)]
        utts, corpus = self.corpus([(11, 6), (9, 0), (14, 7)], cfgs, 91, confidence)
        layout = BatchLayout.of(corpus.packed, idx)
        with pytest.raises(NumericalError) as got:
            corpus.weights(idx, layout, np.zeros((1, len(idx), 8)), np.empty((1, len(idx))))
        reference = references.CorpusWeights(utts, cfgs)
        with pytest.raises(NumericalError) as want:
            reference.weights(idx, layout.U, np.zeros((1, len(idx), 8)), np.empty((1, len(idx))))
        assert str(got.value) == str(want.value)
        prefix = f"{mode} at alpha {alpha:g}: confidences of utterances {names} raised"
        assert str(got.value).startswith(prefix)


class TestKeptActivations:
    """A training step's forward keeps the joiner activations and the row
    softmax of every join (b, t, id) of its batch, and its backward works
    in those rows and runs no joiner pass.  Columns,
    losses and gradients must equal those of passes that keep nothing, or
    keep their activations in fresh buffers."""

    # (shapes, node groups of the first layout): a desk batch that fits
    # whole, a long batch of five groups, and one whose first utterance
    # alone is above the node bound.
    BATCHES = {
        "fits_whole": ([(11, 6), (9, 5), (14, 7), (8, 4), (12, 0)], 1),
        "several_groups": ([(75, 25), (60, 20), (30, 19), (40, 19), (25, 23), (70, 30), (3, 7)], 5),
        "first_group_too_large": ([(70, 30), (11, 6), (5, 2)], 2),
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
        shapes, groups = self.BATCHES[case]
        utts, models, corpus = self.runs(shapes, 70)
        kept = [StepActivations(model) for model in models]
        scores = score_confidences(models[0], utts)
        n = len(utts)
        rng = np.random.default_rng(71)
        for step, idx in enumerate([np.arange(n), np.arange(n)[::-1], np.array([0, 0, n - 1])]):
            layout = BatchLayout.of(corpus.packed, idx)
            assert step or len(layout.groups) == groups
            J = layout.join_frame.size
            for model, keep in zip(models, kept):
                cols = forward_columns(model, layout, keep=keep)
                want = forward_columns(model, layout)
                np.testing.assert_array_equal(cols.blank, want.blank)
                np.testing.assert_array_equal(cols.emit, want.emit)
                # The kept z and softmax of every join, against the joiner
                # run again on each group's joins.
                assert keep.softmax.shape[0] == keep.z.shape[0] >= J
                p, enc, _, pred = model_module._encode(model, layout)
                for j0, j1 in layout.join_groups:
                    frames, positions = layout.join_frame[j0:j1], layout.join_pos[j0:j1]
                    work = model_module._work(j1 - j0, enc)
                    z, logits = model_module._join(p, enc, pred, frames, positions, *work)
                    softmax = np.empty_like(logits)
                    references.softmax(logits, softmax)
                    np.testing.assert_array_equal(keep.z[j0:j1], z)
                    np.testing.assert_array_equal(keep.softmax[j0:j1], softmax)
                g_blank = np.where(np.isfinite(cols.blank), rng.normal(size=cols.blank.shape), 0.0)
                g_emit = np.where(np.isfinite(cols.emit), rng.normal(size=cols.emit.shape), 0.0)
                np.testing.assert_array_equal(
                    backward_columns(model, layout, g_blank, g_emit, keep),
                    references.fresh_backward(model, layout, g_blank, g_emit),
                )
            # The stacked step of the three runs, reused buffers against fresh ones.
            grad = np.empty((len(models), models[0].params.size))
            want = np.empty_like(grad)
            losses = _batch_loss_and_grad(models, [(corpus, idx)], grad, kept)
            fresh = [StepActivations(model) for model in models]
            assert losses == _batch_loss_and_grad(models, [(corpus, idx)], want, fresh)
            np.testing.assert_array_equal(grad, want)
        # Scoring keeps nothing and is not affected by what training kept.
        for got, before in zip(score_confidences(models[0], utts), scores):
            np.testing.assert_array_equal(got.confidences, before.confidences)

    @pytest.mark.parametrize("case", ["several_groups", "first_group_too_large"])
    def test_kept_backward_runs_no_joiner(self, case, monkeypatch):
        """At K = 3, on batches that grow the kept buffers and then reuse
        them: the kept softmax of each node's join is the node's row
        softmax, and a kept backward makes no softmax call
        (``_kept_softmax``) and no joiner pass (``_join``)."""
        shapes, _ = self.BATCHES[case]
        utts, models, corpus = self.runs(shapes, 73)
        calls = {name: 0 for name in ("_kept_softmax", "_join")}

        def counted(name):
            fn = getattr(model_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(model_module, name, counted(name))
        kept = [StepActivations(model) for model in models]
        rng = np.random.default_rng(74)
        n = len(utts)
        for idx in (np.array([n - 1, 0, 1]), np.arange(n), np.arange(n)[::-1]):
            layout = BatchLayout.of(corpus.packed, idx)
            G, N = len(layout.groups), layout.frame.size
            assert layout.join_frame.size < N
            tables = []
            for model, keep in zip(models, kept):
                cols = forward_columns(model, layout, keep=keep)
                softmax = np.concatenate([
                    np.exp(model_forward(model, utts[b].features, utts[b].tokens).logp)
                    .reshape(-1, model.vocab_size + 1)
                    for b in idx
                ])
                np.testing.assert_allclose(keep.softmax[layout.node_join], softmax, rtol=1e-12, atol=1e-15)
                g_blank = np.where(np.isfinite(cols.blank), rng.normal(size=cols.blank.shape), 0.0)
                g_emit = np.where(np.isfinite(cols.emit), rng.normal(size=cols.emit.shape), 0.0)
                tables.append((g_blank, g_emit))
            calls.update(dict.fromkeys(calls, 0))
            grads = [backward_columns(model, layout, *t, keep) for model, t, keep in zip(models, tables, kept)]
            assert calls == {"_kept_softmax": 0, "_join": 0}
            for model, t, got in zip(models, tables, grads):
                np.testing.assert_array_equal(got, references.fresh_backward(model, layout, *t))
            # The stacked step: only its forward runs the joiner and softmax,
            # once per group of joins.
            grad = np.empty((len(models), models[0].params.size))
            want = np.empty_like(grad)
            calls.update(dict.fromkeys(calls, 0))
            losses = _batch_loss_and_grad(models, [(corpus, idx)], grad, kept)
            assert calls["_kept_softmax"] == calls["_join"] == 3 * G
            fresh = [StepActivations(model) for model in models]
            assert losses == _batch_loss_and_grad(models, [(corpus, idx)], want, fresh)
            np.testing.assert_array_equal(grad, want)

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
