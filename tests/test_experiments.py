from dataclasses import replace

import numpy as np
import pytest

import twrnnt.experiments as experiments_mod
from twrnnt.corruption import CorruptionConfig, corrupt_corpus
from twrnnt.datagen import SyntheticSpec, generate_synthetic_dataset, read_dataset
from twrnnt.errors import DataError
from twrnnt.experiments import (
    GenerationConfig,
    format_table,
    report_from_json,
    report_to_json,
    run_corruption_experiment,
    run_pseudo_labeling,
)
from twrnnt.lattice import Vocabulary
from twrnnt.model import greedy_decode
from twrnnt.seeds import stream
from twrnnt.training import RunGroup, TrainConfig, evaluate_wer, score_confidences, train_model, train_runs


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    spec = SyntheticSpec(
        n_train=40, n_valid=16, n_test=24, n_pretrain=40,
        dim_features=8, vocab_size=16, noise_level=0.3, seed=31,
    )
    paths = generate_synthetic_dataset(spec, tmp_path_factory.mktemp("tiny"))
    splits = {}
    meta = None
    for name, p in paths.items():
        meta, splits[name] = read_dataset(p)
    return meta, splits


FAST = TrainConfig(epochs=4, batch_size=8, lr=1e-2, dim_hidden=32)
MODES3 = ("standard", "utterance_weights", "token_weights")


class TestGenerationConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            GenerationConfig(rounds=0)
        with pytest.raises(DataError):
            GenerationConfig(alpha_grid=())
        with pytest.raises(DataError):
            GenerationConfig(modes=("bogus",))
        with pytest.raises(DataError):
            GenerationConfig(labeled_to_pseudo_ratio=(0, 0))

    @pytest.mark.parametrize(
        "ratio", [(0, 0), (-1, 2), (np.nan, 1), (1, np.inf)], ids=["zero_sum", "negative", "nan", "inf"]
    )
    def test_bad_mix_ratio_rejected(self, ratio):
        with pytest.raises(DataError, match="labeled_to_pseudo_ratio must be finite"):
            GenerationConfig(labeled_to_pseudo_ratio=ratio)


class TestCorruptionExperiment:
    def test_report_round_trips_and_is_deterministic(self, tiny_data):
        meta, splits = tiny_data
        kwargs = dict(
            splits=splits, meta=meta, levels=[0.2], modes=("standard", "token_weights"),
            train_cfg=FAST, alpha_grid=(2.0,), seeds=(0,), root_seed=5,
        )
        rep1 = run_corruption_experiment(**kwargs)
        rep2 = run_corruption_experiment(**kwargs)
        assert report_to_json(rep1) == report_to_json(rep2)
        back = report_from_json(report_to_json(rep1))
        assert report_to_json(back) == report_to_json(rep1)

    def test_level_zero_ties_clean_baseline(self, tiny_data):
        meta, splits = tiny_data
        rep = run_corruption_experiment(
            splits, meta, levels=[0.0],
            modes=("standard", "utterance_weights", "token_weights"),
            train_cfg=FAST, alpha_grid=(2.0,), seeds=(0, 1), root_seed=6,
        )
        row = rep.rows[0]
        for mode, entry in row["modes"].items():
            assert abs(entry["wer"] - rep.clean_wer) < 0.12  # seed noise at tiny scale
        # Baseline did not degrade: recovery is undefined, not a number.
        for mode, rec in row.get("recovered", {}).items():
            assert rec is None or abs(rec) < np.inf

    def test_missing_split_rejected(self, tiny_data):
        meta, splits = tiny_data
        broken = dict(splits)
        broken["pretrain"] = []
        with pytest.raises(DataError, match="pretrain"):
            run_corruption_experiment(
                broken, meta, levels=[0.2], modes=("standard",),
                train_cfg=FAST, seeds=(0,),
            )

    def test_empty_alpha_grid_rejected(self, tiny_data):
        meta, splits = tiny_data
        with pytest.raises(DataError, match="alpha_grid"):
            run_corruption_experiment(
                splits, meta, levels=[0.2], modes=MODES3, train_cfg=FAST, alpha_grid=(), seeds=(0,),
            )

    def test_table_renders(self, tiny_data):
        meta, splits = tiny_data
        rep = run_corruption_experiment(
            splits, meta, levels=[0.2], modes=("standard", "token_weights"),
            train_cfg=FAST, alpha_grid=(2.0,), seeds=(0,), root_seed=5,
        )
        table = format_table(rep)
        assert "token_weights" in table and "Recovered" in table


class TestPseudoLabeling:
    def test_alpha_zero_collapses_onto_standard(self, tiny_data):
        meta, splits = tiny_data
        gen = GenerationConfig(
            rounds=1, alpha_grid=(0.0,),
            modes=("standard", "token_weights", "utterance_weights"),
        )
        rep = run_pseudo_labeling(
            splits["train"], splits["pretrain"], splits["valid"], splits["test"],
            meta, gen, FAST, seeds=(0,), root_seed=7,
            base_cfg=TrainConfig(epochs=10), include_traces=True,
        )
        row = rep.rows[0]["modes"]
        std = np.asarray(row["standard"]["loss_trace_per_seed"][0])
        for mode in ("token_weights", "utterance_weights"):
            tr = np.asarray(row[mode]["loss_trace_per_seed"][0])
            assert tr.shape == std.shape
            assert np.max(np.abs(tr - std)) < 1e-9
        assert row["token_weights"]["wer"] == pytest.approx(
            row["standard"]["wer"], abs=1e-12
        )

    def test_chosen_alpha_recorded(self, tiny_data):
        meta, splits = tiny_data
        gen = GenerationConfig(rounds=1, alpha_grid=(1.0, 4.0), modes=("token_weights",))
        rep = run_pseudo_labeling(
            splits["train"], splits["pretrain"], splits["valid"], splits["test"],
            meta, gen, FAST, seeds=(0,), root_seed=8,
            base_cfg=TrainConfig(epochs=10),
        )
        chosen = rep.rows[0]["modes"]["token_weights"]["chosen_alpha"]
        assert chosen and chosen[0] in (1.0, 4.0)

    def test_determinism(self, tiny_data):
        meta, splits = tiny_data
        gen = GenerationConfig(rounds=1, alpha_grid=(2.0,), modes=("standard", "token_weights"))
        kwargs = dict(
            labeled=splits["train"], unlabeled=splits["pretrain"],
            valid=splits["valid"], test=splits["test"], meta=meta,
            cfg=gen, train_cfg=FAST, seeds=(0,), root_seed=9,
            base_cfg=TrainConfig(epochs=8),
        )
        assert report_to_json(run_pseudo_labeling(**kwargs)) == report_to_json(
            run_pseudo_labeling(**kwargs)
        )

    def test_pool_of_empty_hypotheses_trains_on(self, tiny_data):
        """A teacher that decodes the whole pool to empty hypotheses does not
        end the experiment: its students train on the empty transcripts."""
        meta, splits = tiny_data
        rep = run_pseudo_labeling(
            splits["train"], splits["pretrain"], splits["valid"], splits["test"],
            meta, GenerationConfig(rounds=2, alpha_grid=(2.0,)), replace(FAST, epochs=8),
            seeds=(1,), root_seed=13, base_cfg=TrainConfig(epochs=10),
        )
        assert [row["round"] for row in rep.rows] == [1, 2]
        for row in rep.rows:
            for mode in MODES3:
                assert row["modes"][mode]["wer"] == 1.0

    def test_empty_pools_rejected(self, tiny_data):
        meta, splits = tiny_data
        with pytest.raises(DataError, match="nonempty"):
            run_pseudo_labeling(
                [], splits["pretrain"], splits["valid"], splits["test"],
                meta, GenerationConfig(rounds=1), FAST,
            )


class TestValidationDecodes:
    """Validation WER is decoded only to choose alpha: once per trial of a
    weighted mode whose grid has more than one exponent, never for the
    standard run."""

    @pytest.mark.parametrize("grid, per_round", [((2.0, 6.0), 4), ((2.0,), 0)])
    @pytest.mark.parametrize("engine", ["corruption", "pseudo_labeling"])
    def test_decodes_per_round(self, tiny_data, monkeypatch, engine, grid, per_round):
        meta, splits = tiny_data
        valid = splits["valid"]
        calls = []
        evaluate = experiments_mod.evaluate_wer
        monkeypatch.setattr(
            experiments_mod, "evaluate_wer",
            lambda model, utts, *args: calls.append(utts is valid) or evaluate(model, utts, *args),
        )
        if engine == "corruption":
            rounds = 1
            rep = run_corruption_experiment(
                splits, meta, levels=[0.2], modes=MODES3, train_cfg=FAST, alpha_grid=grid,
                seeds=(0,), root_seed=13,
            )
        else:
            rounds = 2
            rep = run_pseudo_labeling(
                splits["train"], splits["pretrain"], valid, splits["test"], meta,
                GenerationConfig(rounds=rounds, alpha_grid=grid, modes=MODES3),
                replace(FAST, epochs=8), seeds=(0,), root_seed=13, base_cfg=TrainConfig(epochs=10),
            )
        assert sum(calls) == per_round * rounds
        for row in rep.rows:
            assert row["modes"]["standard"]["chosen_alpha"] == [None]
            for mode in ("utterance_weights", "token_weights"):
                assert row["modes"][mode]["chosen_alpha"][0] in grid


class TestCleanTeacherControl:
    def test_large_alpha_harmless_with_clean_teacher(self, tiny_data):
        # Confidences from a competent teacher on ground-truth labels are
        # high everywhere, so even alpha = 8 barely moves the weights.
        meta, splits = tiny_data
        teacher = train_model(
            splits["pretrain"], 8, 16, TrainConfig(epochs=14),
            stream(20, "init"), stream(20, "order"),
        ).model
        scored = score_confidences(teacher, splits["train"])
        wers = {}
        for alpha in (1.0, 8.0):
            cfg = TrainConfig(epochs=8, mode="token_weights", alpha=alpha)
            res = train_model(
                scored, 8, 16, cfg, stream(21, "init"), stream(21, "order")
            )
            wers[alpha] = evaluate_wer(res.model, splits["test"])
        assert abs(wers[8.0] - wers[1.0]) < 0.08


def solo(utts, cfg, root_seed, tag, **kwargs):
    """One run of ``cfg``, trained alone; ``kwargs`` go to its ``RunGroup``."""
    group = RunGroup(utts, [cfg], stream(root_seed, "init", *tag), stream(root_seed, "order", *tag), **kwargs)
    return train_runs([group], 8, 16)[0][0]


def best(trials):
    return min(trials, key=lambda r: (r[1], r[0]))


class TestEnginesEqualSoloRuns:
    """Each engine trains the runs that share a stream in one lockstep
    call; its report must equal the engine written run by run, with every
    mode decoding and scoring its own teacher's pool."""

    def test_corruption(self, tiny_data):
        meta, splits = tiny_data
        modes, alphas, level, seed, root = MODES3, (2.0, 6.0), 0.3, 1, 11
        rep = run_corruption_experiment(
            splits, meta, levels=[level], modes=modes, train_cfg=FAST, alpha_grid=alphas,
            seeds=(seed,), root_seed=root, include_traces=True,
        )
        teacher = solo(splits["pretrain"], FAST, root, ("teacher",)).model
        cor = CorruptionConfig(
            error_rate=level,
            rng_seed=int(stream(root, "corrupt", seed, int(level * 1000)).integers(2**31)),
        )
        tokens = corrupt_corpus(
            [u.tokens for u in splits["train"]], cor, Vocabulary(16),
            prototypes=np.asarray(meta["prototypes"], dtype=np.float64),
        )
        scored = score_confidences(
            teacher, [replace(u, tokens=t) for u, t in zip(splits["train"], tokens)]
        )
        tag = ("corr", level, seed)
        for mode in modes:
            if mode == "standard":
                alpha, res = None, solo(scored, FAST, root, tag)
            else:
                alpha, _, res = best([
                    (a, evaluate_wer(r.model, splits["valid"]), r)
                    for a in alphas
                    for r in [solo(scored, replace(FAST, mode=mode, alpha=a), root, tag)]
                ])
            entry = rep.rows[0]["modes"][mode]
            assert entry["per_seed"] == [evaluate_wer(res.model, splits["test"])]
            assert entry["chosen_alpha"] == [alpha]
            assert entry["loss_trace_per_seed"] == [res.batch_losses]

    def test_pseudo_labeling(self, tiny_data, monkeypatch):
        meta, splits = tiny_data
        gen = GenerationConfig(rounds=2, alpha_grid=(2.0, 6.0), modes=MODES3)
        train_cfg, base_cfg, seed, root = replace(FAST, epochs=8), TrainConfig(epochs=10), 0, 12
        decodes = []
        decode_corpus = experiments_mod.decode_corpus
        monkeypatch.setattr(
            experiments_mod, "decode_corpus",
            lambda model, *args: decodes.append(model) or decode_corpus(model, *args),
        )
        labeled, unlabeled, valid, test = (
            splits["train"], splits["pretrain"], splits["valid"], splits["test"]
        )
        rep = run_pseudo_labeling(
            labeled, unlabeled, valid, test, meta, gen, train_cfg,
            seeds=(seed,), root_seed=root, base_cfg=base_cfg, include_traces=True,
        )
        # One pool per teacher: the base model's in round 1, then one per mode.
        assert len(decodes) == 1 + len(MODES3)
        base = solo(labeled, base_cfg, root, ("base", seed)).model
        teachers = {mode: base for mode in MODES3}
        for rnd, row in enumerate(rep.rows, start=1):
            for mode in MODES3:
                teacher = teachers[mode]
                pool = [
                    replace(u, tokens=greedy_decode(teacher, u.features)[0], confidences=None)
                    for u in unlabeled
                ]
                pseudo = score_confidences(teacher, pool)
                grid = gen.alpha_grid if mode != "standard" else (0.0,)
                alpha, _, res = best([
                    (a, evaluate_wer(r.model, valid), r)
                    for a in grid
                    for r in [solo(
                        labeled, replace(train_cfg, mode=mode, alpha=a), root, ("gen", rnd, seed),
                        pseudo=pseudo, mix_ratio=gen.labeled_to_pseudo_ratio,
                    )]
                ])
                entry = row["modes"][mode]
                assert entry["per_seed"] == [evaluate_wer(res.model, test)]
                assert entry["chosen_alpha"] == [alpha if mode != "standard" else None]
                assert entry["loss_trace_per_seed"] == [res.batch_losses]
                teachers[mode] = res.model


class TestEngineCalls:
    """Runs that need nothing from each other share one ``train_runs``
    call: the number of run groups of each call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        sizes = []
        train_runs = experiments_mod.train_runs
        monkeypatch.setattr(
            experiments_mod, "train_runs",
            lambda groups, *dims: sizes.append(len(groups)) or train_runs(groups, *dims),
        )
        return sizes

    def corruption(self, tiny_data, **teacher):
        meta, splits = tiny_data
        run_corruption_experiment(
            splits, meta, levels=[0.2], modes=MODES3, train_cfg=replace(FAST, epochs=1),
            alpha_grid=(2.0,), seeds=(0, 1), root_seed=3,
            teacher_cfg=replace(FAST, epochs=2, **teacher),
        )

    @pytest.mark.parametrize("teacher_lr, sizes", [(1e-2, [3, 1, 1]), (2e-2, [3, 1, 1])])
    def test_corruption(self, tiny_data, calls, teacher_lr, sizes):
        # The teacher and both clean runs in one call, at any teacher
        # learning rate; then one call per seed.
        self.corruption(tiny_data, lr=teacher_lr)
        assert calls == sizes

    def test_corruption_teacher_of_another_hidden_size(self, tiny_data, calls):
        # Only the parameter shape keeps the teacher out of the clean runs' call.
        self.corruption(tiny_data, dim_hidden=16)
        assert calls == [1, 2, 1, 1]

    def test_corruption_refuses_a_zero_symbol_cap(self, tiny_data, calls):
        # Refused with the config, not by the first decode after the
        # teacher and clean runs have trained.
        meta, splits = tiny_data
        with pytest.raises(DataError, match="max_symbols_per_frame"):
            run_corruption_experiment(
                splits, meta, levels=[0.2], modes=MODES3,
                train_cfg=replace(FAST, epochs=1, max_symbols_per_frame=0), alpha_grid=(2.0,), seeds=(0,),
            )
        assert calls == []

    def test_pseudo_labeling(self, tiny_data, calls):
        # Both base runs in one call; then per (round, seed) one call, with
        # one group per distinct teacher: one in round 1, three in round 2.
        meta, splits = tiny_data
        run_pseudo_labeling(
            splits["train"], splits["pretrain"], splits["valid"], splits["test"], meta,
            GenerationConfig(rounds=2, alpha_grid=(2.0,), modes=MODES3),
            replace(FAST, epochs=8), seeds=(0, 2), root_seed=13, base_cfg=TrainConfig(epochs=10),
        )
        assert calls == [2, 1, 3, 1, 3]

    @pytest.mark.parametrize(
        "arg, value",
        [("levels", [0.2, 1.5]), ("levels", []), ("alpha_grid", (2.0, -1.0)), ("alpha_grid", (np.nan,)),
         ("modes", ("standard", "bogus")), ("seeds", (0, 1.5)), ("seeds", (True,)), ("seeds", (-1,)),
         ("root_seed", 1.5), ("root_seed", True), ("root_seed", -1)],
    )
    def test_corruption_checks_its_arguments_before_training(self, tiny_data, calls, arg, value):
        # A level of 1.5 was refused only after the teacher and every clean
        # run had trained; a fractional or boolean seed ran as an integer.
        meta, splits = tiny_data
        kwargs = dict(
            levels=[0.2], modes=MODES3, train_cfg=replace(FAST, epochs=1), alpha_grid=(2.0,),
            seeds=(0,), root_seed=3,
        )
        with pytest.raises(DataError, match=f"^{arg} must"):
            run_corruption_experiment(splits, meta, **{**kwargs, arg: value})
        assert calls == []

    @pytest.mark.parametrize("arg, value", [("seeds", (0, 2.5)), ("seeds", ()), ("root_seed", False)])
    def test_pseudo_labeling_checks_its_seeds_before_training(self, tiny_data, calls, arg, value):
        meta, splits = tiny_data
        with pytest.raises(DataError, match=f"^{arg} must"):
            run_pseudo_labeling(
                splits["train"], splits["pretrain"], splits["valid"], splits["test"], meta,
                GenerationConfig(rounds=1, alpha_grid=(2.0,)), replace(FAST, epochs=1),
                **{"seeds": (0,), "root_seed": 3, arg: value},
            )
        assert calls == []
