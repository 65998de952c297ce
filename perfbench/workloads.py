"""The benchmark's workloads: seeded inputs, one timed round, output checks.

Every workload builds its inputs in ``setup`` from the workload seed, only
through ``datagen.generate_synthetic_dataset`` (plus a teacher model for
``label-pool``).  ``run`` is one round of work, repeated unchanged while the
benchmark measures; it calls twrnnt through module attributes so that
tracing wrappers installed on those attributes see every call.  ``check``
runs after timing and returns (name, ok) pairs.

Each split keeps a fixed number of utterances of every transcript length,
taken in generation order from a larger seeded pool.  Lengths still vary
inside a split, but every seed gives the same length mix, so a change of
seed changes the contents of the work and not its amount.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import replace

import numpy as np

from twrnnt import conditionals, datagen, experiments, lattice, metrics, model, training, weighting
from twrnnt.seeds import stream

TOL = 1e-9  # acceptance criteria 2 and 3
MAX_SYMBOLS = 4
LATTICE_SAMPLES = 6

# Criterion 8 recipe: desk data shape, student and teacher configs.
DESK = dict(dim_features=8, vocab_size=16, noise_level=0.3)
STUDENT = training.TrainConfig(epochs=10, batch_size=8, lr=1e-2, dim_hidden=32)
TEACHER = replace(STUDENT, epochs=14)
ALPHAS = (2.0, 6.0)


def _stratified(utts, per_length, lengths):
    """First ``per_length`` utterances of each transcript length, or None."""
    need = {n: per_length for n in lengths}
    out = []
    for u in utts:
        if need.get(u.tokens.size, 0) > 0:
            need[u.tokens.size] -= 1
            out.append(u)
    return out if not any(need.values()) else None


def make_splits(work_dir, seed, quotas, **spec_kw):
    """Generate a seeded dataset and keep ``quotas[split]`` utterances per
    transcript length.  The pool doubles until every quota is met; datagen
    draws utterances sequentially, so a bigger pool extends a smaller one."""
    probe = datagen.SyntheticSpec(seed=seed, **spec_kw)
    lengths = range(probe.min_tokens, probe.max_tokens + 1)
    pool = 4
    while True:
        sizes = {f"n_{s}": pool * q * len(lengths) for s, q in quotas.items()}
        sizes.update({f"n_{s}": 0 for s in datagen.SPLITS if s not in quotas})
        spec = replace(probe, **sizes)
        paths = datagen.generate_synthetic_dataset(spec, work_dir)
        splits = {}
        for name in quotas:
            meta, utts = datagen.read_dataset(paths[name])
            splits[name] = _stratified(utts, quotas[name], lengths)
        shutil.rmtree(work_dir)
        if all(v is not None for v in splits.values()):
            return meta, splits
        pool *= 2


def input_facts(meta, utts):
    T = np.array([u.features.shape[0] for u in utts])
    U = np.array([u.tokens.size for u in utts])
    return {
        "utterances": len(utts),
        "mean_T": float(T.mean()),
        "max_T": int(T.max()),
        "mean_U": float(U.mean()),
        "max_U": int(U.max()),
        "V": datagen.dataset_vocab_size(meta),
    }


def warm_up():
    """One small call through every kernel, so JIT compilation (where numba
    is installed) happens in set-up rather than in a timed round."""
    rng = np.random.default_rng(0)
    lat = lattice.normalize_logits(rng.normal(size=(3, 3, 4)))
    y = np.array([0, 1])
    lattice.rnnt_loss_grad(lat, y)
    weighting.weighted_loss_and_grad(lat, y, weighting.TokenWeights.uniform(2))
    conditionals.conditional_profile(lat, y)
    conditionals.next_token_distribution(lat, [0], 2)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def lattice_checks(net, utts):
    """Criteria 2 and 3 plus forward/backward agreement on model lattices."""
    out = []
    for u in [u for u in utts if u.tokens.size][:LATTICE_SAMPLES]:
        lat = model.model_forward(net, u.features, u.tokens)
        y = u.tokens
        loss = lattice.rnnt_loss(lat, y)
        prof = conditionals.conditional_profile(lat, y)
        resid = abs(float(np.sum(np.log(prof.conditionals))) + prof.final_blank_logp + loss)
        unit = weighting.TokenWeights.uniform(y.size)
        gap = abs(weighting.weighted_rnnt_loss(lat, y, unit) - loss)
        fb = abs(lattice.forward(lat, y).loglik - lattice.backward(lat, y).loglik)
        grad_gap = float(
            np.max(np.abs(weighting.weighted_rnnt_loss_grad(lat, y, unit) - lattice.rnnt_loss_grad(lat, y)))
        )
        out += [
            ("telescoping_residual", resid <= TOL),
            ("unit_weight_loss_gap", gap <= TOL),
            ("forward_backward_loglik_gap", fb <= TOL),
            ("unit_weight_grad_gap", grad_gap <= TOL),
        ]
    return out


def wer_check(value):
    return ("wer_in_unit_interval", 0.0 <= value <= 1.0)


def confidence_checks(scored):
    return [
        ("confidences_in_(0,1]", bool(np.all(u.confidences > 0) and np.all(u.confidences <= 1)))
        for u in scored
        if u.tokens.size
    ]


def _dims(meta, utts):
    return utts[0].features.shape[1], datagen.dataset_vocab_size(meta)


def train_teacher(meta, utts, seed):
    """A model trained with the criterion 8 teacher recipe."""
    D, V = _dims(meta, utts)
    return training.train_model(
        utts,
        D,
        V,
        TEACHER,
        init_rng=stream(seed, "bench", "teacher", "init"),
        order_rng=stream(seed, "bench", "teacher", "order"),
    ).model


class Corruption:
    """Criterion 8's engine call, one seed, on about a sixth of its desk data."""

    quotas = {"train": 13, "valid": 3, "test": 4, "pretrain": 11}

    def setup(self, seed, work_dir):
        meta, splits = make_splits(work_dir, seed, self.quotas, **DESK)
        warm_up()
        return {"seed": seed, "meta": meta, "splits": splits}

    def inputs(self, st):
        return input_facts(st["meta"], [u for s in st["splits"].values() for u in s])

    def passes(self, st):
        """Utterance passes per round, counted from the recipe: training
        utterance-steps, scored utterances and decoded utterances."""
        n = {k: len(v) for k, v in st["splits"].items()}
        runs = 2 + 2 * len(ALPHAS)  # clean, standard, two weighted modes per alpha
        train = TEACHER.epochs * n["pretrain"] + STUDENT.epochs * n["train"] * runs
        decode = 2 * n["test"] + 2 * (len(ALPHAS) * n["valid"] + n["test"])
        return train + n["train"] + decode

    def run(self, st):
        return experiments.run_corruption_experiment(
            st["splits"],
            st["meta"],
            levels=[0.3],
            modes=training.MODES,
            train_cfg=STUDENT,
            alpha_grid=ALPHAS,
            seeds=(0,),
            root_seed=st["seed"],
            teacher_cfg=TEACHER,
            include_traces=True,
        )

    def digest(self, report):
        return digest(experiments.report_to_json(report))

    def record(self, st, report):
        row = report.rows[0]
        return {
            "clean_wer": report.clean_wer,
            "test_wer": {m: e["wer"] for m, e in row["modes"].items()},
            "recovered": row.get("recovered"),
        }

    def check(self, st, report):
        out = [wer_check(report.clean_wer)]
        for entry in report.rows[0]["modes"].values():
            out += [wer_check(w) for w in entry["per_seed"]]
            out += [
                ("batch_losses_finite", bool(np.all(np.isfinite(trace))))
                for trace in entry["loss_trace_per_seed"]
            ]
        train = st["splits"]["train"]
        D, V = _dims(st["meta"], train)
        net = model.TransducerModel.random(
            D, STUDENT.dim_hidden, V, stream(st["seed"], "bench", "check"), scale=STUDENT.init_scale
        )
        return out + lattice_checks(net, train)


class LongLattice:
    """Standard then token-weighted fine-tuning on long lattices (T~75,
    U~25), scoring the training set in between, then test WER of both.

    Both runs start from a base model trained in set-up on short desk
    utterances of the same seed, which share the token prototypes.  From a
    random start, two epochs on long lattices leave a model whose greedy
    output is mostly insertions or mostly blanks."""

    quotas = {"train": 3, "test": 1}
    spec = dict(DESK, min_tokens=20, max_tokens=30, min_frames_per_token=2, max_frames_per_token=4)
    cfg = replace(STUDENT, epochs=2)

    def setup(self, seed, work_dir):
        short_meta, short = make_splits(work_dir / "short", seed, {"pretrain": 7}, **DESK)
        base = train_teacher(short_meta, short["pretrain"], seed)
        meta, splits = make_splits(work_dir / "long", seed, self.quotas, **self.spec)
        warm_up()
        return {"seed": seed, "meta": meta, "splits": splits, "base": base}

    def inputs(self, st):
        return input_facts(st["meta"], st["splits"]["train"] + st["splits"]["test"])

    def passes(self, st):
        n_train, n_test = len(st["splits"]["train"]), len(st["splits"]["test"])
        return 2 * self.cfg.epochs * n_train + n_train + 2 * n_test

    def _train(self, st, utts, cfg):
        D, V = _dims(st["meta"], utts)
        return training.train_model(
            utts,
            D,
            V,
            cfg,
            init_rng=stream(st["seed"], "bench", "init"),
            order_rng=stream(st["seed"], "bench", "order"),
            init_model=st["base"],
        )

    def run(self, st):
        train, test = st["splits"]["train"], st["splits"]["test"]
        std = self._train(st, train, self.cfg)
        scored = training.score_confidences(std.model, train)
        tok = self._train(st, scored, replace(self.cfg, mode="token_weights", alpha=ALPHAS[0]))
        return {
            "results": {"standard": std, "token_weights": tok},
            "scored": scored,
            "test_wer": {
                "standard": training.evaluate_wer(std.model, test, MAX_SYMBOLS),
                "token_weights": training.evaluate_wer(tok.model, test, MAX_SYMBOLS),
            },
        }

    def digest(self, out):
        return digest(
            {
                "losses": {m: r.batch_losses for m, r in out["results"].items()},
                "confidences": [u.confidences.tolist() for u in out["scored"]],
                "test_wer": out["test_wer"],
            }
        )

    def record(self, st, out):
        return {"test_wer": out["test_wer"]}

    def check(self, st, out):
        checks = [wer_check(w) for w in out["test_wer"].values()]
        checks += [
            ("batch_losses_finite", bool(np.all(np.isfinite(r.batch_losses))))
            for r in out["results"].values()
        ]
        checks += confidence_checks(out["scored"])
        return checks + lattice_checks(out["results"]["token_weights"].model, st["splits"]["test"])


class LabelPool:
    """Inference half of a pseudo-labeling round: a teacher (trained in
    set-up with the criterion 8 teacher recipe) greedy-decodes an unlabeled
    pool, scores its hypotheses, and is evaluated on test."""

    quotas = {"pretrain": 7, "train": 50, "test": 10}

    def setup(self, seed, work_dir):
        meta, splits = make_splits(work_dir, seed, self.quotas, **DESK)
        teacher = train_teacher(meta, splits["pretrain"], seed)
        warm_up()
        return {"seed": seed, "meta": meta, "splits": splits, "teacher": teacher}

    def inputs(self, st):
        return input_facts(st["meta"], st["splits"]["train"] + st["splits"]["test"])

    def passes(self, st):
        return 2 * len(st["splits"]["train"]) + len(st["splits"]["test"])

    def run(self, st):
        teacher = st["teacher"]
        # What experiments._decode_pool does each pseudo-labeling round.
        pseudo = [
            replace(u, tokens=model.greedy_decode(teacher, u.features, MAX_SYMBOLS)[0], confidences=None, lam=None)
            for u in st["splits"]["train"]
        ]
        return {
            "scored": training.score_confidences(teacher, pseudo),
            "test_wer": training.evaluate_wer(teacher, st["splits"]["test"], MAX_SYMBOLS),
        }

    def digest(self, out):
        return digest(
            {
                "hyps": [u.tokens.tolist() for u in out["scored"]],
                "confidences": [u.confidences.tolist() for u in out["scored"]],
                "test_wer": out["test_wer"],
            }
        )

    def _pool_wer(self, st, out):
        refs = st["splits"]["train"]
        dist = sum(metrics.wer(h.tokens, r.tokens).distance for h, r in zip(out["scored"], refs))
        return dist / sum(r.tokens.size for r in refs)

    def record(self, st, out):
        return {"test_wer": out["test_wer"], "pool_wer": self._pool_wer(st, out)}

    def check(self, st, out):
        checks = [wer_check(out["test_wer"]), wer_check(self._pool_wer(st, out))]
        checks += confidence_checks(out["scored"])
        return checks + lattice_checks(st["teacher"], out["scored"])


WORKLOADS = {"corruption": Corruption(), "long-lattice": LongLattice(), "label-pool": LabelPool()}
