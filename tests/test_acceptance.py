"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The experiment criteria (8, 9) train real models at desk
scale and take a few minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from conftest import capped_lattice, random_instance, random_lattice
from references import finite_diff_grad, model_backward
from twrnnt.conditionals import conditional_profile, next_token_distribution
from twrnnt.corruption import CorruptionConfig, corrupt_corpus
from twrnnt.datagen import SyntheticSpec, generate_synthetic_dataset, read_dataset
from twrnnt.experiments import (
    GenerationConfig,
    report_to_json,
    run_corruption_experiment,
    run_pseudo_labeling,
)
from twrnnt.lattice import PosteriorLattice, Vocabulary, rnnt_loss, rnnt_loss_grad
from twrnnt.metrics import wer
from twrnnt.model import TransducerModel, model_forward
from twrnnt.oracle import exact_conditionals, exact_sequence_logp
from twrnnt.training import TrainConfig
from twrnnt.weighting import (
    TokenWeights,
    WeightConfig,
    compute_weights,
    weighted_loss_and_grad,
    weighted_rnnt_loss,
)


def report_line(number, name, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({extra})" if extra else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert passed, f"criterion {number} failed: {name} {suffix}"


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(20240731)
    return [random_instance(rng, max_t=6, max_u=4, max_v=5) for _ in range(1000)]


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    spec = SyntheticSpec(
        n_train=500, n_valid=100, n_test=150, n_pretrain=400,
        dim_features=8, vocab_size=16, noise_level=0.3, seed=13,
    )
    paths = generate_synthetic_dataset(spec, tmp_path_factory.mktemp("desk"))
    splits = {}
    meta = None
    for name, p in paths.items():
        meta, splits[name] = read_dataset(p)
    return meta, splits


def test_criterion_01_oracle_equivalence(instances):
    t0 = time.time()
    max_loss_gap = 0.0
    max_cond_gap = 0.0
    for lat, y in instances:
        loss = rnnt_loss(lat, y)
        max_loss_gap = max(max_loss_gap, abs(loss - (-exact_sequence_logp(lat, y))))
        if y.size:
            prof = conditional_profile(lat, y)
            max_cond_gap = max(
                max_cond_gap,
                float(np.max(np.abs(prof.conditionals - exact_conditionals(lat, y)))),
            )
    elapsed = time.time() - t0
    report_line(
        1,
        "oracle equivalence on 1000 instances",
        max_loss_gap < 1e-10 and max_cond_gap < 1e-10 and elapsed < 30.0,
        f"loss gap {max_loss_gap:.2e}, cond gap {max_cond_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_telescoping_identity(instances):
    worst = 0.0
    for lat, y in instances:
        loss = rnnt_loss(lat, y)
        if y.size:
            prof = conditional_profile(lat, y)
            resid = abs(
                float(np.sum(np.log(prof.conditionals)))
                + prof.final_blank_logp
                + loss
            )
        else:
            # No tokens: the sentence-end term is the whole likelihood.
            resid = 0.0
        worst = max(worst, resid)
    report_line(2, "telescoping identity", worst < 1e-9, f"max residual {worst:.2e}")


def test_criterion_03_standard_loss_reduction(instances):
    worst = 0.0
    for lat, y in instances:
        w = TokenWeights.uniform(y.size)
        worst = max(worst, abs(weighted_rnnt_loss(lat, y, w) - rnnt_loss(lat, y)))
    report_line(3, "unit weights reduce to standard loss", worst < 1e-9, f"max gap {worst:.2e}")


def test_criterion_04_gradient_correctness(instances):
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst_lattice = 0.0
    for lat, y in instances[:100]:
        analytic = rnnt_loss_grad(lat, y)
        numeric = finite_diff_grad(lambda l: rnnt_loss(l, y), lat, step=1e-6)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        worst_lattice = max(worst_lattice, np.max(np.abs(analytic - numeric)) / scale)
        lam = rng.uniform(0.0, 2.0, size=y.size)
        w = TokenWeights(lam, WeightConfig())
        analytic_w = weighted_loss_and_grad(lat, y, w)[1]
        numeric_w = finite_diff_grad(
            lambda l: weighted_rnnt_loss(l, y, w), lat, step=1e-6
        )
        scale = max(np.max(np.abs(analytic_w)), np.max(np.abs(numeric_w)), 1e-12)
        worst_lattice = max(
            worst_lattice, np.max(np.abs(analytic_w - numeric_w)) / scale
        )
    # End-to-end parameter gradients through the model.
    worst_param = 0.0
    for i in range(10):
        mrng = np.random.default_rng(1000 + i)
        model = TransducerModel.random(3, 8, 4, mrng, scale=0.6)
        feats = mrng.normal(size=(4, 3))
        y = mrng.integers(0, 4, size=3).astype(np.int64)
        lam = mrng.uniform(0.2, 1.8, size=3)
        w = TokenWeights(lam, WeightConfig())

        def loss_at(params):
            mm = TransducerModel(3, 8, 4, params)
            return weighted_rnnt_loss(model_forward(mm, feats, y), y, w)

        lat = model_forward(model, feats, y)
        _, dlogp = weighted_loss_and_grad(lat, y, w)
        analytic = model_backward(model, feats, y, dlogp)
        coords = mrng.choice(model.params.size, size=10, replace=False)
        h = 1e-5
        for c in coords:
            p = model.params.copy()
            p[c] += h
            hi = loss_at(p)
            p[c] -= 2 * h
            lo = loss_at(p)
            numeric = (hi - lo) / (2 * h)
            rel = abs(analytic[c] - numeric) / max(abs(analytic[c]), abs(numeric), 1e-6)
            worst_param = max(worst_param, rel)
    elapsed = time.time() - t0
    report_line(
        4,
        "analytic gradients vs finite differences",
        worst_lattice < 1e-4 and worst_param < 1e-3 and elapsed < 120.0,
        f"lattice {worst_lattice:.2e}, params {worst_param:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_completeness():
    rng = np.random.default_rng(77)
    worst_sum = 0.0
    checked = 0
    while checked < 100:
        T = int(rng.integers(1, 5))
        U = int(rng.integers(1, 4))
        V = int(rng.integers(1, 4))
        lat = random_lattice(rng, T, U, V)
        prefix = rng.integers(0, V, size=U - 1).astype(np.int64)
        dist = next_token_distribution(lat, prefix, U)
        worst_sum = max(worst_sum, abs(float(np.sum(dist)) - 1.0))
        checked += 1
    # Oracle total probability on termination-capped tiny lattices.
    worst_total = 0.0
    for T, U_max, V in [(2, 2, 2), (3, 3, 2), (3, 2, 1)]:
        lat = capped_lattice(rng, T, U_max, V)
        total = 0.0
        for U in range(U_max + 1):
            sub = PosteriorLattice(lat.logp[:, : U + 1, :])
            for combo in np.ndindex(*([V] * U)):
                total += np.exp(
                    exact_sequence_logp(sub, np.array(combo, dtype=np.int64))
                )
        worst_total = max(worst_total, abs(total - 1.0))
    report_line(
        5,
        "next-token completeness and oracle total probability",
        worst_sum < 1e-9 and worst_total < 1e-8,
        f"sum gap {worst_sum:.2e}, total gap {worst_total:.2e}",
    )


def test_criterion_06_weight_law():
    rng = np.random.default_rng(55)
    worst_mean = 0.0
    ok_orders = True
    ok_monotone = True
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        c = rng.uniform(0.01, 1.0, size=n)
        alpha = float(rng.uniform(0.0, 8.0))
        lam = compute_weights(c, WeightConfig(alpha=alpha)).lambdas
        worst_mean = max(worst_mean, abs(float(np.mean(lam)) - 1.0))
        if alpha > 0:
            ok_orders &= bool(np.array_equal(np.argsort(lam), np.argsort(c)))
        z = compute_weights(c, WeightConfig(alpha=0.0)).lambdas
        ok_orders &= bool(np.array_equal(z, np.ones(n)))
        if n >= 2:
            i, j = int(np.argmax(c)), int(np.argmin(c))
            if c[i] > c[j]:
                prev = None
                for a in (0.5, 1.0, 2.0, 4.0, 8.0):
                    la = compute_weights(c, WeightConfig(alpha=a)).lambdas
                    ratio = la[i] / la[j]
                    if prev is not None and ratio < prev - 1e-12:
                        ok_monotone = False
                    prev = ratio
    report_line(
        6,
        "weight normalization, alpha=0 collapse, order and ratio monotonicity",
        worst_mean < 1e-9 and ok_orders and ok_monotone,
        f"max |mean-1| {worst_mean:.2e}",
    )


def test_criterion_07_corruption_calibration():
    rng = np.random.default_rng(4242)
    vocab = Vocabulary(16)
    refs = [
        rng.integers(0, 16, size=rng.integers(3, 9)).astype(np.int64)
        for _ in range(2200)
    ]
    total = sum(len(r) for r in refs)
    assert total >= 10_000
    worst = 0.0
    details = []
    for level in (0.1, 0.2, 0.3, 0.4):
        cfg = CorruptionConfig(error_rate=level, rng_seed=17)
        out = corrupt_corpus(refs, cfg, vocab)
        measured = sum(wer(c, r).distance for c, r in zip(out, refs)) / total
        details.append(f"{level:.0%}->{measured:.1%}")
        worst = max(worst, abs(measured - level))
    report_line(
        7,
        "corruption calibration within +-2% absolute",
        worst < 0.02,
        ", ".join(details),
    )


@pytest.fixture(scope="module")
def corruption_report(desk_data):
    meta, splits = desk_data
    t0 = time.time()
    rep = run_corruption_experiment(
        splits,
        meta,
        levels=[0.3],
        modes=("standard", "utterance_weights", "token_weights"),
        train_cfg=TrainConfig(epochs=10, batch_size=8, lr=1e-2, dim_hidden=32),
        alpha_grid=(2.0, 6.0),
        seeds=(0, 1, 2),
        root_seed=42,
        teacher_cfg=TrainConfig(epochs=14, batch_size=8, lr=1e-2, dim_hidden=32),
    )
    rep.provenance["elapsed_seconds"] = time.time() - t0
    return rep


def test_criterion_08_directional_recovery(corruption_report):
    row = corruption_report.rows[0]
    std = row["modes"]["standard"]["wer"]
    utt = row["modes"]["utterance_weights"]["wer"]
    tok = row["modes"]["token_weights"]["wer"]
    rec = row["recovered"]["token_weights"]
    elapsed = corruption_report.provenance["elapsed_seconds"]
    report_line(
        8,
        "30% corruption: token < utterance < standard, token recovery > 0.3",
        tok < utt < std and rec is not None and rec > 0.3 and elapsed < 600.0,
        f"tok {tok:.3f} < utt {utt:.3f} < std {std:.3f}, recovery {rec:.2f}, {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def pseudo_report(desk_data):
    meta, splits = desk_data
    labeled = splits["train"][:100]
    unlabeled = splits["pretrain"]
    gen = GenerationConfig(rounds=3, alpha_grid=(2.0, 6.0), labeled_to_pseudo_ratio=(1, 9))
    return run_pseudo_labeling(
        labeled,
        unlabeled,
        splits["valid"],
        splits["test"],
        meta,
        gen,
        TrainConfig(epochs=10, batch_size=8, lr=1e-2, dim_hidden=32),
        seeds=(0, 1, 2),
        root_seed=42,
        base_cfg=TrainConfig(epochs=25, batch_size=8, lr=1e-2, dim_hidden=32),
    )


def test_criterion_09_directional_pseudo_labeling(pseudo_report):
    rows = pseudo_report.rows
    ok = True
    detail = []
    for row in rows:
        tok = row["modes"]["token_weights"]["wer"]
        std = row["modes"]["standard"]["wer"]
        ok &= tok <= std
        detail.append(f"r{row['round']}: tok {tok:.3f} vs std {std:.3f}")
    last = rows[-1]["modes"]
    tok, utt, std = (
        last["token_weights"]["wer"],
        last["utterance_weights"]["wer"],
        last["standard"]["wer"],
    )
    ok &= tok < std and tok <= utt <= std
    detail.append(f"round3 utt {utt:.3f}")
    report_line(9, "pseudo-labeling: token <= standard every round, ordered at round 3", ok, "; ".join(detail))


def test_criterion_10_reproducibility(desk_data):
    meta, splits = desk_data
    small = {
        "train": splits["train"][:40],
        "valid": splits["valid"][:12],
        "test": splits["test"][:16],
        "pretrain": splits["pretrain"][:30],
    }
    cfgs = dict(
        splits=small, meta=meta, levels=[0.2], modes=("standard", "token_weights"),
        train_cfg=TrainConfig(epochs=3, batch_size=8), alpha_grid=(2.0,),
        seeds=(0,), root_seed=3,
    )
    same_corr = report_to_json(run_corruption_experiment(**cfgs)) == report_to_json(
        run_corruption_experiment(**cfgs)
    )
    gen = GenerationConfig(rounds=1, alpha_grid=(2.0,), modes=("standard", "token_weights"))
    kwargs = dict(
        labeled=small["train"], unlabeled=small["pretrain"], valid=small["valid"],
        test=small["test"], meta=meta, cfg=gen,
        train_cfg=TrainConfig(epochs=3, batch_size=8), seeds=(0,), root_seed=3,
        base_cfg=TrainConfig(epochs=6, batch_size=8),
    )
    same_gen = report_to_json(run_pseudo_labeling(**kwargs)) == report_to_json(
        run_pseudo_labeling(**kwargs)
    )
    report_line(10, "identical configs and seeds give identical reports", same_corr and same_gen)
