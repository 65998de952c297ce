#!/usr/bin/env python3
"""Verify, then time, each stage that training, scoring and decoding run.

The sections: the DP kernels, the grouped model forward and backward, a
stacked training step, confidence scoring and greedy decoding, on desk
(T ~ 11, U ~ 6) and long (T ~ 75, U ~ 25) data.  Each checks the product's
output against ``tests/references.py`` or its per-utterance form (the
check's docstring gives the tolerance), exits on a mismatch, and then times
the product alone, in microseconds.  Run from the repo root:

    python3 benchmarks/bench_kernels.py [--frames 50 --labels 20 --vocab 32 --repeats 30]
"""

import argparse
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from twrnnt import kernels
from twrnnt.conditionals import conditional_profile
from twrnnt.datagen import SyntheticSpec, Utterance, generate_synthetic_dataset, read_dataset
from twrnnt.lattice import PosteriorLattice
from twrnnt.model import BatchLayout, StepActivations, TransducerModel, backward_columns, forward_columns
from twrnnt.model import greedy_decode, model_forward
from twrnnt.seeds import stream
from twrnnt.training import TrainConfig, _batch_loss_and_grad, _Corpus, score_confidences, train_model
from twrnnt.weighting import TokenWeights, WeightConfig, padded_loss_and_grad, weighted_loss_and_grad

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from references import CorpusWeights, emission_sweep_scalar, loglik_grad, model_backward  # noqa: E402
from references import greedy_decode as reference_decode, weighted_grad_scalar  # noqa: E402

TOL = 1e-9
MODEL_TOL = 1e-12
BATCH = 8
# The network of the benchmark's training workloads: 8 features, 32 hidden
# units, 16 tokens.
MODEL_DIMS = (8, 32, 16)
MODEL_BATCHES = {"desk T~11 U~6": (11, 6), "long T~75 U~25": (75, 25)}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    for flag, default in (("--frames", 50), ("--labels", 20), ("--vocab", 32), ("--repeats", 30)):
        parser.add_argument(flag, type=int, default=default)
    return parser.parse_args(argv)


def time_call(fn, repeats):
    fn()  # warmup
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def check(name, gaps, tol):
    """Print the gaps of one verification; exit if any is above ``tol``."""
    print(f"{name}: " + ", ".join(f"{what} gap {gap:.1e}" for what, gap in gaps.items()))
    if not all(gap <= tol for gap in gaps.values()):
        raise SystemExit(f"{name} failed verification (tolerance {tol})")


def lattices(shapes, V, rng):
    """(logp, labels, token weights) of seeded lattices of the given shapes."""
    out = []
    for t, u in shapes:
        raw = rng.normal(scale=1.5, size=(t, u + 1, V + 1))
        logp = raw - np.log(np.sum(np.exp(raw), axis=-1, keepdims=True))
        labels = rng.integers(0, V, size=u).astype(np.int64)
        out.append((np.ascontiguousarray(logp), labels, rng.uniform(0.5, 1.5, size=u)))
    return out


def dp_batches(args):
    """The DP batches by name: 8 lattices, the first --frames x --labels and
    the rest up to a quarter smaller; and 8 and 40 lattices of the
    ``corruption`` workload's desk data, T in 8..14 and U in 3..8 (means 11
    and 5.5) over 16 tokens, where 40 is a lockstep step of its five runs."""
    T, U, rng = args.frames, args.labels, np.random.default_rng(0)
    shapes = [(T, U)] + [
        (int(rng.integers(max(1, 3 * T // 4), T + 1)), int(rng.integers(3 * U // 4, U + 1)))
        for _ in range(BATCH - 1)
    ]
    out = {f"T<={T} U<={U} B={BATCH}": lattices(shapes, args.vocab, rng)}
    for name, B in (("desk B=8", 8), ("desk B=40", 40)):
        rng = np.random.default_rng(0)
        shapes = [(int(rng.integers(8, 15)), int(rng.integers(3, 9))) for _ in range(B)]
        out[name] = lattices(shapes, MODEL_DIMS[2], rng)
    return out


def padded(items):
    cols = kernels.PaddedColumns([l.shape[0] for l, _, _ in items], [y.size for _, y, _ in items])
    lam = np.zeros((len(items), cols.blank.shape[2] - 1))
    for b, (logp, labels, lam_b) in enumerate(items):
        cols.put(b, logp, labels)
        lam[b, : labels.size] = lam_b
    return cols, lam, np.ones(len(items))


def verify(name, items):
    """Check the batched kernels on one padded batch: tables and gradients
    equal to the per-cell loops, the log-likelihood within ``TOL`` of
    ``backward_fill``'s and the unit-weight gradient within ``TOL`` of the
    oracle occupancy gradient.  Exit on failure; return the padded batch."""
    cols, lam, fb = padded(items)
    sweep = cols.sweep()
    g_blank, g_emit = cols.grad(sweep, lam, fb)
    g_unit = cols.grad(sweep, np.where(lam > 0, 1.0, 0.0), fb)
    ll_gap = grad_gap = 0.0
    for b, (logp, labels, lam_b) in enumerate(items):
        T, W = logp.shape[0], labels.size + 1
        ref = emission_sweep_scalar(logp, labels)
        batched = (kernels.grid(sweep[0], b, T, W), kernels.grid(sweep[1], b, T, W), sweep[2][b, :W], sweep[3][b])
        if not all(np.array_equal(x, r) for x, r in zip(batched, ref)):
            raise SystemExit(f"{name}, utterance {b}: batched emission sweep differs from the per-cell loop")
        g_ref = weighted_grad_scalar(logp, labels, *ref, lam_b, 1.0)
        if not np.array_equal(kernels.dense_grad(g_blank, g_emit, b, T, labels, logp.shape[2]), g_ref):
            raise SystemExit(f"{name}, utterance {b}: batched weighted gradient differs from the per-cell loop")
        ll_gap = max(ll_gap, abs(sweep[3][b] - kernels.backward_fill(logp, labels)[1]))
        unit = kernels.dense_grad(*g_unit, b, T, labels, logp.shape[2])
        grad_gap = max(grad_gap, float(np.max(np.abs(unit + loglik_grad(PosteriorLattice(logp), labels)))))
    gaps = {"loglik vs backward_fill": ll_gap, "unit-weight grad vs oracle occupancy": grad_gap}
    check(f"{name}, batched == per-cell loops exactly", gaps, TOL)
    return cols, lam, fb


def dp_section(args):
    rows = []
    for name, items in dp_batches(args).items():
        cols, lam, fb = verify(name, items)
        sweep = cols.sweep()
        n, D = len(items), cols.blank.shape[0]
        step = time_call(lambda: padded_loss_and_grad(cols, lam, fb), args.repeats) * 1e6
        for kernel, fn in (("emission_sweep", cols.sweep), ("weighted_grad", lambda: cols.grad(sweep, lam, fb))):
            seconds = time_call(fn, args.repeats)
            rows.append((name, kernel, seconds / n * 1e6, seconds / D * 1e6, step))
    title = (f"DP kernels, {args.repeats} repeats, microseconds; lattices up to T={args.frames} U={args.labels} "
             f"over |V|={args.vocab}, and desk lattices; DP step = sweep, losses and gradient of the batch")
    return title, ["batch", "kernel", "us/utt", "us/diag", "DP step"], rows


def model_batch(T, U, seed=0):
    """A seeded model and BATCH utterances of about T frames and U labels."""
    rng = np.random.default_rng(seed)
    D, H, V = MODEL_DIMS
    model = TransducerModel.random(D, H, V, rng)
    feats, tokens = [], []
    for _ in range(BATCH):
        feats.append(rng.normal(size=(int(rng.integers(3 * T // 4, 5 * T // 4 + 1)), D)))
        tokens.append(rng.integers(0, V, size=int(rng.integers(3 * U // 4, 5 * U // 4 + 1))))
    return model, feats, tokens


def verify_model(name, model, feats, tokens):
    """Check the grouped forward and backward of one batch: columns within
    ``MODEL_TOL`` of ``model_forward``'s, and the gradient of its standard
    loss within ``MODEL_TOL`` of the sum of ``model_backward``'s, relative to
    its largest entry.  Exit on failure; return the column gradients."""
    layout, keep = BatchLayout(model, feats, tokens), StepActivations(model)
    cols = forward_columns(model, layout, keep=keep)
    lam = (np.arange(layout.U.max()) < layout.U[:, None]).astype(np.float64)
    _, g_blank, g_emit = padded_loss_and_grad(cols, lam, np.ones(len(feats)))
    ref = kernels.PaddedColumns(layout.T, layout.U)
    for b, (f, y) in enumerate(zip(feats, tokens)):
        ref.put(b, model_forward(model, f, y).logp, y)
    col_gap = 0.0
    for got, want in ((cols.blank, ref.blank), (cols.emit, ref.emit)):
        owned = np.isfinite(want)
        if not np.array_equal(owned, np.isfinite(got)):
            raise SystemExit(f"{name}: grouped columns are padded differently")
        col_gap = max(col_gap, float(np.max(np.abs(got[owned] - want[owned]), initial=0.0)))
    grad = backward_columns(model, layout, g_blank, g_emit, keep)
    want = sum(
        model_backward(model, f, y, kernels.dense_grad(g_blank, g_emit, b, len(f), y, model.vocab_size + 1))
        for b, (f, y) in enumerate(zip(feats, tokens))
    )
    grad_gap = float(np.max(np.abs(grad - want)) / np.max(np.abs(want)))
    check(f"{name}, grouped vs per-utterance", {"column": col_gap, "relative gradient": grad_gap}, MODEL_TOL)
    return g_blank, g_emit


def time_passes(model, feats, tokens, g_blank, g_emit, repeats):
    """Seconds per call of the forward (layout included) and of the backward
    that follows it, timed apart over the same calls after one warmup."""
    keep, forward, backward = StepActivations(model), 0.0, 0.0
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        layout = BatchLayout(model, feats, tokens)
        forward_columns(model, layout, keep=keep)
        t1 = time.perf_counter()
        backward_columns(model, layout, g_blank, g_emit, keep)
        if i:
            forward, backward = forward + t1 - t0, backward + time.perf_counter() - t1
    return forward / repeats, backward / repeats


def model_section(args):
    rows = []
    for name, (T, U) in MODEL_BATCHES.items():
        model, feats, tokens = model_batch(T, U)
        g_blank, g_emit = verify_model(name, model, feats, tokens)
        forward, backward = time_passes(model, feats, tokens, g_blank, g_emit, args.repeats)
        layout = BatchLayout(model, feats, tokens)
        joins_per_node = layout.join_frame.size / layout.frame.size
        rows.append((name, forward / BATCH * 1e6, backward / BATCH * 1e6, joins_per_node))
    title = (f"grouped model forward (layout included) and backward, B={BATCH}, dims (D, H, |V|) = {MODEL_DIMS}, "
             f"{args.repeats} repeats; joins/node = joiner rows (b, t, previous token) per lattice node")
    return title, ["batch", "forward us/utt", "backward us/utt", "joins/node"], rows


def scored(name, seeds, seed):
    """The utterances of the ``name`` model batches of ``seeds``, with seeded
    confidences."""
    rng, pairs = np.random.default_rng(seed), []
    for s in seeds:
        pairs += zip(*model_batch(*MODEL_BATCHES[name], seed=s)[1:])
    return [Utterance(f"u{i}", f, y, rng.uniform(0.05, 1.0, size=y.size)) for i, (f, y) in enumerate(pairs)]


def verify_step(name, models, corpus, utts, idx, kept):
    """Check one stacked training step: each run's loss and gradient within
    ``MODEL_TOL`` (relative) of the per-utterance passes under the weights
    of ``references.CorpusWeights``.  Exit on failure."""
    grad = np.empty((len(models), models[0].params.size))
    losses = _batch_loss_and_grad(models, [(corpus, idx)], grad, kept)
    U = np.array([utts[i].tokens.size for i in idx])
    lam, w_fb = np.zeros((len(models), idx.size, U.max())), np.empty((len(models), idx.size))
    CorpusWeights(utts, corpus.cfgs).weights(idx, U, lam, w_fb)
    loss_gap = grad_gap = 0.0
    for k, model in enumerate(models):
        loss, want = 0.0, np.zeros_like(model.params)
        for b, i in enumerate(idx):
            f, y = utts[i].features, utts[i].tokens
            weights = TokenWeights(lam[k, b, : y.size], WeightConfig(final_blank_weight=w_fb[k, b]))
            loss_b, dlogp = weighted_loss_and_grad(model_forward(model, f, y), y, weights)
            loss += loss_b
            want += model_backward(model, f, y, dlogp)
        loss, want = loss / U.sum(), want / U.sum()
        loss_gap = max(loss_gap, abs(losses[k] - loss) / abs(loss))
        grad_gap = max(grad_gap, float(np.max(np.abs(grad[k] - want)) / np.max(np.abs(want))))
    gaps = {"relative loss": loss_gap, "relative gradient": grad_gap}
    check(f"{name}, stacked step vs per-utterance", gaps, MODEL_TOL)


def step_section(args):
    """Verify on the first batch, then time on 10, stacked steps of criterion
    8's runs (standard; utterance and token weighting at alpha 2 and 6) on 64
    desk utterances, and of the standard run on 8 long ones."""
    D, H, V = MODEL_DIMS
    init = TransducerModel.random(D, H, V, stream(0, "init"))
    desk, long = scored("desk T~11 U~6", range(8), 9), scored("long T~75 U~25", [11], 12)
    base = TrainConfig(batch_size=BATCH, dim_hidden=H)
    cfgs = [base] + [replace(base, mode=m, alpha=a) for m in ("utterance_weights", "token_weights") for a in (2.0, 6.0)]
    rng = np.random.default_rng(10)
    rows = []
    for name, K, utts in (("desk", 1, desk), ("desk", 5, desk), ("long", 1, long)):
        batches = [rng.permutation(len(utts))[:BATCH] for _ in range(10)]
        models = [TransducerModel(D, H, V, init.params.copy()) for _ in range(K)]
        corpus = _Corpus(models[0], utts, cfgs[:K])
        kept, grad = [StepActivations(model) for model in models], np.empty((K, init.params.size))
        verify_step(f"{name} K={K}", models, corpus, utts, batches[0], kept)

        def steps():
            for idx in batches:
                _batch_loss_and_grad(models, [(corpus, idx)], grad, kept)

        rows.append((name, f"K={K}", time_call(steps, args.repeats) / len(batches) * 1e6))
    return f"stacked training steps of B={BATCH}, {args.repeats} repeats of 10", ["batch", "runs", "us/step"], rows


def score_section(args):
    """Verify, then time, scoring each model batch: every confidence within
    ``MODEL_TOL`` of the per-utterance profile's.  Not equal, since BLAS may
    round a row differently in a product of another height."""
    rows = []
    for name, (T, U) in MODEL_BATCHES.items():
        model, feats, tokens = model_batch(T, U)
        utts = [Utterance(f"u{i}", f, y) for i, (f, y) in enumerate(zip(feats, tokens))]
        gap = max(
            float(np.max(np.abs(u.confidences - conditional_profile(model_forward(model, f, y), y).conditionals)))
            for u, f, y in zip(score_confidences(model, utts), feats, tokens)
        )
        check(f"{name}, score_confidences vs per-utterance conditional_profile", {"confidence": gap}, MODEL_TOL)
        rows.append((name, time_call(lambda: score_confidences(model, utts), args.repeats) / BATCH * 1e6))
    return f"confidence scoring, B={BATCH}, {args.repeats} repeats", ["batch", "us/utt"], rows


def _generate(spec, split, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = generate_synthetic_dataset(replace(spec, **{f"n_{split}": n}), tmp)[split]
        return read_dataset(path)[1]


def decode_cases():
    """(name, model, features list) of each case: a criterion 8 teacher of 60
    desk utterances decodes 60 more and 10 long ones (T ~ 75), and a random
    model whose blank logit is lowered by 3 emits at almost every step."""
    D, H, V = MODEL_DIMS
    desk = SyntheticSpec(n_train=0, n_valid=0, n_test=0, n_pretrain=0, dim_features=D, vocab_size=V, seed=3)
    long = replace(desk, min_tokens=20, max_tokens=30, min_frames_per_token=2, max_frames_per_token=4)
    cfg = TrainConfig(epochs=14, batch_size=BATCH, dim_hidden=H)
    teacher = train_model(_generate(desk, "pretrain", 60), D, V, cfg, stream(3, "init"), stream(3, "order")).model
    long_feats = [u.features for u in _generate(long, "test", 10)]
    saturated = TransducerModel.random(D, H, V, np.random.default_rng(4))
    saturated.slice("join_b")[V] -= 3.0
    return [
        ("desk utterances", teacher, [u.features for u in _generate(desk, "test", 60)]),
        ("long T~75", teacher, long_feats),
        ("saturated T~75", saturated, long_feats),
    ]


def decode_section(args):
    """Verify, then time, greedy decoding: every decode gives the tokens and
    ``clean`` flag of the frame-by-frame loop."""
    rows = []
    for name, net, feats in decode_cases():
        n_tokens = 0
        for f in feats:
            got, want = greedy_decode(net, f), reference_decode(net, f)
            if not (np.array_equal(got[0], want[0]) and got[1] == want[1]):
                raise SystemExit(f"{name}: greedy_decode differs from the frame-by-frame loop")
            n_tokens += got[0].size
        seconds = time_call(lambda: [greedy_decode(net, f) for f in feats], args.repeats)
        rows.append((name, n_tokens / len(feats), seconds / len(feats) * 1e6))
    print("decode: greedy_decode equals the frame-by-frame loop on every case")
    return f"greedy decoding, {args.repeats} repeats", ["case", "tokens", "us/utt"], rows


SECTIONS = (dp_section, model_section, step_section, score_section, decode_section)


def print_table(title, header, rows):
    """Text columns left-aligned, numbers right-aligned to one decimal, or
    two below 10."""
    cells = [header] + [[v if isinstance(v, str) else f"{v:.{1 if abs(v) >= 10 else 2}f}" for v in row]
                        for row in rows]
    widths = [max(map(len, column)) + 2 for column in zip(*cells)]
    text = [isinstance(v, str) for v in rows[0]]
    print(f"\n{title}\n")
    for i, row in enumerate(cells):
        print("".join(c.ljust(w) if t else c.rjust(w) for c, w, t in zip(row, widths, text)))
        if i == 0:
            print("-" * sum(widths))
    print()


def main():
    args = parse_args()
    for section in SECTIONS:
        print_table(*section(args))


if __name__ == "__main__":
    main()
