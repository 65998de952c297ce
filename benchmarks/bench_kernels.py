#!/usr/bin/env python3
"""Benchmark the DP kernels.

The batched emission sweep and weighted gradient run over padded batches
of B = 1 and B = 8 lattices of mixed size (at most --frames x --labels),
and are timed in microseconds per utterance next to the per-cell loops in
``tests/references.py`` that they replace.  The single-lattice calls, the backward fill
and the next-token distribution, are timed in milliseconds on the largest
lattice.  Next, the model layer: the grouped forward and backward
(``forward_columns``, ``backward_columns``) against ``model_forward`` and
``model_backward`` one utterance at a time, in microseconds per utterance,
on a desk batch (T ~ 11, U ~ 6) and a long batch (T ~ 75, U ~ 25) of 8.
Next, the per-step parts of a training run, before and after the run's
fixed facts are computed once, on a desk batch in microseconds per call: a
batch's layout from a packed corpus (``BatchLayout.of``) against packing
the batch itself (``BatchLayout(model, feats, toks)``), and ``metrics.wer``
against the double loop kept in ``tests/references.py``.  Then the lockstep line: the
five runs of one criterion 8 stream (standard, and utterance and token
weighting at alpha 2 and 6) on 64 desk utterances, as five ``train_model``
calls against one ``train_runs`` call, in microseconds per step of all five.
Then the kept-activations line: one stacked training step on a desk batch,
at K = 1 and K = 5 of those runs, with each run's backward reading the
joiner activations and softmax its forward kept (``model.StepActivations``)
against one that runs the network again, in microseconds and minor page
faults per step.  Last, greedy decoding: ``greedy_decode`` against the frame-by-frame loop kept
in ``tests/references.py``, in microseconds per utterance, on desk
utterances and long ones (T ~ 75) decoded by a trained teacher, and on the
long ones decoded by a random model that emits at almost every step.

Nothing is timed before it is verified.  On the B = 8 batch the batched
tables and gradients must equal the per-cell loops exactly, the
log-likelihood must match the backward table's, and the unit-weight
gradient must match the oracle occupancy gradient, both to 1e-9.  The
next-token distribution must sum to 1 within 1e-9.  The grouped model
passes must match the per-utterance ones to 1e-12 (columns absolutely,
the parameter gradient relative to its largest entry).  Each per-step pair
must give equal output: the same layout tables and the same WER counts on
500 random pairs; the lockstep runs must give
the solo runs' batch losses and parameters exactly; a step that keeps its
activations must give the losses and gradients of one that recomputes
them exactly; and every decode must
give the frame-by-frame loop's tokens and ``clean`` flag.  Run from the repo root:

    python3 benchmarks/bench_kernels.py [--frames 50 --labels 20 --vocab 32]
"""

import argparse
import resource
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from twrnnt import kernels
from twrnnt.conditionals import next_token_distribution
from twrnnt.datagen import SyntheticSpec, Utterance, generate_synthetic_dataset, read_dataset
from twrnnt.lattice import PosteriorLattice
from twrnnt.metrics import wer
from twrnnt.model import (
    BatchLayout,
    PackedUtterances,
    StepActivations,
    TransducerModel,
    backward_columns,
    forward_columns,
    greedy_decode,
    model_backward,
    model_forward,
)
from twrnnt.oracle import loglik_grad
from twrnnt.seeds import stream
from twrnnt.training import TrainConfig, _batch_loss_and_grad, _Corpus, train_model, train_runs
from twrnnt.weighting import padded_loss_and_grad

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from references import emission_sweep_scalar, weighted_grad_scalar  # noqa: E402
from references import greedy_decode as reference_decode  # noqa: E402
from references import wer_counts  # noqa: E402

TOL = 1e-9
MODEL_TOL = 1e-12
BATCH = 8
# The network of the benchmark's training workloads: 8 features, 32 hidden
# units, 16 tokens.
MODEL_DIMS = (8, 32, 16)
MODEL_BATCHES = {"desk T~11 U~6": (11, 6), "long T~75 U~25": (75, 25)}


def make_batch(T, U, V, B, seed=0):
    """B seeded softmax lattices; the first has the full size (T, U), the
    rest shrink by up to a quarter in each dimension."""
    rng = np.random.default_rng(seed)
    out = []
    for b in range(B):
        t = T if b == 0 else int(rng.integers(max(1, 3 * T // 4), T + 1))
        u = U if b == 0 else int(rng.integers(3 * U // 4, U + 1))
        raw = rng.normal(scale=1.5, size=(t, u + 1, V + 1))
        logp = raw - np.log(np.sum(np.exp(raw), axis=-1, keepdims=True))
        labels = rng.integers(0, V, size=u).astype(np.int64)
        lam = rng.uniform(0.5, 1.5, size=u)
        out.append((np.ascontiguousarray(logp), labels, lam))
    return out


def padded(items):
    cols = kernels.PaddedColumns([l.shape[0] for l, _, _ in items], [y.size for _, y, _ in items])
    lam = np.zeros((len(items), cols.emit.shape[2]))
    for b, (logp, labels, lam_b) in enumerate(items):
        cols.put(b, logp, labels)
        lam[b, : labels.size] = lam_b
    return cols, lam, np.ones(len(items))


def time_call(fn, repeats):
    fn()  # warmup
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def verify(items):
    """Check the batched kernels on one padded batch; exit on failure."""
    cols, lam, fb = padded(items)
    sweep = cols.sweep()
    g_blank, g_emit = cols.grad(sweep, lam, fb)
    g_unit = cols.grad(sweep, np.where(lam > 0, 1.0, 0.0), fb)
    ll_gap = grad_gap = 0.0
    for b, (logp, labels, lam_b) in enumerate(items):
        T, U = logp.shape[0], labels.size
        ref = emission_sweep_scalar(logp, labels)
        batched = (sweep[0][b, :T, : U + 1], sweep[1][b, :T, : U + 1], sweep[2][b, : U + 1], sweep[3][b])
        if not all(np.array_equal(x, r) for x, r in zip(batched, ref)):
            raise SystemExit(f"utterance {b}: batched emission sweep differs from the per-cell loop")
        g_ref = weighted_grad_scalar(logp, labels, *ref, lam_b, 1.0)
        dense = kernels.dense_grad(g_blank[b, :T], g_emit[b, :T], labels, logp.shape[2])
        if not np.array_equal(dense, g_ref):
            raise SystemExit(f"utterance {b}: batched weighted gradient differs from the per-cell loop")
        _, ll_b = kernels.backward_fill(logp, labels)
        ll_gap = max(ll_gap, abs(sweep[3][b] - ll_b))
        occupancy = loglik_grad(PosteriorLattice(logp), labels)
        unit = kernels.dense_grad(g_unit[0][b, :T], g_unit[1][b, :T], labels, logp.shape[2])
        grad_gap = max(grad_gap, float(np.max(np.abs(unit + occupancy))))
    print(
        f"B={len(items)}: batched == per-cell loops exactly; loglik vs backward_fill gap "
        f"{ll_gap:.1e}, unit-weight grad vs oracle occupancy gap {grad_gap:.1e}"
    )
    if not (ll_gap <= TOL and grad_gap <= TOL):
        raise SystemExit(f"batched kernels failed verification (tolerance {TOL})")


def batched_times(items, repeats):
    """Microseconds per utterance: the per-cell loops one lattice at a time,
    the batched kernels at B = 1 on each lattice, and at B = len(items)."""
    scalar = {"emission_sweep": 0.0, "weighted_grad": 0.0}
    single = {"emission_sweep": 0.0, "weighted_grad": 0.0}
    for logp, labels, lam in items:
        ref = emission_sweep_scalar(logp, labels)
        scalar["emission_sweep"] += time_call(lambda: emission_sweep_scalar(logp, labels), repeats)
        scalar["weighted_grad"] += time_call(
            lambda: weighted_grad_scalar(logp, labels, *ref, lam, 1.0), repeats
        )
        cols, lam1, fb = padded([(logp, labels, lam)])
        sweep = cols.sweep()
        single["emission_sweep"] += time_call(cols.sweep, repeats)
        single["weighted_grad"] += time_call(lambda: cols.grad(sweep, lam1, fb), repeats)
    cols, lam, fb = padded(items)
    sweep = cols.sweep()
    batch = {
        "emission_sweep": time_call(cols.sweep, repeats),
        "weighted_grad": time_call(lambda: cols.grad(sweep, lam, fb), repeats),
    }
    n = len(items)
    return {k: (scalar[k] / n * 1e6, single[k] / n * 1e6, batch[k] / n * 1e6) for k in scalar}


def model_batch(T, U, seed=0):
    """A seeded model, BATCH utterances of about T frames and U labels, and
    the unit-weight column gradients of their standard loss."""
    rng = np.random.default_rng(seed)
    D, H, V = MODEL_DIMS
    model = TransducerModel.random(D, H, V, rng)
    feats, tokens = [], []
    for _ in range(BATCH):
        feats.append(rng.normal(size=(int(rng.integers(3 * T // 4, 5 * T // 4 + 1)), D)))
        tokens.append(rng.integers(0, V, size=int(rng.integers(3 * U // 4, 5 * U // 4 + 1))))
    layout = BatchLayout(model, feats, tokens)
    lam = (np.arange(layout.U.max()) < layout.U[:, None]).astype(np.float64)
    _, g_blank, g_emit = padded_loss_and_grad(forward_columns(model, layout), lam, np.ones(BATCH))
    return model, feats, tokens, g_blank, g_emit


def dense_grads(model, feats, tokens, g_blank, g_emit):
    """Each utterance's column gradients as its dense lattice gradient."""
    return [
        kernels.dense_grad(g_blank[b, : len(f)], g_emit[b, : len(f)], y, model.vocab_size + 1)
        for b, (f, y) in enumerate(zip(feats, tokens))
    ]


def verify_model(name, model, feats, tokens, g_blank, g_emit):
    """Check the grouped model passes against the per-utterance ones; exit
    on failure."""
    layout = BatchLayout(model, feats, tokens)
    cols = forward_columns(model, layout)
    ref = kernels.PaddedColumns(layout.T, layout.U)
    for b, (f, y) in enumerate(zip(feats, tokens)):
        ref.put(b, model_forward(model, f, y).logp, y)
    col_gap = 0.0
    for got, want in ((cols.blank, ref.blank), (cols.emit, ref.emit)):
        owned = np.isfinite(want)
        if not np.array_equal(owned, np.isfinite(got)):
            raise SystemExit(f"{name}: grouped columns are padded differently")
        col_gap = max(col_gap, float(np.max(np.abs(got[owned] - want[owned]), initial=0.0)))
    grad = backward_columns(model, layout, g_blank, g_emit)
    dense = dense_grads(model, feats, tokens, g_blank, g_emit)
    want = sum(model_backward(model, f, y, d) for f, y, d in zip(feats, tokens, dense))
    grad_gap = float(np.max(np.abs(grad - want)) / np.max(np.abs(want)))
    print(
        f"{name}: grouped vs per-utterance column gap {col_gap:.1e}, "
        f"parameter gradient gap {grad_gap:.1e} (relative)"
    )
    if not (col_gap <= MODEL_TOL and grad_gap <= MODEL_TOL):
        raise SystemExit(f"grouped model passes failed verification (tolerance {MODEL_TOL})")


def model_times(model, feats, tokens, g_blank, g_emit, repeats):
    """Microseconds per utterance of one forward and one backward: per
    utterance, and grouped (the layout included)."""
    dense = dense_grads(model, feats, tokens, g_blank, g_emit)

    def per_utterance():
        for f, y, d in zip(feats, tokens, dense):
            model_forward(model, f, y)
            model_backward(model, f, y, d)

    def grouped():
        layout = BatchLayout(model, feats, tokens)
        forward_columns(model, layout)
        backward_columns(model, layout, g_blank, g_emit)

    n = len(feats)
    return time_call(per_utterance, repeats) / n * 1e6, time_call(grouped, repeats) / n * 1e6


def step_parts(repeats):
    """Verify, then time, the per-step parts on a desk batch: (name,
    seconds before, seconds after) per part."""
    T, U = MODEL_BATCHES["desk T~11 U~6"]
    model, feats, tokens, _, _ = model_batch(T, U)
    for seed in range(1, 8):
        _, f, y, _, _ = model_batch(T, U, seed=seed)
        feats += f
        tokens += y
    # A batch of a packed corpus of 64, with a repeat, as mixed batches have.
    idx = np.array([3, 17, 60, 22, 41, 5, 17, 50])
    packed = PackedUtterances(model, feats, tokens)
    batch = ([feats[i] for i in idx], [tokens[i] for i in idx])
    packed_layout = vars(BatchLayout.of(packed, idx))
    for name, value in vars(BatchLayout(model, *batch)).items():
        other = packed_layout[name]
        if not (value == other if name == "groups" else np.array_equal(value, other)):
            raise SystemExit(f"layout from the packed corpus differs in {name!r}")

    rng = np.random.default_rng(0)
    for _ in range(500):
        hyp = rng.integers(0, 5, size=rng.integers(0, 12))
        ref = rng.integers(0, 5, size=rng.integers(1, 12))
        r = wer(hyp, ref)
        if (r.substitutions, r.insertions, r.deletions) != wer_counts(hyp, ref):
            raise SystemExit(f"wer counts differ from the double loop on hyp={hyp}, ref={ref}")
    print("per-step parts: packed layout and wer equal their references")

    # A desk transcript pair: 6 reference tokens, a hypothesis of 7 with one
    # insertion and one substitution.
    ref = rng.integers(0, MODEL_DIMS[2], size=6)
    hyp = np.insert(ref, 2, ref[4])
    hyp[5] = (hyp[5] + 1) % MODEL_DIMS[2]
    return [
        ("layout", time_call(lambda: BatchLayout(model, *batch), repeats),
         time_call(lambda: BatchLayout.of(packed, idx), repeats)),
        (f"wer {ref.size}x{hyp.size}", time_call(lambda: wer_counts(hyp, ref), repeats),
         time_call(lambda: wer(hyp, ref), repeats)),
    ]


def criterion_8_runs():
    """64 scored desk utterances and the configs of the five runs of one
    criterion 8 stream."""
    T, U = MODEL_BATCHES["desk T~11 U~6"]
    rng = np.random.default_rng(9)
    utts = []
    for seed in range(8):
        _, feats, tokens, _, _ = model_batch(T, U, seed=seed)
        utts += [
            Utterance(f"u{len(utts) + i}", f, y, confidences=rng.uniform(0.05, 1.0, size=y.size))
            for i, (f, y) in enumerate(zip(feats, tokens))
        ]
    base = TrainConfig(epochs=2, batch_size=BATCH, dim_hidden=MODEL_DIMS[1])
    cfgs = [base] + [
        replace(base, mode=mode, alpha=alpha)
        for mode in ("utterance_weights", "token_weights")
        for alpha in (2.0, 6.0)
    ]
    return utts, cfgs


def lockstep(repeats):
    """Verify, then time, the five runs of one criterion 8 stream: (steps
    per run, median seconds solo, median seconds lockstep)."""
    utts, cfgs = criterion_8_runs()
    D, _, V = MODEL_DIMS

    def solo():
        return [train_model(utts, D, V, c, stream(0, "init"), stream(0, "order")) for c in cfgs]

    def stacked():
        return train_runs(utts, D, V, cfgs, stream(0, "init"), stream(0, "order"))

    for cfg, a, b in zip(cfgs, solo(), stacked()):
        if a.batch_losses != b.batch_losses or not np.array_equal(a.model.params, b.model.params):
            raise SystemExit(f"lockstep run ({cfg.mode}, alpha {cfg.alpha}) differs from its solo run")
    print(f"lockstep: {len(cfgs)} runs in one train_runs call equal their solo runs exactly")
    steps = len(stacked()[0].batch_losses)
    # Alternate the two and take medians: a run takes a tenth of a second,
    # long enough for a shared host's load to shift between calls.
    times = np.array([[time_call(fn, 1) for fn in (solo, stacked)] for _ in range(repeats)])
    return (steps, *np.median(times, axis=0))


def kept_steps(repeats):
    """Verify, then time, stacked desk training steps whose backward reads
    the forward's kept activations, against steps that run the network
    again: per K in (1, 5), (K, median seconds and minor page faults per
    step recomputed, the same kept)."""
    utts, cfgs = criterion_8_runs()
    D, H, V = MODEL_DIMS
    init = TransducerModel.random(D, H, V, stream(0, "init"))
    rng = np.random.default_rng(10)
    batches = [rng.permutation(len(utts))[:BATCH] for _ in range(50)]
    out = []
    for K in (1, 5):
        models = [TransducerModel(D, H, V, init.params.copy()) for _ in range(K)]
        corpus = _Corpus(models[0], utts, cfgs[:K])
        kept = [StepActivations(model) for model in models]
        grad, want = np.empty((K, init.params.size)), np.empty((K, init.params.size))
        for idx in batches:
            losses = _batch_loss_and_grad(models, corpus, idx, grad, kept)
            if losses != _batch_loss_and_grad(models, corpus, idx, want) or not np.array_equal(grad, want):
                raise SystemExit(f"K={K}: a step with kept activations differs from one without")

        def steps(keep):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            for idx in batches:
                _batch_loss_and_grad(models, corpus, idx, grad, keep)
            seconds = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            return seconds / len(batches), faults / len(batches)

        # Alternate the two and take medians, as in the lockstep line.
        runs = np.array([[steps(keep) for keep in (None, kept)] for _ in range(repeats)])
        out.append((K, *np.median(runs, axis=0)))
    print("kept activations: every step equals its recomputed step exactly, at K = 1 and K = 5")
    return out


def _generate(spec, split, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = generate_synthetic_dataset(replace(spec, **{f"n_{split}": n}), tmp)[split]
        return read_dataset(path)[1]


def decode_cases():
    """Three decode inputs, (name, model, features list): a teacher trained
    with the criterion 8 teacher recipe on 60 desk utterances decodes
    60 more and 10 long ones (T ~ 75) of the same token prototypes, and a
    random model whose blank logit is lowered by 3 emits at almost every
    (frame, symbol) step of 10 long feature sequences."""
    D, H, V = MODEL_DIMS
    desk = SyntheticSpec(
        n_train=0, n_valid=0, n_test=0, n_pretrain=0, dim_features=D, vocab_size=V, seed=3
    )
    long = replace(desk, min_tokens=20, max_tokens=30, min_frames_per_token=2, max_frames_per_token=4)
    pretrain = _generate(desk, "pretrain", 60)
    cfg = TrainConfig(epochs=14, batch_size=BATCH, dim_hidden=H)
    teacher = train_model(pretrain, D, V, cfg, stream(3, "init"), stream(3, "order")).model
    long_feats = [u.features for u in _generate(long, "test", 10)]
    saturated = TransducerModel.random(D, H, V, np.random.default_rng(4))
    saturated.slice("join_b")[V] -= 3.0
    return [
        ("desk utterances", teacher, [u.features for u in _generate(desk, "test", 60)]),
        ("long T~75", teacher, long_feats),
        ("saturated T~75", saturated, long_feats),
    ]


def decode_times(cases, repeats):
    """Verify, then time, greedy decoding against the frame-by-frame loop:
    (name, tokens per utterance, seconds per utterance before, after)."""
    out = []
    for name, net, feats in cases:
        n_tokens = 0
        for f in feats:
            got, want = greedy_decode(net, f), reference_decode(net, f)
            if not (np.array_equal(got[0], want[0]) and got[1] == want[1]):
                raise SystemExit(f"{name}: greedy_decode differs from the frame-by-frame loop")
            n_tokens += got[0].size
        # Alternate the two and take medians, as in the lockstep line.
        times = np.array([
            [time_call(lambda: [fn(net, f) for f in feats], 1) for fn in (reference_decode, greedy_decode)]
            for _ in range(repeats)
        ])
        out.append((name, n_tokens / len(feats), *(np.median(times, axis=0) / len(feats))))
    print("decode: greedy_decode equals the frame-by-frame loop on every case")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=50)
    parser.add_argument("--labels", type=int, default=20)
    parser.add_argument("--vocab", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()

    items = make_batch(args.frames, args.labels, args.vocab, BATCH)
    verify(items)
    logp, labels, _ = items[0]
    lat, level = PosteriorLattice(logp), args.labels // 2
    calls = {
        "backward_fill": lambda: kernels.backward_fill(logp, labels),
        "next_token_distribution": lambda: next_token_distribution(lat, labels[:level], level + 1),
    }
    total = float(np.sum(calls["next_token_distribution"]()))
    if abs(total - 1.0) > TOL:
        raise SystemExit(f"next-token distribution sums to {total!r}, not 1 within {TOL}")
    print(f"next-token distribution at u={level + 1} sums to 1 (gap {abs(total - 1.0):.1e})")

    print(
        f"\nbatched kernels, lattices up to T={args.frames} U={args.labels} "
        f"|V|={args.vocab}, {args.repeats} repeats, microseconds per utterance\n"
    )
    header = f"{'kernel':<20}{'per-cell loop':>15}{'B=1':>10}{f'B={BATCH}':>10}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, (scalar, single, batch) in batched_times(items, args.repeats).items():
        print(f"{name:<20}{scalar:>15.0f}{single:>10.0f}{batch:>10.0f}{scalar / batch:>9.1f}x")

    print(f"\nsingle-lattice calls, T={args.frames} U={args.labels}, milliseconds\n")
    header = f"{'call':<25}{'ms':>10}"
    print(header)
    print("-" * len(header))
    for name, fn in calls.items():
        print(f"{name:<25}{time_call(fn, args.repeats) * 1e3:>10.3f}")

    batches = {name: model_batch(T, U) for name, (T, U) in MODEL_BATCHES.items()}
    print()
    for name, batch in batches.items():
        verify_model(name, *batch)
    print(
        f"\nmodel forward + backward, B={BATCH}, dims (D, H, |V|) = {MODEL_DIMS}, "
        f"{args.repeats} repeats, microseconds per utterance\n"
    )
    header = f"{'batch':<20}{'per-utterance':>15}{'grouped':>10}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, batch in batches.items():
        single, grouped = model_times(*batch, args.repeats)
        print(f"{name:<20}{single:>15.0f}{grouped:>10.0f}{single / grouped:>9.1f}x")

    print()
    parts = step_parts(max(args.repeats, 1000))
    print(f"\nper-step parts on a desk batch of {BATCH}, microseconds per call\n")
    header = f"{'part':<20}{'before':>10}{'after':>10}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, before, after in parts:
        print(f"{name:<20}{before * 1e6:>10.1f}{after * 1e6:>10.1f}{before / after:>9.1f}x")

    print()
    steps, solo, stacked = lockstep(max(5, args.repeats // 5))
    print(
        f"\nfive desk runs of {steps} steps, microseconds per step of all five: "
        f"solo {solo / steps * 1e6:.0f}, lockstep {stacked / steps * 1e6:.0f}, "
        f"{solo / stacked:.2f}x"
    )

    print()
    repeats = max(5, args.repeats // 3)
    rows = kept_steps(repeats)
    print(
        f"\ndesk training steps, median of {repeats} alternating repeats of 50 steps, per step\n"
    )
    header = f"{'runs':<8}{'recomputed us':>15}{'kept us':>10}{'speedup':>10}{'faults':>10}{'kept':>8}"
    print(header)
    print("-" * len(header))
    for K, (before, faults_before), (after, faults_after) in rows:
        print(
            f"K={K:<6}{before * 1e6:>15.0f}{after * 1e6:>10.0f}{before / after:>9.2f}x"
            f"{faults_before:>10.1f}{faults_after:>8.1f}"
        )

    print()
    rows = decode_times(decode_cases(), repeats)
    print(f"\ngreedy decoding, median of {repeats} alternating repeats, microseconds per utterance\n")
    header = f"{'case':<20}{'tokens':>8}{'frame loop':>12}{'run-ahead':>11}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, tokens, before, after in rows:
        print(f"{name:<20}{tokens:>8.1f}{before * 1e6:>12.0f}{after * 1e6:>11.0f}{before / after:>9.2f}x")


if __name__ == "__main__":
    main()
