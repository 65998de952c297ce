#!/usr/bin/env python3
"""Benchmark the DP kernels.

The batched emission sweep and weighted gradient run over diagonal-major
padded batches (``kernels.PaddedColumns``) of B = 8 lattices of mixed size
(at most --frames x --labels), and of B = 8 and B = 40 lattices of the
desk shapes of the benchmark's ``corruption`` workload (T ~ 11, U ~ 5.5,
16 tokens; B = 40 is a lockstep step of its five runs).  Each kernel is
timed in microseconds per utterance at B = 1 on each lattice and on the
whole batch, next to the per-cell loops in ``tests/references.py`` that
they replace, and per diagonal of the whole batch (each sweep steps once
per anti-diagonal), and each batch's DP step (sweep, losses and gradient,
``weighting.padded_loss_and_grad``) in microseconds.  The single-lattice
calls, the backward fill and the next-token distribution, are timed in
milliseconds on the largest lattice.  Next, the model layer: the grouped forward and backward
(``forward_columns``, ``backward_columns``) against ``model_forward`` and
``model_backward`` one utterance at a time, in microseconds per utterance,
on a desk batch (T ~ 11, U ~ 6) and a long batch (T ~ 75, U ~ 25) of 8.
Next, the per-step parts of a training run, before and after the run's
fixed facts are computed once, on a desk batch in microseconds per call: a
batch's layout from a packed corpus (``BatchLayout.of``) against packing
the batch itself (``BatchLayout(model, feats, toks)``), a step's token and
utterance weights for two runs of each mode (``training._Corpus.weights``)
against the per-row loop kept in ``tests/references.py``
(``CorpusWeights``), and ``metrics.wer`` against the double loop kept
there.  Then the lockstep line: the
five runs of one criterion 8 stream (standard, and utterance and token
weighting at alpha 2 and 6) on 64 desk utterances, as five ``train_model``
calls against one ``train_runs`` call, in microseconds per step of all five.
Then the lockstep-across-streams line: the teacher (14 epochs on 66 desk
utterances, 126 steps) and clean run (10 epochs on 78, 100 steps) of the
benchmark's ``corruption`` recipe, two run groups with their own corpora
and streams, as two ``train_model`` calls against one ``train_runs`` call,
in milliseconds.
Then the kept-activations line: one stacked training step on a desk batch,
at K = 1 and K = 5 of those runs, and one K = 1 step on a batch of 8 long
lattices (T ~ 75, U ~ 25), with each run's forward keeping the row softmax
and joiner activations that its backward reads in buffers held for the run
(``model.StepActivations``) against fresh buffers at every step, in
microseconds and minor page faults per step, and the kilobytes each run
keeps; and the row softmax that such a
forward keeps, along the transposed rows (``model._kept_softmax``) against
the plain row softmax along rows of V + 1 (``softmax`` in
``tests/references.py``), on the first node group of the desk and the long
batch, in microseconds; and on the same groups, the log-normaliser of
scoring's forward, ``_kept_softmax`` keeping nothing, against
``lattice._row_logsumexp``.  Last, greedy decoding:
``greedy_decode`` against the frame-by-frame loop kept in
``tests/references.py``, in microseconds per utterance, on desk
utterances and long ones (T ~ 75) decoded by a trained teacher, and on the
long ones decoded by a random model that emits at almost every step.

Nothing is timed before it is verified.  On every DP batch the batched
tables and gradients must equal the per-cell loops exactly, the
log-likelihood must match the backward table's, and the unit-weight
gradient must match the oracle occupancy gradient, both to 1e-9.  The
next-token distribution must sum to 1 within 1e-9.  The grouped model
passes must match the per-utterance ones to 1e-12 (columns absolutely,
the parameter gradient relative to its largest entry).  Each per-step pair
must give equal output: the same layout tables, the same weights, and the
same WER counts on 500 random pairs; the lockstep runs, and the two streams trained in one
call, must give the solo runs' batch losses and parameters exactly; a step that keeps its
activations in buffers held for the run must give the losses and gradients of one
that keeps them in fresh buffers exactly, the kept softmax that of the plain one, and scoring's
log-normaliser that of ``_row_logsumexp``; and every decode must
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
from twrnnt.lattice import PosteriorLattice, _row_logsumexp
from twrnnt.metrics import wer
from twrnnt.model import (
    BatchLayout,
    PackedUtterances,
    StepActivations,
    TransducerModel,
    _encode,
    _join,
    _kept_softmax,
    _work,
    backward_columns,
    forward_columns,
    greedy_decode,
    model_forward,
)
from twrnnt.seeds import stream
from twrnnt.training import (
    RunGroup,
    TrainConfig,
    _batch_loss_and_grad,
    _Corpus,
    train_model,
    train_runs,
)
from twrnnt.weighting import padded_loss_and_grad

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from references import CorpusWeights, emission_sweep_scalar, softmax, weighted_grad_scalar  # noqa: E402
from references import loglik_grad, model_backward  # noqa: E402
from references import greedy_decode as reference_decode  # noqa: E402
from references import wer_counts  # noqa: E402

TOL = 1e-9
MODEL_TOL = 1e-12
BATCH = 8
# The network of the benchmark's training workloads: 8 features, 32 hidden
# units, 16 tokens.
MODEL_DIMS = (8, 32, 16)
MODEL_BATCHES = {"desk T~11 U~6": (11, 6), "long T~75 U~25": (75, 25)}
# Lattices of the ``corruption`` workload's desk data: T in 8..14 and U in
# 3..8 (means 11 and 5.5) over 16 tokens, in batches of 8 and of 40.
DESK_DP = {"desk B=8": 8, "desk B=40": 40}


def make_batch(T, U, V, B, seed=0):
    """B seeded softmax lattices; the first has the full size (T, U), the
    rest shrink by up to a quarter in each dimension."""
    rng = np.random.default_rng(seed)
    shapes = [(T, U)] + [
        (int(rng.integers(max(1, 3 * T // 4), T + 1)), int(rng.integers(3 * U // 4, U + 1)))
        for _ in range(B - 1)
    ]
    return lattices(shapes, V, rng)


def desk_batch(B, seed=0):
    """B seeded softmax lattices of the desk shapes (``DESK_DP``)."""
    rng = np.random.default_rng(seed)
    shapes = [(int(rng.integers(8, 15)), int(rng.integers(3, 9))) for _ in range(B)]
    return lattices(shapes, MODEL_DIMS[2], rng)


def lattices(shapes, V, rng):
    """(logp, labels, token weights) of seeded softmax lattices of the given
    (T, U) shapes."""
    out = []
    for t, u in shapes:
        raw = rng.normal(scale=1.5, size=(t, u + 1, V + 1))
        logp = raw - np.log(np.sum(np.exp(raw), axis=-1, keepdims=True))
        labels = rng.integers(0, V, size=u).astype(np.int64)
        lam = rng.uniform(0.5, 1.5, size=u)
        out.append((np.ascontiguousarray(logp), labels, lam))
    return out


def padded(items):
    cols = kernels.PaddedColumns([l.shape[0] for l, _, _ in items], [y.size for _, y, _ in items])
    lam = np.zeros((len(items), cols.blank.shape[2] - 1))
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


def verify(name, items):
    """Check the batched kernels on one padded batch; exit on failure."""
    cols, lam, fb = padded(items)
    sweep = cols.sweep()
    g_blank, g_emit = cols.grad(sweep, lam, fb)
    g_unit = cols.grad(sweep, np.where(lam > 0, 1.0, 0.0), fb)
    ll_gap = grad_gap = 0.0
    for b, (logp, labels, lam_b) in enumerate(items):
        T, U = logp.shape[0], labels.size
        ref = emission_sweep_scalar(logp, labels)
        batched = (
            kernels.grid(sweep[0], b, T, U + 1),
            kernels.grid(sweep[1], b, T, U + 1),
            sweep[2][b, : U + 1],
            sweep[3][b],
        )
        if not all(np.array_equal(x, r) for x, r in zip(batched, ref)):
            raise SystemExit(f"{name}, utterance {b}: batched emission sweep differs from the per-cell loop")
        g_ref = weighted_grad_scalar(logp, labels, *ref, lam_b, 1.0)
        dense = kernels.dense_grad(g_blank, g_emit, b, T, labels, logp.shape[2])
        if not np.array_equal(dense, g_ref):
            raise SystemExit(f"{name}, utterance {b}: batched weighted gradient differs from the per-cell loop")
        _, ll_b = kernels.backward_fill(logp, labels)
        ll_gap = max(ll_gap, abs(sweep[3][b] - ll_b))
        occupancy = loglik_grad(PosteriorLattice(logp), labels)
        unit = kernels.dense_grad(*g_unit, b, T, labels, logp.shape[2])
        grad_gap = max(grad_gap, float(np.max(np.abs(unit + occupancy))))
    print(
        f"{name}: batched == per-cell loops exactly; loglik vs backward_fill gap "
        f"{ll_gap:.1e}, unit-weight grad vs oracle occupancy gap {grad_gap:.1e}"
    )
    if not (ll_gap <= TOL and grad_gap <= TOL):
        raise SystemExit(f"batched kernels failed verification (tolerance {TOL})")


def batched_times(items, repeats):
    """Microseconds per utterance: the per-cell loops one lattice at a time,
    the batched kernels at B = 1 on each lattice, and at B = len(items),
    and per diagonal of the whole batch; and microseconds per DP step on the
    whole batch."""
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
    step = time_call(lambda: padded_loss_and_grad(cols, lam, fb), repeats)
    n, D = len(items), cols.blank.shape[0]
    per_kernel = {
        k: (scalar[k] / n * 1e6, single[k] / n * 1e6, batch[k] / n * 1e6, batch[k] / D * 1e6)
        for k in scalar
    }
    return per_kernel, step * 1e6


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
        kernels.dense_grad(g_blank, g_emit, b, len(f), y, model.vocab_size + 1)
        for b, (f, y) in enumerate(zip(feats, tokens))
    ]


def verify_model(name, model, feats, tokens, g_blank, g_emit):
    """Check the grouped model passes against the per-utterance ones; exit
    on failure."""
    layout = BatchLayout(model, feats, tokens)
    keep = StepActivations(model)
    cols = forward_columns(model, layout, keep=keep)
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
    keep = StepActivations(model)

    def per_utterance():
        for f, y, d in zip(feats, tokens, dense):
            model_forward(model, f, y)
            model_backward(model, f, y, d)

    def grouped():
        layout = BatchLayout(model, feats, tokens)
        forward_columns(model, layout, keep=keep)
        backward_columns(model, layout, g_blank, g_emit, keep)

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

    # The weights of the same batch of 64 scored desk utterances, for the
    # two runs of each weighted mode of a criterion 8 stream.
    utts, cfgs = criterion_8_runs()
    weights = []
    for mode in ("token_weights", "utterance_weights"):
        runs = [cfg for cfg in cfgs if cfg.mode == mode]
        corpus, reference = _Corpus(model, utts, runs), CorpusWeights(utts, runs)
        layout = BatchLayout.of(corpus.packed, idx)
        shape = (len(runs), idx.size, int(layout.U.max()))
        got, want = (np.zeros(shape), np.empty(shape[:2])), (np.zeros(shape), np.empty(shape[:2]))
        corpus.weights(idx, layout, *got)
        reference.weights(idx, layout.U, *want)
        if not all(np.array_equal(a, b) for a, b in zip(got, want)):
            raise SystemExit(f"{mode}: a step's weights differ from the reference loop's")
        weights.append((
            f"weights {mode.split('_')[0]}",
            time_call(lambda: reference.weights(idx, layout.U, *want), repeats),
            time_call(lambda: corpus.weights(idx, layout, *got), repeats),
        ))
    print("per-step parts: packed layout, weights and wer equal their references")

    # A desk transcript pair: 6 reference tokens, a hypothesis of 7 with one
    # insertion and one substitution.
    ref = rng.integers(0, MODEL_DIMS[2], size=6)
    hyp = np.insert(ref, 2, ref[4])
    hyp[5] = (hyp[5] + 1) % MODEL_DIMS[2]
    return [
        ("layout", time_call(lambda: BatchLayout(model, *batch), repeats),
         time_call(lambda: BatchLayout.of(packed, idx), repeats)),
        *weights,
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
        return train_runs([RunGroup(utts, cfgs, stream(0, "init"), stream(0, "order"))], D, V)[0]

    for cfg, a, b in zip(cfgs, solo(), stacked()):
        if a.batch_losses != b.batch_losses or not np.array_equal(a.model.params, b.model.params):
            raise SystemExit(f"lockstep run ({cfg.mode}, alpha {cfg.alpha}) differs from its solo run")
    print(f"lockstep: {len(cfgs)} runs in one train_runs call equal their solo runs exactly")
    steps = len(stacked()[0].batch_losses)
    # Alternate the two and take medians: a run takes a tenth of a second,
    # long enough for a shared host's load to shift between calls.
    times = np.array([[time_call(fn, 1) for fn in (solo, stacked)] for _ in range(repeats)])
    return (steps, *np.median(times, axis=0))


def streams_lockstep(repeats):
    """Verify, then time, the teacher and clean run of the ``corruption``
    workload's recipe (seed 11): ((teacher steps, clean steps), median
    seconds solo, median seconds in one call)."""
    spec = SyntheticSpec(
        n_train=78, n_valid=0, n_test=0, n_pretrain=66, dim_features=8, vocab_size=16, seed=11
    )
    with tempfile.TemporaryDirectory() as tmp:
        paths = generate_synthetic_dataset(spec, tmp)
        pretrain, train = (read_dataset(paths[name])[1] for name in ("pretrain", "train"))
    D, H, V = MODEL_DIMS
    student = TrainConfig(epochs=10, batch_size=BATCH, lr=1e-2, dim_hidden=H)
    runs = [(pretrain, replace(student, epochs=14), "teacher"), (train, student, "clean")]

    def groups():
        return [
            RunGroup(utts, [cfg], stream(11, "init", tag), stream(11, "order", tag))
            for utts, cfg, tag in runs
        ]

    def solo():
        return [train_runs([group], D, V)[0] for group in groups()]

    def stacked():
        return train_runs(groups(), D, V)

    for (_, _, tag), (a,), (b,) in zip(runs, solo(), stacked()):
        if a.batch_losses != b.batch_losses or not np.array_equal(a.model.params, b.model.params):
            raise SystemExit(f"the {tag} run trained beside the other differs from its solo run")
    print("lockstep across streams: the teacher and clean runs in one call equal their solo runs exactly")
    steps = tuple(len(res.batch_losses) for (res,) in stacked())
    times = np.array([[time_call(fn, 1) for fn in (solo, stacked)] for _ in range(repeats)])
    return (steps, *np.median(times, axis=0))


def long_runs():
    """8 scored long utterances (T ~ 75, U ~ 25) and the standard run's
    config."""
    T, U = MODEL_BATCHES["long T~75 U~25"]
    rng = np.random.default_rng(12)
    _, feats, tokens, _, _ = model_batch(T, U, seed=11)
    utts = [
        Utterance(f"u{i}", f, y, confidences=rng.uniform(0.05, 1.0, size=y.size))
        for i, (f, y) in enumerate(zip(feats, tokens))
    ]
    return utts, [TrainConfig(batch_size=BATCH, dim_hidden=MODEL_DIMS[1])]


def kept_steps(repeats):
    """Verify, then time, stacked training steps whose forward keeps the
    activations that the backward reads in buffers held for the run,
    against steps that keep them in fresh buffers: 50 desk batches at K = 1
    and K = 5, and 10 orders of the 8 long utterances at K = 1.  Per case,
    (name, K, median seconds and minor page faults per step with fresh
    buffers, the same with held ones, bytes a run keeps)."""
    D, H, V = MODEL_DIMS
    init = TransducerModel.random(D, H, V, stream(0, "init"))
    rng = np.random.default_rng(10)
    desk, desk_cfgs = criterion_8_runs()
    long, long_cfgs = long_runs()
    cases = [
        ("desk", 1, desk, desk_cfgs, [rng.permutation(len(desk))[:BATCH] for _ in range(50)]),
        ("desk", 5, desk, desk_cfgs, [rng.permutation(len(desk))[:BATCH] for _ in range(50)]),
        ("long", 1, long, long_cfgs, [rng.permutation(BATCH) for _ in range(10)]),
    ]
    out = []
    for name, K, utts, cfgs, batches in cases:
        models = [TransducerModel(D, H, V, init.params.copy()) for _ in range(K)]
        corpus = _Corpus(models[0], utts, cfgs[:K])
        kept = [StepActivations(model) for model in models]
        grad, want = np.empty((K, init.params.size)), np.empty((K, init.params.size))
        def fresh():
            return [StepActivations(model) for model in models]

        for idx in batches:
            losses = _batch_loss_and_grad(models, [(corpus, idx)], grad, kept)
            if losses != _batch_loss_and_grad(models, [(corpus, idx)], want, fresh()) or not np.array_equal(grad, want):
                raise SystemExit(f"{name} K={K}: a step with held buffers differs from one with fresh ones")

        def steps(held):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            for idx in batches:
                _batch_loss_and_grad(models, [(corpus, idx)], grad, kept if held else fresh())
            seconds = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            return seconds / len(batches), faults / len(batches)

        # Alternate the two and take medians, as in the lockstep line.
        runs = np.array([[steps(held) for held in (False, True)] for _ in range(repeats)])
        out.append((name, K, *np.median(runs, axis=0), kept[0].z.nbytes + kept[0].softmax.nbytes))
    print(
        "kept activations: every step with held buffers equals its step with fresh ones exactly, on desk batches "
        "at K = 1 and K = 5 and on long batches at K = 1"
    )
    return out


def first_group_logits():
    """Per model batch, (name, the joiner logits of its first node group)."""
    out = []
    for name, (T, U) in MODEL_BATCHES.items():
        net, feats, tokens, _, _ = model_batch(T, U)
        layout = BatchLayout(net, feats, tokens)
        p, enc, _, pred = _encode(net, layout)
        n0, n1, _, _ = layout.groups[0]
        out.append((name, _join(p, enc, pred, layout, n0, n1, *_work(layout, enc))[1]))
    return out


def softmax_times(repeats):
    """Verify, then time, the row softmax of the first node group of the
    desk and the long model batch: ``references.softmax`` along rows of
    V + 1 against ``_kept_softmax`` along the transposed rows, as a training
    forward keeps it.  Per batch, (name, nodes, median seconds before,
    after)."""
    out = []
    for name, logits in first_group_logits():
        before, after = np.empty_like(logits), np.empty_like(logits)
        scratch = np.empty((logits.shape[1], logits.shape[0]))
        m, s = softmax(logits, before)
        lse = _kept_softmax(logits, scratch, after)
        if not (np.array_equal(before, after) and np.array_equal(lse, (m + np.log(s))[:, 0])):
            raise SystemExit(f"{name}: the kept softmax differs from the plain row softmax")
        times = np.array([
            [time_call(lambda: softmax(logits, before), 10), time_call(lambda: _kept_softmax(logits, scratch, after), 10)]
            for _ in range(repeats)
        ])
        out.append((name, logits.shape[0], *np.median(times, axis=0)))
    print("kept softmax: equals the plain row softmax and its log-normaliser exactly on a desk and a long node group")
    return out


def log_normaliser_times(repeats):
    """Verify, then time, the log-normaliser of scoring's forward on the
    first node group of the desk and the long model batch:
    ``lattice._row_logsumexp`` against ``_kept_softmax`` with nothing kept.
    Per batch, (name, nodes, median seconds before, after)."""
    out = []
    for name, logits in first_group_logits():
        scratch = np.empty((logits.shape[1], logits.shape[0]))
        if not np.array_equal(_kept_softmax(logits, scratch), _row_logsumexp(logits)[:, 0]):
            raise SystemExit(f"{name}: scoring's log-normaliser differs from _row_logsumexp")
        times = np.array([
            [time_call(lambda: _row_logsumexp(logits), 10), time_call(lambda: _kept_softmax(logits, scratch), 10)]
            for _ in range(repeats)
        ])
        out.append((name, logits.shape[0], *np.median(times, axis=0)))
    print("log-normaliser: equals _row_logsumexp exactly on a desk and a long node group")
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
    dp_batches = {f"T<={args.frames} U<={args.labels} B={BATCH}": items}
    dp_batches.update({name: desk_batch(B) for name, B in DESK_DP.items()})
    for name, batch in dp_batches.items():
        verify(name, batch)
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
        f"\nbatched kernels, {args.repeats} repeats, microseconds per utterance "
        f"(lattices up to T={args.frames} U={args.labels} over |V|={args.vocab}, and desk "
        f"lattices); DP step = sweep, losses and gradient of the whole batch, microseconds\n"
    )
    header = (
        f"{'batch':<22}{'kernel':<17}{'per-cell loop':>14}{'B=1':>8}{'batched':>9}"
        f"{'speedup':>9}{'us/diag':>9}{'DP step':>9}"
    )
    print(header)
    print("-" * len(header))
    for batch_name, batch in dp_batches.items():
        per_kernel, step = batched_times(batch, args.repeats)
        for name, (scalar, single, batched, per_diag) in per_kernel.items():
            print(
                f"{batch_name:<22}{name:<17}{scalar:>14.0f}{single:>8.0f}{batched:>9.0f}"
                f"{scalar / batched:>8.1f}x{per_diag:>9.1f}{step:>9.0f}"
            )
            batch_name = ""

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
    repeats = max(11, args.repeats // 5)
    steps, solo, stacked = streams_lockstep(repeats)
    print(
        f"\nteacher ({steps[0]} steps) and clean run ({steps[1]} steps) of the corruption recipe, "
        f"median of {repeats} alternating repeats, milliseconds: solo {solo * 1e3:.0f}, "
        f"one call {stacked * 1e3:.0f}, {solo / stacked:.2f}x"
    )

    print()
    repeats = max(5, args.repeats // 3)
    rows = kept_steps(repeats)
    print(
        f"\ntraining steps of B={BATCH}, median of {repeats} alternating repeats of 50 desk "
        f"or 10 long steps, per step; faults are minor page faults, KB kept per run\n"
    )
    header = (
        f"{'batch':<7}{'runs':<6}{'fresh us':>15}{'held us':>10}{'speedup':>10}"
        f"{'faults':>10}{'held':>8}{'KB kept':>10}"
    )
    print(header)
    print("-" * len(header))
    for name, K, (before, faults_before), (after, faults_after), nbytes in rows:
        print(
            f"{name:<7}K={K:<4}{before * 1e6:>15.0f}{after * 1e6:>10.0f}{before / after:>9.2f}x"
            f"{faults_before:>10.1f}{faults_after:>8.1f}{nbytes / 1024:>10.0f}"
        )

    print()
    rows = softmax_times(repeats)
    print(f"\nrow softmax of a node group, median of {repeats} alternating repeats, microseconds\n")
    header = f"{'batch':<20}{'nodes':>7}{'plain':>10}{'kept':>8}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, nodes, before, after in rows:
        print(f"{name:<20}{nodes:>7}{before * 1e6:>10.1f}{after * 1e6:>8.1f}{before / after:>9.2f}x")

    print()
    rows = log_normaliser_times(repeats)
    print(
        f"\nscoring's log-normaliser of a node group, median of {repeats} alternating repeats, "
        f"microseconds\n"
    )
    header = f"{'batch':<20}{'nodes':>7}{'logsumexp':>11}{'kept':>8}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, nodes, before, after in rows:
        print(f"{name:<20}{nodes:>7}{before * 1e6:>11.1f}{after * 1e6:>8.1f}{before / after:>9.2f}x")

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
