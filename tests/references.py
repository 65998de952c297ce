"""Reference implementations that the tests (and the kernel benchmark)
compare faster code against."""

import copy

import numpy as np

from twrnnt.conditionals import _columns
from twrnnt.corruption import ERROR_TYPES
from twrnnt.errors import DataError, NumericalError
from twrnnt.lattice import PosteriorLattice, as_labels, backward, check_dims, forward
from twrnnt.kernels import PaddedColumns, grid
from twrnnt.model import (
    BatchLayout,
    StepActivations,
    _backward,
    _encode,
    _join,
    _kept_softmax,
    _work,
    backward_columns,
    forward_columns,
)
from twrnnt.oracle import BLANK_STEP, exact_prefix_logp, exact_sequence_logp
from twrnnt.seeds import stream
from twrnnt.training import _confidences_of, _run_name
from twrnnt.weighting import _underflow_message


def wer_counts(hyp, ref):
    """(substitutions, insertions, deletions) of one optimal Levenshtein
    alignment: the cell-by-cell double loop, then a traceback that prefers
    substitution, then deletion, then insertion."""
    h = list(np.asarray(hyp, dtype=np.int64).ravel())
    r = list(np.asarray(ref, dtype=np.int64).ravel())
    if not r and h:
        raise DataError("empty reference: error rate is undefined")
    n, m = len(r), len(h)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = d[i - 1, j - 1] + (r[i - 1] != h[j - 1])
            dele = d[i - 1, j] + 1
            ins = d[i, j - 1] + 1
            d[i, j] = min(sub, dele, ins)
    subs = dels = inss = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i, j] == d[i - 1, j - 1] + (r[i - 1] != h[j - 1]):
            subs += int(r[i - 1] != h[j - 1])
            i -= 1
            j -= 1
        elif i > 0 and d[i, j] == d[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            inss += 1
            j -= 1
    return subs, inss, dels


def greedy_decode(model, features, max_symbols_per_frame=4):
    """``model.greedy_decode`` as first written: one joiner row per (frame,
    symbol) step, frame by frame."""
    feats = np.asarray(features, dtype=np.float64)
    enc = np.tanh(feats @ model.slice("enc_w").T + model.slice("enc_b"))
    pred_w, pred_b = model.slice("pred_w"), model.slice("pred_b")
    join_w, join_b = model.slice("join_w"), model.slice("join_b")
    emb = model.slice("emb")
    blank = model.vocab_size

    def pred_state(token_id):
        return np.tanh(pred_w @ emb[token_id] + pred_b)

    cur = pred_state(model.bos)
    out = []
    clean = True
    for t in range(feats.shape[0]):
        emitted = 0
        while True:
            logits = join_w @ np.tanh(enc[t] + cur) + join_b
            k = int(np.argmax(logits))
            if k == blank:
                break
            out.append(k)
            cur = pred_state(k)
            emitted += 1
            if emitted >= max_symbols_per_frame:
                clean = False
                break
    return np.asarray(out, dtype=np.int64), clean


def softmax(logits, out):
    """The row softmax of ``logits``, written to ``out`` (which may be
    ``logits``) as e / s, where e = exp(logits - m), m is the row maximum
    and s the row sum of e, along rows of V + 1.  Returns (m, s): m +
    log(s) is ``lattice._row_logsumexp(logits)`` bit for bit."""
    m = logits.max(axis=-1, keepdims=True)
    np.subtract(logits, m, out=out)
    np.exp(out, out=out)
    s = out.sum(axis=-1, keepdims=True)
    out /= s
    return m, s


class CorpusWeights:
    """``training._Corpus``'s weights as first written, for the runs of
    ``cfgs`` on ``utterances``: each utterance's c^alpha kept as its own
    array, with its sum, and at each step a Python loop over the batch's
    rows per run that concatenates them and adds their sums."""

    def __init__(self, utterances, cfgs):
        self.ids = [u.id for u in utterances]
        self.cfgs = list(cfgs)
        confidences = [_confidences_of(u) for u in utterances]
        means = np.array([float(np.mean(c)) if c.size else 1.0 for c in confidences])
        self.powered, self.sums = [], []
        for cfg in self.cfgs:
            if cfg.mode == "token_weights":
                powered = [c**cfg.alpha for c in confidences]
                self.powered.append(powered)
                self.sums.append([float(np.sum(p)) for p in powered])
            else:
                self.powered.append(means**cfg.alpha)
                self.sums.append(None)

    def weights(self, idx, U, lam, w_fb):
        """Write the weights of utterances ``idx`` with label counts ``U``
        to the zero-filled lam (K, B, W) and w_fb (K, B), or raise the
        NumericalError of a batch whose weights underflow."""
        idx = np.asarray(idx, dtype=np.int64)
        slots = np.arange(lam.shape[2]) < U[:, None]
        for k, cfg in enumerate(self.cfgs):
            if cfg.mode == "standard":
                lam[k][slots] = 1.0
                w_fb[k] = 1.0
            elif cfg.mode == "utterance_weights":
                powered = self.powered[k][idx]
                norm = np.mean(powered)
                if norm == 0.0:
                    self._underflow(cfg, idx)
                w = powered / norm
                lam[k][slots] = np.repeat(w, U)
                w_fb[k] = w
            else:
                total = int(U.sum())
                if total:
                    rows = idx.tolist()
                    norm = sum(self.sums[k][i] for i in rows) / total
                    if norm == 0.0:
                        self._underflow(cfg, idx[U > 0])
                    lam[k][slots] = np.concatenate([self.powered[k][i] for i in rows]) / norm
                w_fb[k] = cfg.final_blank_weight

    def _underflow(self, cfg, idx):
        names = dict.fromkeys(self.ids[i] for i in idx.tolist())
        raise NumericalError(f"{_run_name(cfg)}: {_underflow_message(cfg.alpha, names)}")


def _nearest_tokens(prototypes):
    diff = prototypes[:, None, :] - prototypes[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(dist, np.inf)
    return dist


def _substitute(token, vocab, prototypes, rng):
    if vocab.size == 1:
        return token
    if prototypes is None:
        choice = int(rng.integers(0, vocab.size - 1))
        return choice + (choice >= token)
    dist = _nearest_tokens(np.asarray(prototypes, dtype=np.float64))[token]
    best = np.min(dist)
    candidates = np.flatnonzero(np.abs(dist - best) < 1e-12)
    return int(rng.choice(candidates))


def _corrupt_transcript(labels, error_types, vocab, prototypes, rng, q):
    out = []
    for token in labels:
        token = int(token)
        if rng.random() >= q:
            out.append(token)
            continue
        kind = error_types[int(rng.integers(0, len(error_types)))]
        if kind == "repeat":
            out.extend((token, token))
        elif kind == "omit":
            pass
        else:
            out.append(_substitute(token, vocab, prototypes, rng))
    return np.asarray(out, dtype=np.int64)


def corrupt_corpus(
    utterance_tokens, cfg, vocab, prototypes=None, calibrate=True, error_types=ERROR_TYPES
):
    """``corruption.corrupt_corpus`` as first written, with the prototype
    distance matrix rebuilt for every substitution, and the calibration's
    error rate measured with ``wer_counts``.  ``error_types`` stands for
    the ``corruption.ERROR_TYPES`` that the draws pick from."""
    transcripts = [as_labels(t, vocab) for t in utterance_tokens]
    if not any(t.size for t in transcripts):
        raise DataError("cannot corrupt a corpus with no tokens")

    def corrupt_all(rng, q):
        return [_corrupt_transcript(t, error_types, vocab, prototypes, rng, q) for t in transcripts]

    target = q = cfg.error_rate
    for round_ in range(6 if calibrate and target > 0.0 else 0):
        measures = []
        for pilot in range(2):
            corrupted = corrupt_all(stream(cfg.rng_seed, "corruption-pilot", round_, pilot), q)
            edits = sum(sum(wer_counts(c, r)) for c, r in zip(corrupted, transcripts))
            measures.append(edits / sum(len(r) for r in transcripts))
        measured = float(np.mean(measures))
        if abs(measured - target) < 0.002 or measured == 0.0:
            break
        q = min(1.0, q * target / measured)
        if q == 1.0 and measured < target:
            break
    return corrupt_all(np.random.default_rng(cfg.rng_seed), q)


def emission_forward(lattice: PosteriorLattice, y):
    """The emission-time forward table of y over the lattice, from the
    emission sweep, as (A, prefix_logp).

    A[t, u-1] (shape (T, U)) is the log joint probability of the prefix
    y[:u] with its last token emitted exactly at frame t.  prefix_logp[u]
    is the log prefix mass logsumexp_t A[t, u-1]; prefix_logp[0] = 0 and
    the vector is non-increasing.  Refuses what ``conditional_profile``
    refuses: no tokens, or labels that do not fit the lattice.
    """
    A, _, prefix, _ = _columns(lattice, y).sweep()
    return grid(A, 0, lattice.T, lattice.U + 1)[:, 1:], prefix[0].copy()


def path_frames(path):
    """Frame index occupied after each step of an ``oracle.AlignmentPath``
    (the terminal blank exits to T)."""
    t = 0
    out = []
    for s in path.steps:
        if s == BLANK_STEP:
            t += 1
        out.append(t)
    return out


def exact_final_blank_logp(lattice: PosteriorLattice, y) -> float:
    """log P(terminate | y emitted) by brute force: complete-sequence mass
    over prefix mass."""
    labels = as_labels(y)
    seq = exact_sequence_logp(lattice, labels)
    pre = exact_prefix_logp(lattice, labels, labels.size)
    if pre == -np.inf:
        raise NumericalError("full prefix has zero probability")
    return seq - pre


def emission_sweep_quadratic(lattice: PosteriorLattice, y):
    """Emission-time masses with the explicit O(T^2 * U) blank-run inner sum.

    Returns (A, prefix, loglik) in the layout of ``kernels.emission_sweep``:
    A[t, u] for u >= 1 is the log joint mass of emitting y[:u] with the u-th
    label at frame t, prefix[u] = logsumexp_t A[t, u], and loglik closes
    level U with blanks and the final blank.  Spells out the blank-run
    products between consecutive emission frames instead of carrying a
    running prefix.
    """
    labels = as_labels(y)
    check_dims(lattice, labels)
    logp = lattice.logp
    T, U, blank = lattice.T, lattice.U, lattice.blank
    A = np.full((T, U + 1), -np.inf)
    prefix = np.full(U + 1, -np.inf)
    A[0, 0] = 0.0
    prefix[0] = 0.0
    for u in range(1, U + 1):
        j = u - 1
        y_j = labels[j]
        s_u = -np.inf
        for t in range(T):
            s = -np.inf
            for tp in range(t + 1):
                if A[tp, j] == -np.inf:
                    continue
                run = A[tp, j]
                for f in range(tp, t):
                    run += logp[f, j, blank]
                s = np.logaddexp(s, run)
            A[t, u] = s + logp[t, j, y_j]
            s_u = np.logaddexp(s_u, A[t, u])
        prefix[u] = s_u
    s = -np.inf
    for tp in range(T):
        if A[tp, U] == -np.inf:
            continue
        run = A[tp, U]
        for f in range(tp, T - 1):
            run += logp[f, U, blank]
        s = np.logaddexp(s, run)
    loglik = s + logp[T - 1, U, blank]
    return A, prefix, loglik


def emission_sweep_scalar(logp, labels):
    """Per-cell loop form of ``kernels.emission_sweep`` for one (T, U+1, V+1)
    table.  Returns (A, R, prefix, loglik) with the batch axis dropped; the
    batched kernel must match it exactly on every utterance's corner."""
    T, U1, nsym = logp.shape
    U = U1 - 1
    blank = nsym - 1
    A = np.full((T, U1), -np.inf)
    R = np.full((T, U1), -np.inf)
    prefix = np.full(U1, -np.inf)
    A[0, 0] = 0.0
    prefix[0] = 0.0
    for j in range(U1):
        R[0, j] = A[0, j]
        for t in range(1, T):
            R[t, j] = np.logaddexp(R[t - 1, j] + logp[t - 1, j, blank], A[t, j])
        if j < U:
            y = labels[j]
            s = -np.inf
            for t in range(T):
                A[t, j + 1] = R[t, j] + logp[t, j, y]
                s = np.logaddexp(s, A[t, j + 1])
            prefix[j + 1] = s
    loglik = R[T - 1, U] + logp[T - 1, U, blank]
    return A, R, prefix, loglik


def weighted_grad_scalar(logp, labels, A, R, prefix, loglik, lam, final_blank_weight):
    """Per-cell loop form of ``kernels.weighted_grad`` for one table, from
    the outputs of ``emission_sweep_scalar``.  Returns the dense
    (T, U+1, V+1) gradient of the token-weighted loss

        L = sum_u lam[u-1] * (prefix[u-1] - prefix[u])
            + final_blank_weight * (prefix[U] - loglik)

    reverse-accumulated through the logaddexp graph cell by cell.
    """
    T, U1, nsym = logp.shape
    U = U1 - 1
    blank = nsym - 1
    g = np.zeros((T, U1, nsym))
    adjA = np.zeros((T, U1))
    # Termination sweep: loglik = R[T-1, U] + logp[T-1, U, blank].
    adjR = np.zeros(T)
    if final_blank_weight != 0.0 and loglik != -np.inf:
        adjR[T - 1] = -final_blank_weight
        g[T - 1, U, blank] = -final_blank_weight
    for t in range(T - 1, 0, -1):
        if adjR[t] == 0.0 or R[t, U] == -np.inf:
            continue
        w1 = np.exp(R[t - 1, U] + logp[t - 1, U, blank] - R[t, U])
        w2 = np.exp(A[t, U] - R[t, U])
        adjR[t - 1] += adjR[t] * w1
        g[t - 1, U, blank] += adjR[t] * w1
        adjA[t, U] += adjR[t] * w2
    adjA[0, U] += adjR[0]
    for u in range(U, 0, -1):
        j = u - 1
        # d L / d prefix[u]; lam is 0-based, lam[j] weights the (j+1)-th token.
        if u == U:
            cu = final_blank_weight - lam[j]
        else:
            cu = lam[u] - lam[j]
        if cu != 0.0 and prefix[u] != -np.inf:
            for t in range(T):
                if A[t, u] != -np.inf:
                    adjA[t, u] += cu * np.exp(A[t, u] - prefix[u])
        # Emission step: A[t, u] = R[t, j] + logp[t, j, labels[j]].
        y = labels[j]
        adjR2 = np.zeros(T)
        for t in range(T):
            a = adjA[t, u]
            if a != 0.0:
                adjR2[t] = a
                g[t, j, y] += a
        for t in range(T - 1, 0, -1):
            if adjR2[t] == 0.0 or R[t, j] == -np.inf:
                continue
            w1 = np.exp(R[t - 1, j] + logp[t - 1, j, blank] - R[t, j])
            w2 = np.exp(A[t, j] - R[t, j])
            adjR2[t - 1] += adjR2[t] * w1
            g[t - 1, j, blank] += adjR2[t] * w1
            adjA[t, j] += adjR2[t] * w2
        adjA[0, j] += adjR2[0]
    return g


def model_backward(model, features, tokens, dL_dlogp):
    """Chain-rule parameter gradient of any scalar loss, given its gradient
    with respect to the lattice log-probabilities of one utterance: a kept
    forward, then ``model._backward`` fed the dense rows.  Exact, float64;
    the one-utterance, dense case of ``model.backward_columns``."""
    layout = BatchLayout(model, [features], [tokens])
    dlogp = np.asarray(dL_dlogp, dtype=np.float64)
    shape = (int(layout.T[0]), int(layout.U[0]) + 1, model.vocab_size + 1)
    if dlogp.shape != shape:
        raise DataError(f"lattice gradient has shape {dlogp.shape}, expected {shape}")
    kept = StepActivations([model])
    forward_columns(model, layout, keep=kept)
    return _backward(kept, layout, dense_dlogit_rows(layout, [dlogp.reshape(-1, shape[2])]))[0]


def dense_dlogit_rows(layout, dlogp):
    """``model._backward``'s ``dlogit_rows`` for dense (nodes, V+1) lattice
    gradient rows ``dlogp[k]`` of run k on the layout's nodes: per join,
    the sum over its nodes of dlogp - softmax * sum(dlogp), as the sum of
    their rows minus softmax times the sum of their row sums, each summed
    in node order."""

    def dlogit_rows(k, softmax, n0, n1, m0, m1, j0):
        rows = dlogp[k][n0:n1]
        joins = layout.node_join[n0:n1] - j0
        dlogit = np.zeros_like(softmax)
        np.add.at(dlogit, joins, rows)
        sums = np.zeros(softmax.shape[0])
        np.add.at(sums, joins, rows.sum(axis=-1))
        softmax *= sums[:, None]
        dlogit -= softmax
        return dlogit

    return dlogit_rows


def fresh_backward(models, layout, g_blank, g_emit, row0=0):
    """``model.backward_columns`` of the group of ``models`` after forwards
    that keep their activations in fresh buffers, for comparison with a
    backward whose forwards kept them in buffers reused across steps."""
    kept = StepActivations(models)
    for model in models:
        forward_columns(model, layout, keep=kept)
    return backward_columns(kept, layout, g_blank, g_emit, row0)


def one_run_backwards(models, layout, g_blank, g_emit, row0=0):
    """The (K, P) gradients of K groups of one on the runs' rows row0 +
    k * B.. of the column gradients: the reference for a group backward."""
    B = layout.T.size
    return np.stack([fresh_backward([model], layout, g_blank, g_emit, row0 + k * B)[0]
                     for k, model in enumerate(models)])


def per_node(layout):
    """A copy of ``layout`` in which every node is its own join, as in the
    passes before nodes shared their joins (b, t, id): each utterance's
    grid has R = U + 1 columns, one per level, whose ids may repeat."""
    own = copy.copy(layout)
    own.node_join, own.emit_join = np.arange(layout.frame.size), layout.emit_rows
    own.join_frame, own.join_id = layout.frame, layout.join_id[layout.node_join]
    own.R = layout.U + 1
    sizes = layout.T * own.R
    own.join0 = sizes.cumsum() - sizes
    own.join_groups = [(n0, n1) for n0, n1, _, _ in layout.groups]
    own.max_join_group = max(n1 - n0 for n0, n1 in own.join_groups)
    return own


def forward_columns_per_node(model, layout, keep=None):
    """``model.forward_columns`` with one joiner row per node, into tables
    of the batch's own: the joiner, softmax and log-normaliser of every
    node, even where nodes of one utterance and frame have the same
    predictor input.  ``keep``, if given, keeps every node's z and row
    softmax, for a backward through ``per_node(layout)``, which ``layout``
    must then be."""
    cols = PaddedColumns(layout.T, layout.U)
    _, rows, width = cols.blank.shape
    blank, emit = cols.blank.reshape(-1), cols.emit.reshape(-1)
    blank_at, emit_at = layout.cells(rows, width)
    p, enc, tab = _encode(model, layout.feats)
    most = max(n1 - n0 for n0, n1, _, _ in layout.groups)
    work = _work(most, enc)
    if keep is not None:
        k = keep._hold(model, layout, (enc, tab))
    scratch = np.empty((model.vocab_size + 1, most))
    for n0, n1, m0, m1 in layout.groups:
        z = work[0] if keep is None else keep.z[k, n0:n1]
        ids = layout.join_id[layout.node_join[n0:n1]]
        _, logits = _join(p, enc, tab, layout.frame[n0:n1], ids, z, work[1])
        lse = _kept_softmax(logits, scratch, None if keep is None else keep.softmax[k, n0:n1])
        blank[blank_at[n0:n1]] = logits[:, -1] - lse
        r = layout.emit_rows[m0:m1] - n0
        emit[emit_at[m0:m1]] = logits[r, layout.emit_label[m0:m1]] - lse[r]
    return cols


def per_node_passes(model, layout, g_blank, g_emit):
    """The columns of ``forward_columns_per_node`` and the gradient of
    ``model.backward_columns`` after it, both per node."""
    own = per_node(layout)
    keep = StepActivations([model])
    cols = forward_columns_per_node(model, own, keep=keep)
    return cols, backward_columns(keep, own, g_blank, g_emit)[0]


def finite_diff_grad(f, lattice: PosteriorLattice, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar functional of the lattice,
    cell by cell.  Perturbed tables are intentionally unnormalized."""
    if step <= 0:
        raise DataError(f"finite-difference step must be positive, got {step}")
    base = lattice.logp
    grad = np.zeros_like(base)
    flat = grad.ravel()
    for i in range(base.size):
        bumped = base.copy().ravel()
        if not np.isfinite(bumped[i]):
            continue  # hard zeros stay hard zeros
        orig = bumped[i]
        bumped[i] = orig + step
        hi = f(PosteriorLattice(bumped.reshape(base.shape)))
        bumped[i] = orig - step
        lo = f(PosteriorLattice(bumped.reshape(base.shape)))
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def loglik_grad(lattice: PosteriorLattice, y) -> np.ndarray:
    """Gradient of log P(y | x) w.r.t. every lattice entry, occupancy form.

    A cell's gradient is the posterior probability that an alignment takes
    its arc, exp(alpha + logp + beta - loglik), from the forward and backward
    tables.  Entries never touched by a valid alignment stay exactly 0, and
    a zero-probability sequence gives an all-zero table.
    """
    labels = as_labels(y)
    fwd = forward(lattice, labels)
    alpha, loglik = fwd.alpha, fwd.loglik
    beta = backward(lattice, labels).beta
    logp = lattice.logp
    T, U, blank = lattice.T, lattice.U, lattice.blank
    g = np.zeros_like(logp)
    if loglik == -np.inf:
        return g
    for t in range(T):
        for u in range(U + 1):
            if alpha[t, u] == -np.inf:
                continue
            if u < U:
                g[t, u, labels[u]] = np.exp(
                    alpha[t, u] + logp[t, u, labels[u]] + beta[t, u + 1] - loglik
                )
            if t < T - 1:
                g[t, u, blank] = np.exp(
                    alpha[t, u] + logp[t, u, blank] + beta[t + 1, u] - loglik
                )
    g[T - 1, U, blank] = np.exp(alpha[T - 1, U] + logp[T - 1, U, blank] - loglik)
    return g
