"""Reference implementations that the tests (and the kernel benchmark)
compare faster code against."""

import numpy as np

from twrnnt.errors import DataError
from twrnnt.lattice import PosteriorLattice, _check_dims, as_labels
from twrnnt.seeds import stream


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


def _corrupt_transcript(labels, cfg, vocab, prototypes, rng, q):
    out = []
    for token in labels:
        token = int(token)
        if rng.random() >= q:
            out.append(token)
            continue
        kind = cfg.error_types[int(rng.integers(0, len(cfg.error_types)))]
        if kind == "repeat":
            out.extend((token, token))
        elif kind == "omit":
            pass
        else:
            out.append(_substitute(token, vocab, prototypes, rng))
    return np.asarray(out, dtype=np.int64)


def corrupt_corpus(utterance_tokens, cfg, vocab, prototypes=None, calibrate=True):
    """``corruption.corrupt_corpus`` as first written, with the prototype
    distance matrix rebuilt for every substitution, and the calibration's
    error rate measured with ``wer_counts``."""
    transcripts = [as_labels(t, vocab) for t in utterance_tokens]
    if not any(t.size for t in transcripts):
        raise DataError("cannot corrupt a corpus with no tokens")

    def corrupt_all(rng, q):
        return [_corrupt_transcript(t, cfg, vocab, prototypes, rng, q) for t in transcripts]

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
    _check_dims(lattice, labels)
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
