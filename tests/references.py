"""Reference implementations that the tests (and the kernel benchmark)
compare faster code against."""

import numpy as np

from twrnnt.errors import DataError
from twrnnt.lattice import as_labels
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
