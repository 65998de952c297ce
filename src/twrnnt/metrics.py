"""Token-level error rate via Levenshtein alignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lattice import _integer_labels

__all__ = ["WerResult", "wer", "edit_distances", "corpus_wer"]


@dataclass(frozen=True)
class WerResult:
    substitutions: int
    insertions: int
    deletions: int
    ref_length: int

    @property
    def distance(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        if self.ref_length == 0:
            return 0.0
        return self.distance / self.ref_length


def wer(hyp, ref) -> WerResult:
    """Levenshtein distance between token sequences, with counts from one
    optimal alignment (ties resolved preferring substitution, then deletion,
    then insertion).

    An empty reference against a nonempty hypothesis has no meaningful rate
    and is rejected, and so are labels that are not integers.
    """
    h, r = _integer_labels(hyp), _integer_labels(ref)
    if not r.size and h.size:
        raise DataError("empty reference: error rate is undefined")
    n, m = r.size, h.size
    d = _shifted_tables(h[None], r[None])[0] + np.arange(m + 1)
    # Traceback one optimal alignment with the fixed tie preference.
    d, r, h = d.tolist(), r.tolist(), h.tolist()
    subs = dels = inss = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (r[i - 1] != h[j - 1]):
            subs += int(r[i - 1] != h[j - 1])
            i -= 1
            j -= 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            inss += 1
            j -= 1
    return WerResult(
        substitutions=subs, insertions=inss, deletions=dels, ref_length=n
    )


def _padded(seqs):
    """Token sequences as rows of one zero-padded int64 table, and their
    lengths."""
    seqs = [_integer_labels(s) for s in seqs]
    n = np.array([s.size for s in seqs], dtype=np.int64)
    table = np.zeros((n.size, int(n.max(initial=0))), dtype=np.int64)
    if n.sum():
        table[np.arange(table.shape[1]) < n[:, None]] = np.concatenate(seqs)
    return table, n


def _shifted_tables(h, r) -> np.ndarray:
    """The Levenshtein DP tables of (hypothesis, reference) pairs given as
    rows of the padded tables ``h`` and ``r`` (``_padded``), from one DP
    over all pairs, in shifted form e[p, i, j] = d[p, i, j] - j.

    An insertion then costs nothing, so row i (every pair's reference
    position i) is one minimum over the substitution (or match) and
    deletion moves from the row above, and its insertion chain
    d[i, j] = min(., d[i, j - 1] + 1) is a running minimum.  Cell (i, j)
    depends only on cells (i', j') with i' <= i and j' <= j, so the
    padding past a pair's own lengths never reaches its own cells.
    """
    step = (r[:, :, None] != h[:, None, :]).astype(np.int64) - 1
    e = np.empty((r.shape[0], r.shape[1] + 1, h.shape[1] + 1), dtype=np.int64)
    e[:, 0] = 0
    for i in range(1, r.shape[1] + 1):
        row = e[:, i]
        row[:, 0] = i
        np.minimum(e[:, i - 1, :-1] + step[:, i - 1], e[:, i - 1, 1:] + 1, out=row[:, 1:])
        np.minimum.accumulate(row, axis=1, out=row)
    return e


def _paired(hyps, refs):
    """The hypotheses and references as lists, or a DataError unless there
    is one hypothesis per reference."""
    hyps, refs = list(hyps), list(refs)
    if len(hyps) != len(refs):
        raise DataError(f"{len(hyps)} hypotheses for {len(refs)} references: each reference needs one")
    return hyps, refs


def edit_distances(hyps, refs) -> np.ndarray:
    """Levenshtein distance of every (hypothesis, reference) pair, from one
    DP over all pairs (``_shifted_tables``); ``wer(hyp, ref).distance``
    without the counts.  A hypothesis against an empty reference is all
    insertions.  Unequal counts of hypotheses and references raise a
    DataError."""
    hyps, refs = _paired(hyps, refs)
    h, m = _padded(hyps)
    r, n = _padded(refs)
    return _shifted_tables(h, r)[np.arange(n.size), n, m] + m


def corpus_wer(hyps, refs) -> float:
    """Corpus token error rate: edit distances summed over (hypothesis,
    reference) pairs over the reference token count.  Every token of a
    hypothesis against an empty reference counts as an insertion; unequal
    counts of hypotheses and references raise a DataError."""
    hyps, refs = _paired(hyps, refs)
    total = sum(np.asarray(ref).size for ref in refs)
    if total == 0:
        raise DataError("cannot evaluate WER on a corpus with no reference tokens")
    return int(edit_distances(hyps, refs).sum()) / total
