import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PROPERTY
from references import wer_counts
from twrnnt.errors import DataError
from twrnnt.metrics import corpus_wer, edit_distances, wer


def reference_distance(a, b):
    """Independent quadratic DP, distance only."""
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[-1] + 1))
        prev = cur
    return prev[-1]


class TestWer:
    def test_identical_sequences(self):
        r = wer([1, 2, 3], [1, 2, 3])
        assert r.rate == 0.0 and r.distance == 0

    def test_both_empty(self):
        r = wer([], [])
        assert r.rate == 0.0

    def test_single_substitution(self):
        r = wer([0, 9, 2], [0, 1, 2])
        assert (r.substitutions, r.insertions, r.deletions) == (1, 0, 0)
        assert r.rate == pytest.approx(1.0 / 3.0)

    def test_insertion_and_deletion(self):
        assert wer([0, 0, 1], [0, 1]).insertions == 1
        assert wer([0], [0, 1]).deletions == 1

    def test_empty_reference_rejected(self):
        with pytest.raises(DataError, match="empty reference"):
            wer([1], [])

    def test_counts_sum_to_distance(self):
        rng = np.random.default_rng(80)
        for _ in range(200):
            ref = rng.integers(0, 5, size=rng.integers(1, 12))
            hyp = rng.integers(0, 5, size=rng.integers(0, 12))
            r = wer(hyp, ref)
            assert r.distance == r.substitutions + r.insertions + r.deletions

    def test_matches_independent_dp_exactly(self):
        rng = np.random.default_rng(81)
        for _ in range(300):
            ref = list(rng.integers(0, 4, size=rng.integers(1, 10)))
            hyp = list(rng.integers(0, 4, size=rng.integers(0, 10)))
            assert wer(hyp, ref).distance == reference_distance(ref, hyp)

    def test_rate_can_exceed_one(self):
        r = wer([5, 6, 7, 8], [0])
        assert r.rate > 1.0

    @settings(PROPERTY, max_examples=200)
    @given(
        ref=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        hyp=st.lists(st.integers(0, 3), max_size=12),
    )
    @example(ref=[2], hyp=[])  # empty hypothesis
    @example(ref=[1], hyp=[1, 1, 1])  # U = 1, repeated tokens
    @example(ref=[0, 0, 0, 0], hyp=[0, 0])
    def test_counts_equal_the_double_loop(self, ref, hyp):
        # Same (S, I, D) as the cell-by-cell loop, so the ties resolve alike.
        r = wer(hyp, ref)
        assert (r.substitutions, r.insertions, r.deletions) == wer_counts(hyp, ref)


class TestCorpusWer:
    def test_sums_distances_over_reference_tokens(self):
        # One substitution in 3 tokens, 2 insertions against an empty
        # reference, and an empty pair: 3 errors over 3 reference tokens.
        hyps = [[0, 9, 2], [4, 5], []]
        refs = [[0, 1, 2], [], []]
        assert corpus_wer(hyps, refs) == 1.0

    def test_no_reference_tokens_rejected(self):
        with pytest.raises(DataError, match="no reference tokens"):
            corpus_wer([[1]], [[]])

    @pytest.mark.parametrize("fn", [corpus_wer, edit_distances])
    def test_unequal_counts_are_refused(self, fn):
        # zip would pair the first ones and drop the rest unseen.
        with pytest.raises(DataError, match="^2 hypotheses for 1 references"):
            fn([[1, 2], [3]], [[1, 2]])
        with pytest.raises(DataError, match="^1 hypotheses for 2 references"):
            fn([[1, 2]], [[1, 2], [3]])


class TestEditDistances:
    @settings(PROPERTY, max_examples=100)
    @given(
        pairs=st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), max_size=12),
                st.lists(st.integers(0, 3), max_size=12),
            ),
            max_size=10,
        )
    )
    @example(pairs=[([], [1, 2]), ([3, 3], []), ([], []), ([0, 1, 2], [0, 2])])
    @example(pairs=[([], [])])  # no token on either side
    @example(pairs=[])
    def test_equals_summed_wer_distances(self, pairs):
        # Per pair and summed, as corpus_wer sums them: a hypothesis against
        # an empty reference counts every token as an insertion.
        hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
        want = [wer(h, r).distance if r else len(h) for h, r in pairs]
        got = edit_distances(hyps, refs)
        assert got.tolist() == want
        assert int(got.sum()) == sum(want)
