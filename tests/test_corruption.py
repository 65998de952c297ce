import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import references
from conftest import PROPERTY
from twrnnt import corruption
from twrnnt.corruption import CorruptionConfig, corrupt_corpus
from twrnnt.errors import DataError
from twrnnt.lattice import Vocabulary
from twrnnt.metrics import wer


def corrupt_one(y, cfg, vocab, prototypes=None):
    """One transcript corrupted at the raw rate ``cfg.error_rate``: the
    corpus of one, drawn from ``default_rng(cfg.rng_seed)``."""
    return corrupt_corpus([y], cfg, vocab, prototypes, calibrate=False)[0]


@pytest.fixture
def only(monkeypatch):
    """Restrict the error types that corruption draws from, as in
    ``only("repeat")``."""
    return lambda *types: monkeypatch.setattr(corruption, "ERROR_TYPES", types)


class TestCorruptTranscript:
    def test_zero_rate_is_identity(self):
        cfg = CorruptionConfig(error_rate=0.0, rng_seed=1)
        y = np.array([3, 1, 4, 1, 5])
        out = corrupt_one(y, cfg, Vocabulary(8))
        np.testing.assert_array_equal(out, y)

    def test_forced_repeat_duplicates_every_token(self, only):
        only("repeat")
        out = corrupt_one([0, 1], CorruptionConfig(error_rate=1.0, rng_seed=1), Vocabulary(4))
        assert out.tolist() == [0, 0, 1, 1]

    def test_forced_omit_empties(self, only):
        only("omit")
        out = corrupt_one([2, 3], CorruptionConfig(error_rate=1.0, rng_seed=1), Vocabulary(4))
        assert out.size == 0

    def test_substitute_is_distinct_and_in_vocab(self, only):
        only("substitute")
        cfg = CorruptionConfig(error_rate=1.0, rng_seed=2)
        vocab = Vocabulary(6)
        y = np.array([0, 1, 2, 3, 4, 5])
        out = corrupt_one(y, cfg, vocab)
        assert out.size == y.size
        assert np.all(out != y)
        assert np.all((out >= 0) & (out < 6))

    def test_substitute_picks_nearest_prototype(self, only):
        only("substitute")
        protos = np.array([[0.0], [0.1], [5.0]])
        cfg = CorruptionConfig(error_rate=1.0, rng_seed=3)
        out = corrupt_one([0], cfg, Vocabulary(3), prototypes=protos)
        assert out.tolist() == [1]  # token 1 is nearest to token 0

    @pytest.mark.parametrize(
        "protos", [[["x"], [1.0], [2.0]], [[0.0], [1.0]], [[0.0], [np.nan], [1.0]], [0.0, 1.0, 2.0]],
        ids=["not_numbers", "too_few_rows", "nan", "one_dimensional"],
    )
    def test_malformed_prototypes_rejected(self, protos):
        cfg = CorruptionConfig(error_rate=1.0, rng_seed=3)
        with pytest.raises(DataError, match="prototypes must be"):
            corrupt_corpus([[0, 1]], cfg, Vocabulary(3), prototypes=protos)

    def test_empty_transcript_unchanged(self):
        # A corpus needs a token somewhere; the empty transcript rides
        # next to one.
        out = corrupt_corpus([[], [1]], CorruptionConfig(1.0), Vocabulary(2), calibrate=False)[0]
        assert out.dtype == np.int64 and out.size == 0

    def test_bad_config_rejected(self):
        with pytest.raises(DataError):
            CorruptionConfig(error_rate=1.5)
        with pytest.raises(DataError):
            CorruptionConfig(error_rate=float("nan"))

    def test_seed_determinism(self):
        cfg = CorruptionConfig(error_rate=0.6, rng_seed=11)
        y = np.arange(10) % 4
        a = corrupt_one(y, cfg, Vocabulary(4))
        b = corrupt_one(y, cfg, Vocabulary(4))
        np.testing.assert_array_equal(a, b)


class TestCorpusCalibration:
    def make_corpus(self, n=2500, vmax=16, seed=123):
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, vmax, size=rng.integers(3, 9)).astype(np.int64)
            for _ in range(n)
        ]

    def measured(self, corrupted, refs):
        dist = sum(wer(c, r).distance for c, r in zip(corrupted, refs))
        return dist / sum(len(r) for r in refs)

    @pytest.mark.parametrize("level", [0.1, 0.2, 0.3, 0.4])
    def test_reference_wer_within_band(self, level):
        refs = self.make_corpus()
        assert sum(len(r) for r in refs) >= 10_000
        cfg = CorruptionConfig(error_rate=level, rng_seed=0)
        out = corrupt_corpus(refs, cfg, Vocabulary(16))
        assert abs(self.measured(out, refs) - level) < 0.02

    def test_uncalibrated_rate_shrinks_at_high_levels(self):
        # The raw mechanism merges adjacent repeat+omit pairs under the
        # alignment; calibration exists to counteract exactly this.
        refs = self.make_corpus(n=1500)
        cfg = CorruptionConfig(error_rate=0.4, rng_seed=0)
        raw = corrupt_corpus(refs, cfg, Vocabulary(16), calibrate=False)
        assert self.measured(raw, refs) < 0.38

    def test_corpus_determinism(self):
        refs = self.make_corpus(n=100)
        cfg = CorruptionConfig(error_rate=0.3, rng_seed=5)
        a = corrupt_corpus(refs, cfg, Vocabulary(16))
        b = corrupt_corpus(refs, cfg, Vocabulary(16))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_empty_transcripts_pass_through_and_draw_nothing(self):
        refs = self.make_corpus(n=40)
        cfg = CorruptionConfig(error_rate=0.3, rng_seed=5)
        want = corrupt_corpus(refs, cfg, Vocabulary(16))
        holes = [[]] + refs[:20] + [[], []] + refs[20:] + [[]]
        got = corrupt_corpus(holes, cfg, Vocabulary(16))
        assert [t.tolist() for t in got] == [[]] + [t.tolist() for t in want[:20]] + [
            [], []
        ] + [t.tolist() for t in want[20:]] + [[]]

    @pytest.mark.parametrize("corpus", [[], [[]], [[], []]], ids=["no_transcripts", "one_empty", "two_empty"])
    @pytest.mark.parametrize("calibrate", [True, False])
    def test_corpus_without_tokens_rejected(self, corpus, calibrate):
        with pytest.raises(DataError, match="no tokens"):
            corrupt_corpus(corpus, CorruptionConfig(0.3), Vocabulary(4), calibrate=calibrate)

    def test_zero_level_identity(self):
        refs = self.make_corpus(n=50)
        out = corrupt_corpus(refs, CorruptionConfig(0.0, rng_seed=1), Vocabulary(16))
        assert all(np.array_equal(x, y) for x, y in zip(out, refs))


class TestDistancesOncePerCall:
    """``corrupt_corpus`` builds the prototype distance matrix once per
    call; its output must equal the form that rebuilt it per substitution."""

    @PROPERTY
    @given(
        transcripts=st.lists(
            st.lists(st.integers(0, 5), min_size=0, max_size=8), min_size=1, max_size=12
        ).filter(lambda ts: any(ts)),
        level=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        seed=st.integers(0, 2**31 - 1),
        with_prototypes=st.booleans(),
        tied=st.booleans(),
        calibrate=st.booleans(),
    )
    def test_corpus_equals_the_per_call_form(
        self, transcripts, level, seed, with_prototypes, tied, calibrate
    ):
        vocab = Vocabulary(6)
        prototypes = None
        if with_prototypes:
            prototypes = np.random.default_rng(seed).normal(size=(6, 3))
            if tied:
                # Tokens 0 and 1 are both nearest to 2, at distances equal up
                # to rounding: the rng breaks the tie.
                d = 0.0123456789
                prototypes[0] = prototypes[2] + [d, 0.0, 0.0]
                prototypes[1] = prototypes[2] - [0.0, d, 0.0]
        cfg = CorruptionConfig(error_rate=level, rng_seed=seed)
        got = corrupt_corpus(transcripts, cfg, vocab, prototypes=prototypes, calibrate=calibrate)
        want = references.corrupt_corpus(
            transcripts, cfg, vocab, prototypes=prototypes, calibrate=calibrate
        )
        assert [t.tolist() for t in got] == [t.tolist() for t in want]


class TestSubstituteCandidates:
    """Each token's nearest substitutes are found once per call; the draws,
    and so the outputs, must equal the reference that searched the
    prototype distances at every substitution."""

    @staticmethod
    def prototypes(kind, seed):
        if kind == "none":
            return None
        protos = np.random.default_rng(seed).normal(size=(16, 4))
        if kind == "tied":
            # Tokens 3, 5 and 9 are all nearest to 7, at distances equal up
            # to rounding, and 7 is nearest to each of them.
            d = 0.0123456789
            protos[3] = protos[7] + [d, 0.0, 0.0, 0.0]
            protos[5] = protos[7] - [0.0, d, 0.0, 0.0]
            protos[9] = protos[7] + [0.0, 0.0, 0.0, d]
        return protos

    @pytest.mark.parametrize("kind", ["none", "distinct", "tied"])
    @pytest.mark.parametrize("level", [0.1, 0.3, 0.6])
    def test_corpus_equals_reference(self, kind, level, only):
        only("substitute", "omit")
        rng = np.random.default_rng(140)
        refs = [rng.integers(0, 16, size=rng.integers(0, 9)) for _ in range(80)]
        vocab = Vocabulary(16)
        for seed in (0, 11, 12345):
            protos = self.prototypes(kind, seed)
            cfg = CorruptionConfig(error_rate=level, rng_seed=seed)
            got = corrupt_corpus(refs, cfg, vocab, prototypes=protos)
            want = references.corrupt_corpus(
                refs, cfg, vocab, prototypes=protos, error_types=("substitute", "omit")
            )
            assert [t.tolist() for t in got] == [t.tolist() for t in want]
            # A transcript alone draws the same way, at the raw rate.
            one = corrupt_one(refs[0], replace(cfg, error_rate=1.0), vocab, prototypes=protos)
            want = references._corrupt_transcript(
                refs[0], ("substitute", "omit"), vocab, protos, np.random.default_rng(seed), 1.0
            )
            assert one.tolist() == want.tolist()

    def test_one_token_vocabulary_substitutes_itself_without_warning(self, only):
        only("substitute")
        cfg = CorruptionConfig(error_rate=1.0, rng_seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = corrupt_one([0, 0, 0], cfg, Vocabulary(1), prototypes=[[0.3, 1.0]])
        assert out.tolist() == [0, 0, 0]

    def test_ties_are_drawn_among_every_nearest(self, only):
        only("substitute")
        protos = self.prototypes("tied", 3)
        vocab = Vocabulary(16)
        subs = {
            int(corrupt_one([7], CorruptionConfig(error_rate=1.0, rng_seed=s), vocab, prototypes=protos)[0])
            for s in range(60)
        }
        assert subs == {3, 5, 9}
