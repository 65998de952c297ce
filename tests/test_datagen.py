import numpy as np
import pytest

from twrnnt.datagen import (
    SyntheticSpec,
    Utterance,
    dataset_vocab_size,
    generate_synthetic_dataset,
    read_dataset,
    write_dataset,
)
from twrnnt.errors import DataError


SMALL = SyntheticSpec(
    n_train=12, n_valid=5, n_test=5, n_pretrain=8, dim_features=4, vocab_size=6, seed=7
)


class TestGeneration:
    def test_split_sizes_match_spec(self, tmp_path):
        paths = generate_synthetic_dataset(SMALL, tmp_path)
        for split, expected in [("train", 12), ("valid", 5), ("test", 5), ("pretrain", 8)]:
            _, utts = read_dataset(paths[split])
            assert len(utts) == expected

    def test_same_seed_byte_identical(self, tmp_path):
        p1 = generate_synthetic_dataset(SMALL, tmp_path / "a")
        p2 = generate_synthetic_dataset(SMALL, tmp_path / "b")
        for split in p1:
            assert p1[split].read_bytes() == p2[split].read_bytes()

    def test_different_seed_differs(self, tmp_path):
        p1 = generate_synthetic_dataset(SMALL, tmp_path / "a")
        spec2 = SyntheticSpec(**{**SMALL.__dict__, "seed": 8})
        p2 = generate_synthetic_dataset(spec2, tmp_path / "b")
        assert p1["train"].read_bytes() != p2["train"].read_bytes()

    def test_utterance_shapes(self, tmp_path):
        paths = generate_synthetic_dataset(SMALL, tmp_path)
        _, utts = read_dataset(paths["train"])
        for u in utts:
            assert SMALL.min_tokens <= u.tokens.size <= SMALL.max_tokens
            assert u.features.shape[1] == SMALL.dim_features
            assert (
                SMALL.min_frames_per_token * u.tokens.size
                <= u.features.shape[0]
                <= SMALL.max_frames_per_token * u.tokens.size
            )
            assert np.all((u.tokens >= 0) & (u.tokens < SMALL.vocab_size))

    def test_splits_disjoint_ids(self, tmp_path):
        paths = generate_synthetic_dataset(SMALL, tmp_path)
        seen = set()
        for split in paths:
            _, utts = read_dataset(paths[split])
            ids = {u.id for u in utts}
            assert not ids & seen
            seen |= ids

    def test_zero_noise_frames_equal_prototypes(self, tmp_path):
        spec = SyntheticSpec(
            n_train=5, n_valid=1, n_test=1, n_pretrain=1,
            dim_features=3, vocab_size=4, noise_level=0.0,
            min_frames_per_token=1, max_frames_per_token=1, seed=3,
        )
        paths = generate_synthetic_dataset(spec, tmp_path)
        meta, utts = read_dataset(paths["train"])
        protos = np.asarray(meta["prototypes"])
        for u in utts:
            np.testing.assert_allclose(u.features, protos[u.tokens], atol=1e-12)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(min_tokens=5, max_tokens=2)
        with pytest.raises(DataError):
            SyntheticSpec(noise_level=-0.1)

    @pytest.mark.parametrize("noise", [np.nan, np.inf], ids=["nan", "inf"])
    def test_noise_level_must_be_finite(self, noise):
        with pytest.raises(DataError, match="noise_level must be finite and >= 0"):
            SyntheticSpec(noise_level=noise)


class TestDatasetIO:
    @pytest.mark.parametrize("size", [16.5, True, 0, -3, "16"])
    def test_header_vocab_size_must_be_a_positive_integer(self, size):
        # int() would read 16.5 as 16 and true as 1; neither is a size.
        with pytest.raises(DataError, match="vocab_size must be an integer >= 1"):
            dataset_vocab_size({"spec": {"vocab_size": size}})

    def test_round_trip_with_optional_fields(self, tmp_path):
        utt = Utterance(
            id="x-1",
            features=np.array([[0.5, -1.0]]),
            tokens=np.array([2]),
            confidences=np.array([0.75]),
            lam=np.array([1.25]),
        )
        path = tmp_path / "d.jsonl"
        write_dataset(path, [utt], {"schema_version": 1, "kind": "twrnnt-dataset"})
        meta, utts = read_dataset(path)
        assert meta["kind"] == "twrnnt-dataset"
        back = utts[0]
        np.testing.assert_array_equal(back.features, utt.features)
        np.testing.assert_array_equal(back.tokens, utt.tokens)
        np.testing.assert_array_equal(back.confidences, utt.confidences)
        np.testing.assert_array_equal(back.lam, utt.lam)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "u", "features": [[0.0]], "tokens": [0]}\n')
        with pytest.raises(DataError, match="header"):
            read_dataset(path)

    def test_header_after_blank_lines(self, tmp_path):
        # The header is the first line that is not blank.
        utt = Utterance(id="u0", features=np.zeros((2, 1)), tokens=np.array([0]))
        path = tmp_path / "d.jsonl"
        write_dataset(path, [utt], {"kind": "twrnnt-dataset"})
        path.write_text("\n  \n" + path.read_text())
        meta, utts = read_dataset(path)
        assert meta["kind"] == "twrnnt-dataset"
        assert [u.id for u in utts] == ["u0"]
        np.testing.assert_array_equal(utts[0].tokens, [0])

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"_meta": {}}\nnot json\n')
        with pytest.raises(DataError, match="invalid JSON"):
            read_dataset(path)
