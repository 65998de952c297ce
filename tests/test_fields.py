"""One rule per field.

Every field of the public config dataclasses and of the JSON records the
package reads refuses a bool, a float where an integer belongs, a string,
NaN, +-inf and a value below its range, with an error that names the
field; an int where a real belongs still passes.  A config key refuses what
the field it feeds refuses, with exit 2 naming the key.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY
from twrnnt.cli import main
from twrnnt.config import SCHEMA
from twrnnt.corruption import CorruptionConfig
from twrnnt.datagen import SyntheticSpec, Utterance, dataset_vocab_size
from twrnnt.errors import DataError
from twrnnt.experiments import GenerationConfig
from twrnnt.lattice import lattice_from_json
from twrnnt.model import TransducerModel, load_checkpoint, save_checkpoint
from twrnnt.seeds import stream
from twrnnt.training import RunGroup, TrainConfig
from twrnnt.weighting import WeightConfig

NAN, INF = math.nan, math.inf

COUNTS = {
    "epochs", "batch_size", "dim_hidden", "max_symbols_per_frame", "n_train", "n_valid", "n_test",
    "n_pretrain", "dim_features", "vocab_size", "min_tokens", "max_tokens", "min_frames_per_token",
    "max_frames_per_token", "seed", "rng_seed", "rounds",
}
REALS = {"lr", "alpha", "final_blank_weight", "init_scale", "noise_level", "error_rate"}
NOT_A_REAL = [True, "0.5", None, NAN, INF, -INF]
CHOICES = {
    "mode": [True, 2.5, "token-weights", None, NAN, INF, -1],
    "allow_repeats": [1, 0, 2.5, "maybe", None, NAN, INF, -1],
    "modes": [[True], [2.5], ["bogus"], [NAN], [INF], [-1], [], None, "standard"],
}


def bad_values(name):
    """What field ``name`` must refuse."""
    if name in COUNTS:
        return [True, False, 2.5, 1.0, "3", None, NAN, INF, -INF, -1]
    if name in REALS:
        below = [] if name == "init_scale" else [-1.0, -1]
        return NOT_A_REAL + below + ([1.5] if name == "error_rate" else [])
    if name == "alpha_grid":
        return [[v] for v in NOT_A_REAL + [-1.0]] + [[], None, "2"]
    if name in ("labeled_to_pseudo_ratio", "mix_ratio"):
        return [[v, 9] for v in NOT_A_REAL + [-1.0]] + [[0, 0], [1, 2, 3], [], None]
    return CHOICES[name]


CLASSES = (TrainConfig, WeightConfig, SyntheticSpec, CorruptionConfig, GenerationConfig, RunGroup)
REQUIRED = {
    CorruptionConfig: dict(error_rate=0.3),
    RunGroup: dict(utterances=(), cfgs=(), init_rng=None, order_rng=None),
}
# Every field of each class but RunGroup's corpus, configs and streams.
CONFIG_FIELDS = [
    (cls, name) for cls in CLASSES for name in cls.__dataclass_fields__
    if cls is not RunGroup or name == "mix_ratio"
]


def build(cls, name, value):
    return cls(**{**REQUIRED.get(cls, {}), name: value})


def test_every_config_field_has_a_rule():
    for cls, name in CONFIG_FIELDS:
        assert "rule" in cls.__dataclass_fields__[name].metadata, (cls, name)
        assert bad_values(name), name


@pytest.mark.parametrize("cls, name", CONFIG_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in CONFIG_FIELDS])
@PROPERTY
@given(data=st.data())
def test_config_field_refuses_what_its_rule_refuses(cls, name, data):
    value = data.draw(st.sampled_from(bad_values(name)), label=name)
    with pytest.raises(DataError, match=f"^{name} must"):
        build(cls, name, value)


@pytest.mark.parametrize(
    "cls, name, value",
    [(TrainConfig, "lr", 1), (TrainConfig, "alpha", 0), (TrainConfig, "init_scale", -2),
     (WeightConfig, "final_blank_weight", 3), (SyntheticSpec, "noise_level", 0),
     (CorruptionConfig, "error_rate", 1), (GenerationConfig, "alpha_grid", (0, 2)),
     (GenerationConfig, "labeled_to_pseudo_ratio", (0, 1)), (TrainConfig, "epochs", np.int64(2))],
)
def test_an_int_passes_where_a_real_belongs(cls, name, value):
    assert getattr(build(cls, name, value), name) == value


# Config key -> (class, field) it feeds.  Each entry of ``levels`` is an
# error rate, and the two ratio keys feed one pair.
KEY_FIELDS = {
    **{name: (cls, name) for cls in (TrainConfig, SyntheticSpec) for name in cls.__dataclass_fields__},
    "base_epochs": (TrainConfig, "epochs"),
    "seed": (CorruptionConfig, "rng_seed"),
    "error_rate": (CorruptionConfig, "error_rate"),
    "levels": (CorruptionConfig, "error_rate"),
    "rounds": (GenerationConfig, "rounds"),
    "alpha_grid": (GenerationConfig, "alpha_grid"),
    "modes": (GenerationConfig, "modes"),
    "ratio_labeled": (GenerationConfig, "labeled_to_pseudo_ratio"),
    "ratio_pseudo": (GenerationConfig, "labeled_to_pseudo_ratio"),
}


def numeral(value):
    """Whether the config reads ``value`` as a number, as it reads
    command-line values: a numeral string, or an integral float."""
    if isinstance(value, list):
        return any(map(numeral, value))
    return (isinstance(value, str) and value.replace(".", "", 1).isdigit()) or (
        type(value) is float and value.is_integer()
    )


def key_values(key):
    """Bad values of config ``key`` that the config does not read as good
    ones, as it reads command-line values (a numeral string as a number, an
    integral float as an int, a string as a comma-separated list), each with
    the value of the field it feeds."""
    cls, name = KEY_FIELDS[key]
    if key.startswith("ratio_"):
        return [(v, (v, 9) if key == "ratio_labeled" else (1, v)) for v in [True, "x", None, NAN, INF, -1]]
    values = [[v] for v in bad_values(name)] if key == "levels" else bad_values(name)
    listed = SCHEMA[key][0].startswith("list_")
    keep = [v for v in values if not numeral(v) and not (listed and isinstance(v, str))]
    return [(v, v[0] if key == "levels" else v) for v in keep]


@pytest.mark.parametrize("key", sorted(KEY_FIELDS))
def test_config_key_and_its_field_refuse_the_same_values(tmp_path, capsys, key):
    cls, name = KEY_FIELDS[key]
    config = tmp_path / "config.json"
    for value, field_value in key_values(key):
        with pytest.raises(DataError, match=f"^{name} must"):
            build(cls, name, field_value)
        config.write_text(json.dumps({key: value}))
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "out")])
        error = json.loads(capsys.readouterr().err)
        assert (code, error["error"]) == (2, "config") and key in error["message"], (key, value, error)
        assert not (tmp_path / "out").exists()


UTTERANCE = {"id": "u", "features": [[0.5, -1.0]], "tokens": [1], "confidences": [0.9], "lambda": [1.5]}
LATTICE = {"t": 1, "u": 0, "v": 1, "logp": [-0.5, -1.0]}


def read_checkpoint(tmp_path, **edit):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, TransducerModel.zeros(1, 1, 1))
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    return load_checkpoint(path)[0]


def read_field(tmp_path, name, value):
    """A good record of the reader of field ``name``, read with ``value`` in
    that field."""
    if name in UTTERANCE:
        return Utterance.from_json_obj({**UTTERANCE, name: value})
    if name in LATTICE:
        return lattice_from_json({**LATTICE, name: value})
    if name == "spec.vocab_size":
        return dataset_vocab_size({"spec": {"vocab_size": value}})
    return read_checkpoint(tmp_path, **{name: value})


# Integer record field -> its lower bound.
INTEGER_RECORD_FIELDS = {
    "t": 1, "u": 0, "v": 1, "dim_in": 1, "dim_hidden": 1, "vocab_size": 1, "spec.vocab_size": 1, "tokens": 0,
}


@pytest.mark.parametrize("name", sorted(INTEGER_RECORD_FIELDS))
@PROPERTY
@given(data=st.data())
def test_integer_record_field_refuses_what_is_no_count(tmp_path_factory, name, data):
    below = INTEGER_RECORD_FIELDS[name] - 1
    value = data.draw(st.sampled_from([True, False, 2.5, 1.0, "1", None, NAN, INF, -INF, below]))
    if name == "tokens":
        value = [0, data.draw(st.sampled_from([value, 2**70]))]
    with pytest.raises(DataError, match=rf"\b{name.replace('.', '[.]')} must be"):
        read_field(tmp_path_factory.mktemp("record"), name, value)


REAL_RECORD_FIELDS = ["features", "confidences", "lambda", "logp", "params"]


def real_list(name, entry):
    """A value of field ``name`` of the right shape and size, holding ``entry``."""
    if name == "features":
        return [[0.5, entry]]
    if name == "logp":
        return [-0.5, entry]
    if name == "params":
        return [entry] + [0.0] * (TransducerModel.zeros(1, 1, 1).params.size - 1)
    return [entry]


@pytest.mark.parametrize("name", REAL_RECORD_FIELDS)
@pytest.mark.parametrize("entry", [True, "0.5", None, [0.5]], ids=["bool", "string", "null", "nested"])
def test_real_record_field_refuses_what_is_no_number(tmp_path, name, entry):
    # np.asarray(..., dtype=np.float64) would read "0.5" as 0.5 and true as 1.0.
    with pytest.raises(DataError, match=f"{name} must be a"):
        read_field(tmp_path, name, real_list(name, entry))
    with pytest.raises(DataError, match=f"{name} must be a"):
        read_field(tmp_path, name, "0.5")


@pytest.mark.parametrize("name", REAL_RECORD_FIELDS)
@pytest.mark.parametrize("entry", [NAN, INF, -INF, -2.0, -2])
def test_real_record_field_holds_any_json_number(tmp_path, name, entry):
    # JSON numbers include NaN and +-inf.  A -inf log-probability is a hard
    # zero; the lattice refuses NaN and +inf, and the model every
    # non-finite parameter, as they take them.  The utterance fields load
    # as written: training refuses a non-finite confidence by utterance,
    # and the model a non-finite feature.
    if (name == "logp" and not entry < INF) or (name == "params" and not math.isfinite(entry)):
        with pytest.raises(DataError, match="non-finite|log-probability"):
            read_field(tmp_path, name, real_list(name, entry))
        return
    record = read_field(tmp_path, name, real_list(name, entry))
    got = {
        "features": lambda: record.features[0, 1], "confidences": lambda: record.confidences[0],
        "lambda": lambda: record.lam[0], "logp": lambda: record.logp[0, 0, 1],
        "params": lambda: record.params[0],
    }[name]()
    assert type(got) is np.float64 and (got == entry or (math.isnan(got) and math.isnan(entry)))


def test_ragged_features_name_the_field():
    with pytest.raises(DataError, match="^features must be a list of lists of numbers"):
        Utterance.from_json_obj({**UTTERANCE, "features": [[0.5, -1.0], [0.5]]})


@pytest.mark.parametrize("root", [1.5, True, -1, "1", np.float64(1.0)])
def test_stream_refuses_a_root_seed_that_is_no_count(root):
    # It once took 1.5 and True for 1, and raised a bare ValueError at -1.
    with pytest.raises(DataError, match="^root seed must be an integer >= 0"):
        stream(root, "x")


def test_stream_takes_a_numpy_integer_root_seed():
    assert stream(np.int64(3), "x").integers(2**31) == stream(3, "x").integers(2**31)
