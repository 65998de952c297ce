import io
import json
import runpy
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PROPERTY
from twrnnt.cli import _from_config, main
from twrnnt.config import SCHEMA, default_config
from twrnnt.datagen import SyntheticSpec, read_dataset, write_dataset
from twrnnt.experiments import ExperimentReport, report_from_json, report_to_json
from twrnnt.lattice import PosteriorLattice
from twrnnt.metrics import wer
from twrnnt.model import load_checkpoint
from twrnnt.training import TrainConfig, evaluate_wer, score_confidences

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "loss_check_t3u2.json"

TINY = [
    "--n-train", "30", "--n-valid", "10", "--n-test", "12", "--n-pretrain", "20",
    "--vocab-size", "12", "--max-tokens", "6",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@st.composite
def loss_check_payloads(draw):
    """(payload, well_formed): a ``loss-check`` lattice object, each of whose
    parts (dimensions, log-probabilities, tokens) is corrupted one time in
    three, and whether all of them were left intact.  Cells stay below
    log(1/4), so every row's mass is at most 1, except one time in three,
    when they go up to 0; a row above unit mass is malformed too."""
    T, U, V = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    n = T * (U + 1) * (V + 1)
    top = draw(st.sampled_from([-1.4, -1.4, 0.0]))
    cell = st.one_of(st.floats(-50, top), st.just(-np.inf))
    cells = draw(st.lists(cell, min_size=n, max_size=n))
    rows = PosteriorLattice(np.reshape(cells, (T, U + 1, V + 1))).row_logsumexp()
    over_unit = bool(np.any(rows > 1e-12))
    payload = {"t": T, "u": U, "v": V, "logp": cells}
    tokens = draw(st.lists(st.integers(0, V - 1), min_size=U, max_size=U))
    bad = [draw(st.integers(0, 2)) == 0 for _ in range(3)]
    if bad[0]:
        key = draw(st.sampled_from(["t", "u", "v"]))
        low = -1 if key == "u" else 0
        payload[key] = draw(st.one_of(st.integers(-3, low), st.sampled_from([1.5, "x", "2", None, [1], True, False])))
    if bad[1]:
        logp = payload["logp"]
        if draw(st.booleans()):
            logp.insert(draw(st.integers(0, n)), 0.0)
        else:
            logp[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from([float("nan"), np.inf, "x", None, [0.0]])
            )
    if bad[2]:
        tokens = draw(
            st.one_of(
                st.sampled_from(["ab", None, 3, {"0": 0}, tokens + [0]]),
                st.lists(
                    st.one_of(
                        st.floats(allow_nan=True), st.booleans(), st.just(2**70),
                        st.integers(-3, -1), st.integers(V, V + 2),
                    ),
                    min_size=1, max_size=U + 1,
                ),
            )
        )
    # An empty, valid token list may also be left out.
    if tokens or bad[2] or draw(st.booleans()):
        payload["tokens"] = tokens
    return payload, not (any(bad) or over_unit)


BAD_REPORTS = {
    "number": lambda report: 5,
    "list": lambda report: [report],
    "row_without_modes": lambda report: {**report, "rows": [{"level": 0.2}]},
}


@pytest.mark.parametrize("case", sorted(BAD_REPORTS))
def test_malformed_report_exits_3_with_one_json_line(tmp_path, capsys, case):
    good = json.loads(report_to_json(ExperimentReport(kind="corruption", config={}, seeds=(0,), rows=[])))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(BAD_REPORTS[case](good)))
    code, _, err = run(capsys, ["report", str(path)])
    assert code == 3 and "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == "data"


class TestGenData:
    def test_generates_and_reproduces(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["gen-data", "--out", str(tmp_path / "a"), *TINY])
        assert code == 0
        code, _, _ = run(capsys, ["gen-data", "--out", str(tmp_path / "b"), *TINY])
        assert code == 0
        for split in ("train", "valid", "test", "pretrain"):
            assert (tmp_path / "a" / f"{split}.jsonl").read_bytes() == (
                tmp_path / "b" / f"{split}.jsonl"
            ).read_bytes()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"not_a_key": 1}')
        code, _, err = run(
            capsys, ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")]
        )
        assert code == 2
        assert json.loads(err.strip())["error"] == "config"

    @pytest.mark.parametrize(
        "entry",
        [
            '"seeds": [1.5, 2]', '"seeds": [true]', '"seed": 1.5', '"alpha_grid": [true]',
            '"levels": [false, 0.2]', '"modes": ["standard", 1]',
        ],
    )
    def test_config_file_list_entries_follow_the_scalar_rules(self, tmp_path, capsys, entry):
        # A list entry breaks the rule of its scalar type as a scalar value
        # does: no float is an int, and no boolean a number.
        cfg = tmp_path / "c.json"
        cfg.write_text("{" + entry + "}")
        code, _, err = run(capsys, ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert code == 2 and "Traceback" not in err
        (line,) = err.strip().splitlines()
        message = json.loads(line)
        assert message["error"] == "config" and entry.split('"')[1] in message["message"]
        assert not (tmp_path / "d").exists()

    def test_missing_data_exits_3(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["train", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "m.json")],
        )
        assert code == 3
        assert json.loads(err.strip())["error"] == "data"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ws")
    assert main(["gen-data", "--out", str(tmp), *TINY]) == 0
    assert (
        main(
            [
                "train", "--data", str(tmp / "train.jsonl"),
                "--out", str(tmp / "model.json"), "--epochs", "10", *TINY,
            ]
        )
        == 0
    )
    return tmp


# The subcommand of an out-of-range case and any other flag it needs; the
# rest are ``train`` cases.
OUT_OF_RANGE_COMMAND = {
    "--alpha": ["train", "--mode", "token_weights"],
    "--alpha-grid": ["run-corruption"],
    "--rounds": ["run-pseudolabel"],
    "--ratio-pseudo": ["run-pseudolabel", "--ratio-labeled", "0"],
    "--n-train": ["gen-data"],
    "--noise-level": ["gen-data"],
    "--max-tokens": ["gen-data", "--min-tokens", "5"],
}


def command_argv(command, workspace, out):
    """A run of ``command`` on the tiny workspace with one epoch, writing
    to ``out``, where the command writes anything."""
    models = ["--model", str(workspace / "model.json")]
    experiment = [
        "--data-dir", str(workspace), "--out", str(out), "--epochs", "1", "--base-epochs", "1",
        "--seeds", "0", "--alpha-grid", "2", "--rounds", "1", *TINY,
    ]
    return [command] + {
        "gen-data": ["--out", str(out), *TINY],
        "train": ["--data", str(workspace / "train.jsonl"), "--out", str(out), "--epochs", "1", *TINY],
        "decode": [*models, "--data", str(workspace / "test.jsonl"), "--out", str(out)],
        "score-confidence": [
            *models, "--data", str(workspace / "train.jsonl"), "--out", str(out), "--write-lambda",
        ],
        "corrupt": ["--data", str(workspace / "train.jsonl"), "--out", str(out)],
        "run-corruption": experiment,
        "run-pseudolabel": experiment,
        "loss-check": [str(FIXTURE)],
        "report": [str(workspace / "report.json")],
    }[command]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--dim-hidden", "0"), ("--dim-hidden", "-1"), ("--epochs", "0"), ("--base-epochs", "0"),
        ("--batch-size", "0"), ("--max-symbols-per-frame", "0"), ("--lr", "0"), ("--lr", "-0.01"),
        ("--alpha", "nan"), ("--alpha", "-1"), ("--final-blank-weight", "-3"),
        ("--final-blank-weight", "nan"), ("--init-scale", "nan"), ("--init-scale", "inf"),
        ("--alpha-grid", "nan"), ("--alpha-grid", "-2"), ("--rounds", "0"), ("--ratio-pseudo", "0"),
        ("--n-train", "-3"), ("--noise-level", "-1"), ("--max-tokens", "2"),
    ],
)
def test_out_of_range_config_exits_2(workspace, tmp_path, capsys, flag, value):
    command, *extra = OUT_OF_RANGE_COMMAND.get(flag, ["train"])
    argv = command_argv(command, workspace, tmp_path / "out")
    code, _, err = run(capsys, [*argv, *extra, flag, value])
    assert code == 2 and "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == "config"
    assert not (tmp_path / "out").exists()


def bad_config_values(key):
    """Command-line values of config ``key`` that are of the wrong type or
    out of range.  Floats are drawn as their repr, so NaN and infinities
    come out as "nan", "inf" and "-inf"."""
    tag, _ = SCHEMA[key]
    wrong = {
        "int": ["x", "1.5", ""],
        "float": ["x", "1e", ""],
        "bool": ["maybe", "2", ""],
        "str": [],
        "list_int": ["1,x", "1.5"],
        "list_float": ["1,x", "--"],
        "list_str": [],
    }[tag]
    special = st.sampled_from([float("nan"), float("inf"), float("-inf")])
    below = {  # the largest value below the key's range
        "seed": -1, "n_train": -1, "n_valid": -1, "n_test": -1, "n_pretrain": -1,
        "ratio_labeled": -1, "ratio_pseudo": -1, "dim_features": 0, "dim_hidden": 0,
        "vocab_size": 0, "epochs": 0, "base_epochs": 0, "batch_size": 0,
        "max_symbols_per_frame": 0, "rounds": 0, "min_tokens": 0, "min_frames_per_token": 0,
        # Below the default lower end of their range, 3 tokens and 1 frame.
        "max_tokens": 2, "max_frames_per_token": 0,
    }
    if key in below:
        out_of_range = st.integers(-(2**40), below[key]).map(str)
    elif key in ("alpha", "final_blank_weight", "noise_level", "lr", "init_scale"):
        negative = st.floats(max_value=0.0 if key == "lr" else -1e-300, allow_nan=False)
        out_of_range = (special if key == "init_scale" else st.one_of(special, negative)).map(repr)
    elif key == "error_rate":
        out_of_range = st.one_of(special, st.floats(1.0, exclude_min=True), st.floats(max_value=-1e-300)).map(repr)
    elif key in ("levels", "alpha_grid"):
        entry = st.one_of(special, st.floats(max_value=-1e-300))
        if key == "levels":
            entry = st.one_of(entry, st.floats(1.0, exclude_min=True))
        out_of_range = st.one_of(
            st.just(""), st.lists(entry.map(repr), min_size=1, max_size=3).map(",".join)
        )
    elif key == "seeds":
        out_of_range = st.one_of(st.just(""), st.integers(max_value=-1).map(str))
    elif key in ("mode", "modes"):
        out_of_range = st.sampled_from(["", "bogus", "Standard", "token-weights"])
    elif key == "data_dir":
        out_of_range = st.just("missing-data-dir")
    else:  # the booleans have no range
        out_of_range = st.nothing()
    return st.one_of(st.sampled_from(wrong), out_of_range) if wrong else out_of_range


class TestConfigFuzz:
    """Every subcommand, given one wrong-typed or out-of-range value of any
    config key, exits 2 naming the key with one JSON line on stderr, before
    it writes anything.  A missing ``data_dir`` is a data error (exit 3) in
    the experiments, the commands that read it."""

    @pytest.fixture(scope="class")
    def report_file(self, workspace):
        report = ExperimentReport(kind="corruption", config={}, seeds=(0,), rows=[])
        (workspace / "report.json").write_text(report_to_json(report))

    @pytest.mark.parametrize(
        "command",
        [
            "gen-data", "train", "decode", "score-confidence", "corrupt",
            "run-corruption", "run-pseudolabel", "loss-check", "report",
        ],
    )
    @settings(PROPERTY, max_examples=3)
    @given(data=st.data())
    def test_bad_value_of_every_key_exits_cleanly(
        self, workspace, report_file, tmp_path_factory, command, data
    ):
        out = tmp_path_factory.mktemp("fuzz") / "out"
        for key in SCHEMA:
            if key == "data_dir" and not command.startswith("run-"):
                continue
            value = data.draw(bad_config_values(key), label=key)
            argv = [*command_argv(command, workspace, out), f"--{key.replace('_', '-')}={value}"]
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(argv)
            (line,) = err.getvalue().splitlines()
            message = json.loads(line)
            if key == "data_dir":
                assert (code, message["error"]) == (3, "data"), (key, value, message)
            else:
                assert (code, message["error"]) == (2, "config"), (key, value, message)
                assert key in message["message"], (key, value, message)
            assert not out.exists()


class TestTrainDecodeScore:

    def test_checkpoint_exists_with_provenance(self, workspace):
        obj = json.loads((workspace / "model.json").read_text())
        assert obj["kind"] == "twrnnt-checkpoint"
        assert "config_hash" in obj["meta"]["provenance"]

    def test_decode_writes_hypotheses_and_wer(self, workspace, capsys):
        code, out, _ = run(
            capsys,
            [
                "decode", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "test.jsonl"),
                "--out", str(workspace / "hyps.jsonl"), *TINY,
            ],
        )
        assert code == 0
        assert "corpus WER" in out
        meta, hyps = read_dataset(workspace / "hyps.jsonl")
        assert meta["provenance"]["command"] == "decode"
        assert len(hyps) == 12

    def test_decode_wer_equals_evaluate_wer(self, workspace, tmp_path, capsys):
        # Insertions against an empty reference count, as in evaluate_wer.
        # The references' scores and weights do not carry over to the
        # hypotheses.
        meta, utts = read_dataset(workspace / "test.jsonl")
        utts = [
            replace(u, confidences=np.full(u.tokens.size, 0.5), lam=np.ones(u.tokens.size))
            for u in utts
        ]
        utts[0] = replace(utts[0], tokens=np.zeros(0, np.int64), confidences=None, lam=None)
        write_dataset(tmp_path / "data.jsonl", utts, meta)
        code, out, _ = run(
            capsys,
            [
                "decode", "--model", str(workspace / "model.json"),
                "--data", str(tmp_path / "data.jsonl"), "--out", str(tmp_path / "hyps.jsonl"), *TINY,
            ],
        )
        assert code == 0
        _, hyps = read_dataset(tmp_path / "hyps.jsonl")
        assert hyps[0].tokens.size > 0  # the empty reference really has insertions
        assert all(h.confidences is None and h.lam is None for h in hyps)
        model, _ = load_checkpoint(workspace / "model.json")
        assert f"corpus WER vs references: {evaluate_wer(model, utts):.4f}" in out

    def test_score_confidence_attaches_scores_and_lambdas(self, workspace, capsys):
        code, _, _ = run(
            capsys,
            [
                "score-confidence", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "train.jsonl"),
                "--out", str(workspace / "scored.jsonl"),
                "--write-lambda", "--alpha", "2.0", *TINY,
            ],
        )
        assert code == 0
        _, scored = read_dataset(workspace / "scored.jsonl")
        for u in scored:
            assert u.confidences is not None and u.confidences.size == u.tokens.size
            assert u.lam is not None
            if u.lam.size:
                assert np.mean(u.lam) == pytest.approx(1.0, abs=1e-9)


    def test_nan_confidence_exits_3_naming_the_utterance(self, workspace, tmp_path, capsys):
        meta, utts = read_dataset(workspace / "train.jsonl")
        utts = [replace(u, confidences=np.full(u.tokens.size, 0.5)) for u in utts]
        bad = utts[-1].confidences.copy()
        bad[-1] = np.nan
        utts[-1] = replace(utts[-1], confidences=bad)
        write_dataset(tmp_path / "nan.jsonl", utts, meta)
        assert "NaN" in (tmp_path / "nan.jsonl").read_text()
        code, _, err = run(
            capsys,
            [
                "train", "--data", str(tmp_path / "nan.jsonl"), "--out", str(tmp_path / "m.json"),
                "--mode", "token_weights", "--epochs", "1", *TINY,
            ],
        )
        assert code == 3
        (line,) = err.strip().splitlines()
        obj = json.loads(line)
        assert obj["error"] == "data" and f"utterance {utts[-1].id}: " in obj["message"]


def with_tokens(line, tokens):
    return json.dumps(dict(json.loads(line), tokens=tokens))


# Dataset files that must be refused as data errors, each an edit of a good
# file's lines.  Tokens that are floats or overflow int64 must not be
# truncated or raised as an OverflowError.
BAD_DATASETS = {
    "header_not_an_object": lambda lines: ["5"] + lines[1:],
    "meta_not_an_object": lambda lines: ['{"_meta": [1]}'] + lines[1:],
    "record_not_an_object": lambda lines: lines + ["[1, 2]"],
    "token_beyond_int64": lambda lines: lines[:2] + [with_tokens(lines[2], [1, 2**70])] + lines[3:],
    "non_integer_tokens": lambda lines: lines[:2] + [with_tokens(lines[2], [1.5, 2.7])] + lines[3:],
}


class TestBadDatasets:
    @pytest.mark.parametrize("command", ["train", "decode", "score-confidence", "corrupt"])
    @pytest.mark.parametrize("case", sorted(BAD_DATASETS))
    def test_exits_3_with_one_json_line(self, workspace, tmp_path, capsys, command, case):
        lines = (workspace / "test.jsonl").read_text().splitlines()
        data = tmp_path / "bad.jsonl"
        data.write_text("\n".join(BAD_DATASETS[case](lines)) + "\n")
        model = ["--model", str(workspace / "model.json")]
        argv = {
            "train": ["train", "--epochs", "1"],
            "decode": ["decode", *model],
            "score-confidence": ["score-confidence", *model],
            "corrupt": ["corrupt"],
        }[command]
        code, _, err = run(capsys, [*argv, "--data", str(data), "--out", str(tmp_path / "out"), *TINY])
        assert code == 3 and "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert json.loads(line)["error"] == "data"


class TestWeightUnderflow:
    @pytest.mark.parametrize("mode, alpha, confidence", [("token_weights", "6", 1e-60), ("utterance_weights", "100", 1e-4)])
    def test_train_exits_4_naming_alpha(self, workspace, tmp_path, capsys, mode, alpha, confidence):
        meta, utts = read_dataset(workspace / "train.jsonl")
        utts = [replace(u, confidences=np.full(u.tokens.size, confidence)) for u in utts[:6]]
        write_dataset(tmp_path / "scored.jsonl", utts, meta)
        code, _, err = run(
            capsys,
            [
                "train", "--data", str(tmp_path / "scored.jsonl"), "--out", str(tmp_path / "m.json"),
                "--mode", mode, "--alpha", alpha, "--epochs", "1", *TINY,
            ],
        )
        assert code == 4 and "Traceback" not in err
        (line,) = err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "numerical"
        assert f"raised to alpha {alpha} underflow to 0" in error["message"]
        assert not (tmp_path / "m.json").exists()

    def test_write_lambda_exits_4_naming_the_utterance(self, workspace, tmp_path, capsys):
        # Each utterance is its own weighting scope: the first whose
        # c^1000 all underflow stops the command, named by its id.
        model, _ = load_checkpoint(workspace / "model.json")
        _, utts = read_dataset(workspace / "train.jsonl")
        first = next(
            u for u in score_confidences(model, utts)
            if u.confidences.size and np.all(u.confidences**1000.0 == 0.0)
        )
        out = tmp_path / "scored.jsonl"
        code, _, err = run(
            capsys,
            [
                "score-confidence", "--model", str(workspace / "model.json"),
                "--data", str(workspace / "train.jsonl"), "--out", str(out),
                "--write-lambda", "--alpha", "1000", *TINY,
            ],
        )
        assert code == 4 and "Traceback" not in err
        (line,) = err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "numerical"
        assert error["message"].startswith(
            f"confidences of utterances {first.id} raised to alpha 1000 underflow to 0"
        )
        assert not out.exists()


class TestCorrupt:
    def test_zero_rate_identical_except_header(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path), *TINY]) == 0
        code, _, _ = run(
            capsys,
            [
                "corrupt", "--data", str(tmp_path / "train.jsonl"),
                "--out", str(tmp_path / "zero.jsonl"), "--error-rate", "0", *TINY,
            ],
        )
        assert code == 0
        src = (tmp_path / "train.jsonl").read_text().splitlines()
        dst = (tmp_path / "zero.jsonl").read_text().splitlines()
        assert src[0] != dst[0]  # provenance header differs
        assert src[1:] == dst[1:]  # data lines identical

    def test_accepts_decode_output_with_empty_hypotheses(self, workspace, tmp_path, capsys):
        # A decode of the first utterances by a blank-only model: every
        # hypothesis but the last is empty.
        meta, utts = read_dataset(workspace / "train.jsonl")
        utts = [replace(u, tokens=u.tokens[:0]) for u in utts[:5]] + [utts[5]]
        write_dataset(tmp_path / "hyp.jsonl", utts, meta)
        code, out, err = run(
            capsys,
            [
                "corrupt", "--data", str(tmp_path / "hyp.jsonl"),
                "--out", str(tmp_path / "c.jsonl"), "--error-rate", "0.3", *TINY,
            ],
        )
        assert code == 0, err
        _, corrupted = read_dataset(tmp_path / "c.jsonl")
        assert [u.tokens.size for u in corrupted[:5]] == [0] * 5
        assert corrupted[5].tokens.size > 0

    def test_no_tokens_at_all_exits_3(self, workspace, tmp_path, capsys):
        meta, utts = read_dataset(workspace / "train.jsonl")
        write_dataset(tmp_path / "empty.jsonl", [replace(u, tokens=u.tokens[:0]) for u in utts[:4]], meta)
        code, _, err = run(
            capsys,
            ["corrupt", "--data", str(tmp_path / "empty.jsonl"), "--out", str(tmp_path / "c.jsonl"), *TINY],
        )
        assert code == 3 and "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert json.loads(line)["error"] == "data" and "no tokens" in line

    def test_nonzero_rate_reports_measured_wer(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path), *TINY]) == 0
        code, out, _ = run(
            capsys,
            [
                "corrupt", "--data", str(tmp_path / "train.jsonl"),
                "--out", str(tmp_path / "c.jsonl"), "--error-rate", "0.3", *TINY,
            ],
        )
        assert code == 0
        assert "reference WER" in out
        # The printed rate is the corpus WER of the written transcripts: the
        # per-pair edit distances summed over the reference token count.
        (line,) = [x for x in out.splitlines() if x.startswith("reference WER")]
        _, refs = read_dataset(tmp_path / "train.jsonl")
        _, hyps = read_dataset(tmp_path / "c.jsonl")
        dist = sum(wer(h.tokens, r.tokens).distance for h, r in zip(hyps, refs))
        rate = dist / sum(r.tokens.size for r in refs)
        assert rate > 0 and line == f"reference WER after corruption: {rate:.4f}"


class TestLossCheck:
    def test_fixture_agrees_to_ten_decimals(self, capsys):
        code, out, _ = run(capsys, ["loss-check", str(FIXTURE)])
        assert code == 0
        lines = dict(
            line.split(":", 1) for line in out.splitlines() if ":" in line
        )
        analytic = float(lines["rnnt_loss"])
        oracle = float(lines["oracle_loss"])
        assert abs(analytic - oracle) < 1e-10

    def test_malformed_lattice_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"t": 2, "u": 1, "v": 2, "logp": [0.0, 0.0]}')
        code, _, err = run(capsys, ["loss-check", str(bad)])
        assert code == 3

    def test_zero_probability_prefix_exits_4(self, tmp_path, capsys):
        logp = np.full((2, 2, 3), -np.inf)
        logp[:, :, 2] = 0.0
        f = tmp_path / "zero.json"
        f.write_text(
            json.dumps(
                {"t": 2, "u": 1, "v": 2, "logp": list(map(float, logp.ravel())), "tokens": [0]}
            )
        )
        code, _, err = run(capsys, ["loss-check", str(f)])
        assert code == 4
        assert json.loads(err.strip())["error"] == "numerical"

    def test_row_mass_above_one_exits_3(self, tmp_path, capsys):
        # Row (t=1, u=0) holds mass 2; it used to pass here and fail later
        # as "confidence c[0] ... exceeds 1".
        logp = np.full((2, 2, 2), np.log(0.25))
        logp[1, 0] = 0.0
        f = tmp_path / "heavy.json"
        f.write_text(
            json.dumps({"t": 2, "u": 1, "v": 1, "logp": logp.ravel().tolist(), "tokens": [0]})
        )
        code, _, err = run(capsys, ["loss-check", str(f)])
        assert code == 3
        message = json.loads(err.strip())["message"]
        assert "row (t=1, u=0)" in message and "above 1" in message

    @pytest.mark.parametrize(
        "logp",
        [["-0.6931471805599453", "-0.6931471805599453"], [False, -1000.0]],
        ids=["strings", "boolean"],
    )
    def test_non_numeric_logp_exits_3(self, tmp_path, capsys, logp):
        # NumPy reads a numeric string as its number and false as 0.0, so
        # both payloads are well-formed T = 1, U = 0, |V| = 1 lattices to it.
        f = tmp_path / "not_numbers.json"
        f.write_text(json.dumps({"t": 1, "u": 0, "v": 1, "logp": logp}))
        code, _, err = run(capsys, ["loss-check", str(f)])
        assert code == 3 and "Traceback" not in err
        assert "logp must be a flat list of numbers" in json.loads(err.strip())["message"]

    @pytest.mark.parametrize(
        "tokens, expected",
        [([True], "tokens must be a flat list of integers >= 0, got bool entries"),
         (["0"], "tokens must be a flat list of integers >= 0, got str entries"),
         ([1], "token index 1 outside vocabulary of size 1")],
        ids=["boolean", "string", "outside_vocabulary"],
    )
    def test_bad_tokens_exit_3(self, tmp_path, capsys, tokens, expected):
        f = tmp_path / "tokens.json"
        half = -0.6931471805599453
        f.write_text(json.dumps({"t": 1, "u": 1, "v": 1, "logp": [half] * 4, "tokens": tokens}))
        code, _, err = run(capsys, ["loss-check", str(f)])
        assert code == 3 and expected in json.loads(err.strip())["message"]

    def test_fixture_is_what_its_script_writes(self, tmp_path):
        # The script is the one writer of the interchange form.  A copy
        # writes beside itself, so the committed fixture is only read.
        script = tmp_path / "make_loss_check_fixture.py"
        shutil.copy(FIXTURE.parent / script.name, script)
        runpy.run_path(str(script), run_name="__main__")
        assert (tmp_path / FIXTURE.name).read_bytes() == FIXTURE.read_bytes()

    def test_boolean_dimensions_exit_3(self, tmp_path, capsys):
        # JSON true and false are not sizes, though Python takes them for
        # 1 and 0: this payload once parsed as a T = 1, U = 0 lattice.
        f = tmp_path / "bools.json"
        f.write_text(json.dumps({"t": True, "u": False, "v": True, "logp": [-1.0, -2.0]}))
        code, _, err = run(capsys, ["loss-check", str(f)])
        assert code == 3 and "Traceback" not in err
        (line,) = err.strip().splitlines()
        message = json.loads(line)
        assert message["error"] == "data" and "t must be an integer >= 1, got True" in message["message"]

    @PROPERTY
    @given(case=loss_check_payloads())
    @example(case=({"t": 1, "u": 0, "v": 1, "logp": [-1.0, -0.5], "tokens": "ab"}, False))
    @example(case=({"t": 1, "u": 0, "v": 1, "logp": [-1.0, -0.5], "tokens": None}, False))
    @example(case=({"t": 1, "u": 1, "v": 1, "logp": [-1.0, -0.5] * 2, "tokens": [0.5]}, False))
    @example(case=({"t": -1, "u": -2, "v": 1, "logp": [0.0, 0.0]}, False))
    def test_fuzzed_payloads_exit_cleanly(self, case, tmp_path_factory):
        # Malformed input exits 3, well-formed input 0 or 4 (zero
        # probability, oracle disagreement); any failure is one JSON line.
        payload, well_formed = case
        path = tmp_path_factory.mktemp("fuzz") / "lattice.json"
        path.write_text(json.dumps(payload))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["loss-check", str(path)])
        assert code == 3 if not well_formed else code in (0, 4)
        if code:
            (line,) = err.getvalue().splitlines()
            assert set(json.loads(line)) == {"error", "message"}


class TestExperimentsCli:
    def test_run_pseudolabel_alpha_zero_collapse(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path), *TINY]) == 0
        code, out, _ = run(
            capsys,
            [
                "run-pseudolabel", "--data-dir", str(tmp_path),
                "--out", str(tmp_path / "rep.json"),
                "--rounds", "1", "--alpha-grid", "0",
                "--seeds", "0", "--epochs", "3", "--base-epochs", "8",
                "--include-traces", "true", *TINY,
            ],
        )
        assert code == 0
        rep = report_from_json((tmp_path / "rep.json").read_text())
        modes = rep.rows[0]["modes"]
        std = np.asarray(modes["standard"]["loss_trace_per_seed"][0])
        tok = np.asarray(modes["token_weights"]["loss_trace_per_seed"][0])
        assert np.max(np.abs(std - tok)) < 1e-9

    def test_run_corruption_and_report_roundtrip(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path), *TINY]) == 0
        args = [
            "run-corruption", "--data-dir", str(tmp_path),
            "--out", str(tmp_path / "rep.json"),
            "--levels", "0.2", "--alpha-grid", "2", "--seeds", "0",
            "--epochs", "3", "--base-epochs", "6",
            "--modes", "standard,token_weights", *TINY,
        ]
        code, out1, _ = run(capsys, args)
        assert code == 0
        assert "token_weights" in out1
        first = (tmp_path / "rep.json").read_text()
        code, _, _ = run(capsys, args)
        assert (tmp_path / "rep.json").read_text() == first  # reproducible
        code, out2, _ = run(capsys, ["report", str(tmp_path / "rep.json")])
        assert code == 0
        assert "Recovered" in out2

    def test_run_corruption_without_prototypes(self, tmp_path, capsys):
        # Substitutes are then uniform over the vocabulary, as in ``corrupt``.
        assert main(["gen-data", "--out", str(tmp_path), *TINY]) == 0
        for split in ("train", "valid", "test", "pretrain"):
            meta, utts = read_dataset(tmp_path / f"{split}.jsonl")
            del meta["prototypes"]
            write_dataset(tmp_path / f"{split}.jsonl", utts, meta)
        code, _, err = run(
            capsys,
            [
                "run-corruption", "--data-dir", str(tmp_path), "--out", str(tmp_path / "rep.json"),
                "--levels", "0.2", "--alpha-grid", "2", "--seeds", "0", "--epochs", "1",
                "--base-epochs", "1", "--modes", "standard,token_weights", *TINY,
            ],
        )
        assert code == 0, err
        assert report_from_json((tmp_path / "rep.json").read_text()).rows

    def test_help_lists_every_config_flag(self, capsys):
        from twrnnt.config import SCHEMA

        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        for key in SCHEMA:
            assert "--" + key.replace("_", "-") in out


def test_config_classes_take_every_field_from_the_schema():
    # The commands build these classes by field name from the config, so
    # every field is a config key whose default is the class's own.
    config = default_config()
    for cls in (TrainConfig, SyntheticSpec):
        for f in fields(cls):
            assert f.name in SCHEMA and SCHEMA[f.name][1] == f.default, (cls, f.name)
        assert _from_config(cls, config) == cls()
    base = _from_config(TrainConfig, config, epochs="base_epochs")
    assert base == TrainConfig(epochs=SCHEMA["base_epochs"][1])
