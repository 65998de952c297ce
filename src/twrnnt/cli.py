"""Command-line surface.

Subcommands map 1:1 onto library operations: gen-data, train, decode,
score-confidence, corrupt, run-corruption, run-pseudolabel, loss-check,
report.  Every config key is a flag; exit codes are 2 for config errors,
3 for data errors, 4 for numerical failures, with one machine-readable
JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .conditionals import conditional_profile, profile_to_json
from .config import SCHEMA, load_config, provenance_block
from .corruption import CorruptionConfig, corrupt_corpus
from .datagen import (
    SyntheticSpec,
    dataset_vocab_size,
    generate_synthetic_dataset,
    read_dataset,
    write_dataset,
)
from .errors import ConfigError, DataError, NumericalError, TwrnntError, check_list
from .experiments import (
    GenerationConfig,
    format_table,
    report_from_json,
    report_to_json,
    run_corruption_experiment,
    run_pseudo_labeling,
)
from .lattice import Vocabulary, as_labels, lattice_from_json, rnnt_loss
from .metrics import corpus_wer
from .model import load_checkpoint, save_checkpoint
from .oracle import MAX_PATHS, exact_conditionals, exact_sequence_logp, path_count
from .seeds import stream
from .training import TrainConfig, decode_corpus, score_confidences, train_model
from .weighting import (
    WeightConfig,
    compute_weights,
    confidence_array,
    packed_weights,
    weighted_rnnt_loss,
)

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat JSON config file")
    group = parser.add_argument_group("config overrides")
    for key, (tag, default) in SCHEMA.items():
        group.add_argument(
            _flag_name(key),
            dest=f"cfg_{key}",
            default=None,
            metavar=tag.upper(),
            help=f"override config key {key} (default {default!r})",
        )


def _effective_config(args) -> dict:
    overrides = {}
    for key in SCHEMA:
        val = getattr(args, f"cfg_{key}", None)
        if val is not None:
            overrides[key] = val
    return load_config(args.config, overrides)


def _from_config(cls, cfg: dict, **keys):
    """The dataclass ``cls`` with each field read from the config key of its
    name, or from the key that ``keys`` names for it."""
    return cls(**{f.name: cfg[keys.get(f.name, f.name)] for f in fields(cls)})


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} not found: {p}")
    return p


def _load_split_dir(cfg: dict) -> tuple:
    if not cfg["data_dir"]:
        raise ConfigError("no data_dir configured (set data_dir or --data-dir)")
    root = Path(cfg["data_dir"])
    splits = {}
    meta = None
    for name in ("train", "valid", "test", "pretrain"):
        meta_i, utts = read_dataset(_require_file(root / f"{name}.jsonl", f"{name} split"))
        splits[name] = utts
        meta = meta or meta_i
    return meta, splits


def cmd_gen_data(args) -> int:
    cfg = _effective_config(args)
    out_dir = args.out or cfg["data_dir"]
    if not out_dir:
        raise ConfigError("gen-data needs --out or a configured data_dir")
    spec = _from_config(SyntheticSpec, cfg)
    paths = generate_synthetic_dataset(
        spec, out_dir, provenance=provenance_block(cfg, "gen-data", __version__)
    )
    for split, path in paths.items():
        print(f"{split}: {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    data_path = args.data or (Path(cfg["data_dir"] or "") / "train.jsonl")
    meta, utts = read_dataset(_require_file(data_path, "training data"))
    vocab_size = dataset_vocab_size(meta)
    tc = _from_config(TrainConfig, cfg)
    seed = cfg["seed"]
    result = train_model(
        utts,
        cfg["dim_features"],
        vocab_size,
        tc,
        init_rng=stream(seed, "cli-train", "init"),
        order_rng=stream(seed, "cli-train", "order"),
    )
    meta_out = {
        "provenance": provenance_block(cfg, "train", __version__),
        "final_epoch_loss": result.epoch_losses[-1],
        "mode": tc.mode,
    }
    save_checkpoint(args.out, result.model, meta=meta_out)
    print(f"trained {tc.mode} model: final epoch loss {result.epoch_losses[-1]:.6f}")
    print(f"checkpoint: {args.out}")
    return 0


def cmd_decode(args) -> int:
    cfg = _effective_config(args)
    model, _ = load_checkpoint(_require_file(args.model, "model checkpoint"))
    meta, utts = read_dataset(_require_file(args.data, "dataset"))
    hyps = decode_corpus(model, utts, cfg["max_symbols_per_frame"])
    meta_out = dict(meta, provenance=provenance_block(cfg, "decode", __version__))
    write_dataset(args.out, hyps, meta_out)
    if any(u.tokens.size for u in utts):
        rate = corpus_wer([h.tokens for h in hyps], [u.tokens for u in utts])
        print(f"corpus WER vs references: {rate:.4f}")
    print(f"hypotheses: {args.out}")
    return 0


def _utterance_lambdas(utt, alpha) -> np.ndarray:
    """The utterance's token weights, normalized to mean 1 over the
    utterance; weights that underflow raise NumericalError naming it."""
    powered = confidence_array(utt.confidences) ** alpha
    if not powered.size:
        return powered
    return packed_weights(powered, [float(np.sum(powered))], alpha, [utt.id])


def cmd_score_confidence(args) -> int:
    cfg = _effective_config(args)
    model, _ = load_checkpoint(_require_file(args.model, "model checkpoint"))
    meta, utts = read_dataset(_require_file(args.data, "dataset"))
    scored = score_confidences(model, utts)
    if args.write_lambda:
        scored = [replace(u, lam=_utterance_lambdas(u, cfg["alpha"])) for u in scored]
    meta_out = dict(meta, provenance=provenance_block(cfg, "score-confidence", __version__))
    write_dataset(args.out, scored, meta_out)
    print(f"scored: {args.out}")
    return 0


def cmd_corrupt(args) -> int:
    cfg = _effective_config(args)
    meta, utts = read_dataset(_require_file(args.data, "dataset"))
    vocab = Vocabulary(dataset_vocab_size(meta))
    corrupted = corrupt_corpus(
        [u.tokens for u in utts],
        _from_config(CorruptionConfig, cfg, rng_seed="seed"),
        vocab,
        prototypes=meta.get("prototypes"),
        calibrate=cfg["calibrate_corruption"],
    )
    out_utts = [
        replace(u, tokens=t, confidences=None, lam=None)
        for u, t in zip(utts, corrupted)
    ]
    meta_out = dict(meta, provenance=provenance_block(cfg, "corrupt", __version__))
    write_dataset(args.out, out_utts, meta_out)
    rate = corpus_wer(corrupted, [u.tokens for u in utts])
    print(f"reference WER after corruption: {rate:.4f}")
    print(f"corrupted: {args.out}")
    return 0


def cmd_run_corruption(args) -> int:
    cfg = _effective_config(args)
    meta, splits = _load_split_dir(cfg)
    report = run_corruption_experiment(
        splits,
        meta,
        levels=cfg["levels"],
        modes=tuple(cfg["modes"]),
        train_cfg=_from_config(TrainConfig, cfg),
        alpha_grid=tuple(cfg["alpha_grid"]),
        seeds=tuple(cfg["seeds"]),
        root_seed=cfg["seed"],
        teacher_cfg=_from_config(TrainConfig, cfg, epochs="base_epochs"),
        include_traces=cfg["include_traces"],
    )
    report.provenance = provenance_block(cfg, "run-corruption", __version__)
    Path(args.out).write_text(report_to_json(report))
    print(format_table(report))
    print(f"report: {args.out}")
    return 0


def cmd_run_pseudolabel(args) -> int:
    cfg = _effective_config(args)
    meta, splits = _load_split_dir(cfg)
    ratio = (cfg["ratio_labeled"], cfg["ratio_pseudo"])  # one field, fed by two keys
    gen = _from_config(GenerationConfig, dict(cfg, labeled_to_pseudo_ratio=ratio))
    report = run_pseudo_labeling(
        splits["train"],
        splits["pretrain"],  # the pretrain split doubles as the unlabeled pool
        splits["valid"],
        splits["test"],
        meta,
        gen,
        _from_config(TrainConfig, cfg),
        seeds=tuple(cfg["seeds"]),
        root_seed=cfg["seed"],
        base_cfg=_from_config(TrainConfig, cfg, epochs="base_epochs"),
        include_traces=cfg["include_traces"],
    )
    report.provenance = provenance_block(cfg, "run-pseudolabel", __version__)
    Path(args.out).write_text(report_to_json(report))
    print(format_table(report))
    print(f"report: {args.out}")
    return 0


def cmd_loss_check(args) -> int:
    cfg = _effective_config(args)
    path = _require_file(args.file, "lattice file")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    lattice = lattice_from_json(obj)
    # Conditionals of a row with more than unit mass can exceed 1, which
    # would surface later as an invalid confidence rather than a bad lattice.
    lse = lattice.row_logsumexp()
    over = lse > 1e-12
    if over.any():
        t, u = np.argwhere(over)[0]
        raise DataError(
            f"{path}: row (t={t}, u={u}) has probability mass above 1 "
            f"(log-sum-exp {lse[t, u]:.3e} > 1e-12)"
        )
    tokens = as_labels(check_list(obj.get("tokens", []), "tokens", integer=True), lattice.vocab)
    print(
        f"lattice: T={lattice.T} U={lattice.U} |V|={lattice.vocab.size}  "
        f"row normalization error {lattice.row_normalization_error():.3e}"
    )
    loss = rnnt_loss(lattice, tokens)
    print(f"rnnt_loss: {loss:.12f}")
    if tokens.size:
        prof = conditional_profile(lattice, tokens)
        print("conditionals: " + ", ".join(f"{c:.12f}" for c in prof.conditionals))
        print(f"final_blank_logp: {prof.final_blank_logp:.12f}")
        weights = compute_weights(prof, WeightConfig(alpha=cfg["alpha"]))
        wl = weighted_rnnt_loss(lattice, tokens, weights)
        print(f"weighted_rnnt_loss (alpha={cfg['alpha']:g}): {wl:.12f}")
        print(f"profile: {profile_to_json(prof)}")
    if path_count(lattice.T, tokens.size) <= MAX_PATHS:
        oracle_loss = -exact_sequence_logp(lattice, tokens)
        print(f"oracle_loss: {oracle_loss:.12f}")
        gap = abs(oracle_loss - loss)
        cond_gap = 0.0
        if tokens.size:
            cond_gap = float(
                np.max(np.abs(exact_conditionals(lattice, tokens) - prof.conditionals))
            )
            print(f"max |conditional - oracle|: {cond_gap:.3e}")
        print(f"|rnnt_loss - oracle_loss|: {gap:.3e}")
        if gap > 1e-9 or cond_gap > 1e-9:
            raise NumericalError(
                f"analytic/oracle disagreement beyond 1e-9 (loss {gap:.3e}, "
                f"conditionals {cond_gap:.3e})"
            )
    else:
        print("oracle: skipped (alignment count exceeds enumeration guard)")
    return 0


def cmd_report(args) -> int:
    _effective_config(args)  # reads no key, but its flags are checked like every command's
    path = _require_file(args.file, "report file")
    try:
        report = report_from_json(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        table = format_table(report)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"{path}: malformed report row: {exc!r}") from None
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twrnnt",
        description="Token-weighted transducer loss lab: data, training, "
        "confidence scoring, corruption and pseudo-labeling experiments.",
    )
    parser.add_argument("--version", action="version", version=f"twrnnt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, configure):
        p = sub.add_parser(name, help=help_)
        _add_config_flags(p)
        configure(p)
        p.set_defaults(func=fn)

    add(
        "gen-data",
        cmd_gen_data,
        "generate synthetic train/valid/test/pretrain splits",
        lambda p: p.add_argument("--out", default=None, help="output directory"),
    )

    def train_args(p):
        p.add_argument("--data", default=None, help="training JSONL (default data_dir/train.jsonl)")
        p.add_argument("--out", required=True, help="checkpoint path")

    add("train", cmd_train, "train a transducer on a dataset", train_args)

    def decode_args(p):
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)

    add("decode", cmd_decode, "greedy-decode a dataset with a checkpoint", decode_args)

    def score_args(p):
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument(
            "--write-lambda",
            action="store_true",
            help="also write per-utterance-normalized weights at --alpha",
        )

    add(
        "score-confidence",
        cmd_score_confidence,
        "attach teacher token conditionals to a dataset",
        score_args,
    )

    def corrupt_args(p):
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)

    add("corrupt", cmd_corrupt, "corrupt transcripts at --error-rate", corrupt_args)

    def rc_args(p):
        p.add_argument("--out", required=True, help="report JSON path")

    add(
        "run-corruption",
        cmd_run_corruption,
        "corruption-recovery experiment over modes and levels",
        rc_args,
    )
    add(
        "run-pseudolabel",
        cmd_run_pseudolabel,
        "iterative pseudo-labeling experiment over modes",
        rc_args,
    )

    add(
        "loss-check",
        cmd_loss_check,
        "validate a serialized lattice: losses, conditionals, oracle comparison",
        lambda p: p.add_argument("file", help="lattice JSON (t, u, v, logp[, tokens])"),
    )
    add(
        "report",
        cmd_report,
        "pretty-print a saved experiment report",
        lambda p: p.add_argument("file", help="report JSON"),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except DataError as exc:
        _emit_error("data", exc)
        return EXIT_DATA
    except NumericalError as exc:
        _emit_error("numerical", exc)
        return EXIT_NUMERIC
    except TwrnntError as exc:  # any uncategorized package error counts as data
        _emit_error("data", exc)
        return EXIT_DATA


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
