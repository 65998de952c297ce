"""Experiment engines: label-corruption recovery and iterative pseudo-labeling.

Both engines compare three training objectives (standard, utterance-level
confidence weights, token-level confidence weights) under identical recipes,
select the weight exponent on validation WER, and emit a JSON-serializable
report plus a human-readable table.  All randomness derives from one root
seed through named streams, so reports are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .corruption import CorruptionConfig, corrupt_corpus
from .datagen import Utterance, dataset_vocab_size
from .errors import DataError
from .lattice import Vocabulary
from .model import greedy_decode
from .seeds import stream
from .training import (
    MODES,
    TrainConfig,
    evaluate_wer,
    score_confidences,
    train_runs,
)

__all__ = [
    "GenerationConfig",
    "ExperimentReport",
    "run_corruption_experiment",
    "run_pseudo_labeling",
    "report_to_json",
    "report_from_json",
    "format_table",
]


@dataclass(frozen=True)
class GenerationConfig:
    """Pseudo-labeling schedule: rounds, exponent grid, mixing ratio, and
    which training modes to compare."""

    rounds: int = 3
    alpha_grid: tuple = (1.0, 2.0, 4.0, 6.0, 8.0)
    labeled_to_pseudo_ratio: tuple = (1, 9)
    modes: tuple = MODES

    def __post_init__(self):
        if self.rounds < 1:
            raise DataError(f"rounds must be >= 1, got {self.rounds}")
        if not self.alpha_grid:
            raise DataError("alpha_grid must be nonempty")
        bad = [m for m in self.modes if m not in MODES]
        if bad or not self.modes:
            raise DataError(f"modes must be a nonempty subset of {MODES}, got {bad}")
        lo, hi = self.labeled_to_pseudo_ratio
        if lo < 0 or hi < 0 or lo + hi == 0:
            raise DataError(
                f"labeled_to_pseudo_ratio must be nonnegative and nonzero, "
                f"got {self.labeled_to_pseudo_ratio}"
            )


@dataclass
class ExperimentReport:
    """Per-level or per-round results for every mode, plus seed-averaged
    recovery fractions where a corrupted baseline exists."""

    kind: str
    config: dict
    seeds: tuple
    rows: list
    clean_wer: Optional[float] = None
    provenance: dict = field(default_factory=dict)


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(
        {
            "kind": report.kind,
            "config": report.config,
            "seeds": list(report.seeds),
            "rows": report.rows,
            "clean_wer": report.clean_wer,
            "provenance": report.provenance,
        },
        sort_keys=True,
    )


def report_from_json(text) -> ExperimentReport:
    obj = json.loads(text) if isinstance(text, (str, bytes)) else text
    try:
        return ExperimentReport(
            kind=obj["kind"],
            config=obj["config"],
            seeds=tuple(obj["seeds"]),
            rows=obj["rows"],
            clean_wer=obj.get("clean_wer"),
            provenance=obj.get("provenance", {}),
        )
    except KeyError as exc:
        raise DataError(f"malformed report JSON: missing {exc}") from exc


def _mean(xs) -> float:
    return float(np.mean(np.asarray(xs, dtype=np.float64)))


def _train_runs(utts, dims, cfgs, root_seed, tag, init_model=None, pseudo=None, ratio=(1, 9)):
    """Train the runs ``cfgs`` of stream ``tag`` in lockstep: they share
    the init and batch order drawn from it."""
    D, V = dims
    return train_runs(
        utts,
        D,
        V,
        cfgs,
        init_rng=stream(root_seed, "init", *tag),
        order_rng=stream(root_seed, "order", *tag),
        init_model=init_model,
        pseudo=pseudo,
        mix_ratio=ratio,
    )


def _train_once(utts, dims, cfg, root_seed, tag, init_model=None, pseudo=None, ratio=(1, 9)):
    return _train_runs(utts, dims, [cfg], root_seed, tag, init_model, pseudo, ratio)[0]


def _train_trials(utts, dims, train_cfg, grids, root_seed, tag, **kwargs):
    """Train every (mode, alpha) of ``grids``, a list of (mode, alphas), in
    one lockstep call; returns (mode, alphas, results) per entry."""
    cfgs = [replace(train_cfg, mode=m, alpha=a) for m, alphas in grids for a in alphas]
    results = iter(_train_runs(utts, dims, cfgs, root_seed, tag, **kwargs))
    return [(mode, alphas, [next(results) for _ in alphas]) for mode, alphas in grids]


def _select_alpha(results):
    """results: list of (alpha, valid_wer, payload); ties prefer smaller alpha."""
    best = min(results, key=lambda r: (r[1], r[0]))
    return best


def run_corruption_experiment(
    splits: dict,
    meta: dict,
    levels: Sequence[float],
    modes: Sequence[str],
    train_cfg: TrainConfig,
    alpha_grid: Sequence[float] = (1.0, 2.0, 4.0, 6.0, 8.0),
    seeds: Sequence[int] = (0, 1, 2),
    root_seed: int = 0,
    teacher_cfg: Optional[TrainConfig] = None,
    include_traces: bool = False,
) -> ExperimentReport:
    """Corrupt the train transcripts, score them with a scorer trained on the
    disjoint pretrain split, train one fresh student per mode, and report
    test WER and the fraction of the corruption-induced degradation each
    weighted mode recovers.
    """
    for name in ("train", "valid", "test", "pretrain"):
        if name not in splits or not splits[name]:
            raise DataError(f"corruption experiment needs a nonempty {name!r} split")
    bad = [m for m in modes if m not in MODES]
    if bad:
        raise DataError(f"unknown modes {bad}")
    train, valid, test, pretrain = (
        splits["train"],
        splits["valid"],
        splits["test"],
        splits["pretrain"],
    )
    vocab = Vocabulary(dataset_vocab_size(meta))
    prototypes = np.asarray(meta["prototypes"], dtype=np.float64)
    dims = (train[0].features.shape[1], vocab.size)

    teacher_cfg = teacher_cfg or train_cfg
    teacher = _train_once(
        pretrain, dims, replace(teacher_cfg, mode="standard"), root_seed, ("teacher",)
    ).model

    clean_wers = []
    for seed in seeds:
        res = _train_once(
            train, dims, replace(train_cfg, mode="standard"), root_seed,
            ("clean", seed),
        )
        clean_wers.append(evaluate_wer(res.model, test, train_cfg.max_symbols_per_frame))
    clean_wer = _mean(clean_wers)

    rows = []
    for level in levels:
        per_mode = {m: {"per_seed": [], "chosen_alpha": []} for m in modes}
        traces = {m: [] for m in modes}
        for seed in seeds:
            cor_cfg = CorruptionConfig(
                error_rate=float(level),
                rng_seed=int(
                    stream(root_seed, "corrupt", seed, int(level * 1000)).integers(2**31)
                ),
            )
            corrupted_tokens = corrupt_corpus(
                [u.tokens for u in train], cor_cfg, vocab, prototypes=prototypes
            )
            corrupted = [
                replace(u, tokens=t) for u, t in zip(train, corrupted_tokens)
            ]
            scored = score_confidences(teacher, corrupted)
            # One stream per (level, seed): every mode and exponent sees
            # identical inits and batch orders, pairing the comparison, so
            # all of them train in one lockstep call.
            grids = [
                (mode, [train_cfg.alpha] if mode == "standard" else [float(a) for a in alpha_grid])
                for mode in modes
            ]
            trials = _train_trials(scored, dims, train_cfg, grids, root_seed, ("corr", level, seed))
            for mode, alphas, runs in trials:
                if mode == "standard":
                    alpha, res = None, runs[0]
                else:
                    alpha, _, res = _select_alpha([
                        (a, evaluate_wer(r.model, valid, train_cfg.max_symbols_per_frame), r)
                        for a, r in zip(alphas, runs)
                    ])
                per_mode[mode]["per_seed"].append(
                    evaluate_wer(res.model, test, train_cfg.max_symbols_per_frame)
                )
                per_mode[mode]["chosen_alpha"].append(alpha)
                if include_traces:
                    traces[mode].append(res.batch_losses)
        row = {"level": float(level), "modes": {}}
        for mode in modes:
            row["modes"][mode] = {
                "wer": _mean(per_mode[mode]["per_seed"]),
                "per_seed": per_mode[mode]["per_seed"],
                "chosen_alpha": per_mode[mode]["chosen_alpha"],
            }
            if include_traces:
                row["modes"][mode]["loss_trace_per_seed"] = traces[mode]
        if "standard" in modes:
            base = row["modes"]["standard"]["wer"]
            degraded = base - clean_wer
            row["recovered"] = {}
            for mode in modes:
                if mode == "standard":
                    continue
                if degraded > 0:
                    row["recovered"][mode] = (
                        base - row["modes"][mode]["wer"]
                    ) / degraded
                else:
                    row["recovered"][mode] = None  # baseline did not degrade
        rows.append(row)
    return ExperimentReport(
        kind="corruption",
        config={
            "levels": [float(x) for x in levels],
            "modes": list(modes),
            "alpha_grid": [float(a) for a in alpha_grid],
            "train": train_cfg.__dict__,
            "root_seed": root_seed,
        },
        seeds=tuple(seeds),
        rows=rows,
        clean_wer=clean_wer,
    )


def _decode_pool(model, utts, max_symbols):
    out = []
    for u in utts:
        hyp, _ = greedy_decode(model, u.features, max_symbols)
        out.append(replace(u, tokens=hyp, confidences=None, lam=None))
    return out


def run_pseudo_labeling(
    labeled: Sequence[Utterance],
    unlabeled: Sequence[Utterance],
    valid: Sequence[Utterance],
    test: Sequence[Utterance],
    meta: dict,
    cfg: GenerationConfig,
    train_cfg: TrainConfig,
    seeds: Sequence[int] = (0, 1, 2),
    root_seed: int = 0,
    base_cfg: Optional[TrainConfig] = None,
    include_traces: bool = False,
) -> ExperimentReport:
    """Iterative pseudo-labeling: the base model trains on labeled data only;
    each round decodes the unlabeled pool with the previous round's model,
    scores the hypotheses with it, and trains a fresh student per mode on the
    labeled + pseudo mix.  The weight exponent is re-selected per round on
    validation WER.

    ``base_cfg`` trains the round-0 base (more epochs suit the small labeled
    pool); it defaults to ``train_cfg``.
    """
    if not labeled or not unlabeled:
        raise DataError("pseudo-labeling needs nonempty labeled and unlabeled splits")
    vocab_size = dataset_vocab_size(meta)
    dims = (labeled[0].features.shape[1], vocab_size)
    max_sym = train_cfg.max_symbols_per_frame
    base_cfg = base_cfg or train_cfg

    per_seed_rows = {seed: [] for seed in seeds}
    base_wers = []
    for seed in seeds:
        base = _train_once(
            labeled, dims, replace(base_cfg, mode="standard"), root_seed,
            ("base", seed),
        ).model
        base_wers.append(evaluate_wer(base, test, max_sym))
        teachers = {m: base for m in cfg.modes}
        for rnd in range(1, cfg.rounds + 1):
            # Modes that share a teacher share its pool, decoded and scored
            # once.  In round 1 every mode's teacher is the base model.
            groups = []
            for mode in cfg.modes:
                for teacher, group in groups:
                    if teacher is teachers[mode]:
                        group.append(mode)
                        break
                else:
                    groups.append((teachers[mode], [mode]))
            round_row = {}
            for teacher, group in groups:
                pseudo = _decode_pool(teacher, unlabeled, max_sym)
                if all(p.tokens.size == 0 for p in pseudo):
                    raise DataError(
                        f"round {rnd} ({', '.join(group)}): teacher produced only "
                        f"empty hypotheses"
                    )
                pseudo = score_confidences(teacher, pseudo)
                grids = [
                    (mode, [float(a) for a in cfg.alpha_grid] if mode != "standard" else [0.0])
                    for mode in group
                ]
                # Identical streams across modes and exponents within a
                # (round, seed): the recipes differ only in the objective,
                # so a teacher's students train in one lockstep call.
                trials = _train_trials(
                    labeled, dims, train_cfg, grids, root_seed, ("gen", rnd, seed),
                    pseudo=pseudo, ratio=cfg.labeled_to_pseudo_ratio,
                )
                for mode, alphas, runs in trials:
                    alpha, _, res = _select_alpha([
                        (a, evaluate_wer(r.model, valid, max_sym), r)
                        for a, r in zip(alphas, runs)
                    ])
                    entry = {
                        "wer": evaluate_wer(res.model, test, max_sym),
                        "chosen_alpha": alpha if mode != "standard" else None,
                    }
                    if include_traces:
                        entry["loss_trace"] = res.batch_losses
                    round_row[mode] = entry
                    teachers[mode] = res.model
            per_seed_rows[seed].append(round_row)

    rows = []
    for rnd in range(1, cfg.rounds + 1):
        row = {"round": rnd, "modes": {}}
        for mode in cfg.modes:
            per_seed = [per_seed_rows[s][rnd - 1][mode]["wer"] for s in seeds]
            row["modes"][mode] = {
                "wer": _mean(per_seed),
                "per_seed": per_seed,
                "chosen_alpha": [
                    per_seed_rows[s][rnd - 1][mode]["chosen_alpha"] for s in seeds
                ],
            }
            if include_traces:
                row["modes"][mode]["loss_trace_per_seed"] = [
                    per_seed_rows[s][rnd - 1][mode]["loss_trace"] for s in seeds
                ]
        rows.append(row)
    return ExperimentReport(
        kind="pseudo_labeling",
        config={
            "rounds": cfg.rounds,
            "alpha_grid": [float(a) for a in cfg.alpha_grid],
            "labeled_to_pseudo_ratio": list(cfg.labeled_to_pseudo_ratio),
            "modes": list(cfg.modes),
            "train": train_cfg.__dict__,
            "base_train": base_cfg.__dict__,
            "root_seed": root_seed,
        },
        seeds=tuple(seeds),
        rows=rows,
        clean_wer=_mean(base_wers),
    )


def _fmt_pct(x) -> str:
    return "---" if x is None else f"{100.0 * x:.2f}%"


def format_table(report: ExperimentReport) -> str:
    """Human-readable table mirroring the report, one line per (row, mode)."""
    lines = []
    if report.kind == "corruption":
        lines.append(f"{'Corruption':<12}{'Model':<20}{'Test WER':>10}{'Recovered':>12}")
        lines.append("-" * 54)
        lines.append(f"{'0% (clean)':<12}{'standard':<20}{_fmt_pct(report.clean_wer):>10}{'---':>12}")
        for row in report.rows:
            first = True
            for mode, entry in row["modes"].items():
                rec = row.get("recovered", {}).get(mode)
                label = f"{100 * row['level']:g}%" if first else ""
                lines.append(
                    f"{label:<12}{mode:<20}{_fmt_pct(entry['wer']):>10}{_fmt_pct(rec):>12}"
                )
                first = False
    elif report.kind == "pseudo_labeling":
        lines.append(f"{'Round':<8}{'Model':<20}{'Test WER':>10}{'alpha':>8}")
        lines.append("-" * 46)
        lines.append(f"{'base':<8}{'labeled only':<20}{_fmt_pct(report.clean_wer):>10}{'---':>8}")
        for row in report.rows:
            first = True
            for mode, entry in row["modes"].items():
                alphas = entry.get("chosen_alpha")
                alpha_txt = (
                    "---"
                    if not alphas or alphas[0] is None
                    else ",".join(f"{a:g}" for a in alphas)
                )
                label = str(row["round"]) if first else ""
                lines.append(
                    f"{label:<8}{mode:<20}{_fmt_pct(entry['wer']):>10}{alpha_txt:>8}"
                )
                first = False
    else:
        raise DataError(f"unknown report kind {report.kind!r}")
    return "\n".join(lines)
