"""Experiment engines: label-corruption recovery and iterative pseudo-labeling.

Both engines compare three training objectives (standard, utterance-level
confidence weights, token-level confidence weights) under identical recipes,
select the weight exponent on validation WER, and emit a JSON-serializable
report plus a human-readable table.  All randomness derives from one root
seed through named streams, so reports are bit-reproducible.

Runs that need nothing from each other and share a hidden size train in
one ``train_runs`` call, one run group per stream (``training.RunGroup``):

  * corruption: the teacher and every seed's clean run in one call, then
    one call per (level, seed) for its mode and exponent trials;
  * pseudo-labeling: every seed's base run in one call, then one call per
    (round, seed), with one group per distinct teacher, each on that
    teacher's pool (decoded and scored once).

Every run equals its own ``train_model`` call bit for bit, so the calls'
grouping does not change a report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .corruption import CorruptionConfig, corrupt_corpus
from .datagen import Utterance, dataset_vocab_size
from .errors import DataError
from .lattice import Vocabulary
from .model import TransducerModel
from .seeds import stream
from .training import (
    MODES,
    RunGroup,
    TrainConfig,
    _check_mix_ratio,
    decode_corpus,
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
        _check_mix_ratio(self.labeled_to_pseudo_ratio, "labeled_to_pseudo_ratio")


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
    if not isinstance(obj, dict):
        raise DataError(f"malformed report JSON: expected an object, got {type(obj).__name__}")
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


def _group(utts, cfgs, root_seed, tag, **kwargs) -> RunGroup:
    """The runs ``cfgs`` of stream ``tag``: they share the init and batch
    order drawn from it, each group from its own copy of the stream."""
    return RunGroup(
        utts,
        cfgs,
        init_rng=stream(root_seed, "init", *tag),
        order_rng=stream(root_seed, "order", *tag),
        **kwargs,
    )


def _train_groups(groups, dims) -> list:
    """Train the run groups in one ``train_runs`` call per hidden size, the
    one config field that sets a run's parameter shape.  Results in the
    groups' order."""
    calls = {}
    for g, group in enumerate(groups):
        calls.setdefault(group.cfgs[0].dim_hidden, []).append(g)
    results = [None] * len(groups)
    for call in calls.values():
        for g, res in zip(call, train_runs([groups[g] for g in call], *dims)):
            results[g] = res
    return results


class _Fit(NamedTuple):
    wer: float  # test WER
    alpha: Optional[float]  # chosen exponent; None for the standard run
    losses: list
    model: TransducerModel


def _fit_modes(parts, tag, train_cfg, alpha_grid, dims, root_seed, valid, test, **kwargs):
    """Train every (mode, alpha) trial of each part (modes, utterances,
    pseudo pool or None) in one lockstep call, one run group per part, each
    on its own copy of stream ``tag``; then pick each weighted mode's alpha
    on validation WER (ties prefer the smaller alpha; a grid of one needs
    no decode).  Returns {mode: _Fit}.  A part's trials share every input
    except the objective, which pairs the comparison."""
    alphas = [float(a) for a in alpha_grid]
    grids, groups = {}, []  # the parts' modes are distinct
    for modes, utts, pseudo in parts:
        grids.update({m: [train_cfg.alpha] if m == "standard" else alphas for m in modes})
        cfgs = [replace(train_cfg, mode=m, alpha=a) for m in modes for a in grids[m]]
        groups.append(_group(utts, cfgs, root_seed, tag, pseudo=pseudo, **kwargs))
    results = iter([res for runs in train_runs(groups, *dims) for res in runs])
    max_sym = train_cfg.max_symbols_per_frame
    fits = {}
    for mode, grid in grids.items():
        trials = [(a, next(results)) for a in grid]
        alpha, res = trials[0] if len(trials) == 1 else min(
            trials, key=lambda t: (evaluate_wer(t[1].model, valid, max_sym), t[0])
        )
        fits[mode] = _Fit(
            evaluate_wer(res.model, test, max_sym),
            None if mode == "standard" else alpha,
            res.batch_losses,
            res.model,
        )
    return fits


def _summary(fits, modes, include_traces):
    """A row's ``modes`` block from one ``_fit_modes`` result per seed."""
    block = {}
    for mode in modes:
        per_seed = [fit[mode].wer for fit in fits]
        block[mode] = {
            "wer": _mean(per_seed),
            "per_seed": per_seed,
            "chosen_alpha": [fit[mode].alpha for fit in fits],
        }
        if include_traces:
            block[mode]["loss_trace_per_seed"] = [fit[mode].losses for fit in fits]
    return block


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
    if not alpha_grid:
        raise DataError("alpha_grid must be nonempty")
    train, valid, test, pretrain = (
        splits["train"],
        splits["valid"],
        splits["test"],
        splits["pretrain"],
    )
    vocab = Vocabulary(dataset_vocab_size(meta))
    dims = (train[0].features.shape[1], vocab.size)
    max_sym = train_cfg.max_symbols_per_frame

    # The teacher and every seed's clean run need nothing from each other.
    teacher_cfg = replace(teacher_cfg or train_cfg, mode="standard")
    clean_cfg = replace(train_cfg, mode="standard")
    (teacher,), *clean = _train_groups(
        [_group(pretrain, [teacher_cfg], root_seed, ("teacher",))]
        + [_group(train, [clean_cfg], root_seed, ("clean", seed)) for seed in seeds],
        dims,
    )
    teacher = teacher.model
    clean_wer = _mean([evaluate_wer(res.model, test, max_sym) for (res,) in clean])

    rows = []
    for level in levels:
        fits = []
        for seed in seeds:
            cor_cfg = CorruptionConfig(
                error_rate=float(level),
                rng_seed=int(
                    stream(root_seed, "corrupt", seed, int(level * 1000)).integers(2**31)
                ),
            )
            corrupted_tokens = corrupt_corpus(
                [u.tokens for u in train], cor_cfg, vocab, prototypes=meta.get("prototypes")
            )
            corrupted = [
                replace(u, tokens=t) for u, t in zip(train, corrupted_tokens)
            ]
            scored = score_confidences(teacher, corrupted)
            # One stream per (level, seed): every mode and exponent sees
            # identical inits and batch orders.
            fits.append(_fit_modes(
                [(modes, scored, None)], ("corr", level, seed), train_cfg, alpha_grid, dims,
                root_seed, valid, test,
            ))
        row = {"level": float(level), "modes": _summary(fits, modes, include_traces)}
        if "standard" in modes:
            base = row["modes"]["standard"]["wer"]
            degraded = base - clean_wer
            row["recovered"] = {  # None where the baseline did not degrade
                mode: (base - row["modes"][mode]["wer"]) / degraded if degraded > 0 else None
                for mode in modes
                if mode != "standard"
            }
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

    fits = {rnd: [] for rnd in range(1, cfg.rounds + 1)}  # one {mode: _Fit} per seed
    base = _train_groups(
        [
            _group(labeled, [replace(base_cfg, mode="standard")], root_seed, ("base", seed))
            for seed in seeds
        ],
        dims,
    )
    base_wers = []
    for seed, (res,) in zip(seeds, base):
        base_wers.append(evaluate_wer(res.model, test, max_sym))
        teachers = {m: res.model for m in cfg.modes}
        for rnd in fits:
            # Modes that share a teacher share its pool, decoded and scored
            # once, and form one run group.  In round 1 every mode's
            # teacher is the base model.
            groups = []
            for mode in cfg.modes:
                for teacher, group in groups:
                    if teacher is teachers[mode]:
                        group.append(mode)
                        break
                else:
                    groups.append((teachers[mode], [mode]))
            parts = []
            for teacher, group in groups:
                pseudo = decode_corpus(teacher, unlabeled, max_sym)
                parts.append((group, labeled, score_confidences(teacher, pseudo)))
            fit = _fit_modes(
                parts, ("gen", rnd, seed), train_cfg, cfg.alpha_grid, dims, root_seed, valid,
                test, mix_ratio=cfg.labeled_to_pseudo_ratio,
            )
            teachers = {m: fit[m].model for m in cfg.modes}
            fits[rnd].append(fit)

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
        rows=[
            {"round": rnd, "modes": _summary(fits[rnd], cfg.modes, include_traces)}
            for rnd in fits
        ],
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
