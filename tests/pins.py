"""The recipes of the criterion 8 and 9 reports, and their pins.

A pin is the sha256 of a report's JSON, with the report's values, each loss
trace reduced to its own sha256, so that a report that moves names what
moved.  ``fixtures/make_report_pins.py`` writes ``fixtures/report_pins.json``
from these recipes, and ``tests/test_acceptance.py`` runs them and compares.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from twrnnt.datagen import SyntheticSpec, generate_synthetic_dataset, read_dataset
from twrnnt.experiments import (
    GenerationConfig,
    report_to_json,
    run_corruption_experiment,
    run_pseudo_labeling,
)
from twrnnt.training import MODES, TrainConfig

PINS = Path(__file__).resolve().parent.parent / "fixtures" / "report_pins.json"
DESK = SyntheticSpec(
    n_train=500, n_valid=100, n_test=150, n_pretrain=400,
    dim_features=8, vocab_size=16, noise_level=0.3, seed=13,
)
STUDENT = TrainConfig(epochs=10, batch_size=8, lr=1e-2, dim_hidden=32)


def desk_data(out_dir):
    """(meta, splits) of the desk dataset, written under ``out_dir``."""
    meta, splits = None, {}
    for name, path in generate_synthetic_dataset(DESK, out_dir).items():
        meta, splits[name] = read_dataset(path)
    return meta, splits


def corruption_report(meta, splits):
    """The criterion 8 report, with loss traces."""
    return run_corruption_experiment(
        splits, meta, levels=[0.3], modes=MODES, train_cfg=STUDENT, alpha_grid=(2.0, 6.0),
        seeds=(0, 1, 2), root_seed=42, teacher_cfg=replace(STUDENT, epochs=14), include_traces=True,
    )


def pseudo_report(meta, splits):
    """The criterion 9 report."""
    return run_pseudo_labeling(
        splits["train"][:100], splits["pretrain"], splits["valid"], splits["test"], meta,
        GenerationConfig(rounds=3, alpha_grid=(2.0, 6.0), labeled_to_pseudo_ratio=(1, 9)),
        STUDENT, seeds=(0, 1, 2), root_seed=42, base_cfg=replace(STUDENT, epochs=25),
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_values(node, path="report") -> dict:
    """{path: value} for every value of a decoded report, each loss trace
    reduced to the sha256 of its JSON."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    elif not isinstance(node, dict):
        return {path: node}
    out = {}
    for key, child in node.items():
        at = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"
        if key == "loss_trace_per_seed":
            out.update({f"{at}[{s}]": "sha256 " + sha256(json.dumps(t)) for s, t in enumerate(child)})
        else:
            out.update(report_values(child, at))
    return out


def pin(report) -> dict:
    text = report_to_json(report)
    return {"sha256": sha256(text), "values": report_values(json.loads(text))}


def platform() -> dict:
    """The NumPy version and BLAS build that a pin was computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def moved(name, pinned, report) -> list:
    """One line per value of ``report`` that differs from its pin ``pinned``:
    none if the report's sha256 is the pinned one."""
    now = pin(report)
    if now["sha256"] == pinned["sha256"]:
        return []
    old, new = pinned["values"], now["values"]
    lines = [
        f"{name} {key}: {old.get(key)!r} -> {new.get(key)!r}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    ]
    return lines or [f"{name}: sha256 {pinned['sha256'][:16]} -> {now['sha256'][:16]}, values equal"]
