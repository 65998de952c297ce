"""Minimal trainable transducer: affine+tanh encoder, embedding predictor,
additive joiner.  Deliberately tiny and recurrence-free so the exact
parameter gradient fits in one page and can be finite-difference checked.

Parameters live in one flat float64 vector with named slices, which keeps
optimizers and checkpoints trivial.  The predictor conditions on the
previous token only (row ``vocab_size`` of the embedding table is the
begin-of-sequence input used at u = 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, NumericalError
from .lattice import PosteriorLattice, Vocabulary, as_labels, normalize_logits

__all__ = [
    "TransducerModel",
    "AdamConfig",
    "AdamState",
    "param_layout",
    "param_count",
    "model_forward",
    "model_backward",
    "sgd_step",
    "adam_init",
    "adam_step",
    "greedy_decode",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 1


def param_layout(dim_in: int, dim_hidden: int, vocab_size: int):
    """Name -> (start, stop, shape) slices into the flat parameter vector."""
    D, H, V = dim_in, dim_hidden, vocab_size
    shapes = [
        ("enc_w", (H, D)),
        ("enc_b", (H,)),
        ("emb", (V + 1, H)),  # one row per token plus the BOS row at index V
        ("pred_w", (H, H)),
        ("pred_b", (H,)),
        ("join_w", (V + 1, H)),
        ("join_b", (V + 1,)),
    ]
    layout = {}
    offset = 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        layout[name] = (offset, offset + size, shape)
        offset += size
    return layout, offset


def param_count(dim_in: int, dim_hidden: int, vocab_size: int) -> int:
    return param_layout(dim_in, dim_hidden, vocab_size)[1]


def _views(flat: np.ndarray, layout) -> dict:
    """Name -> shaped view into a flat vector laid out by ``param_layout``."""
    return {
        name: flat[start:stop].reshape(shape)
        for name, (start, stop, shape) in layout.items()
    }


@dataclass(frozen=True)
class TransducerModel:
    dim_in: int
    dim_hidden: int
    vocab_size: int
    params: np.ndarray

    def __post_init__(self):
        layout, expected = param_layout(self.dim_in, self.dim_hidden, self.vocab_size)
        params = np.ascontiguousarray(np.asarray(self.params, dtype=np.float64))
        if params.shape != (expected,):
            raise DataError(
                f"parameter vector has shape {params.shape}, expected ({expected},) "
                f"for D={self.dim_in}, H={self.dim_hidden}, V={self.vocab_size}"
            )
        object.__setattr__(self, "params", params)
        # The layout is fixed by the dimensions, so its views are built once.
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_views", _views(params, layout))

    @property
    def vocab(self) -> Vocabulary:
        return Vocabulary(self.vocab_size)

    @property
    def bos(self) -> int:
        return self.vocab_size

    def slice(self, name: str) -> np.ndarray:
        return self._views[name]

    @classmethod
    def zeros(cls, dim_in: int, dim_hidden: int, vocab_size: int) -> "TransducerModel":
        n = param_count(dim_in, dim_hidden, vocab_size)
        return cls(dim_in, dim_hidden, vocab_size, np.zeros(n))

    @classmethod
    def random(
        cls, dim_in: int, dim_hidden: int, vocab_size: int, rng, scale: float = 0.5
    ) -> "TransducerModel":
        n = param_count(dim_in, dim_hidden, vocab_size)
        return cls(dim_in, dim_hidden, vocab_size, scale * rng.normal(size=n))


def _check_features(model: TransducerModel, features) -> np.ndarray:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != model.dim_in:
        raise DataError(
            f"features must have shape (T, {model.dim_in}), got {feats.shape}"
        )
    if feats.shape[0] < 1:
        raise DataError("features need at least one frame")
    return feats


def _intermediates(model: TransducerModel, feats: np.ndarray, labels: np.ndarray):
    enc = np.tanh(feats @ model.slice("enc_w").T + model.slice("enc_b"))
    ids = np.concatenate(([model.bos], labels))
    rows = model.slice("emb")[ids]
    pred = np.tanh(rows @ model.slice("pred_w").T + model.slice("pred_b"))
    z = np.tanh(enc[:, None, :] + pred[None, :, :])
    logits = z @ model.slice("join_w").T + model.slice("join_b")
    return enc, ids, rows, pred, z, logits


def model_forward(
    model: TransducerModel, features, tokens, compute_dtype=np.float64
) -> PosteriorLattice:
    """Joint logits for every (t, u) node, log-softmax normalized.

    ``compute_dtype=np.float32`` runs the network arithmetic in 32-bit;
    normalization always happens in float64 so lattice rows stay exact.
    """
    feats = _check_features(model, features)
    labels = as_labels(tokens, model.vocab)
    if compute_dtype == np.float64:
        logits = _intermediates(model, feats, labels)[-1]
    else:
        ct = compute_dtype
        enc = np.tanh(
            feats.astype(ct) @ model.slice("enc_w").T.astype(ct)
            + model.slice("enc_b").astype(ct)
        )
        ids = np.concatenate(([model.bos], labels))
        rows = model.slice("emb").astype(ct)[ids]
        pred = np.tanh(
            rows @ model.slice("pred_w").T.astype(ct) + model.slice("pred_b").astype(ct)
        )
        z = np.tanh(enc[:, None, :] + pred[None, :, :])
        logits = (
            z @ model.slice("join_w").T.astype(ct) + model.slice("join_b").astype(ct)
        ).astype(np.float64)
    return normalize_logits(logits)


def model_backward(
    model: TransducerModel, features, tokens, dL_dlogp
) -> np.ndarray:
    """Chain-rule parameter gradient of any scalar loss, given its gradient
    with respect to the lattice log-probabilities.  Exact, float64."""
    feats = _check_features(model, features)
    labels = as_labels(tokens, model.vocab)
    enc, ids, rows, pred, z, logits = _intermediates(model, feats, labels)
    dlogp = np.asarray(dL_dlogp, dtype=np.float64)
    if dlogp.shape != logits.shape:
        raise DataError(
            f"lattice gradient has shape {dlogp.shape}, expected {logits.shape}"
        )
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    softmax = e / e.sum(axis=-1, keepdims=True)
    # d loss / d logit through the row log-softmax.
    dlogit = dlogp - softmax * dlogp.sum(axis=-1, keepdims=True)

    grad = np.zeros_like(model.params)
    g = _views(grad, model._layout)
    g["join_w"][...] = np.einsum("tuk,tuh->kh", dlogit, z)
    g["join_b"][...] = dlogit.sum(axis=(0, 1))
    dz = dlogit @ model.slice("join_w")
    dpre = dz * (1.0 - z * z)
    denc_h = dpre.sum(axis=1)
    dpred_h = dpre.sum(axis=0)
    denc_pre = denc_h * (1.0 - enc * enc)
    g["enc_w"][...] = denc_pre.T @ feats
    g["enc_b"][...] = denc_pre.sum(axis=0)
    dpred_pre = dpred_h * (1.0 - pred * pred)
    g["pred_w"][...] = dpred_pre.T @ rows
    g["pred_b"][...] = dpred_pre.sum(axis=0)
    drows = dpred_pre @ model.slice("pred_w")
    np.add.at(g["emb"], ids, drows)
    return grad


def sgd_step(model: TransducerModel, grad, lr: float) -> TransducerModel:
    """Plain gradient step; rejects NaN gradients before touching parameters."""
    if lr <= 0:
        raise DataError(f"learning rate must be positive, got {lr}")
    g = np.asarray(grad, dtype=np.float64)
    if np.isnan(g).any():
        raise NumericalError("NaN in gradient; no update applied")
    return TransducerModel(
        model.dim_in, model.dim_hidden, model.vocab_size, model.params - lr * g
    )


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise DataError(f"learning rate must be positive, got {self.lr}")


@dataclass(frozen=True)
class AdamState:
    model: TransducerModel
    m: np.ndarray
    v: np.ndarray
    step: int


def adam_init(model: TransducerModel) -> AdamState:
    n = model.params.size
    return AdamState(model=model, m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(state: AdamState, grad, hyper: AdamConfig) -> AdamState:
    """Bias-corrected Adam update; deterministic, no in-place mutation."""
    g = np.asarray(grad, dtype=np.float64)
    if np.isnan(g).any():
        raise NumericalError("NaN in gradient; no update applied")
    t = state.step + 1
    m = hyper.beta1 * state.m + (1.0 - hyper.beta1) * g
    v = hyper.beta2 * state.v + (1.0 - hyper.beta2) * g * g
    m_hat = m / (1.0 - hyper.beta1**t)
    v_hat = v / (1.0 - hyper.beta2**t)
    new_params = state.model.params - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
    model = TransducerModel(
        state.model.dim_in, state.model.dim_hidden, state.model.vocab_size, new_params
    )
    return AdamState(model=model, m=m, v=v, step=t)


def greedy_decode(
    model: TransducerModel, features, max_symbols_per_frame: int = 4
):
    """Frame-synchronous greedy decoding.

    At each frame, emit argmax tokens (advancing the predictor) until blank
    wins or ``max_symbols_per_frame`` symbols have been emitted, then move to
    the next frame.  Returns (tokens, clean) where ``clean`` is False when
    any frame hit the emission cap.  Confidence scores for pseudo-labels are
    NOT taken from this pass; score the hypothesis with
    ``conditionals.conditional_profile`` afterwards.
    """
    if max_symbols_per_frame < 1:
        raise DataError(
            f"max_symbols_per_frame must be >= 1, got {max_symbols_per_frame}"
        )
    feats = _check_features(model, features)
    enc = np.tanh(feats @ model.slice("enc_w").T + model.slice("enc_b"))
    pred_w, pred_b = model.slice("pred_w"), model.slice("pred_b")
    join_w, join_b = model.slice("join_w"), model.slice("join_b")
    emb = model.slice("emb")
    blank = model.vocab_size

    def pred_state(token_id):
        return np.tanh(pred_w @ emb[token_id] + pred_b)

    cur = pred_state(model.bos)
    out = []
    clean = True
    for t in range(feats.shape[0]):
        emitted = 0
        while True:
            logits = join_w @ np.tanh(enc[t] + cur) + join_b
            k = int(np.argmax(logits))
            if k == blank:
                break
            out.append(k)
            cur = pred_state(k)
            emitted += 1
            if emitted >= max_symbols_per_frame:
                clean = False
                break
    return np.asarray(out, dtype=np.int64), clean


def save_checkpoint(
    path,
    model: TransducerModel,
    optimizer: Optional[AdamState] = None,
    meta: Optional[dict] = None,
) -> None:
    """Versioned JSON checkpoint; float64 values round-trip exactly."""
    obj = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "twrnnt-checkpoint",
        "dim_in": model.dim_in,
        "dim_hidden": model.dim_hidden,
        "vocab_size": model.vocab_size,
        "params": [float(x) for x in model.params],
        "optimizer": None,
        "meta": meta or {},
    }
    if optimizer is not None:
        obj["optimizer"] = {
            "step": optimizer.step,
            "m": [float(x) for x in optimizer.m],
            "v": [float(x) for x in optimizer.v],
        }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_checkpoint(path):
    """Returns (model, optimizer_state_or_None, meta)."""
    with open(path) as fh:
        obj = json.load(fh)
    if obj.get("kind") != "twrnnt-checkpoint":
        raise DataError(f"{path} is not a model checkpoint")
    if obj.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"unsupported checkpoint format_version {obj.get('format_version')!r}"
        )
    model = TransducerModel(
        dim_in=int(obj["dim_in"]),
        dim_hidden=int(obj["dim_hidden"]),
        vocab_size=int(obj["vocab_size"]),
        params=np.asarray(obj["params"], dtype=np.float64),
    )
    opt = None
    if obj.get("optimizer") is not None:
        o = obj["optimizer"]
        opt = AdamState(
            model=model,
            m=np.asarray(o["m"], dtype=np.float64),
            v=np.asarray(o["v"], dtype=np.float64),
            step=int(o["step"]),
        )
    return model, opt, obj.get("meta", {})
