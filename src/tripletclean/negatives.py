"""Mining of mislabeled negatives with a confidence-branch classifier.

A small feed-forward network is trained on annotated positives only.  Next
to the usual class probabilities it predicts a per-sample confidence; during
training the probabilities are blended toward the target in proportion to
(1 - c), and a penalty -lambda*log(c) keeps the model from hiding behind
low confidence everywhere.  At detection time a negative record is promoted
to a pseudo positive when its confidence clears the threshold of the
predicted class's frequency part.

All gradients are computed analytically in closed form; the hidden layer
uses tanh so finite-difference checks converge cleanly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from tripletclean.core import (
    DatasetError,
    FrequencyPartition,
    LabelState,
    Part,
    TripletRecord,
    atomic_write_text,
    read_json,
)

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-12

# Sentinel for "never promote into this frequency part".
DISABLED = None

DEFAULT_THRESHOLDS = {Part.HEAD: 0.95, Part.BODY: 0.90, Part.TAIL: 0.60}

MODEL_FORMAT = "confidence-model"
MODEL_VERSION = 1


class TrainingError(Exception):
    """Raised when optimization produces non-finite values."""


@dataclass(frozen=True)
class MinerConfig:
    """Thresholds and training controls for the negative-mining stage.

    A threshold of ``DISABLED`` (None) means records predicted into that
    part are never promoted.  In ``quantile`` mode the threshold is read as
    a quantile level of the scored confidences within the part instead of
    an absolute cutoff.
    """

    thresholds: dict[Part, float | None] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS)
    )
    lam: float = 0.1
    hidden_size: int = 256
    # the reciprocal-count class weights shrink gradients, so the schedule
    # is longer and hotter than plain cross-entropy would need
    epochs: int = 60
    learning_rate: float = 0.5
    batch_size: int = 64
    seed: int = 0
    threshold_mode: str = "absolute"

    def __post_init__(self):
        for part in Part:
            if part not in self.thresholds:
                raise DatasetError(f"thresholds missing entry for part {part.value!r}")
            th = self.thresholds[part]
            if th is not DISABLED and not (0.0 <= th <= 1.0):
                raise DatasetError(f"threshold for {part.value} must be in [0, 1], got {th}")
        if self.lam < 0:
            raise DatasetError("lambda must be non-negative")
        if self.threshold_mode not in ("absolute", "quantile"):
            raise DatasetError(f"unknown threshold_mode {self.threshold_mode!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.hidden_size < 1:
            raise DatasetError("epochs, batch_size and hidden_size must be positive")
        if self.learning_rate <= 0:
            raise DatasetError("learning_rate must be positive")


@dataclass(frozen=True)
class ConfidenceModel:
    """One-hidden-layer network with classification and confidence heads."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float
    class_weights: np.ndarray
    lam: float
    loss_history: tuple[float, ...] = ()

    @property
    def input_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.W1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.W2.shape[1]


def initialize_model(
    input_dim: int,
    hidden_size: int,
    n_classes: int,
    class_weights: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> ConfidenceModel:
    """Gaussian weights scaled by fan-in, zero biases."""
    return ConfidenceModel(
        W1=rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(input_dim, hidden_size)),
        b1=np.zeros(hidden_size),
        W2=rng.normal(0.0, 1.0 / np.sqrt(hidden_size), size=(hidden_size, n_classes)),
        b2=np.zeros(n_classes),
        w3=rng.normal(0.0, 1.0 / np.sqrt(hidden_size), size=hidden_size),
        b3=0.0,
        class_weights=np.asarray(class_weights, dtype=np.float64),
        lam=float(lam),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward(model: ConfidenceModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and confidences for a batch of feature rows."""
    P, C, _ = _forward_cached(model, X)
    return P, C


def _forward_cached(model, X):
    A = np.tanh(X @ model.W1 + model.b1)
    P = _softmax(A @ model.W2 + model.b2)
    C = _sigmoid(A @ model.w3 + model.b3)
    return P, C, A


def adjust_probs(p: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Blend predicted probabilities toward the target: c*p + (1-c)*y."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise DatasetError(f"shape mismatch: p {p.shape} vs y {y.shape}")
    if not (0.0 <= c <= 1.0):
        raise DatasetError(f"confidence {c} outside [0, 1]")
    return c * p + (1.0 - c) * y


def loss_value(
    P: np.ndarray,
    Y: np.ndarray,
    C: np.ndarray,
    class_weights: np.ndarray,
    lam: float,
) -> float:
    """Mean of weighted cross-entropy on adjusted probabilities plus the
    confidence penalty; logs are floored at 1e-12."""
    P_adj = C[:, None] * P + (1.0 - C[:, None]) * Y
    ce = -np.sum(class_weights[None, :] * np.log(np.maximum(P_adj, LOG_FLOOR)) * Y, axis=1)
    penalty = -lam * np.log(np.maximum(C, LOG_FLOOR))
    return float(np.mean(ce + penalty))


def loss_and_gradients(
    model: ConfidenceModel, X: np.ndarray, Y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and its analytic gradient for every parameter."""
    n = X.shape[0]
    P, C, A = _forward_cached(model, X)
    w = model.class_weights

    P_adj = C[:, None] * P + (1.0 - C[:, None]) * Y
    clamped = np.maximum(P_adj, LOG_FLOOR)
    loss = loss_value(P, Y, C, w, model.lam)

    # dL/dP_adj, zero where the clamp is active (the floor is constant there)
    G = np.where(P_adj > LOG_FLOOR, -(w[None, :] * Y) / clamped, 0.0) / n
    dP = G * C[:, None]
    dC = np.sum(G * (P - Y), axis=1)
    dC -= (model.lam / n) * np.where(C > LOG_FLOOR, 1.0 / np.maximum(C, LOG_FLOOR), 0.0)

    dU = P * (dP - np.sum(dP * P, axis=1, keepdims=True))
    dV = dC * C * (1.0 - C)

    dA = dU @ model.W2.T + dV[:, None] * model.w3[None, :]
    dZ = dA * (1.0 - A * A)

    grads = {
        "W1": X.T @ dZ,
        "b1": dZ.sum(axis=0),
        "W2": A.T @ dU,
        "b2": dU.sum(axis=0),
        "w3": A.T @ dV,
        "b3": float(dV.sum()),
    }
    return loss, grads


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    Y = np.zeros((len(labels), n_classes))
    Y[np.arange(len(labels)), labels] = 1.0
    return Y


def train(
    positives: Sequence[TripletRecord],
    n_classes: int,
    config: MinerConfig,
) -> ConfidenceModel:
    """Fit the confidence model on annotated positives by mini-batch descent.

    Deterministic given the seed.  The returned model carries the full-set
    loss after initialization and after every epoch in ``loss_history``.
    """
    if not positives:
        raise DatasetError("cannot train on empty positives")
    X = np.stack([r.feature for r in positives])
    labels = np.array([r.label for r in positives], dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise DatasetError("label index out of range for the given class count")

    counts = np.bincount(labels, minlength=n_classes)
    class_weights = 1.0 / np.maximum(counts, 1)

    rng = np.random.default_rng(config.seed)
    model = initialize_model(
        X.shape[1], config.hidden_size, n_classes, class_weights, config.lam, rng
    )
    Y = one_hot(labels, n_classes)

    params = {
        "W1": model.W1.copy(),
        "b1": model.b1.copy(),
        "W2": model.W2.copy(),
        "b2": model.b2.copy(),
        "w3": model.w3.copy(),
        "b3": model.b3,
    }

    def current():
        return replace(model, **params)

    def full_loss():
        P, C = forward(current(), X)
        return loss_value(P, Y, C, model.class_weights, model.lam)

    history = [full_loss()]
    n = len(positives)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grads = loss_and_gradients(current(), X[batch], Y[batch])
            for name in params:
                params[name] = params[name] - config.learning_rate * grads[name]
        epoch_loss = full_loss()
        if not np.isfinite(epoch_loss):
            raise TrainingError(
                f"non-finite loss {epoch_loss} at epoch {epoch + 1}; "
                f"reduce learning_rate ({config.learning_rate}) or batch size"
            )
        history.append(epoch_loss)

    logger.info(
        "trained on %d positives, %d classes: loss %.4f -> %.4f",
        n,
        n_classes,
        history[0],
        history[-1],
    )
    return replace(current(), loss_history=tuple(history))


def detect_noisy_negatives(
    model: ConfidenceModel,
    negatives: Sequence[TripletRecord],
    config: MinerConfig,
    partition: FrequencyPartition,
) -> tuple[tuple[TripletRecord, ...], tuple[TripletRecord, ...]]:
    """Partition negatives into promoted pseudo positives and kept negatives.

    A record is promoted when its confidence is at least the threshold of
    the frequency part of its predicted class; its pseudo label is that
    predicted class.  Both outputs are sorted by record id.
    """
    if not negatives:
        return (), ()
    for rec in negatives:
        if rec.label_state is not LabelState.NEGATIVE:
            raise DatasetError(f"record {rec.id!r} is not a negative")

    X = np.stack([r.feature for r in negatives])
    if X.shape[1] != model.input_dim:
        raise DatasetError(
            f"feature dimension {X.shape[1]} does not match model input {model.input_dim}"
        )
    P, C = forward(model, X)
    predicted = np.argmax(P, axis=1)
    parts = np.array([partition.part(int(k)).value for k in predicted])

    cutoffs = _part_cutoffs(config, parts, C)
    mined, clean = [], []
    for rec, k, part, c in zip(negatives, predicted, parts, C):
        theta = cutoffs[part]
        if theta is not DISABLED and c >= theta:
            mined.append(
                replace(
                    rec,
                    label=int(k),
                    label_state=LabelState.PSEUDO,
                    confidence=float(c),
                )
            )
        else:
            clean.append(rec)
    mined.sort(key=lambda r: r.id)
    clean.sort(key=lambda r: r.id)
    logger.info("promoted %d of %d negatives", len(mined), len(negatives))
    return tuple(mined), tuple(clean)


def _part_cutoffs(config, parts, C):
    """Absolute confidence cutoff per part value, None where disabled."""
    cutoffs: dict[str, float | None] = {}
    for part in Part:
        th = config.thresholds[part]
        if th is DISABLED:
            cutoffs[part.value] = DISABLED
        elif config.threshold_mode == "absolute":
            cutoffs[part.value] = th
        else:
            scores = C[parts == part.value]
            cutoffs[part.value] = float(np.quantile(scores, th)) if scores.size else DISABLED
    return cutoffs


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_model(model: ConfidenceModel, path: str) -> None:
    """Versioned JSON dump with an explicit dimensions header."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dims": {
            "input": model.input_dim,
            "hidden": model.hidden_size,
            "classes": model.n_classes,
        },
        "lambda": model.lam,
        "class_weights": model.class_weights.tolist(),
        "params": {
            "W1": model.W1.tolist(),
            "b1": model.b1.tolist(),
            "W2": model.W2.tolist(),
            "b2": model.b2.tolist(),
            "w3": model.w3.tolist(),
            "b3": model.b3,
        },
    }
    atomic_write_text(path, json.dumps(payload) + "\n")


def load_model(path: str) -> ConfidenceModel:
    payload = read_json(path, "model file")
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DatasetError(f"{path}: not a confidence model file")
    if payload.get("version") != MODEL_VERSION:
        raise DatasetError(f"{path}: unsupported model version {payload.get('version')}")
    missing = [key for key in ("dims", "params", "lambda", "class_weights") if key not in payload]
    if missing:
        raise DatasetError(f"{path}: model file lacks {missing}")
    params = payload["params"]
    dims = payload["dims"]
    try:
        model = ConfidenceModel(
            W1=np.asarray(params["W1"], dtype=np.float64),
            b1=np.asarray(params["b1"], dtype=np.float64),
            W2=np.asarray(params["W2"], dtype=np.float64),
            b2=np.asarray(params["b2"], dtype=np.float64),
            w3=np.asarray(params["w3"], dtype=np.float64),
            b3=float(params["b3"]),
            class_weights=np.asarray(payload["class_weights"], dtype=np.float64),
            lam=float(payload["lambda"]),
        )
        expected = ((dims["input"], dims["hidden"]), (dims["hidden"], dims["classes"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: malformed model parameters ({exc!r})") from None
    if (model.W1.shape, model.W2.shape) != expected:
        raise DatasetError(f"{path}: dimensions header does not match parameters")
    return model
