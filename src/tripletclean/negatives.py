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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from tripletclean.core import (
    Dataset,
    DatasetError,
    Part,
    atomic_write_text,
    read_json,
)

logger = logging.getLogger(__name__)

LOG_FLOOR = 1e-12

DEFAULT_THRESHOLDS = {Part.HEAD: 0.95, Part.BODY: 0.90, Part.TAIL: 0.60}

MODEL_FORMAT = "confidence-model"
MODEL_VERSION = 1


class TrainingError(Exception):
    """Raised when optimization produces non-finite values."""


@dataclass(frozen=True)
class MinerConfig:
    """Thresholds and training controls for the negative-mining stage.

    A record is promoted when its confidence is at least the threshold of
    its predicted class's part; a threshold of None means records predicted
    into that part are never promoted.
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

    def __post_init__(self):
        for part in Part:
            if part not in self.thresholds:
                raise DatasetError(f"thresholds missing entry for part {part.value!r}")
            th = self.thresholds[part]
            if th is not None and not (0.0 <= th <= 1.0):
                raise DatasetError(f"threshold for {part.value} must be in [0, 1], got {th}")
        if self.lam < 0:
            raise DatasetError("lambda must be non-negative")
        if self.epochs < 1 or self.batch_size < 1 or self.hidden_size < 1:
            raise DatasetError("epochs, batch_size and hidden_size must be positive")
        if self.learning_rate <= 0:
            raise DatasetError("learning_rate must be positive")
        if self.seed < 0:
            raise DatasetError(f"seed must be non-negative, got {self.seed}")


@dataclass
class ConfidenceModel:
    """One-hidden-layer network with classification and confidence heads.

    Mutable so that ``train`` can step the parameters of the model it
    builds without copying it.
    """

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float
    class_weights: np.ndarray
    lam: float

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
    """Row-wise softmax, computed in place in ``logits`` and returned."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive number never overflows; equal bit for bit to
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def forward(model: ConfidenceModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and confidences for a batch of feature rows."""
    P, C, _ = _forward_cached(model, X)
    return P, C


def _forward_cached(model, X):
    A = X @ model.W1
    A += model.b1
    np.tanh(A, out=A)
    logits = A @ model.W2
    logits += model.b2
    P = _softmax(logits)
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
    """Batch loss and its analytic gradient for every parameter.

    ``Y`` must be one-hot: one row per row of ``X``, one column per class,
    a single 1.0 in each row and zeros elsewhere; anything else raises
    DatasetError.  So dL/dP_adj is non-zero only in each row's label column,
    and the loss and gradients are computed from that column alone.  They
    equal, bit for bit and signs of zeros included, what the formula gives
    when evaluated over every column.
    """
    n = X.shape[0]
    Y = np.asarray(Y)
    if Y.shape != (n, model.n_classes):
        raise DatasetError(
            f"targets of shape {Y.shape} do not match {n} rows of {model.n_classes} classes"
        )
    rows = np.arange(n)
    labels = Y.argmax(axis=1)
    if np.count_nonzero(Y) != n or not (Y[rows, labels] == 1.0).all():
        raise DatasetError("targets must be one-hot: a single 1.0 in each row, zeros elsewhere")
    P, C, A = _forward_cached(model, X)
    w = model.class_weights[labels]
    p = P[rows, labels]

    p_adj = C * p + (1.0 - C)
    clamped = np.maximum(p_adj, LOG_FLOOR)
    ce = -(w * np.log(clamped))
    penalty = -model.lam * np.log(np.maximum(C, LOG_FLOOR))
    loss = float(np.mean(ce + penalty))

    # dL/dP_adj in the label column, zero where the clamp is active (the
    # floor is constant there)
    g = np.where(p_adj > LOG_FLOOR, -w / clamped, 0.0) / n
    dp = g * C
    # Off the label column the dense terms are signed zeros: they add nothing
    # to the row sums dC and s, and dP - s is -s there.  They can change only
    # the sign of a zero, which the gradients lose: each is a sum from +0.0.
    dC = g * (p - 1.0)
    dC -= (model.lam / n) * np.where(C > LOG_FLOOR, 1.0 / np.maximum(C, LOG_FLOOR), 0.0)
    s = dp * p
    dU = P * -s[:, None]
    dU[rows, labels] = p * (dp - s)
    dV = dC * C * (1.0 - C)

    dW2 = A.T @ dU
    dw3 = A.T @ dV
    dA = dU @ model.W2.T
    # faster than np.outer, whose products it matches but for making a -0.0
    # +0.0; dA is a sum from +0.0, never -0.0, so either zero adds the same
    dA += np.einsum("i,j->ij", dV, model.w3)
    # A has no further use, so it holds tanh's derivative 1 - A*A
    A *= A
    np.subtract(1.0, A, out=A)
    dA *= A

    grads = {
        "W1": X.T @ dA,
        "b1": dA.sum(axis=0),
        "W2": dW2,
        "b2": dU.sum(axis=0),
        "w3": dw3,
        "b3": float(dV.sum()),
    }
    return loss, grads


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    Y = np.zeros((len(labels), n_classes))
    Y[np.arange(len(labels)), labels] = 1.0
    return Y


PARAMS = ("W1", "b1", "W2", "b2", "w3", "b3")


def train(dataset: Dataset, rows: np.ndarray, config: MinerConfig) -> ConfidenceModel:
    """Fit the confidence model on the labeled ``rows`` by mini-batch descent.

    Deterministic given the seed.  Raises TrainingError when an operation
    overflows or turns invalid, when a parameter is non-finite after an
    epoch, or when the loss over all ``rows`` is non-finite after the last
    epoch.
    """
    labels = dataset.labels[rows]
    if labels.size == 0:
        raise DatasetError("cannot train on empty positives")
    if np.any(labels < 0):
        raise DatasetError("cannot train on unlabeled rows")
    X = dataset.features[rows]
    n_classes = len(dataset.vocab)

    counts = np.bincount(labels, minlength=n_classes)
    class_weights = 1.0 / np.maximum(counts, 1)

    rng = np.random.default_rng(config.seed)
    model = initialize_model(
        X.shape[1], config.hidden_size, n_classes, class_weights, config.lam, rng
    )
    Y = one_hot(labels, n_classes)

    n = labels.size
    remedy = f"reduce learning_rate ({config.learning_rate}) or batch size"
    try:
        # a floating-point fault stops training at the operation, so no later
        # batch runs on its values
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(config.epochs):
                at = f"at epoch {epoch + 1}"
                order = rng.permutation(n)
                for start in range(0, n, config.batch_size):
                    batch = order[start : start + config.batch_size]
                    _, grads = loss_and_gradients(model, X[batch], Y[batch])
                    for name in PARAMS:
                        # in place for the arrays; b3 is a float, so set it back
                        step = grads[name]
                        step *= config.learning_rate
                        param = getattr(model, name)
                        param -= step
                        setattr(model, name, param)
                # an infinite gradient raises no flag, so check what it left
                if not all(np.isfinite(getattr(model, name)).all() for name in PARAMS):
                    raise TrainingError(f"non-finite parameters {at}; {remedy}")
            at = "after the last epoch"
            P, C = forward(model, X)
            final_loss = loss_value(P, Y, C, class_weights, config.lam)
    except FloatingPointError as exc:
        raise TrainingError(f"non-finite values {at}; {remedy}") from exc
    if not np.isfinite(final_loss):
        raise TrainingError(f"non-finite loss {final_loss} after the last epoch; {remedy}")
    logger.info(
        "trained on %d positives, %d classes: final loss %.4f", n, n_classes, final_loss
    )
    return model


class Promotions(NamedTuple):
    """Negative rows promoted to pseudo positives, in id order."""

    rows: np.ndarray
    labels: np.ndarray
    confidence: np.ndarray


def detect_noisy_negatives(
    model: ConfidenceModel,
    rows: np.ndarray,
    dataset: Dataset,
    config: MinerConfig,
) -> Promotions:
    """Pick the negative rows to promote to pseudo positives.

    A row is promoted when its confidence is at least the threshold of the
    frequency part of its predicted class; its pseudo label is that
    predicted class.
    """
    rows = np.asarray(rows, dtype=np.int64)
    labeled = rows[dataset.labels[rows] >= 0]
    if labeled.size:
        raise DatasetError(f"record {dataset.ids[labeled[0]]!r} is not a negative")
    X = dataset.features[rows]
    if X.shape[1] != model.input_dim:
        raise DatasetError(
            f"feature dimension {X.shape[1]} does not match model input {model.input_dim}"
        )
    if model.n_classes != len(dataset.vocab):
        raise DatasetError(
            f"model predicts {model.n_classes} classes, but the vocabulary has "
            f"{len(dataset.vocab)}"
        )
    P, C = forward(model, X)
    predicted = np.argmax(P, axis=1)
    # a disabled part's cut is +inf, which no confidence reaches; not NaN, so
    # that no comparison meets a NaN
    cut = {part: np.inf if th is None else th for part, th in config.thresholds.items()}
    theta = np.array([cut[p] for p in dataset.partition], dtype=np.float64)
    promote = C >= theta[predicted]
    chosen = sorted(np.flatnonzero(promote), key=lambda i: dataset.ids[rows[i]])
    logger.info("promoted %d of %d negatives", len(chosen), rows.size)
    return Promotions(rows[chosen], predicted[chosen], C[chosen])


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
        "params": {name: np.asarray(getattr(model, name)).tolist() for name in PARAMS},
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
        values = {name: np.asarray(params[name], dtype=np.float64) for name in PARAMS}
        values["b3"] = float(params["b3"])
        model = ConfidenceModel(
            **values,
            class_weights=np.asarray(payload["class_weights"], dtype=np.float64),
            lam=float(payload["lambda"]),
        )
        hidden, classes = dims["hidden"], dims["classes"]
        expected = {
            "W1": (dims["input"], hidden),
            "b1": (hidden,),
            "W2": (hidden, classes),
            "b2": (classes,),
            "w3": (hidden,),
            "class_weights": (classes,),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: malformed model parameters ({exc!r})") from None
    wrong = [name for name, shape in expected.items() if getattr(model, name).shape != shape]
    if wrong:
        raise DatasetError(f"{path}: dimensions header does not match parameters {wrong}")
    values.update({"class_weights": model.class_weights, "lambda": model.lam})
    bad = [name for name, value in values.items() if not np.isfinite(value).all()]
    if bad:
        raise DatasetError(f"{path}: non-finite model parameters {bad}")
    return model
