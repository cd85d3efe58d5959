"""Shared data model for relational triplet datasets.

A dataset is an ordered collection of subject-predicate-object samples, each
carrying a feature embedding and a label state.  Annotated samples form the
positive set, un-annotated ones the negative set; the two partition the input.
Predicates are indexed through a vocabulary whose training counts induce the
head/body/tail frequency partition used by the detection stages.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

DEFAULT_HEAD_MIN = 10_000
DEFAULT_TAIL_MAX = 500

DATASET_FIELDS = ("id", "image_id", "subject_class", "object_class", "predicate", "feature")


class DatasetError(Exception):
    """Raised for malformed inputs or contract violations in the data model."""


class LabelState(str, Enum):
    ANNOTATED = "annotated"
    NEGATIVE = "negative"
    PSEUDO = "pseudo"
    CORRECTED = "corrected"
    CLEAN_KEPT = "clean_kept"


class Part(str, Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"


@dataclass(frozen=True)
class PredicateVocab:
    """Ordered predicate identifiers plus their training-sample counts."""

    names: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise DatasetError("predicate names must be unique")
        if any(not n for n in self.names):
            raise DatasetError("predicate names must be non-empty")
        if len(self.counts) != len(self.names):
            raise DatasetError("counts and names must have the same length")
        if any(c < 0 for c in self.counts):
            raise DatasetError("predicate counts must be non-negative")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DatasetError(f"unknown predicate name {name!r}") from None


@dataclass(frozen=True)
class FrequencyPartition:
    """Predicate index -> head/body/tail assignment by training count.

    A predicate with count strictly above ``head_min`` is HEAD, strictly
    below ``tail_max`` is TAIL, and BODY otherwise; counts exactly at a
    boundary therefore fall in BODY.
    """

    part_of: tuple[Part, ...]
    head_min: int = DEFAULT_HEAD_MIN
    tail_max: int = DEFAULT_TAIL_MAX

    def part(self, predicate: int) -> Part:
        return self.part_of[predicate]


def partition_predicates(
    vocab: PredicateVocab,
    head_min: int = DEFAULT_HEAD_MIN,
    tail_max: int = DEFAULT_TAIL_MAX,
) -> FrequencyPartition:
    """Assign every predicate to exactly one frequency part."""
    if tail_max > head_min:
        raise DatasetError(f"tail_max ({tail_max}) must not exceed head_min ({head_min})")
    parts = []
    for count in vocab.counts:
        if count > head_min:
            parts.append(Part.HEAD)
        elif count < tail_max:
            parts.append(Part.TAIL)
        else:
            parts.append(Part.BODY)
    return FrequencyPartition(tuple(parts), head_min, tail_max)


@dataclass(frozen=True)
class TripletRecord:
    """One subject-predicate-object sample.

    ``label`` is a predicate index and is present exactly when the record is
    not a negative.  ``confidence`` holds the foreground score assigned when
    a negative is promoted; ``density`` the local-density count from the
    positive-noise stage.
    """

    id: str
    image_id: str
    subject_class: int
    object_class: int
    feature: np.ndarray
    label: int | None
    label_state: LabelState
    confidence: float | None = None
    density: int | None = None

    def __post_init__(self):
        if (self.label is None) != (self.label_state is LabelState.NEGATIVE):
            raise DatasetError(
                f"record {self.id!r}: label must be present iff state is not negative"
            )
        if self.confidence is not None and not (0.0 <= self.confidence <= 1.0):
            raise DatasetError(f"record {self.id!r}: confidence {self.confidence} outside [0, 1]")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.subject_class, self.object_class)


@dataclass(frozen=True)
class Dataset:
    """Ordered records plus vocabulary, partition, and feature dimension.

    Immutable after construction; stages derive new datasets via
    :meth:`with_records`.
    """

    records: tuple[TripletRecord, ...]
    vocab: PredicateVocab
    partition: FrequencyPartition
    feature_dim: int

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise DatasetError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)
            if rec.feature.shape != (self.feature_dim,):
                raise DatasetError(
                    f"record {rec.id!r}: feature dimension {rec.feature.shape} "
                    f"!= declared ({self.feature_dim},)"
                )
            if rec.label is not None and not (0 <= rec.label < len(self.vocab)):
                raise DatasetError(f"record {rec.id!r}: label index {rec.label} out of range")

    def __len__(self) -> int:
        return len(self.records)

    def positives(self) -> tuple[TripletRecord, ...]:
        """The annotated positive subset as present at load time."""
        return tuple(r for r in self.records if r.label_state is LabelState.ANNOTATED)

    def negatives(self) -> tuple[TripletRecord, ...]:
        """The un-annotated negative subset."""
        return tuple(r for r in self.records if r.label_state is LabelState.NEGATIVE)

    def labeled(self) -> tuple[TripletRecord, ...]:
        """All records currently carrying a predicate label."""
        return tuple(r for r in self.records if r.label is not None)

    def by_id(self) -> dict[str, TripletRecord]:
        return {r.id: r for r in self.records}

    def with_records(self, updates: dict[str, TripletRecord]) -> "Dataset":
        """New dataset with the given records replaced in place, order kept."""
        unknown = set(updates) - {r.id for r in self.records}
        if unknown:
            raise DatasetError(f"unknown record ids: {sorted(unknown)}")
        new_records = tuple(updates.get(r.id, r) for r in self.records)
        return replace(self, records=new_records)


def compose_positive_set(
    positives: Sequence[TripletRecord],
    mined: Sequence[TripletRecord],
) -> tuple[TripletRecord, ...]:
    """Concatenate annotated positives with promoted pseudo-labeled records.

    Order is preserved with annotated records first.  Inputs are never
    mutated; the result's size is the sum of the input sizes.
    """
    for rec in mined:
        if rec.label_state is not LabelState.PSEUDO:
            raise DatasetError(
                f"mined record {rec.id!r} has state {rec.label_state.value}, expected pseudo"
            )
    collision = {r.id for r in positives} & {r.id for r in mined}
    if collision:
        raise DatasetError(f"id collision between positives and mined: {sorted(collision)}")
    return tuple(positives) + tuple(mined)


# ---------------------------------------------------------------------------
# Line-delimited persistence
# ---------------------------------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_vocab(path: str) -> tuple[str, ...]:
    """Read a vocabulary sidecar: ``{"predicates": [name, ...]}``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: malformed vocabulary ({exc.msg})") from None
    names = data.get("predicates") if isinstance(data, dict) else None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DatasetError(f"{path}: expected a 'predicates' list of strings")
    return tuple(names)


def save_vocab(names: Sequence[str], path: str) -> None:
    atomic_write_text(path, json.dumps({"predicates": list(names)}) + "\n")


def record_to_dict(record: TripletRecord, vocab: PredicateVocab) -> dict:
    """Core wire representation of one record, fixed key order."""
    return {
        "id": record.id,
        "image_id": record.image_id,
        "subject_class": record.subject_class,
        "object_class": record.object_class,
        "predicate": None if record.label is None else vocab.names[record.label],
        "feature": [float(x) for x in record.feature],
    }


def _parse_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line {lineno}: malformed record ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise DatasetError(f"line {lineno}: expected an object")
    missing = [f for f in DATASET_FIELDS if f not in obj]
    if missing:
        raise DatasetError(f"line {lineno}: missing fields {missing}")
    if not isinstance(obj["feature"], list) or not all(
        isinstance(x, (int, float)) and math.isfinite(x) for x in obj["feature"]
    ):
        raise DatasetError(f"line {lineno}: feature must be a list of finite numbers")
    if obj["predicate"] is not None and not isinstance(obj["predicate"], str):
        raise DatasetError(f"line {lineno}: predicate must be a string or null")
    for key in ("subject_class", "object_class"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise DatasetError(f"line {lineno}: {key} must be an integer")
    return obj


def load_dataset(
    path: str,
    vocab_path: str | None = None,
    head_min: int = DEFAULT_HEAD_MIN,
    tail_max: int = DEFAULT_TAIL_MAX,
) -> Dataset:
    """Load a line-delimited dataset, computing vocabulary and partition.

    Each line holds one record with fields ``id``, ``image_id``,
    ``subject_class``, ``object_class``, ``predicate`` (string or null for
    negatives), and ``feature``.  When no vocabulary sidecar is given, the
    vocabulary is inferred in first-appearance order of predicate names.
    Vocabulary counts are taken over annotated records only.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise DatasetError("empty dataset")

    explicit_names = load_vocab(vocab_path) if vocab_path is not None else None
    names: list[str] = list(explicit_names) if explicit_names is not None else []
    name_to_idx = {n: i for i, n in enumerate(names)}

    rows = []
    feature_dim: int | None = None
    for lineno, line in enumerate(lines, start=1):
        obj = _parse_line(line, lineno)
        if feature_dim is None:
            feature_dim = len(obj["feature"])
        elif len(obj["feature"]) != feature_dim:
            raise DatasetError(
                f"line {lineno}: feature dimension {len(obj['feature'])} != {feature_dim}"
            )
        pred = obj["predicate"]
        if pred is not None and pred not in name_to_idx:
            if explicit_names is not None:
                raise DatasetError(f"line {lineno}: unknown predicate name {pred!r}")
            name_to_idx[pred] = len(names)
            names.append(pred)
        rows.append(obj)

    counts = [0] * len(names)
    records = []
    for obj in rows:
        pred = obj["predicate"]
        if pred is None:
            label, state = None, LabelState.NEGATIVE
        else:
            label, state = name_to_idx[pred], LabelState.ANNOTATED
            counts[label] += 1
        records.append(
            TripletRecord(
                id=str(obj["id"]),
                image_id=str(obj["image_id"]),
                subject_class=int(obj["subject_class"]),
                object_class=int(obj["object_class"]),
                feature=np.asarray(obj["feature"], dtype=np.float64),
                label=label,
                label_state=state,
            )
        )

    vocab = PredicateVocab(tuple(names), tuple(counts))
    partition = partition_predicates(vocab, head_min, tail_max)
    return Dataset(tuple(records), vocab, partition, int(feature_dim))


def dataset_to_text(dataset: Dataset) -> str:
    """Canonical line-delimited form: one compact record object per line."""
    lines = [json.dumps(record_to_dict(r, dataset.vocab)) for r in dataset.records]
    return "\n".join(lines) + "\n"


def save_dataset(dataset: Dataset, path: str) -> None:
    atomic_write_text(path, dataset_to_text(dataset))
