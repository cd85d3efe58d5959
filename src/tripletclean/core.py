"""Shared data model for relational triplet datasets.

A dataset is an ordered collection of subject-predicate-object samples held
as row-aligned columns: ids, subject-object pairs, feature rows and predicate
labels.  Labeled rows form the positive set, unlabeled ones the negative
set; the two partition the input.
Predicates are indexed through a vocabulary whose training counts induce the
head/body/tail frequency partition used by the detection stages.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

DEFAULT_HEAD_MIN = 10_000
DEFAULT_TAIL_MAX = 500

# key -> the JSON types its value may take on one dataset line
DATASET_FIELDS = {
    "id": (str, int),
    "image_id": (str, int),
    "subject_class": int,
    "object_class": int,
    "predicate": (str, type(None)),
    "feature": list,
}


class DatasetError(Exception):
    """Raised for malformed inputs or contract violations in the data model."""


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


def partition_predicates(
    vocab: PredicateVocab,
    head_min: int = DEFAULT_HEAD_MIN,
    tail_max: int = DEFAULT_TAIL_MAX,
) -> tuple[Part, ...]:
    """Each predicate's frequency part, indexed by predicate.

    A predicate with count strictly above ``head_min`` is HEAD, strictly
    below ``tail_max`` is TAIL, and BODY otherwise; counts exactly at a
    boundary fall in BODY.
    """
    if tail_max > head_min:
        raise DatasetError(f"tail_max ({tail_max}) must not exceed head_min ({head_min})")
    return tuple(
        Part.HEAD if count > head_min else Part.TAIL if count < tail_max else Part.BODY
        for count in vocab.counts
    )


NO_LABEL = -1


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples as row-aligned columns, plus vocabulary and partition.

    Row i is one subject-predicate-object sample: ``ids[i]``,
    ``image_ids[i]``, the subject and object classes ``pairs[i]``, the
    feature row ``features[i]`` and the predicate index ``labels[i]``, which
    is ``NO_LABEL`` (-1) for a negative.  The arrays are read-only; a stage
    derives a new dataset with ``dataclasses.replace``.
    """

    ids: tuple[str, ...]
    image_ids: tuple[str, ...]
    pairs: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    vocab: PredicateVocab
    partition: tuple[Part, ...]

    def __post_init__(self):
        n = len(self.ids)
        if (
            len(self.image_ids) != n
            or self.pairs.shape != (n, 2)
            or self.features.ndim != 2
            or len(self.features) != n
            or self.labels.shape != (n,)
        ):
            raise DatasetError(f"columns must hold one row for each of the {n} ids")
        if self.features.shape[1] == 0:
            raise DatasetError("feature rows must hold at least one value")
        if len(set(self.ids)) != n:
            dup = next(rid for rid, count in Counter(self.ids).items() if count > 1)
            raise DatasetError(f"duplicate record id {dup!r}")
        bad = self.labels[(self.labels < NO_LABEL) | (self.labels >= len(self.vocab))]
        if bad.size:
            raise DatasetError(f"label index {bad[0]} out of range")
        for column in (self.pairs, self.features, self.labels):
            column.flags.writeable = False

    @classmethod
    def counted(
        cls,
        ids: Sequence[str],
        image_ids: Sequence[str],
        pairs,
        features,
        labels,
        names: Sequence[str],
    ) -> Dataset:
        """Dataset whose vocabulary counts are its labeled rows, in the
        default bands."""
        labels = np.asarray(labels, dtype=np.int64)
        counts = np.bincount(labels[labels >= 0], minlength=len(names))
        vocab = PredicateVocab(tuple(names), tuple(counts.tolist()))
        return cls(
            tuple(ids),
            tuple(image_ids),
            np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
            np.asarray(features, dtype=np.float64),
            labels,
            vocab,
            partition_predicates(vocab),
        )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def positives(self) -> np.ndarray:
        """Rows carrying a predicate label, in row order."""
        return np.flatnonzero(self.labels >= 0)

    def negatives(self) -> np.ndarray:
        """Rows without a label, in row order."""
        return np.flatnonzero(self.labels < 0)


# ---------------------------------------------------------------------------
# JSON and line-delimited persistence
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


def jsonl_text(rows: Iterable[dict]) -> str:
    """One compact JSON object per line; empty text for no rows."""
    lines = [json.dumps(row) for row in rows]
    return "\n".join(lines) + "\n" if lines else ""


# JSON names of the Python types that json.loads produces
JSON_TYPE_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean",
    list: "a list", dict: "an object", type(None): "null",
}


def read_jsonl(
    path: str, required: Mapping[str, type | tuple[type, ...]]
) -> Iterator[tuple[int, dict]]:
    """Yield ``(physical line number, object)`` for each non-blank line.

    ``required`` maps each key a line must hold to the exact types its
    decoded value may have (so a boolean never passes as an integer); it
    must name ``id``.  A line that is not a JSON object, breaks
    ``required``, or repeats an earlier line's id raises DatasetError
    naming the path and the line.
    """
    kinds = {key: k if isinstance(k, tuple) else (k,) for key, k in required.items()}
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    problem = f"malformed JSON ({exc.msg})"
                else:
                    problem = _row_problem(obj, kinds)
                if not problem:
                    rid = str(obj["id"])
                    problem = f"duplicate record id {rid!r}" if rid in seen else None
                if problem:
                    raise DatasetError(f"{path}: line {lineno}: {problem}")
                seen.add(rid)
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _row_problem(obj: Any, kinds: Mapping[str, tuple[type, ...]]) -> str | None:
    """What is wrong with one decoded line, or None."""
    if not isinstance(obj, dict):
        return "expected an object"
    missing = [key for key in kinds if key not in obj]
    if missing:
        return f"missing fields {missing}"
    for key, accepted in kinds.items():
        if type(obj[key]) not in accepted:
            names = " or ".join(JSON_TYPE_NAMES[k] for k in accepted)
            return f"{key} must be {names}, got {obj[key]!r}"
    return None


def read_json(path: str, what: str) -> Any:
    """Decode one JSON document; the caller checks its shape."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise DatasetError(f"{path}: malformed {what} ({exc})") from None


def load_vocab(path: str) -> tuple[str, ...]:
    """Read a vocabulary sidecar: ``{"predicates": [name, ...]}``."""
    data = read_json(path, "vocabulary")
    names = data.get("predicates") if isinstance(data, dict) else None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DatasetError(f"{path}: expected a 'predicates' list of strings")
    return tuple(names)


def save_vocab(names: Sequence[str], path: str) -> None:
    atomic_write_text(path, json.dumps({"predicates": list(names)}) + "\n")


# the JSON types a feature entry may take; a boolean counts as an integer
FEATURE_TYPES = {int, float, bool}


def _feature_row(values: list, where: str) -> np.ndarray:
    """One line's feature list as float64; DatasetError unless non-empty,
    all finite numbers, and small enough that every squared distance
    between two such rows is finite.

    A squared distance over d features is at most d * (2 * max|x|)**2, so
    max|x| may not exceed sqrt(float_max / (4 * d)); the limit is lowered by
    one part in a million to absorb rounding in the differences and sums.
    """
    row = None
    if values and set(map(type, values)) <= FEATURE_TYPES:
        try:
            row = np.asarray(values, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
    if row is not None:
        limit = math.sqrt(sys.float_info.max / (4 * row.size)) * (1 - 1e-6)
        # NaN and infinities fail this one comparison too
        if np.abs(row).max() <= limit:
            return row
    if row is None or not np.isfinite(row).all():
        raise DatasetError(f"{where}: feature must be a non-empty list of finite numbers")
    raise DatasetError(
        f"{where}: feature magnitude exceeds {limit:.6g}, so squared distances would overflow"
    )


def load_dataset(path: str, vocab_path: str | None = None) -> Dataset:
    """Load a line-delimited dataset, computing vocabulary and the default
    partition.

    Each line holds one record with fields ``id``, ``image_id``,
    ``subject_class``, ``object_class``, ``predicate`` (string or null for
    negatives), and ``feature``.  When no vocabulary sidecar is given, the
    vocabulary is inferred in first-appearance order of predicate names.
    Vocabulary counts are taken over annotated records only.  Each feature
    list becomes a float64 row as its line is read.
    """
    explicit_names = load_vocab(vocab_path) if vocab_path is not None else None
    names: list[str] = list(explicit_names) if explicit_names is not None else []
    name_to_idx = {n: i for i, n in enumerate(names)}

    ids: list[str] = []
    image_ids: list[str] = []
    pairs: list[tuple[int, int]] = []
    labels: list[int] = []
    rows: list[np.ndarray] = []
    for lineno, obj in read_jsonl(path, DATASET_FIELDS):
        where = f"{path}: line {lineno}"
        row = _feature_row(obj["feature"], where)
        if rows and row.size != rows[0].size:
            raise DatasetError(f"{where}: feature dimension {row.size} != {rows[0].size}")
        pred = obj["predicate"]
        if pred is None:
            label = NO_LABEL
        else:
            if pred not in name_to_idx:
                if explicit_names is not None:
                    raise DatasetError(f"{where}: unknown predicate name {pred!r}")
                name_to_idx[pred] = len(names)
                names.append(pred)
            label = name_to_idx[pred]
        pair = (obj["subject_class"], obj["object_class"])
        if not all(-(2**63) <= v < 2**63 for v in pair):
            raise DatasetError(
                f"{where}: subject_class and object_class must be signed 64-bit integers"
            )
        rows.append(row)
        ids.append(str(obj["id"]))
        image_ids.append(str(obj["image_id"]))
        pairs.append(pair)
        labels.append(label)
    if not ids:
        raise DatasetError(f"{path}: empty dataset")
    return Dataset.counted(ids, image_ids, pairs, np.stack(rows), labels, names)


def dataset_to_text(dataset: Dataset) -> str:
    """Canonical line-delimited form: one compact record object per line."""
    names = dataset.vocab.names
    columns = zip(
        dataset.ids,
        dataset.image_ids,
        dataset.pairs.tolist(),
        dataset.labels.tolist(),
        dataset.features,
    )
    return jsonl_text(
        {
            "id": rid,
            "image_id": image_id,
            "subject_class": subject,
            "object_class": obj,
            "predicate": names[label] if label != NO_LABEL else None,
            "feature": feature.tolist(),
        }
        for rid, image_id, (subject, obj), label, feature in columns
    )


def save_dataset(dataset: Dataset, path: str) -> None:
    atomic_write_text(path, dataset_to_text(dataset))
