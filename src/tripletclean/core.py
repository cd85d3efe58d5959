"""Shared data model for relational triplet datasets.

A dataset is an ordered collection of subject-predicate-object samples held
as row-aligned columns: ids, subject-object pairs, feature rows and predicate
labels.  Labeled rows form the positive set, unlabeled ones the negative
set; the two partition the input.
Predicates are indexed through a vocabulary; their labeled-row counts induce
the head/body/tail frequency partition used by the detection stages.
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
from itertools import chain, islice, product
from operator import itemgetter
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
    """Ordered, unique, non-empty predicate names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise DatasetError("predicate names must be unique")
        if any(not n for n in self.names):
            raise DatasetError("predicate names must be non-empty")

    def __len__(self) -> int:
        return len(self.names)


def partition_predicates(
    labels: np.ndarray,
    n_classes: int,
    head_min: int = DEFAULT_HEAD_MIN,
    tail_max: int = DEFAULT_TAIL_MAX,
) -> tuple[Part, ...]:
    """Each predicate's frequency part, indexed by predicate.

    A predicate's count is its number of entries in ``labels``, where
    ``NO_LABEL`` counts for none.  A count strictly above ``head_min`` is
    HEAD, strictly below ``tail_max`` is TAIL, and BODY otherwise; counts
    exactly at a boundary fall in BODY.
    """
    if tail_max > head_min:
        raise DatasetError(f"tail_max ({tail_max}) must not exceed head_min ({head_min})")
    return tuple(
        Part.HEAD if count > head_min else Part.TAIL if count < tail_max else Part.BODY
        for count in np.bincount(labels[labels >= 0], minlength=n_classes).tolist()
    )


NO_LABEL = -1


@dataclass(frozen=True, eq=False)
class Dataset:
    """N samples as row-aligned columns, plus vocabulary and partition.

    Row i is one subject-predicate-object sample: ``ids[i]``,
    ``image_ids[i]``, the subject and object classes ``pairs[i]``, the
    feature row ``features[i]`` and the predicate index ``labels[i]``, which
    is ``NO_LABEL`` (-1) for a negative.  Every feature is finite and within
    ``unbounded_rows``' magnitude limit, however the dataset was built, so
    every squared distance is finite and no stage checks it again.  The
    arrays are read-only; a stage derives a new dataset with
    ``dataclasses.replace``.
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
        require_bounded(self.ids, self.features)
        if len(set(self.ids)) != n:
            dup = next(rid for rid, count in Counter(self.ids).items() if count > 1)
            raise DatasetError(f"duplicate record id {dup!r}")
        bad = self.labels[(self.labels < NO_LABEL) | (self.labels >= len(self.vocab))]
        if bad.size:
            raise DatasetError(f"label index {bad[0]} out of range")
        if len(self.partition) != len(self.vocab):
            raise DatasetError(f"{len(self.partition)} bands for {len(self.vocab)} predicates")
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
        """Dataset in the default bands of its labeled rows."""
        labels = np.asarray(labels, dtype=np.int64)
        return cls(
            tuple(ids),
            tuple(image_ids),
            np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
            np.asarray(features, dtype=np.float64),
            labels,
            PredicateVocab(tuple(names)),
            partition_predicates(labels, len(names)),
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


def unbounded_rows(features: np.ndarray) -> tuple[np.ndarray, float]:
    """The rows of an N x d array that hold a NaN, an infinity or a value
    beyond the feature magnitude limit, and that limit.

    A squared distance over d features is at most d * (2 * max|x|)**2, so
    max|x| may not exceed sqrt(float_max / (4 * d)); the limit is lowered by
    one part in a million to absorb rounding in the differences and sums.
    """
    limit = math.sqrt(sys.float_info.max / (4 * features.shape[1])) * (1 - 1e-6)
    # each row's largest magnitude, with no N x d copy; NaN and infinities
    # fail the one comparison too
    top = np.maximum(features.max(axis=1), -features.min(axis=1))
    return np.flatnonzero(~(top <= limit)), limit


def require_bounded(ids: Sequence[str], features: np.ndarray) -> None:
    """Reject the first record that ``unbounded_rows`` names; ``ids`` names
    the rows of ``features``."""
    over, limit = unbounded_rows(features)
    if not over.size:
        return
    record = f"record {ids[over[0]]!r}"
    if not np.isfinite(features[over[0]]).all():
        raise DatasetError(f"{record} has non-finite features")
    raise DatasetError(
        f"{record}: feature magnitude exceeds {limit:.6g}, so squared distances would overflow"
    )


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


# rows converted, and lines joined, at a time by the text writers
WRITE_CHUNK = 1024


def joined(lines: Iterable[str]) -> str:
    """The lines as one text.  They are joined ``WRITE_CHUNK`` at a time
    first, so that few line objects are alive at once beside the text."""
    lines = iter(lines)
    pieces = []
    while piece := "".join(islice(lines, WRITE_CHUNK)):
        pieces.append(piece)
    return "".join(pieces)


def column_values(*columns: np.ndarray) -> Iterator[tuple]:
    """Row-aligned columns as Python values, one tuple per row; each
    column goes through ``tolist()`` ``WRITE_CHUNK`` rows at a time."""
    for lo in range(0, len(columns[0]), WRITE_CHUNK):
        yield from zip(*(column[lo : lo + WRITE_CHUNK].tolist() for column in columns))


def jsonl_text(rows: Iterable[dict]) -> str:
    """One compact JSON object per line; empty text for no rows."""
    return joined(json.dumps(row) + "\n" for row in rows)


# a string as json.dumps spells it: quoted, with non-ASCII and control
# characters escaped
json_string = json.encoder.encode_basestring_ascii

# JSON's spelling of a boolean, indexed by it
JSON_BOOLS = ("false", "true")


def json_numbers(values: Iterable[float]) -> str:
    """Numbers as json.dumps separates and spells them inside a list."""
    text = ", ".join(map(repr, values))
    # of the reprs of numbers only inf and nan hold an "n"
    if "n" in text:
        text = text.replace("inf", "Infinity").replace("nan", "NaN")
    return text


# JSON names of the Python types that json.loads produces
JSON_TYPE_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean",
    list: "a list", dict: "an object", type(None): "null",
}


_scan = json.JSONDecoder().scan_once


def _decode(line: str) -> Any:
    """``json.loads(line)`` for a line without surrounding whitespace,
    skipping its Python layers; a line that does not scan whole goes
    through ``json.loads`` itself, for its exact error."""
    try:
        obj, end = _scan(line, 0)
    except StopIteration:
        end = -1
    return obj if end == len(line) else json.loads(line)


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
    # every accepted combination of value types, in key order, so that a
    # good line costs one set lookup
    accepted = set(product(*kinds.values()))
    keys = tuple(kinds)
    pick = itemgetter(*keys) if len(keys) > 1 else lambda obj: (obj[keys[0]],)
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = _decode(line)
                except json.JSONDecodeError as exc:
                    problem = f"malformed JSON ({exc.msg})"
                else:
                    try:
                        good = tuple(map(type, pick(obj))) in accepted
                    except (KeyError, TypeError):  # a missing key, or not an object
                        good = False
                    problem = None if good else _row_problem(obj, kinds)
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

# feature values parsed before they are converted and checked together
FEATURE_CHUNK = 1 << 16

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _feature_block(values: list[list], lines: list[int], dim: int, path: str) -> np.ndarray:
    """The feature lists of consecutive lines (``lines`` their numbers) as
    one float64 block; DatasetError names the first line whose list is not
    ``dim`` long, or not a non-empty list of finite numbers within
    ``unbounded_rows``' magnitude limit.  A list of another length is
    checked against its own length before its dimension is named.
    """
    n = len(values)
    sizes = list(map(len, values))
    odd = n if sizes.count(dim) == n else next(i for i, size in enumerate(sizes) if size != dim)
    if odd < n:
        _feature_block(values[:odd], lines[:odd], dim, path)
        _feature_block(values[odd : odd + 1], lines[odd : odd + 1], sizes[odd], path)
        raise DatasetError(f"{path}: line {lines[odd]}: feature dimension {sizes[odd]} != {dim}")
    block = None
    if dim and set(map(type, chain.from_iterable(values))) <= FEATURE_TYPES:
        try:
            block = np.array(values, dtype=np.float64).reshape(n, dim)
        except OverflowError:  # an integer beyond the float range
            pass
    if block is None:
        if n > 1:  # one line at a time, so the first that cannot convert is named
            for i in range(n):
                _feature_block(values[i : i + 1], lines[i : i + 1], dim, path)
        raise DatasetError(
            f"{path}: line {lines[0]}: feature must be a non-empty list of finite numbers"
        )
    over, limit = unbounded_rows(block)
    if not over.size:
        return block
    where = f"{path}: line {lines[over[0]]}"
    if not np.isfinite(block[over[0]]).all():
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
    The default bands count annotated records only.  Each line's fields are
    appended to columns as it is read; the feature lists wait until about
    ``FEATURE_CHUNK`` values have been read, and are then checked and
    converted to float64 rows together.  A line's own problem is raised
    only after the lists still waiting have been checked, so the first bad
    line is the one named.
    """
    explicit_names = load_vocab(vocab_path) if vocab_path is not None else None
    names: list[str] = list(explicit_names) if explicit_names is not None else []
    name_to_idx = {n: i for i, n in enumerate(names)}

    ids: list[str] = []
    image_ids: list[str] = []
    pairs: list[tuple[int, int]] = []
    labels: list[int] = []
    blocks: list[np.ndarray] = []
    waiting: list[list] = []
    waiting_lines: list[int] = []

    def convert() -> None:
        nonlocal waiting, waiting_lines
        values, lines, waiting, waiting_lines = waiting, waiting_lines, [], []
        if values:
            dim = blocks[0].shape[1] if blocks else len(values[0])
            blocks.append(_feature_block(values, lines, dim, path))

    size = 0
    try:
        for lineno, obj in read_jsonl(path, DATASET_FIELDS):
            feature = obj["feature"]
            waiting.append(feature)
            waiting_lines.append(lineno)
            pred = obj["predicate"]
            if pred is None:
                label = NO_LABEL
            else:
                label = name_to_idx.get(pred)
                if label is None:
                    if explicit_names is not None:
                        raise DatasetError(
                            f"{path}: line {lineno}: unknown predicate name {pred!r}"
                        )
                    label = name_to_idx[pred] = len(names)
                    names.append(pred)
            pair = (obj["subject_class"], obj["object_class"])
            if not (INT64_MIN <= pair[0] <= INT64_MAX and INT64_MIN <= pair[1] <= INT64_MAX):
                raise DatasetError(
                    f"{path}: line {lineno}: "
                    "subject_class and object_class must be signed 64-bit integers"
                )
            ids.append(str(obj["id"]))
            image_ids.append(str(obj["image_id"]))
            pairs.append(pair)
            labels.append(label)
            size += len(feature)
            if size >= FEATURE_CHUNK:
                convert()
                size = 0
    except DatasetError:
        convert()  # an earlier line's feature problem comes first
        raise
    convert()
    if not ids:
        raise DatasetError(f"{path}: empty dataset")
    return Dataset.counted(ids, image_ids, pairs, np.concatenate(blocks), labels, names)


# one dataset line, in json.dumps's key order and spelling
RECORD_LINE = (
    '{"id": %s, "image_id": %s, "subject_class": %d, "object_class": %d, '
    '"predicate": %s, "feature": [%s]}\n'
)


def dataset_to_text(dataset: Dataset) -> str:
    """Canonical line-delimited form: one compact record object per line,
    byte for byte as ``json.dumps`` writes it."""
    # NO_LABEL (-1) picks the last entry, JSON's null
    predicates = [*map(json_string, dataset.vocab.names), "null"]
    pairs = dataset.pairs
    rows = zip(
        dataset.ids,
        dataset.image_ids,
        column_values(pairs[:, 0], pairs[:, 1], dataset.labels),
        dataset.features,
    )
    return joined(
        RECORD_LINE
        % (
            json_string(rid),
            json_string(image_id),
            subject,
            obj,
            predicates[label],
            json_numbers(feature.tolist()),
        )
        for rid, image_id, (subject, obj, label), feature in rows
    )


def save_dataset(dataset: Dataset, path: str) -> None:
    atomic_write_text(path, dataset_to_text(dataset))
