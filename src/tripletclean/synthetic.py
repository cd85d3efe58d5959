"""Synthetic triplet datasets with planted, exactly-counted label noise.

Class centers sit on scaled coordinate axes so every pair of centers is the
same distance apart; features are isotropic Gaussians around them.  Three
corruption types are injected on disjoint record sets, each hitting exactly
floor(rate * eligible) records: relabeling to a configured coarse parent,
swapping between configured synonym classes, and demoting labeled records
to negatives.  The generator keeps a per-record ground truth so detection
and correction quality can be scored exactly.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from tripletclean.core import (
    NO_LABEL,
    Dataset,
    DatasetError,
    atomic_write_text,
    jsonl_text,
    read_jsonl,
)
from tripletclean.correction import CorrectionRecord

logger = logging.getLogger(__name__)


class NoiseTag(str, Enum):
    NONE = "none"
    COMMON = "common"
    SYNONYM = "synonym"
    MISSING = "missing"


TAGS = tuple(NoiseTag)


@dataclass(frozen=True)
class SynthConfig:
    """Shape and corruption controls for one generated dataset.

    ``imbalance`` is the long-tail exponent: class k receives
    samples_per_class * (k+1)^(-imbalance) records (floored, minimum 1).
    ``synonym_pairs`` classes share a subject-object pair so swapped labels
    stay plausible; ``coarse_of`` maps fine classes to their coarse parent.
    """

    n_classes: int = 10
    n_pairs: int = 10
    feature_dim: int = 16
    samples_per_class: int = 100
    imbalance: float = 0.0
    cluster_spread: float = 1.0
    class_separation: float = 8.0
    eta_common: float = 0.0
    eta_syn: float = 0.0
    eta_neg: float = 0.0
    synonym_pairs: tuple[tuple[int, int], ...] = ()
    coarse_of: dict[int, int] = field(default_factory=dict)
    n_background: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 1 or self.n_pairs < 1 or self.samples_per_class < 1:
            raise DatasetError("n_classes, n_pairs and samples_per_class must be positive")
        if self.feature_dim < self.n_classes:
            raise DatasetError(
                f"feature_dim ({self.feature_dim}) must be at least n_classes "
                f"({self.n_classes}) for the axis-aligned center layout"
            )
        if self.cluster_spread <= 0:
            raise DatasetError("cluster_spread must be positive")
        if self.class_separation < 0 or self.n_background < 0:
            raise DatasetError("class_separation and n_background must be non-negative")
        if self.seed < 0:
            raise DatasetError(f"seed must be non-negative, got {self.seed}")
        for rate, name in (
            (self.eta_common, "eta_common"),
            (self.eta_syn, "eta_syn"),
            (self.eta_neg, "eta_neg"),
        ):
            if not (0.0 <= rate <= 1.0):
                raise DatasetError(f"{name} must be in [0, 1], got {rate}")
        for a, b in self.synonym_pairs:
            if a == b or not (0 <= a < self.n_classes and 0 <= b < self.n_classes):
                raise DatasetError(f"invalid synonym pair ({a}, {b})")
        for fine, coarse in self.coarse_of.items():
            if not (0 <= fine < self.n_classes and 0 <= coarse < self.n_classes):
                raise DatasetError(f"coarse_of entry {fine}->{coarse} out of range")
        _check_acyclic(self.coarse_of)


def _check_acyclic(coarse_of: Mapping[int, int]) -> None:
    for start in coarse_of:
        seen = {start}
        node = start
        while node in coarse_of:
            node = coarse_of[node]
            if node in seen:
                raise DatasetError(f"coarse_of contains a cycle through class {node}")
            seen.add(node)


@dataclass(frozen=True)
class GroundTruth:
    """Per-record oracle: true predicate name (None = background) and tag."""

    true_predicate: dict[str, str | None]
    tag: dict[str, NoiseTag]

    def ids(self) -> frozenset[str]:
        return frozenset(self.true_predicate)

    def tagged(self, tag: NoiseTag) -> frozenset[str]:
        return frozenset(i for i, t in self.tag.items() if t is tag)


def _assign_pairs(config: SynthConfig) -> dict[int, tuple[int, int]]:
    """Class -> subject-object pair; synonym groups share one pair.

    A union-find keeps each synonym group's smallest class as its root; the
    roots take pair slots in class order, wrapping around at ``n_pairs``.
    """
    root = list(range(config.n_classes))

    def find(k: int) -> int:
        while root[k] != k:
            k = root[k]
        return k

    for a, b in config.synonym_pairs:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    roots = [k for k in range(config.n_classes) if root[k] == k]
    slot = {r: i % config.n_pairs for i, r in enumerate(roots)}
    return {k: (slot[find(k)], slot[find(k)] + 1) for k in range(config.n_classes)}


def class_centers(config: SynthConfig) -> np.ndarray:
    """One center per class on scaled axes; pairwise gaps are exactly
    class_separation."""
    scale = config.class_separation / np.sqrt(2.0)
    centers = np.zeros((config.n_classes, config.feature_dim))
    for k in range(config.n_classes):
        centers[k, k] = scale
    return centers


def class_counts(config: SynthConfig) -> list[int]:
    return [
        max(1, int(config.samples_per_class * (k + 1) ** (-config.imbalance)))
        for k in range(config.n_classes)
    ]


def generate(config: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Build a dataset plus its hidden truth; bit-identical given the seed."""
    rng = np.random.default_rng(config.seed)
    centers = class_centers(config)
    counts = class_counts(config)
    pair_of = _assign_pairs(config)

    draws = [
        centers[k] + rng.normal(0.0, config.cluster_spread, (counts[k], config.feature_dim))
        for k in range(config.n_classes)
    ]
    # background negatives live opposite the center layout on the first axis
    bg_center = np.zeros(config.feature_dim)
    bg_center[0] = -config.class_separation / np.sqrt(2.0)
    draws.append(
        bg_center
        + rng.normal(0.0, config.cluster_spread, (config.n_background, config.feature_dim))
    )
    classes = np.repeat(np.arange(config.n_classes), counts)
    true_labels = np.concatenate([classes, np.full(config.n_background, NO_LABEL)])
    # background record i takes the pair of class i mod n_classes
    pair_class = np.concatenate([classes, np.arange(config.n_background) % config.n_classes])
    pairs = np.array([pair_of[k] for k in range(config.n_classes)])[pair_class]
    ids = [f"r{i:06d}" for i in range(len(true_labels))]
    names = [f"p{k}" for k in range(config.n_classes)]

    labels = true_labels.copy()
    tags = np.zeros(len(labels), dtype=np.int64)  # indexes TAGS; 0 is NoiseTag.NONE
    # synonym class -> its partner classes, sorted
    links = [*config.synonym_pairs, *[(b, a) for a, b in config.synonym_pairs]]
    partner = {a: sorted({y for x, y in links if x == a}) for a, _ in links}

    def hit(eligible: np.ndarray, rate: float, tag: NoiseTag) -> np.ndarray:
        """Tag floor(rate * n) of the n eligible rows that are labeled and
        untouched, chosen by one permutation; returns them in its order."""
        rows = np.flatnonzero(eligible & (labels != NO_LABEL) & (tags == 0))
        chosen = rows[rng.permutation(len(rows))[: int(np.floor(rate * len(rows)))]]
        tags[chosen] = TAGS.index(tag)
        return chosen

    flipped = hit(np.isin(labels, list(config.coarse_of)), config.eta_common, NoiseTag.COMMON)
    labels[flipped] = [config.coarse_of[k] for k in labels[flipped].tolist()]
    for i in hit(np.isin(labels, list(partner)), config.eta_syn, NoiseTag.SYNONYM):
        options = partner[labels[i]]
        labels[i] = options[rng.integers(len(options))] if len(options) > 1 else options[0]
    labels[hit(labels != NO_LABEL, config.eta_neg, NoiseTag.MISSING)] = NO_LABEL

    dataset = Dataset.counted(
        ids,
        [f"im{i // 16}" for i in range(len(ids))],
        pairs,
        np.concatenate(draws),
        labels,
        names,
    )
    truth = GroundTruth(
        dict(zip(ids, [names[k] if k != NO_LABEL else None for k in true_labels.tolist()])),
        dict(zip(ids, [TAGS[t] for t in tags.tolist()])),
    )
    logger.info(
        "generated %d records (%d background), tags: %s",
        len(dataset),
        config.n_background,
        {t.value: int(np.sum(tags == i)) for i, t in enumerate(TAGS)},
    )
    return dataset, truth


# ---------------------------------------------------------------------------
# Scoring against the truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    """Detection and correction quality against the generator's truth."""

    neg_recall: float
    neg_precision: float
    pseudo_label_accuracy: float
    pos_recall: float
    pos_precision: float
    correction_accuracy: float
    accuracy_before: float
    accuracy_after: float
    tag_counts: dict[str, int]

    def to_dict(self) -> dict:
        return asdict(self)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


def score(
    cleaned: Dataset,
    truth: GroundTruth,
    mined: Mapping[str, str],
    flagged_ids: frozenset[str] | set[str],
    ledger: Sequence[CorrectionRecord],
) -> Metrics:
    """Compare a pipeline outcome with the hidden truth.

    ``mined`` maps promoted negative ids to their pseudo predicate name;
    ``flagged_ids`` is the density stage's noisy set; ``ledger`` the
    correction outcomes.  Labels are compared by predicate name.  An id in
    any of the three that the dataset lacks raises DatasetError.
    """
    known = set(cleaned.ids)
    if known != set(truth.true_predicate):
        raise DatasetError("dataset ids do not match ground truth ids")
    given = (("mined", mined), ("flagged", flagged_ids), ("ledger", [e.id for e in ledger]))
    for what, ids in given:
        unknown = sorted(set(ids) - known)
        if unknown:
            raise DatasetError(f"{what} ids not in the dataset ({len(unknown)}): {unknown[:5]}")

    missing = truth.tagged(NoiseTag.MISSING)
    mined_ids = set(mined)
    neg_recall = _ratio(len(mined_ids & missing), len(missing))
    neg_precision = _ratio(len(mined_ids & missing), len(mined_ids))
    recovered = sorted(mined_ids & missing)
    pseudo_acc = _ratio(
        sum(1 for rid in recovered if mined[rid] == truth.true_predicate[rid]),
        len(recovered),
    )

    noisy_pos = truth.tagged(NoiseTag.COMMON) | truth.tagged(NoiseTag.SYNONYM)
    flagged = set(flagged_ids)
    pos_recall = _ratio(len(flagged & noisy_pos), len(noisy_pos))
    pos_precision = _ratio(len(flagged & noisy_pos), len(flagged))

    names = cleaned.vocab.names
    for entry in ledger:
        if not (0 <= entry.old_label < len(names) and 0 <= entry.new_label < len(names)):
            raise DatasetError(
                f"ledger entry {entry.id!r}: label index outside the vocabulary of "
                f"{len(names)} predicates"
            )
    changed = [entry for entry in ledger if entry.changed]
    correction_acc = _ratio(
        sum(
            1
            for entry in changed
            if truth.true_predicate[entry.id] == names[entry.new_label]
        ),
        len(changed),
    )

    truth_labeled = [rid for rid, name in truth.true_predicate.items() if name is not None]
    before_correct = sum(1 for rid in truth_labeled if truth.tag[rid] is NoiseTag.NONE)
    after_correct = sum(
        1
        for rid, label in zip(cleaned.ids, cleaned.labels.tolist())
        if label != NO_LABEL and names[label] == truth.true_predicate[rid]
    )

    return Metrics(
        neg_recall=neg_recall,
        neg_precision=neg_precision,
        pseudo_label_accuracy=pseudo_acc,
        pos_recall=pos_recall,
        pos_precision=pos_precision,
        correction_accuracy=correction_acc,
        accuracy_before=_ratio(before_correct, len(truth_labeled)),
        accuracy_after=_ratio(after_correct, len(truth_labeled)),
        tag_counts={t.value: len(truth.tagged(t)) for t in NoiseTag},
    )


# ---------------------------------------------------------------------------
# Truth persistence
# ---------------------------------------------------------------------------


# truth key -> the types its decoded value may have
TRUTH_FIELDS = {"id": str, "true_predicate": (str, type(None)), "tag": str}


def truth_to_text(truth: GroundTruth, order: Sequence[str]) -> str:
    return jsonl_text(
        {"id": rid, "true_predicate": truth.true_predicate[rid], "tag": truth.tag[rid].value}
        for rid in order
    )


def save_truth(truth: GroundTruth, dataset: Dataset, path: str) -> None:
    atomic_write_text(path, truth_to_text(truth, dataset.ids))


def load_truth(path: str) -> GroundTruth:
    true_names: dict[str, str | None] = {}
    tags: dict[str, NoiseTag] = {}
    for lineno, row in read_jsonl(path, TRUTH_FIELDS):
        try:
            tags[row["id"]] = NoiseTag(row["tag"])
        except ValueError:
            raise DatasetError(f"{path}: line {lineno}: unknown tag {row['tag']!r}") from None
        true_names[row["id"]] = row["true_predicate"]
    if not true_names:
        raise DatasetError(f"{path}: empty truth file")
    return GroundTruth(true_names, tags)
