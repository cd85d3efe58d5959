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
    Dataset,
    DatasetError,
    LabelState,
    PredicateVocab,
    TripletRecord,
    atomic_write_text,
    jsonl_text,
    partition_predicates,
    read_jsonl,
)
from tripletclean.correction import CorrectionRecord

logger = logging.getLogger(__name__)


class NoiseTag(str, Enum):
    NONE = "none"
    COMMON = "common"
    SYNONYM = "synonym"
    MISSING = "missing"


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


def _synonym_components(config: SynthConfig) -> list[set[int]]:
    """Connected components of the synonym graph, ordered by smallest member."""
    neighbors = _synonym_partner_map(config)
    seen: set[int] = set()
    components = []
    for k in sorted(neighbors):
        if k in seen:
            continue
        stack, comp = [k], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(neighbors[node] - comp)
        seen |= comp
        components.append(comp)
    return components


def _assign_pairs(config: SynthConfig) -> dict[int, tuple[int, int]]:
    """Class -> subject-object pair; synonym groups share one pair."""
    group_of: dict[int, int] = {}
    for gi, comp in enumerate(_synonym_components(config)):
        for k in comp:
            group_of[k] = gi
    pair_index: dict[int, int] = {}
    group_pair: dict[int, int] = {}
    next_pair = 0
    for k in range(config.n_classes):
        if k in group_of:
            gi = group_of[k]
            if gi not in group_pair:
                group_pair[gi] = next_pair % config.n_pairs
                next_pair += 1
            pair_index[k] = group_pair[gi]
        else:
            pair_index[k] = next_pair % config.n_pairs
            next_pair += 1
    return {k: (p, p + 1) for k, p in pair_index.items()}


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

    ids: list[str] = []
    features: list[np.ndarray] = []
    labels: list[int | None] = []
    pairs: list[tuple[int, int]] = []
    true_names: dict[str, str | None] = {}

    serial = 0
    for k in range(config.n_classes):
        draws = centers[k] + rng.normal(0.0, config.cluster_spread, (counts[k], config.feature_dim))
        for row in draws:
            rid = f"r{serial:06d}"
            serial += 1
            ids.append(rid)
            features.append(row)
            labels.append(k)
            pairs.append(pair_of[k])
            true_names[rid] = f"p{k}"

    # background negatives live opposite the center layout on the first axis
    bg_center = np.zeros(config.feature_dim)
    bg_center[0] = -config.class_separation / np.sqrt(2.0)
    bg_draws = bg_center + rng.normal(
        0.0, config.cluster_spread, (config.n_background, config.feature_dim)
    )
    for i, row in enumerate(bg_draws):
        rid = f"r{serial:06d}"
        serial += 1
        ids.append(rid)
        features.append(row)
        labels.append(None)
        pairs.append(pair_of[i % config.n_classes])
        true_names[rid] = None

    tags = {rid: NoiseTag.NONE for rid in ids}
    partner = _synonym_partner_map(config)

    def inject(eligible: list[int], rate: float, apply):
        order = rng.permutation(len(eligible))
        n_hit = int(np.floor(rate * len(eligible)))
        for pos in order[:n_hit]:
            apply(eligible[pos])

    untouched = lambda i: labels[i] is not None and tags[ids[i]] is NoiseTag.NONE

    def flip_common(i):
        labels[i] = config.coarse_of[labels[i]]
        tags[ids[i]] = NoiseTag.COMMON

    def flip_synonym(i):
        options = sorted(partner[labels[i]])
        choice = options[rng.integers(len(options))] if len(options) > 1 else options[0]
        labels[i] = choice
        tags[ids[i]] = NoiseTag.SYNONYM

    def demote(i):
        labels[i] = None
        tags[ids[i]] = NoiseTag.MISSING

    inject(
        [i for i in range(len(ids)) if untouched(i) and labels[i] in config.coarse_of],
        config.eta_common,
        flip_common,
    )
    inject(
        [i for i in range(len(ids)) if untouched(i) and labels[i] in partner],
        config.eta_syn,
        flip_synonym,
    )
    inject(
        [i for i in range(len(ids)) if untouched(i)],
        config.eta_neg,
        demote,
    )

    names = tuple(f"p{k}" for k in range(config.n_classes))
    vocab_counts = [0] * config.n_classes
    records = []
    for i, rid in enumerate(ids):
        label = labels[i]
        if label is not None:
            vocab_counts[label] += 1
        records.append(
            TripletRecord(
                id=rid,
                image_id=f"im{i // 16}",
                subject_class=pairs[i][0],
                object_class=pairs[i][1],
                feature=features[i],
                label=label,
                label_state=LabelState.NEGATIVE if label is None else LabelState.ANNOTATED,
            )
        )
    vocab = PredicateVocab(names, tuple(vocab_counts))
    dataset = Dataset(tuple(records), vocab, partition_predicates(vocab), config.feature_dim)
    truth = GroundTruth(true_names, tags)
    logger.info(
        "generated %d records (%d background), tags: %s",
        len(records),
        config.n_background,
        {t.value: len(truth.tagged(t)) for t in NoiseTag},
    )
    return dataset, truth


def _synonym_partner_map(config: SynthConfig) -> dict[int, set[int]]:
    partner: dict[int, set[int]] = {}
    for a, b in config.synonym_pairs:
        partner.setdefault(a, set()).add(b)
        partner.setdefault(b, set()).add(a)
    return partner


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
    correction outcomes.  Labels are compared by predicate name.
    """
    if set(cleaned.by_id()) != set(truth.true_predicate):
        raise DatasetError("dataset ids do not match ground truth ids")

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
    changed = [entry for entry in ledger if entry.changed]
    correction_acc = _ratio(
        sum(
            1
            for entry in changed
            if truth.true_predicate.get(entry.id) == names[entry.new_label]
        ),
        len(changed),
    )

    by_id = cleaned.by_id()
    truth_labeled = [rid for rid, name in truth.true_predicate.items() if name is not None]
    before_correct = sum(1 for rid in truth_labeled if truth.tag[rid] is NoiseTag.NONE)
    after_correct = 0
    for rid in truth_labeled:
        rec = by_id[rid]
        if rec.label is not None and names[rec.label] == truth.true_predicate[rid]:
            after_correct += 1

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
    atomic_write_text(path, truth_to_text(truth, [r.id for r in dataset.records]))


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
