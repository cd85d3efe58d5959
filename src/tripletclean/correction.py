"""Label correction for flagged samples by a distance-weighted vote.

Each flagged record is compared against clean records that share its
subject and object categories.  The K nearest (squared Euclidean) cast
votes weighted by a Gaussian kernel of their distance; the winning
predicate replaces the old label unless it matches, in which case the
record is kept as-is.  Clean pools are frozen before any correction is
applied, so corrections never feed each other within a pass.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from tripletclean.core import (
    Dataset,
    DatasetError,
    LabelState,
    TripletRecord,
    atomic_write_text,
    jsonl_text,
    read_jsonl,
)
from tripletclean.density import distance_matrix

logger = logging.getLogger(__name__)

KERNEL_SCALE_FLOOR = 1e-6


@dataclass(frozen=True)
class CorrectionConfig:
    """Neighbor count and Gaussian kernel for the voting stage.

    ``kernel_c`` may be left as None to use the median pairwise distance
    within the clean pool of the record's subject-object pair, computed
    once per pair (floored at 1e-6), which keeps the kernel scaled to the
    data.
    """

    k: int = 3
    kernel_a: float = 1.0
    kernel_b: float = 0.0
    kernel_c: float | None = None
    min_neighbors: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise DatasetError("k must be at least 1")
        if self.kernel_a <= 0:
            raise DatasetError("kernel_a must be positive")
        if self.kernel_c is not None and self.kernel_c <= 0:
            raise DatasetError("kernel_c must be positive when given")
        if self.min_neighbors < 1:
            raise DatasetError("min_neighbors must be at least 1")


@dataclass(frozen=True)
class VoteResult:
    """Outcome of one KNN vote; ``label`` is None when no vote was held."""

    label: int | None
    neighbor_ids: tuple[str, ...] = ()
    weights: tuple[float, ...] = ()
    distances: tuple[float, ...] = ()


@dataclass(frozen=True)
class CorrectionRecord:
    id: str
    old_label: int
    new_label: int
    changed: bool
    neighbor_ids: tuple[str, ...]
    weights: tuple[float, ...]


def _kernel_scale(pool_features: np.ndarray, config: CorrectionConfig) -> float:
    if config.kernel_c is not None:
        return config.kernel_c
    m = pool_features.shape[0]
    if m < 2:
        return KERNEL_SCALE_FLOOR
    pairwise = distance_matrix(pool_features)[np.triu_indices(m, k=1)]
    return max(float(np.median(pairwise)), KERNEL_SCALE_FLOOR)


@dataclass(frozen=True, eq=False)
class Pool:
    """Clean records of one subject-object pair, stacked once for all votes."""

    records: tuple[TripletRecord, ...]
    features: np.ndarray
    scale: float

    @classmethod
    def build(cls, records: Sequence[TripletRecord], config: CorrectionConfig) -> Pool:
        feats = np.stack([r.feature for r in records])
        return cls(tuple(records), feats, _kernel_scale(feats, config))

    def __len__(self) -> int:
        return len(self.records)


def knn_vote(
    query_feature: np.ndarray,
    pool: Pool | Sequence[TripletRecord],
    config: CorrectionConfig,
) -> VoteResult:
    """Weighted vote of the nearest pool members; None if the pool is short.

    A plain record list is stacked into a :class:`Pool` first.  Ties
    between classes are resolved toward the class whose voting neighbors
    lie closer in total, then toward the lower predicate index.
    """
    if len(pool) < config.min_neighbors:
        return VoteResult(label=None)
    if not isinstance(pool, Pool):
        pool = Pool.build(pool, config)
    diff = pool.features - np.asarray(query_feature, dtype=np.float64)[None, :]
    dists = np.sum(diff * diff, axis=1)
    order = np.argsort(dists, kind="stable")[: config.k]

    c = pool.scale
    d = dists[order]
    weights = config.kernel_a * np.exp(-((d - config.kernel_b) ** 2) / (2.0 * c * c))

    score: dict[int, float] = {}
    total_dist: dict[int, float] = {}
    for idx, w, dist in zip(order, weights, d):
        label = pool.records[idx].label
        score[label] = score.get(label, 0.0) + float(w)
        total_dist[label] = total_dist.get(label, 0.0) + float(dist)
    winner = min(score, key=lambda v: (-score[v], total_dist[v], v))
    return VoteResult(
        label=winner,
        neighbor_ids=tuple(pool.records[i].id for i in order),
        weights=tuple(float(w) for w in weights),
        distances=tuple(float(x) for x in d),
    )


def correct(
    noisy_ids: Sequence[str],
    dataset: Dataset,
    clean_ids: Sequence[str],
    config: CorrectionConfig,
) -> tuple[Dataset, tuple[CorrectionRecord, ...]]:
    """Re-vote the label of every flagged record against the clean pool.

    Pools come only from ``clean_ids`` as passed in, so the outcome does
    not depend on correction order.  Flagged records end in state
    CORRECTED when the vote disagrees with the old label, CLEAN_KEPT
    otherwise (including when no vote was possible).  The ledger is
    ordered by record id.
    """
    noisy_set, clean_set = set(noisy_ids), set(clean_ids)
    overlap = noisy_set & clean_set
    if overlap:
        raise DatasetError(f"ids flagged both noisy and clean: {sorted(overlap)[:5]}")
    by_id = dataset.by_id()
    dangling = (noisy_set | clean_set) - set(by_id)
    if dangling:
        raise DatasetError(f"unknown record ids: {sorted(dangling)[:5]}")

    clean_records = [r for r in dataset.records if r.id in clean_set]
    for rec in clean_records:
        if rec.label is None:
            raise DatasetError(f"clean record {rec.id!r} has no label")

    members: dict[tuple[int, int], list[TripletRecord]] = {}
    for rec in clean_records:
        members.setdefault(rec.pair, []).append(rec)
    # A flagged id is never clean, so every query of a pair sees one pool.
    pools = {
        pair: Pool.build(members[pair], config)
        for pair in {by_id[rid].pair for rid in noisy_set} & members.keys()
    }

    updates: dict[str, TripletRecord] = {}
    ledger: list[CorrectionRecord] = []
    for rid in sorted(noisy_set):
        rec = by_id[rid]
        if rec.label is None:
            raise DatasetError(f"flagged record {rid!r} has no label")
        vote = knn_vote(rec.feature, pools.get(rec.pair, ()), config)
        if vote.label is None or vote.label == rec.label:
            updates[rid] = replace(rec, label_state=LabelState.CLEAN_KEPT)
            new_label, changed = rec.label, False
        else:
            updates[rid] = replace(
                rec, label=vote.label, label_state=LabelState.CORRECTED
            )
            new_label, changed = vote.label, True
        ledger.append(
            CorrectionRecord(
                id=rid,
                old_label=rec.label,
                new_label=new_label,
                changed=changed,
                neighbor_ids=vote.neighbor_ids,
                weights=vote.weights,
            )
        )
    changed_count = sum(1 for entry in ledger if entry.changed)
    logger.info("corrected %d of %d flagged records", changed_count, len(ledger))
    return dataset.with_records(updates), tuple(ledger)


def ledger_to_text(ledger: Sequence[CorrectionRecord]) -> str:
    """One ledger entry per line, keys in field order."""
    return jsonl_text(map(asdict, ledger))


def save_ledger(ledger: Sequence[CorrectionRecord], path: str) -> None:
    atomic_write_text(path, ledger_to_text(ledger))


# ledger key -> the type its decoded value must have
LEDGER_FIELDS = {
    "id": str,
    "old_label": int,
    "new_label": int,
    "changed": bool,
    "neighbor_ids": list,
    "weights": list,
}


def load_ledger(path: str) -> tuple[CorrectionRecord, ...]:
    """Read a ledger file back; its lists become tuples."""
    return tuple(
        CorrectionRecord(
            **{
                key: tuple(row[key]) if kind is list else row[key]
                for key, kind in LEDGER_FIELDS.items()
            }
        )
        for _, row in read_jsonl(path, LEDGER_FIELDS)
    )
