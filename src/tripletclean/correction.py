"""Label correction for flagged samples by a distance-weighted vote.

Each flagged record is compared against clean records that share its
subject and object categories.  The K nearest (squared Euclidean) cast
votes weighted by a Gaussian kernel of their distance; the winning
predicate replaces the old label unless it matches, in which case the
record is kept as-is.  Clean pools are frozen before any correction is
applied, so corrections never feed each other within a pass.

Each vote screens its pool with one matrix-vector product and the error
bound of ``density.screened_distances``: ``density.screen_bound`` of the
query's norm and the largest row norm that the pool computes once.  It
then computes ``density.exact_distances`` only for the rows the
bound cannot rule out of the K nearest, so the neighbors, their order and
their weights are those of exact distances to every row.  Rows within
the feature magnitude limit overflow no step of the screen or the pool
median (``density.screened_distances``); only a kernel weight can.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from tripletclean import density
from tripletclean.core import (
    JSON_BOOLS,
    Dataset,
    DatasetError,
    joined,
    json_numbers,
    json_string,
    read_jsonl,
    require_bounded,
)
from tripletclean.density import exact_distances, squared_norms, upper_ranks

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

    def __post_init__(self):
        if self.k < 1:
            raise DatasetError("k must be at least 1")
        for name in ("kernel_a", "kernel_b", "kernel_c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DatasetError(f"{name} must be finite, got {value}")
        if self.kernel_a <= 0:
            raise DatasetError("kernel_a must be positive")
        if self.kernel_c is not None and self.kernel_c <= 0:
            raise DatasetError("kernel_c must be positive when given")


@dataclass(frozen=True)
class VoteResult:
    """Outcome of one KNN vote; ``label`` is None when no vote was held."""

    label: int | None
    neighbor_ids: tuple[str, ...] = ()
    weights: tuple[float, ...] = ()


@dataclass(frozen=True)
class CorrectionRecord:
    id: str
    old_label: int
    new_label: int
    changed: bool
    neighbor_ids: tuple[str, ...]
    weights: tuple[float, ...]


def _kernel_scale(pool_features: np.ndarray, config: CorrectionConfig) -> float:
    """``kernel_c``, or the median of the pool's m(m-1)/2 pairwise distances.

    ``density.upper_ranks`` places the one or two middle distances by
    exact selection; neither an m x m matrix nor the m(m-1)/2 distances
    are held.  Each is halved before the sum, which then cannot overflow;
    halving is exact above 2^-1021 (a smaller median takes the floor), so
    the mean is ``np.median``'s bit for bit wherever that is finite.
    """
    if config.kernel_c is not None:
        return config.kernel_c
    m = pool_features.shape[0]
    if m < 2:
        return KERNEL_SCALE_FLOOR
    size = m * (m - 1) // 2
    middle, _ = upper_ranks(pool_features, (size + 1) // 2, 2 - size % 2)
    return max(float((middle / middle.size).sum()), KERNEL_SCALE_FLOOR)


@dataclass(frozen=True, eq=False)
class Pool:
    """Clean rows of one subject-object pair, with the kernel scale of all
    their votes, and the rows' squared norms and largest norm, which
    screen each vote."""

    ids: tuple[str, ...]
    labels: np.ndarray
    features: np.ndarray
    scale: float
    sq_norms: np.ndarray
    max_norm: float

    @classmethod
    def build(cls, ids: Sequence[str], labels, features, config: CorrectionConfig) -> Pool:
        feats = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        n = len(ids)
        # an empty pool's features may be a 1-D empty array
        if labels.shape != (n,) or feats.shape[:1] != (n,) or (n and feats.ndim != 2):
            raise DatasetError(
                f"a pool of {n} ids needs {n} labels and {n} feature rows, "
                f"got labels of shape {labels.shape} and features of shape {feats.shape}"
            )
        norms = np.zeros(0)
        if n:
            require_bounded(ids, feats)
            norms = squared_norms(feats)
        scale = _kernel_scale(feats, config)
        return cls(tuple(ids), labels, feats, scale, norms, math.sqrt(norms.max(initial=0.0)))

    def __len__(self) -> int:
        return len(self.ids)


def knn_vote(query_feature: np.ndarray, pool: Pool, config: CorrectionConfig) -> VoteResult:
    """Weighted vote of the nearest pool members; None if the pool is empty.

    Ties between classes are resolved toward the class whose voting
    neighbors lie closer in total, then toward the lower predicate index.
    """
    if not len(pool):
        return VoteResult(label=None)
    query = np.asarray(query_feature, dtype=np.float64)[None, :]
    k = min(config.k, len(pool))
    # density.screened_distances for one row
    q_sq = float(density._products(query, query)[0, 0])
    approx = density._products(-2.0 * query, pool.features)[0]
    approx += q_sq
    approx += pool.sq_norms
    bound = density.screen_bound(math.sqrt(q_sq), pool.max_norm, query.size)
    # The exact k-th distance is at most the approximate one plus the
    # bound, so a row within it lies within twice the bound of the
    # approximate k-th distance: only such rows can be neighbors.
    kth = float(np.partition(approx, k - 1)[k - 1])
    rows = np.flatnonzero(approx <= kth + 2 * bound)
    dists = exact_distances(pool.features[rows], query)
    # The candidate rows ascend, so a stable sort of their distances starts
    # with the same k rows, in the same order, as one of the whole pool.
    near = dists.argsort(kind="stable")[:k]
    order = rows[near]

    c = pool.scale
    d = dists[near]
    weights = config.kernel_a * np.exp(-((d - config.kernel_b) ** 2) / (2.0 * c * c))

    score: dict[int, float] = {}
    total_dist: dict[int, float] = {}
    for label, w, dist in zip(pool.labels[order].tolist(), weights.tolist(), d.tolist()):
        score[label] = score.get(label, 0.0) + w
        total_dist[label] = total_dist.get(label, 0.0) + dist
    winner = min(score, key=lambda v: (-score[v], total_dist[v], v))
    return VoteResult(
        label=winner,
        neighbor_ids=tuple(pool.ids[i] for i in order.tolist()),
        weights=tuple(weights.tolist()),
    )


def correct(
    noisy_rows: np.ndarray,
    dataset: Dataset,
    clean_rows: np.ndarray,
    config: CorrectionConfig,
) -> tuple[Dataset, tuple[CorrectionRecord, ...]]:
    """Re-vote the label of every flagged row against the clean pool.

    Pools come only from ``clean_rows`` as passed in, in row order, so the
    outcome does not depend on correction order.  A flagged row takes the
    vote's label when it disagrees with the old one and keeps its label
    otherwise (including when no vote was possible).  The ledger is
    ordered by record id.
    """
    noisy = np.unique(np.asarray(noisy_rows, dtype=np.int64))
    clean = np.unique(np.asarray(clean_rows, dtype=np.int64))
    ids, labels = dataset.ids, dataset.labels
    overlap = np.intersect1d(noisy, clean)
    if overlap.size:
        raise DatasetError(f"ids flagged both noisy and clean: {[ids[r] for r in overlap[:5]]}")
    for checked, role in ((clean, "clean"), (noisy, "flagged")):
        unlabeled = checked[labels[checked] < 0]
        if unlabeled.size:
            raise DatasetError(f"{role} record {ids[unlabeled[0]]!r} has no label")

    pair_of = list(map(tuple, dataset.pairs.tolist()))
    members: dict[tuple[int, int], list[int]] = {}
    for row in clean.tolist():
        members.setdefault(pair_of[row], []).append(row)
    # A flagged row is never clean, so every query of a pair sees one pool.
    pools = {}
    for pair in sorted({pair_of[r] for r in noisy.tolist()} & members.keys()):
        rows = members[pair]
        pools[pair] = Pool.build(
            [ids[r] for r in rows], labels[rows], dataset.features[rows], config
        )
    no_pool = Pool((), labels[:0], dataset.features[:0], KERNEL_SCALE_FLOOR, np.zeros(0), 0.0)

    new_labels = labels.copy()
    ledger: list[CorrectionRecord] = []
    # a kernel weight that overflows, turns invalid or divides by zero (a
    # kernel_c whose 2c^2 underflows) stops the vote at that record, so no
    # NaN reaches a score or the ledger
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for row in sorted(noisy.tolist(), key=ids.__getitem__):
            old = int(labels[row])
            try:
                vote = knn_vote(dataset.features[row], pools.get(pair_of[row], no_pool), config)
            except FloatingPointError as exc:
                raise DatasetError(
                    f"record {ids[row]!r}: kernel weights are not finite ({exc})"
                ) from None
            changed = vote.label is not None and vote.label != old
            if changed:
                new_labels[row] = vote.label
            ledger.append(
                CorrectionRecord(
                    id=ids[row],
                    old_label=old,
                    new_label=vote.label if changed else old,
                    changed=changed,
                    neighbor_ids=vote.neighbor_ids,
                    weights=vote.weights,
                )
            )
    changed_count = sum(1 for entry in ledger if entry.changed)
    logger.info("corrected %d of %d flagged records", changed_count, len(ledger))
    return replace(dataset, labels=new_labels), tuple(ledger)


# ledger key, in CorrectionRecord field order -> the type its decoded
# value must have
LEDGER_FIELDS = {
    "id": str,
    "old_label": int,
    "new_label": int,
    "changed": bool,
    "neighbor_ids": list,
    "weights": list,
}


# one ledger line, keys in LEDGER_FIELDS order
LEDGER_LINE = (
    '{"id": %s, "old_label": %d, "new_label": %d, "changed": %s, '
    '"neighbor_ids": [%s], "weights": [%s]}\n'
)


def ledger_to_text(ledger: Sequence[CorrectionRecord]) -> str:
    """One ledger entry per line, keys in field order, byte for byte as
    ``json.dumps`` writes them."""
    return joined(
        LEDGER_LINE
        % (
            json_string(entry.id),
            entry.old_label,
            entry.new_label,
            JSON_BOOLS[entry.changed],
            ", ".join(map(json_string, entry.neighbor_ids)),
            json_numbers(entry.weights),
        )
        for entry in ledger
    )


def load_ledger(path: str) -> tuple[CorrectionRecord, ...]:
    """Read a ledger file back; its lists become tuples.

    An entry that ``correct`` could not have written raises DatasetError
    naming the path and line: its ``changed`` is not ``new_label !=
    old_label``, its ``neighbor_ids`` and ``weights`` differ in length, its
    neighbor ids are not all strings, or its weights not all finite numbers.
    """
    ledger = []
    for lineno, row in read_jsonl(path, LEDGER_FIELDS):
        problem = _entry_problem(row)
        if problem:
            raise DatasetError(f"{path}: line {lineno}: {problem}")
        ledger.append(
            CorrectionRecord(
                **{
                    key: tuple(row[key]) if kind is list else row[key]
                    for key, kind in LEDGER_FIELDS.items()
                }
            )
        )
    return tuple(ledger)


def _entry_problem(row: dict) -> str | None:
    """What makes one decoded ledger entry inconsistent, or None."""
    old, new, ids, weights = (row[k] for k in ("old_label", "new_label", "neighbor_ids", "weights"))
    if row["changed"] != (new != old):
        relation = "differs from" if new != old else "equals"
        return f"changed is {row['changed']}, but new_label {new} {relation} old_label {old}"
    if len(ids) != len(weights):
        return f"{len(ids)} neighbor_ids but {len(weights)} weights"
    if not all(type(rid) is str for rid in ids):
        return f"neighbor_ids must all be strings, got {ids!r}"
    if not all(type(w) in (int, float) and math.isfinite(w) for w in weights):
        return f"weights must all be finite numbers, got {weights!r}"
    return None
