"""Local-density screening of labeled samples, class by class.

For each predicate class the pairwise squared-Euclidean distance matrix is
reduced to one local-density count per sample: the number of same-class
samples strictly closer than a cutoff distance, where the cutoff is a
percentile of all N*N sorted entries.  One-dimensional K-means over the
densities splits the class into subsets; the subset with the lowest mean
density is flagged as noisy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from tripletclean.core import (
    DatasetError,
    FrequencyPartition,
    Part,
    TripletRecord,
    atomic_write_text,
    jsonl_text,
    read_jsonl,
)

logger = logging.getLogger(__name__)

KMEANS_MAX_ITER = 200

# Element budget of distance_matrix's per-block difference temporary (8 MB).
BLOCK_ELEMENTS = 1 << 20

DEFAULT_ALPHA = {Part.HEAD: 12.5, Part.BODY: 25.0, Part.TAIL: 50.0}


@dataclass(frozen=True)
class DensityConfig:
    """Controls for the positive-noise detection stage.

    ``alpha`` percentiles select how large the density cutoff is for classes
    in each frequency part; larger values flag more aggressively.  Classes
    with fewer than ``min_class_size`` members are never flagged.
    """

    alpha: dict[Part, float] = field(default_factory=lambda: dict(DEFAULT_ALPHA))
    n_subsets: int = 3
    min_class_size: int = 5
    exclude_self: bool = False

    def __post_init__(self):
        for part in Part:
            if part not in self.alpha:
                raise DatasetError(f"alpha missing entry for part {part.value!r}")
            a = self.alpha[part]
            if not (0.0 < a <= 100.0):
                raise DatasetError(f"alpha for {part.value} must be in (0, 100], got {a}")
        if self.n_subsets < 2:
            raise DatasetError("n_subsets must be at least 2")
        if self.min_class_size < 1:
            raise DatasetError("min_class_size must be positive")


def distance_matrix(features: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances, N x N with zero diagonal.

    Rows are filled one block at a time, so beyond the N x N float64
    output the only temporary holds at most ``max(BLOCK_ELEMENTS, N * d)``
    float64 values (one row of differences when a single row exceeds the
    budget).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DatasetError(f"expected a 2-D feature array, got shape {feats.shape}")
    n, d = feats.shape
    out = np.empty((n, n), dtype=np.float64)
    rows = max(1, BLOCK_ELEMENTS // max(1, n * d))
    for lo in range(0, n, rows):
        # Squared differences are reduced with np.sum's pairwise order so the
        # result is bit-identical to summing each pair's 1-D slice directly.
        diff = feats[lo : lo + rows, None, :] - feats[None, :, :]
        diff *= diff
        out[lo : lo + rows] = np.sum(diff, axis=-1)
    return out


def cutoff_distance(matrix: np.ndarray, alpha: float, include_diagonal: bool = True) -> float:
    """Distance ranked at alpha percent of the sorted entry pool.

    The pool is every matrix entry, diagonal zeros included; the rank is
    ceil(alpha/100 * pool size), 1-based.  Rank arithmetic goes through
    Fraction so that percentages landing exactly on an integer rank are not
    bumped by float rounding.
    """
    if not (0.0 < alpha <= 100.0):
        raise DatasetError(f"alpha must be in (0, 100], got {alpha}")
    if include_diagonal:
        pool = np.sort(matrix, axis=None)
    else:
        n = matrix.shape[0]
        off = matrix[~np.eye(n, dtype=bool)]
        if off.size == 0:
            return 0.0
        pool = np.sort(off)
    rank = int(math.ceil(Fraction(alpha) * pool.size / 100))
    return float(pool[rank - 1])


def local_density(matrix: np.ndarray, d_c: float, include_self: bool = True) -> np.ndarray:
    """Per-sample count of samples strictly closer than the cutoff."""
    if d_c < 0:
        raise DatasetError(f"cutoff must be non-negative, got {d_c}")
    closer = matrix < d_c
    if not include_self:
        np.fill_diagonal(closer, False)
    return closer.sum(axis=1).astype(np.int64)


def kmeans_1d(values: np.ndarray, n_clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iterations on scalars with quantile-seeded centers.

    Initialization is deterministic: cluster m starts at the
    (m + 0.5) / n_clusters quantile of the values.  Empty clusters keep
    their previous center.  Returns (assignments, centers); ties in the
    assignment step go to the lower cluster index.
    """
    vals = np.asarray(values, dtype=np.float64)
    fractions = (np.arange(n_clusters) + 0.5) / n_clusters
    centers = np.quantile(vals, fractions)
    assign = np.argmin(np.abs(vals[:, None] - centers[None, :]), axis=1)
    for _ in range(KMEANS_MAX_ITER):
        for m in range(n_clusters):
            members = vals[assign == m]
            if members.size:
                centers[m] = members.mean()
        new_assign = np.argmin(np.abs(vals[:, None] - centers[None, :]), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign, centers


def split_subsets(
    densities: Sequence[int], n_subsets: int
) -> tuple[np.ndarray, int | None]:
    """Cluster densities and name the lowest-mean cluster.

    Returns (assignments, noisy_subset).  ``noisy_subset`` is None when the
    class degenerates: fewer samples than clusters, or K-means collapses to
    a single occupied cluster (all densities equal, for instance).
    """
    vals = np.asarray(densities, dtype=np.float64)
    if n_subsets < 2:
        raise DatasetError("n_subsets must be at least 2")
    if vals.size < n_subsets:
        return np.zeros(vals.size, dtype=np.int64), None
    assign, _ = kmeans_1d(vals, n_subsets)
    occupied = [m for m in range(n_subsets) if np.any(assign == m)]
    if len(occupied) < 2:
        return np.zeros(vals.size, dtype=np.int64), None
    means = {m: float(vals[assign == m].mean()) for m in occupied}
    noisy = min(occupied, key=lambda m: (means[m], m))
    return assign.astype(np.int64), noisy


@dataclass(frozen=True)
class ClassDensity:
    """Density outcome for one predicate class, ids in input order."""

    class_index: int
    alpha: float
    d_c: float
    ids: tuple[str, ...]
    rho: tuple[int, ...]
    subset: tuple[int, ...]
    noisy_subset: int | None


@dataclass(frozen=True)
class DensityReport:
    classes: tuple[ClassDensity, ...]
    noisy_ids: tuple[str, ...]
    clean_ids: tuple[str, ...]

    def flagged_set(self) -> frozenset[str]:
        return frozenset(self.noisy_ids)


def detect_noisy_positives(
    records: Sequence[TripletRecord],
    config: DensityConfig,
    partition: FrequencyPartition,
) -> DensityReport:
    """Split every labeled class into clean and noisy ids by local density.

    Classes are handled independently in predicate-index order; within a
    class, sample order follows the input.  Classes below the size guard,
    or degenerate under K-means, contribute all members to clean.
    """
    for rec in records:
        if rec.label is None:
            raise DatasetError(f"record {rec.id!r} has no label")

    by_class: dict[int, list[TripletRecord]] = {}
    for rec in records:
        by_class.setdefault(rec.label, []).append(rec)

    include = not config.exclude_self
    classes = []
    noisy_ids: list[str] = []
    clean_ids: list[str] = []
    for k in sorted(by_class):
        members = by_class[k]
        alpha = config.alpha[partition.part(k)]
        feats = np.stack([m.feature for m in members])
        dmat = distance_matrix(feats)
        d_c = cutoff_distance(dmat, alpha, include_diagonal=include)
        rho = local_density(dmat, d_c, include_self=include)
        if len(members) < config.min_class_size:
            subset = np.full(len(members), -1, dtype=np.int64)
            noisy_subset = None
        else:
            subset, noisy_subset = split_subsets(rho, config.n_subsets)
        for m, s in zip(members, subset):
            if noisy_subset is not None and s == noisy_subset:
                noisy_ids.append(m.id)
            else:
                clean_ids.append(m.id)
        classes.append(
            ClassDensity(
                class_index=k,
                alpha=alpha,
                d_c=d_c,
                ids=tuple(m.id for m in members),
                rho=tuple(int(r) for r in rho),
                subset=tuple(int(s) for s in subset),
                noisy_subset=noisy_subset,
            )
        )
        if noisy_subset is None:
            logger.debug("class %d: skipped (n=%d)", k, len(members))
        else:
            logger.debug(
                "class %d: n=%d d_c=%.4g flagged=%d",
                k,
                len(members),
                d_c,
                int(np.sum(subset == noisy_subset)),
            )

    return DensityReport(tuple(classes), tuple(noisy_ids), tuple(clean_ids))


def density_report_to_text(report: DensityReport) -> str:
    """Line-delimited audit rows: one sample per line, grouped by class."""
    flagged = report.flagged_set()
    return jsonl_text(
        {
            "id": rid,
            "class": cls.class_index,
            "rho": rho,
            "d_c": cls.d_c,
            "subset": subset,
            "flagged": rid in flagged,
        }
        for cls in report.classes
        for rid, rho, subset in zip(cls.ids, cls.rho, cls.subset)
    )


def save_density_report(report: DensityReport, path: str) -> None:
    atomic_write_text(path, density_report_to_text(report))


def load_flagged(path: str) -> frozenset[str]:
    """Ids that a density report file marks as flagged."""
    rows = read_jsonl(path, {"id": str, "flagged": bool})
    return frozenset(row["id"] for _, row in rows if row["flagged"])
