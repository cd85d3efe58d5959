"""Local-density screening of labeled samples, class by class.

For each predicate class the pairwise squared-Euclidean distance matrix is
reduced to one local-density count per sample: the number of same-class
samples strictly closer than a cutoff distance, the sample itself included
when the cutoff is positive, where the cutoff is a percentile of all N*N
entries, the diagonal zeros included.  One-dimensional K-means over the
densities splits the class into subsets; the subset with the lowest mean
density is flagged as noisy.

Memory: one class's N x N float64 matrix is held at a time, in one buffer
sized for the largest class.  The cutoff is found by exact bracketed
selection and the densities are counted, both over row blocks of the
matrix, so nothing else of size N x N is built; the other temporaries are
row blocks of at most ``BLOCK_ELEMENTS`` entries, the cutoff's sample of
about pool**(2/3) entries and its bracket, a few times that.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from tripletclean.core import (
    Dataset,
    DatasetError,
    Part,
    jsonl_text,
    read_jsonl,
)

logger = logging.getLogger(__name__)

KMEANS_MAX_ITER = 200

# Element budget of every per-block temporary: distance_matrix's
# differences, the cutoff and density passes' row blocks (1 MB of float64).
BLOCK_ELEMENTS = 1 << 17

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


def _upper_blocks(feats: np.ndarray):
    """Yield ``(lo, block)`` over row blocks of a float64 N x d array.

    ``block[r, c]`` is the squared distance between rows ``lo + r`` and
    ``lo + c``: each block pairs its rows with every row from ``lo`` on.
    Together the blocks cover the upper triangle, diagonal included, and
    below it only each block's own square on the diagonal.  The per-block
    difference temporary holds at most ``max(BLOCK_ELEMENTS, N * d)``
    float64 values.
    """
    n, d = feats.shape
    rows = max(1, BLOCK_ELEMENTS // max(1, n * d))
    for lo in range(0, n, rows):
        # Squared differences are reduced with np.sum's pairwise order so the
        # result is bit-identical to summing each pair's 1-D slice directly.
        diff = feats[lo : lo + rows, None, :] - feats[None, lo:, :]
        diff *= diff
        block = np.sum(diff, axis=-1)
        del diff  # not kept alive while the caller uses the block
        yield lo, block


def distance_matrix(features: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances, N x N with zero diagonal,
    written into ``out`` (an N x N float64 array) when given.

    Each distance is computed once: the upper triangle row block by row
    block, then mirrored below the diagonal.  The mirror is exact, because
    IEEE subtraction gives fl(a - b) = -fl(b - a), squaring drops the sign
    and the reduction over the d features runs in the same order.  Beyond
    the N x N float64 output the only temporary holds at most
    ``max(BLOCK_ELEMENTS, N * d)`` float64 values (one row of differences
    when a single row exceeds the budget).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DatasetError(f"expected a 2-D feature array, got shape {feats.shape}")
    n = feats.shape[0]
    if out is None:
        out = np.empty((n, n), dtype=np.float64)
    for lo, block in _upper_blocks(feats):
        hi = lo + block.shape[0]
        out[lo:hi, lo:] = block
        out[lo:hi, :lo] = out[:lo, lo:hi].T
    return out


def _row_blocks(matrix: np.ndarray):
    """Yield row blocks of at most ``BLOCK_ELEMENTS`` entries (one row when
    a row is larger), each a view of ``matrix``, never a copy."""
    n_rows, n_cols = matrix.shape
    rows = max(1, BLOCK_ELEMENTS // max(1, n_cols))
    for lo in range(0, n_rows, rows):
        yield matrix[lo : lo + rows]


def _select_rank(blocks, rank: int, size: int, sample: np.ndarray) -> float:
    """The rank-th smallest (1-based) of the ``size`` pool entries in the
    blocks that each call of ``blocks()`` yields; NaN sorts last.

    ``sample``, some of the pool's entries, is sorted in place; its
    quantiles bracket the rank with a margin of four standard errors.  One
    pass counts the entries below the bracket and gathers those inside it;
    when the rank falls among the gathered entries, partitioning them
    places it.  Otherwise the margin widens fourfold and the pass repeats,
    up to (-inf, +inf), so the result is always exact.  The sample only
    sets how many entries are gathered.
    """
    sample.sort()
    m = sample.size
    center = rank / size * m
    margin = 4 * math.sqrt(center * (1 - rank / size)) + 2
    while True:
        i, j = math.floor(center - margin), math.ceil(center + margin)
        lo = float(sample[i]) if i >= 0 else -math.inf
        hi = float(sample[j]) if j < m else math.inf
        # a NaN sample entry bounds nothing
        lo = -math.inf if math.isnan(lo) else lo
        hi = math.inf if math.isnan(hi) else hi
        below = 0
        inside = []
        for block in blocks():
            low = block < lo
            below += np.count_nonzero(low)
            keep = block <= hi
            keep ^= low  # lo <= hi, so this leaves lo <= entry <= hi
            # extract works on the raveled block, much faster than a 2-D mask
            inside.append(np.extract(keep, block))
        if below < rank <= below + sum(map(len, inside)):
            pool = np.concatenate(inside)
            pool.partition(rank - below - 1)
            return float(pool[rank - below - 1])
        if lo == -math.inf and hi == math.inf:
            return math.nan  # the rank lies among the NaN entries
        margin *= 4


def _sample(matrix: np.ndarray, size: int) -> np.ndarray:
    """About ``size ** (2/3)`` entries of the matrix on a golden-ratio lattice.

    Entry k sits in row k * n_rows // m and at column fraction frac(k * phi),
    so the sample pairs many distinct rows with many distinct columns and
    never aliases with the matrix's shape.  Only the sampled entries are
    copied.
    """
    n_rows, n_cols = matrix.shape
    k = np.arange(math.ceil(size ** (2 / 3)))
    cols = k * 0.6180339887498949
    cols %= 1.0
    cols *= n_cols
    rows = k * n_rows
    rows //= k.size
    return matrix[rows, cols.astype(np.intp)]


def cutoff_distance(matrix: np.ndarray, alpha: float) -> float:
    """The rank-th smallest entry of the pool, found by exact bracketed
    selection.

    The pool is every matrix entry, diagonal zeros included; the rank is
    ceil(alpha/100 * pool size), 1-based.
    Rank arithmetic goes through Fraction so that percentages landing
    exactly on an integer rank are not bumped by float rounding.  A sample
    of about pool**(2/3) entries brackets the rank; one pass over row
    blocks counts the entries below the bracket and gathers those inside
    it, and partitioning the gathered entries places the rank.  A bracket
    that misses widens until it holds the rank, so the result is always the
    entry that sorting the whole pool would give (NaN sorts last).  Neither
    the pool nor the matrix is copied.
    """
    if not (0.0 < alpha <= 100.0):
        raise DatasetError(f"alpha must be in (0, 100], got {alpha}")
    size = matrix.size
    if size == 0:
        return 0.0
    rank = int(math.ceil(Fraction(alpha) * size / 100))
    return _select_rank(lambda: _row_blocks(matrix), rank, size, _sample(matrix, size))


def local_density(matrix: np.ndarray, d_c: float) -> np.ndarray:
    """Per-sample count of samples strictly closer than the cutoff, the
    sample itself included, counted row block by row block."""
    if d_c < 0:
        raise DatasetError(f"cutoff must be non-negative, got {d_c}")
    rho = np.empty(matrix.shape[0], dtype=np.int64)
    filled = 0
    for block in _row_blocks(matrix):
        rho[filled : filled + len(block)] = np.count_nonzero(block < d_c, axis=1)
        filled += len(block)
    return rho


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


@dataclass(frozen=True, eq=False)
class ClassDensity:
    """Density outcome for one predicate class, rows in input order."""

    class_index: int
    alpha: float
    d_c: float
    rows: np.ndarray
    rho: tuple[int, ...]
    subset: tuple[int, ...]
    noisy_subset: int | None


@dataclass(frozen=True, eq=False)
class DensityReport:
    """Per-class outcomes and the flagged and unflagged rows; ``ids`` names
    the rows."""

    classes: tuple[ClassDensity, ...]
    noisy_rows: np.ndarray
    clean_rows: np.ndarray
    ids: Sequence[str]

    @property
    def noisy_ids(self) -> tuple[str, ...]:
        return tuple(self.ids[r] for r in self.noisy_rows)

    def flagged_set(self) -> frozenset[str]:
        return frozenset(self.noisy_ids)


def detect_noisy_positives(
    dataset: Dataset,
    rows: np.ndarray,
    config: DensityConfig,
) -> DensityReport:
    """Split the labeled ``rows`` of every class into clean and noisy by
    local density.

    Classes are handled independently in predicate-index order; within a
    class, rows keep their order in ``rows``.  Classes below the size
    guard, or degenerate under K-means, contribute all members to clean.
    """
    rows = np.asarray(rows, dtype=np.int64)
    labels = dataset.labels[rows]
    if np.any(labels < 0):
        raise DatasetError(f"record {dataset.ids[rows[labels < 0][0]]!r} has no label")

    classes = []
    noisy: list[np.ndarray] = []
    clean: list[np.ndarray] = []
    class_ids, sizes = np.unique(labels, return_counts=True)
    # Every class's matrix in turn fills the front of one buffer sized for
    # the largest class: one N x N matrix is held at a time, and no freed
    # matrix lingers in the allocator's heap beside the next one.
    buffer = np.empty(int(sizes.max(initial=0)) ** 2)
    for k, n in zip(class_ids.tolist(), sizes.tolist()):
        members = rows[labels == k]
        alpha = config.alpha[dataset.partition.part(k)]
        dmat = distance_matrix(dataset.features[members], out=buffer[: n * n].reshape(n, n))
        d_c = cutoff_distance(dmat, alpha)
        rho = local_density(dmat, d_c)
        if len(members) < config.min_class_size:
            subset = np.full(len(members), -1, dtype=np.int64)
            noisy_subset = None
        else:
            subset, noisy_subset = split_subsets(rho, config.n_subsets)
        if noisy_subset is None:
            flagged = np.zeros(len(members), dtype=bool)
        else:
            flagged = subset == noisy_subset
        noisy.append(members[flagged])
        clean.append(members[~flagged])
        classes.append(
            ClassDensity(
                class_index=k,
                alpha=alpha,
                d_c=d_c,
                rows=members,
                rho=tuple(rho.tolist()),
                subset=tuple(subset.tolist()),
                noisy_subset=noisy_subset,
            )
        )
        logger.debug("class %d: n=%d d_c=%.4g flagged=%d", k, len(members), d_c, flagged.sum())

    empty = rows[:0]
    return DensityReport(
        tuple(classes),
        np.concatenate([empty, *noisy]),
        np.concatenate([empty, *clean]),
        dataset.ids,
    )


def density_report_to_text(report: DensityReport) -> str:
    """Line-delimited audit rows: one sample per line, grouped by class."""
    flagged = set(report.noisy_rows.tolist())
    return jsonl_text(
        {
            "id": report.ids[row],
            "class": cls.class_index,
            "rho": rho,
            "d_c": cls.d_c,
            "subset": subset,
            "flagged": row in flagged,
        }
        for cls in report.classes
        for row, rho, subset in zip(cls.rows.tolist(), cls.rho, cls.subset)
    )


def load_flagged(path: str) -> frozenset[str]:
    """Ids that a density report file marks as flagged."""
    rows = read_jsonl(path, {"id": str, "flagged": bool})
    return frozenset(row["id"] for _, row in rows if row["flagged"])
