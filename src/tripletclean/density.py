"""Local-density screening of labeled samples, class by class.

For each predicate class the pairwise squared-Euclidean distance matrix is
reduced to one local-density count per sample: the number of same-class
samples strictly closer than a cutoff distance, the sample itself included
when the cutoff is positive, where the cutoff is a percentile of all N*N
entries, the diagonal zeros included.  One-dimensional K-means over the
densities splits the class into subsets; the subset with the lowest mean
density is flagged as noisy.

Memory: a class whose N*N entries fit in ``BLOCK_ELEMENTS`` (N <= 362)
gets its matrix, in one buffer sized for the largest such class; the
cutoff is found by exact bracketed selection and the densities are
counted over row blocks of it.  A larger class is streamed: one
``upper_ranks`` pass over the strictly-upper row strips places the cutoff
and counts the densities with no N x N array, so memory stays bounded
however large a class is; the nsc pool median is its second caller.  The
temporaries are row strips of at most ``BLOCK_ELEMENTS`` entries, the
sample of about pool**(2/3) entries and its bracket, a few times that;
the streamed pass also keeps each gathered entry's place and one count
per sample.

Speed: the streamed pass screens each strip with BLAS.  One GEMM gives
every entry an approximate distance, ‖x‖² + ‖y‖² − 2·x·y, and
``screened_distances`` a bound on its error, valid for any summation
order; an entry that the bound places below or past the selection's
bracket is counted or skipped, and only the rest are computed the way
``distance_matrix`` computes them.  So the cutoff, every density and
the pool median keep their bits.  The nsc vote screens its pool the same
way, through the same helper.
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
    require_finite,
)

logger = logging.getLogger(__name__)

KMEANS_MAX_ITER = 200

# Element budget of every per-block temporary: distance_matrix's
# differences, the cutoff and density passes' row blocks (1 MB of float64).
# A class with more than this many N*N entries gets no matrix: it streams.
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


def _select_rank(scan, rank: int, size: int, sample: np.ndarray, count: int = 1) -> np.ndarray:
    """The rank-th to (rank + count - 1)-th smallest (1-based) of ``size``
    pool entries, ascending; NaN sorts last.

    ``scan(lo, hi)`` makes one pass over the pool and returns how many
    entries lie below ``lo`` and a list of arrays of those in
    ``[lo, hi]``.  ``sample``, some of the pool's entries, is sorted in
    place; its quantiles bracket the rank with a margin of four standard
    errors.  When the ranks fall among the gathered entries, partitioning
    them places all of them.  Otherwise the margin widens fourfold and the
    pass repeats, up to (-inf, +inf), so the result is always exact.  The
    sample only sets how many entries are gathered.
    """
    sample.sort()
    m = sample.size
    center = rank / size * m
    margin = 4 * math.sqrt(center * (1 - rank / size)) + 2
    last = rank + count - 1
    while True:
        i, j = math.floor(center - margin), math.ceil(center + margin)
        lo = float(sample[i]) if i >= 0 else -math.inf
        hi = float(sample[j]) if j < m else math.inf
        # a NaN sample entry bounds nothing
        lo = -math.inf if math.isnan(lo) else lo
        hi = math.inf if math.isnan(hi) else hi
        below, inside = scan(lo, hi)
        gathered = sum(map(len, inside))
        if below < rank and (last <= below + gathered or (lo, hi) == (-math.inf, math.inf)):
            # only NaN entries lie past all gathered ones; the appended NaN stands for them
            pool = np.concatenate([*inside, [math.nan]])
            at = np.minimum(np.arange(rank - below - 1, last - below), gathered)
            pool.partition(at)
            return pool[at]
        margin *= 4


def _gather(blocks, lo: float, hi: float) -> tuple[int, list[np.ndarray]]:
    """One ``_select_rank`` pass over whole blocks: the count of entries
    below ``lo`` and the entries in ``[lo, hi]``."""
    below = 0
    inside = []
    for block in blocks:
        low = block < lo
        below += np.count_nonzero(low)
        keep = block <= hi
        keep ^= low  # lo <= hi, so this leaves lo <= entry <= hi
        # extract works on the raveled block, much faster than a 2-D mask
        inside.append(np.extract(keep, block))
    return below, inside


def _lattice(n_rows: int, n_cols: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of about ``size ** (2/3)`` entries of an
    n_rows x n_cols matrix on a golden-ratio lattice.

    Entry k sits in row k * n_rows // m and at column fraction frac(k * phi),
    so the sample pairs many distinct rows with many distinct columns and
    never aliases with the matrix's shape.
    """
    k = np.arange(math.ceil(size ** (2 / 3)))
    cols = k * 0.6180339887498949
    cols %= 1.0
    cols *= n_cols
    rows = k * n_rows
    rows //= k.size
    return rows, cols.astype(np.intp)


def _sample(matrix: np.ndarray, size: int) -> np.ndarray:
    """The matrix's entries on the lattice; only they are copied."""
    return matrix[_lattice(*matrix.shape, size)]


def _pair_distances(feats: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances between rows ``rows[i]`` and ``cols[i]`` of an
    N x d array, each bit-identical to the same entry of ``distance_matrix``,
    computed in chunks of at most ``BLOCK_ELEMENTS`` differences."""
    out = np.empty(rows.size)
    step = max(1, BLOCK_ELEMENTS // max(1, feats.shape[1]))
    for lo in range(0, rows.size, step):
        diff = feats[rows[lo : lo + step]] - feats[cols[lo : lo + step]]
        diff *= diff
        np.sum(diff, axis=-1, out=out[lo : lo + step])
    return out


def _pair_sample(feats: np.ndarray, size: int) -> np.ndarray:
    """Squared distances of the lattice's off-diagonal (i, j) pairs of an
    N x d array.

    The lattice spans the whole N x N matrix, so the sample is uniform over
    the pairs; entry (i, j) equals entry (j, i).
    """
    n = feats.shape[0]
    rows, cols = _lattice(n, n, size)
    off = rows != cols
    return _pair_distances(feats, rows[off], cols[off])


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` over the last two axes: every dot product the distance
    screen takes goes through here, in whatever order BLAS sums it."""
    return a @ np.swapaxes(b, -1, -2)


def squared_norms(feats: np.ndarray) -> np.ndarray:
    """Each row's squared Euclidean norm, by ``_products``; one that
    overflows is infinite, and makes the row's screening bound infinite."""
    with np.errstate(over="ignore"):
        return _products(feats[:, None, :], feats[:, None, :])[:, 0, 0]


def screened_distances(
    a: np.ndarray, b: np.ndarray, b_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Approximate squared distances between the rows of ``a`` and ``b``
    (``b_sq`` the ``squared_norms`` of ``b``), and for each row of ``a`` a
    bound E on their error.

    The approximation D̃ of an entry is ‖x‖² + ‖y‖² − 2·x·y, from one GEMM.
    Let D' be the same entry as ``distance_matrix`` computes it, D the
    exact squared distance, s = ‖x‖, R the largest row norm of ``b``,
    u = 2^-53 and γ_n = n·u / (1 − n·u) (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., §3.1 and §3.5).  E is chosen so that

        E·(1 − u) >= (1 + u)·|D̃ − D'| + 2u·(s + R)²,

    which makes every decision a threshold t takes exact: D̃ < fl(t − E)
    implies D' < t, D̃ > fl(t + E) implies D' > t, and the rounding of
    t ∓ E (or of a k-th distance plus 2E) is covered by the last term.
    For d·u < 0.01:

    - D̃ sums the d + 2 terms −2·x_k·y_k, ‖x‖², ‖y‖² (the computed norms)
      in some order, with or without fused multiply-adds (scaling by −2 is
      exact), so it lies within γ_{d+2}·(1 + γ_d)·(s + R)² of the same sum
      of exact terms.
    - The computed norms lie within γ_d·(s² + R²) of the exact ones, so
      that sum lies within γ_d·(s + R)² of D.
    - D' rounds each difference and square once and sums d non-negative
      terms: |D' − D| <= γ_{d+2}·D <= γ_{d+2}·(s + R)².

    So |D̃ − D'| <= (3.1·d + 4.1)·u·(s + R)², and the condition needs
    E >= (3.1·d + 6.3)·u·(s + R)².  E is 4·(d + 8)·u·(s + R)² from the
    computed norms, at least 3.9·(d + 8)·u·(s + R)² however the norms,
    their square roots and E itself round, plus (d + 8)·2^-1020: a
    product, square or norm that underflows errs by at most 2^-1074
    beyond the relative model, at most 6·d·2^-1075 in all.  Where
    (s + R)² reaches 2^1000 an intermediate may overflow, so E is
    infinite, as it is for a non-finite row: no threshold then decides
    and every entry is computed exactly.
    """
    d = a.shape[1]
    # an overflow here only makes E infinite, so it warns of nothing
    with np.errstate(all="ignore"):
        # squared_norms(a), under this errstate
        a_sq = _products(a[:, None, :], a[:, None, :])[:, 0, 0]
        approx = _products(-2.0 * a, b)
        approx += a_sq[:, None]
        approx += b_sq
        scale = (np.sqrt(a_sq) + math.sqrt(b_sq.max())) ** 2
        bound = np.where(
            scale < 2.0**1000, scale * (4 * (d + 8) * 2.0**-53) + (d + 8) * 2.0**-1020, np.inf
        )
    return approx, bound


def _rank(alpha: float, size: int) -> int:
    """ceil(alpha/100 * size), 1-based.  Rank arithmetic goes through
    Fraction so that percentages landing exactly on an integer rank are not
    bumped by float rounding."""
    if not (0.0 < alpha <= 100.0):
        raise DatasetError(f"alpha must be in (0, 100], got {alpha}")
    return int(math.ceil(Fraction(alpha) * size / 100))


def cutoff_distance(matrix: np.ndarray, alpha: float) -> float:
    """The rank-th smallest entry of the pool, found by exact bracketed
    selection.

    The pool is every matrix entry, diagonal zeros included; the rank is
    ceil(alpha/100 * pool size), 1-based.  A sample of about pool**(2/3)
    entries brackets the rank; one pass over row blocks counts the entries
    below the bracket and gathers those inside it, and partitioning the
    gathered entries places the rank.  A bracket that misses widens until
    it holds the rank, so the result is always the entry that sorting the
    whole pool would give (NaN sorts last).  Neither the pool nor the
    matrix is copied.
    """
    size = matrix.size
    rank = _rank(alpha, size)
    if size == 0:
        return 0.0
    scan = lambda lo, hi: _gather(_row_blocks(matrix), lo, hi)
    return float(_select_rank(scan, rank, size, _sample(matrix, size))[0])


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


def upper_ranks(feats: np.ndarray, rank: int, count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The rank-th to (rank + count - 1)-th smallest (1-based) strictly-upper
    entries of the squared-distance matrix of a finite N x d float64 array,
    ascending, and each sample's count of strictly-upper entries below the
    first of them in its row or column.

    Each ``_select_rank`` pass goes over row strips of at most
    ``BLOCK_ELEMENTS`` entries, each row paired with every later row.  A
    strip's ``screened_distances`` decide most entries against the bracket
    [lo, hi] by their error bound E: below lo when D̃ < lo − E, past hi
    when D̃ > hi + E.  Only the rest are computed exactly, as
    ``distance_matrix`` computes them, and placed by that value; so every
    count and entry is the one a scan of exact distances gives.  The pass
    counts the entries below the bracket and keeps where each gathered one
    sits: no N x N array, entry copy or second pass.
    """
    n = feats.shape[0]
    sq = squared_norms(feats)
    near = np.empty(n, dtype=np.int64)
    gathered = []

    def scan(lo, hi):
        near[:] = 0
        gathered.clear()
        start = 0
        while start < n:
            stop = min(n, start + max(1, BLOCK_ELEMENTS // (n - start)))
            r = stop - start
            approx, bound = screened_distances(feats[start:stop], feats[start:], sq[start:])
            # one bound for the strip, its largest; in float arithmetic a
            # threshold that overflows, or is NaN (inf - inf), decides nothing
            bound = float(bound.max())
            low = approx < lo - bound
            # neither below nor past: a NaN entry (an overflow) is undecided too
            undecided = approx > hi + bound
            undecided |= low
            np.logical_not(undecided, out=undecided)
            # in the strip's own square only the entries right of the diagonal count
            upper = ~np.tri(r, dtype=bool)
            low[:, :r] &= upper
            undecided[:, :r] &= upper
            del approx
            near[start:stop] += np.add.reduce(low, axis=1, dtype=np.int32)
            near[start:] += np.add.reduce(low, axis=0, dtype=np.int32)
            rows, cols = np.divmod(np.flatnonzero(undecided), n - start)
            rows += start
            cols += start
            exact = _pair_distances(feats, rows, cols)
            below = exact < lo
            if below.any():
                ends = np.concatenate([rows[below], cols[below]])
                near[start:] += np.bincount(ends - start, minlength=n - start)
            keep = exact <= hi
            keep ^= below
            gathered.append((rows[keep] * n + cols[keep], exact[keep]))
            start = stop
        # each entry below the bracket counts once in its row, once in its column
        return int(near.sum()) // 2, [values for _, values in gathered]

    size = n * (n - 1) // 2
    values = _select_rank(scan, rank, size, _pair_sample(feats, size), count)
    at = np.concatenate([where[inside < values[0]] for where, inside in gathered])
    return values, near + np.bincount(np.concatenate(np.divmod(at, n)), minlength=n)


def streamed_density(features: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """``cutoff_distance`` and ``local_density`` of the features' distance
    matrix, bit for bit, with no N x N array.  The matrix holds N zeros on
    its diagonal and every off-diagonal entry twice, so its rank r is 0 when
    r <= N and otherwise the ceil((r - N) / 2)-th smallest strictly-upper
    entry; the diagonal adds one to every count when the cutoff is positive.
    Features must be finite, so that the diagonal is zero.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DatasetError(f"expected a 2-D feature array, got shape {feats.shape}")
    n = feats.shape[0]
    rank = _rank(alpha, n * n)
    if rank <= n:
        return 0.0, np.zeros(n, dtype=np.int64)
    values, rho = upper_ranks(feats, (rank - n + 1) // 2)
    d_c = float(values[0])
    rho += d_c > 0
    return d_c, rho


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
    A record whose features are not all finite is rejected.
    """
    rows = np.asarray(rows, dtype=np.int64)
    labels = dataset.labels[rows]
    if np.any(labels < 0):
        raise DatasetError(f"record {dataset.ids[rows[labels < 0][0]]!r} has no label")

    classes = []
    noisy: list[np.ndarray] = []
    clean: list[np.ndarray] = []
    class_ids, sizes = np.unique(labels, return_counts=True)
    # A class of at most one block's entries fills the front of one buffer
    # sized for the largest such class, so no freed matrix lingers in the
    # allocator's heap beside the next one.  A larger class is streamed.
    streams = sizes * sizes > BLOCK_ELEMENTS
    buffer = np.empty(int(sizes[~streams].max(initial=0)) ** 2)
    for k, n, stream in zip(class_ids.tolist(), sizes.tolist(), streams.tolist()):
        members = rows[labels == k]
        feats = dataset.features[members]
        require_finite([dataset.ids[r] for r in members.tolist()], feats)
        alpha = config.alpha[dataset.partition[k]]
        if stream:
            d_c, rho = streamed_density(feats, alpha)
        else:
            dmat = distance_matrix(feats, out=buffer[: n * n].reshape(n, n))
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
