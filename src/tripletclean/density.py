"""Local-density screening of labeled samples, class by class.

For each predicate class the pairwise squared-Euclidean distance matrix is
reduced to one local-density count per sample: the number of same-class
samples strictly closer than a cutoff distance, the sample itself included
when the cutoff is positive, where the cutoff is a percentile of all N*N
entries, the diagonal zeros included.  One-dimensional K-means over the
densities splits the class into subsets; the subset with the lowest mean
density is flagged as noisy.  The report is one set of row-aligned
columns: one stable sort by label groups the rows into classes, and
each class fills its slice of every column.

Paths: a class of at most ``MATRIX_MAX_MEMBERS`` (64) members gets its
matrix, at most 32 KB, released before the next class builds its own:
the cutoff partitions one copy of it, and ``local_density`` counts the
densities over it in one pass.  A larger class is streamed: one
``upper_ranks`` pass over square tiles of the strictly-upper triangle
places the cutoff and counts the densities with no N x N array; the nsc
pool median is its second caller.  The floor is where the stream starts
to win.  Each cell reads matrix / stream in ms: ``distance_matrix`` +
``cutoff_distance`` + ``local_density`` against ``streamed_density``,
standard-normal features, alpha 50, one BLAS thread, best of 5 (2-vCPU
KVM guest, numpy 2.4.6):

    N      d = 8        d = 16       d = 32       d = 64
    32     0.06 / 0.15  0.07 / 0.15  0.10 / 0.16  0.15 / 0.19
    48     0.11 / 0.19  0.14 / 0.17  0.21 / 0.18  0.29 / 0.22
    64     0.22 / 0.30  0.22 / 0.20  0.33 / 0.21  0.42 / 0.31
    96     0.50 / 0.35  0.44 / 0.26  0.57 / 0.32  0.71 / 0.40
    362    3.81 / 1.20  4.43 / 1.19  5.54 / 1.58  7.38 / 2.05

Memory: each of the stream's tiles holds at most ``BLOCK_ELEMENTS``
entries, and a class of up to 362 members is one tile, so the tiles stay
bounded however large a class is.  What a pass gathers does not yet: the
sample of about pool**(2/3) entries, the bracket it sets, a few times
that, each gathered entry's place and one count per sample grow about as
N**(4/3), to a peak of 2.1 MB at N = 1,500 and 99 MB at 48,000 (d = 16).

Speed: every exact distance, in the matrix, the stream and the nsc vote,
comes from ``exact_distances``.  The streamed pass screens each tile
with BLAS.  One GEMM gives every entry an approximate distance,
‖x‖² + ‖y‖² − 2·x·y, and ``screened_distances`` one bound E on the
error of every entry in it, from both sides' largest norms, valid for
any summation order and finite on rows within the feature magnitude
limit; an entry that E places below or past the selection's bracket is
counted or skipped, and only the rest are computed exactly.  So the
cutoff, every density and the pool median keep their bits.  The nsc vote
screens its pool the same way: E comes from ``screen_bound`` for both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from tripletclean.core import (
    JSON_BOOLS,
    Dataset,
    DatasetError,
    Part,
    column_values,
    joined,
    json_numbers,
    json_string,
    read_jsonl,
)

logger = logging.getLogger(__name__)

KMEANS_MAX_ITER = 200

# Element budget of every per-block temporary: distance_matrix's
# differences and the streamed pass's square tiles (1 MB of float64).
BLOCK_ELEMENTS = 1 << 17

# The largest class that gets its N x N matrix; a larger one streams, the
# faster path above this size (the crossover in the module docstring).
MATRIX_MAX_MEMBERS = 64

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


def exact_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``,
    broadcast against each other over their leading axes.

    This is the one exact kernel: the differences are squared in place and
    reduced with ``np.sum``'s pairwise order, so each distance is
    bit-identical to summing the pair's 1-D slice of squared differences.
    """
    diff = a - b
    diff *= diff
    return diff.sum(axis=-1)


def distance_matrix(features: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances, N x N with zero diagonal.

    Each distance is computed once: the upper triangle row block by row
    block, each block's rows paired with every row from its first on,
    then mirrored below the diagonal.  The mirror is exact, because IEEE
    subtraction gives fl(a - b) = -fl(b - a), squaring drops the sign and
    the reduction over the d features runs in the same order.  Beyond the
    N x N float64 output the only temporary holds at most
    ``max(BLOCK_ELEMENTS, N * d)`` float64 values (one row of differences
    when a single row exceeds the budget).  The pipeline builds one only
    for a class of at most ``MATRIX_MAX_MEMBERS`` members, so it is at
    most 32 KB, and releases it before the next class builds its own.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DatasetError(f"expected a 2-D feature array, got shape {feats.shape}")
    n, d = feats.shape
    out = np.empty((n, n), dtype=np.float64)
    rows = max(1, BLOCK_ELEMENTS // max(1, n * d))
    for lo in range(0, n, rows):
        hi = lo + rows
        out[lo:hi, lo:] = exact_distances(feats[lo:hi, None, :], feats[None, lo:, :])
        out[lo:hi, :lo] = out[:lo, lo:hi].T
    return out


def _select_rank(scan, rank: int, size: int, sample: np.ndarray, count: int = 1) -> np.ndarray:
    """The rank-th to (rank + count - 1)-th smallest (1-based) of ``size``
    pool entries, none of them NaN, ascending.

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
        below, inside = scan(lo, hi)
        if below < rank and last <= below + sum(map(len, inside)):
            pool = np.concatenate(inside)
            at = np.arange(rank - below - 1, last - below)
            pool.partition(at)
            return pool[at]
        margin *= 4


def _pair_distances(feats: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``exact_distances`` between rows ``rows[i]`` and ``cols[i]`` of an
    N x d array, each bit-identical to the same entry of ``distance_matrix``,
    computed in chunks whose two gathered row sets and their differences
    hold at most ``BLOCK_ELEMENTS`` values together."""
    out = np.empty(rows.size)
    step = max(1, BLOCK_ELEMENTS // max(1, 3 * feats.shape[1]))
    for lo in range(0, rows.size, step):
        at = slice(lo, lo + step)
        out[at] = exact_distances(feats[rows[at]], feats[cols[at]])
    return out


def _pair_sample(feats: np.ndarray, size: int) -> np.ndarray:
    """Squared distances of about ``size ** (2/3)`` off-diagonal (i, j)
    pairs of an N x d array, on a golden-ratio lattice over the N x N matrix.

    Entry k of the m sits in row k * N // m and at column fraction
    frac(k * phi), so the sample pairs many distinct rows with many distinct
    columns and never aliases with the matrix's shape.  The lattice spans
    the whole matrix, so the sample is uniform over the pairs; entry (i, j)
    equals entry (j, i).
    """
    n = feats.shape[0]
    k = np.arange(math.ceil(size ** (2 / 3)))
    cols = k * 0.6180339887498949
    cols %= 1.0
    cols *= n
    cols = cols.astype(np.intp)
    rows = k * n
    rows //= k.size
    off = rows != cols
    return _pair_distances(feats, rows[off], cols[off])


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` over the last two axes: every dot product the distance
    screen takes goes through here, in whatever order BLAS sums it."""
    return a @ b.swapaxes(-1, -2)


def squared_norms(feats: np.ndarray) -> np.ndarray:
    """Each row's squared Euclidean norm, by ``_products``: at most
    float_max / 4 for a row within the feature magnitude limit."""
    return _products(feats[:, None, :], feats[:, None, :])[:, 0, 0]


def screen_bound(s: float, r: float, d: int) -> float:
    """E of ``screened_distances`` for rows of d features whose norms are
    at most s on one side and r on the other.  Every step is non-decreasing
    under round-to-nearest, so the E of the largest norms is, bit for bit,
    the largest E of any pair of rows; it is finite on bounded rows."""
    scale = s + r
    return scale * scale * (4 * (d + 8) * 2.0**-53) + (d + 8) * 2.0**-1020


def screened_distances(
    a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray
) -> tuple[np.ndarray, float]:
    """Approximate squared distances between the rows of ``a`` and ``b``
    (``a_sq`` and ``b_sq`` their ``squared_norms``), and one bound E on
    the error of every one of them, from both sides' largest norms.

    The approximation D̃ of an entry is ‖x‖² + ‖y‖² − 2·x·y, from one GEMM
    whose two extra columns carry the norms, each times 1.  Let D' be the
    entry's ``exact_distances`` value, D the exact squared distance,
    s and r the largest row norms of ``a`` and ``b`` (so ‖x‖ <= s and
    ‖y‖ <= r), u = 2^-53 and
    γ_n = n·u / (1 − n·u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.1 and §3.5).  E is chosen so that

        E·(1 − u) >= (1 + u)·|D̃ − D'| + 2u·(s + r)²,

    which makes every decision a threshold t takes exact: D̃ < fl(t − E)
    implies D' < t, D̃ > fl(t + E) implies D' > t, and the rounding of
    t ∓ E (or of a k-th distance plus 2E) is covered by the last term.
    For d·u < 0.01:

    - D̃ sums the d + 2 terms −2·x_k·y_k, ‖x‖², ‖y‖² (the computed norms)
      in some order, with or without fused multiply-adds (scaling by −2 or
      by 1 is exact), so it lies within γ_{d+2}·(1 + γ_d)·(s + r)² of the
      same sum of exact terms.
    - The computed norms lie within γ_d·(s² + r²) of the exact ones, so
      that sum lies within γ_d·(s + r)² of D.
    - D' rounds each difference and square once and sums d non-negative
      terms: |D' − D| <= γ_{d+2}·D <= γ_{d+2}·(s + r)².

    So |D̃ − D'| <= (3.1·d + 4.1)·u·(s + r)², and the condition needs
    E >= (3.1·d + 6.3)·u·(s + r)².  E is 4·(d + 8)·u·(s + r)² from the
    computed norms, at least 3.9·(d + 8)·u·(s + r)² however the norms,
    their square roots and E itself round, plus (d + 8)·2^-1020: a
    product, square or norm that underflows errs by at most 2^-1074
    beyond the relative model, at most 6·d·2^-1075 in all.

    No step overflows on rows within ``core.unbounded_rows``' limit
    L = sqrt(float_max / 4d)·(1 − 10⁻⁶), as in every ``Dataset`` and
    pool: every |x_k| <= L, so ‖x‖² <= d·L² <= float_max / 4 and
    |x·y| <= float_max / 4, and every partial sum of D̃'s d + 2 terms, in
    any order, is at most (s + r)²·(1 + γ_{d+2}) < float_max; the 10⁻⁶
    margin covers the rounding for any d below about 10⁹.  So E, from
    ``screen_bound``, is finite and valid everywhere, and a threshold
    t ± E that rounds past float_max is ±∞ and decides nothing.
    """
    approx = _products(
        np.column_stack([-2.0 * a, a_sq, np.ones(len(a))]),
        np.column_stack([b, np.ones(len(b)), b_sq]),
    )
    return approx, screen_bound(math.sqrt(a_sq.max()), math.sqrt(b_sq.max()), a.shape[1])


def _rank(alpha: float, size: int) -> int:
    """ceil(alpha/100 * size), 1-based.  Rank arithmetic goes through
    Fraction so that percentages landing exactly on an integer rank are not
    bumped by float rounding."""
    if not (0.0 < alpha <= 100.0):
        raise DatasetError(f"alpha must be in (0, 100], got {alpha}")
    return int(math.ceil(Fraction(alpha) * size / 100))


def cutoff_distance(matrix: np.ndarray, alpha: float) -> float:
    """The rank-th smallest matrix entry, diagonal zeros included; the rank
    is ceil(alpha/100 * N*N), 1-based, and NaN sorts last.

    Partitioning one copy of the matrix places the rank exactly.  The
    pipeline only passes the matrix of a class of at most
    ``MATRIX_MAX_MEMBERS`` members, so the copy is at most 32 KB; a larger
    class streams instead.
    """
    size = matrix.size
    rank = _rank(alpha, size)
    if size == 0:
        return 0.0
    return float(np.partition(matrix, rank - 1, axis=None)[rank - 1])


def local_density(matrix: np.ndarray, d_c: float) -> np.ndarray:
    """Per-sample count of samples strictly closer than the cutoff, the
    sample itself included, in one pass over the matrix."""
    if not d_c >= 0:
        raise DatasetError(f"cutoff must be non-negative, got {d_c}")
    return np.count_nonzero(matrix < d_c, axis=1).astype(np.int64, copy=False)


def upper_ranks(feats: np.ndarray, rank: int, count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The rank-th to (rank + count - 1)-th smallest (1-based) strictly-upper
    entries of the squared-distance matrix of an N x d float64 array within
    the feature magnitude limit, ascending, and each sample's count of
    strictly-upper entries below the first of them in its row or column.

    Each ``_select_rank`` pass walks the strictly-upper triangle in square
    tiles of at most ``BLOCK_ELEMENTS`` entries: row blocks of one tile's
    side, each paired with the column tiles from its diagonal on, so N <=
    362 is one tile.  A tile's ``screened_distances``, with one error bound
    E from both sides' largest norms, decide most entries against the
    bracket [lo, hi]: below lo when D̃ < lo − E, past hi when D̃ > hi + E.
    Only the rest are computed by ``exact_distances`` and placed by that
    value; so every count and entry is the one a scan of exact distances
    gives.  The pass counts the entries below the bracket into their rows
    and columns and keeps where each gathered one sits: no N x N array,
    entry copy or second pass.
    """
    n = feats.shape[0]
    sq = squared_norms(feats)
    # the fewest row blocks whose tiles fit the budget, of about one height
    blocks = -(-n // max(1, math.isqrt(BLOCK_ELEMENTS)))
    side = -(-n // blocks)
    near = np.empty(n, dtype=np.int64)
    gathered = []

    def screen_tile(lo, hi, top, left):
        # a function, so that one tile's temporaries are gone before the next's
        rows_at, cols_at = slice(top, top + side), slice(left, left + side)
        approx, bound = screened_distances(feats[rows_at], sq[rows_at], feats[cols_at], sq[cols_at])
        low = approx < lo - bound
        # neither below nor past
        undecided = approx > hi + bound
        undecided |= low
        np.logical_not(undecided, out=undecided)
        height, width = approx.shape
        del approx
        if left == top:  # a tile on the diagonal counts only the entries right of it
            upper = ~np.tri(height, width, dtype=bool)
            low &= upper
            undecided &= upper
        near[rows_at] += np.add.reduce(low, axis=1, dtype=np.int32)
        near[cols_at] += np.add.reduce(low, axis=0, dtype=np.int32)
        rows, cols = np.divmod(np.flatnonzero(undecided), width)
        rows += top
        cols += left
        exact = _pair_distances(feats, rows, cols)
        below = exact < lo
        if below.any():
            near[rows_at] += np.bincount(rows[below] - top, minlength=height)
            near[cols_at] += np.bincount(cols[below] - left, minlength=width)
        keep = exact <= hi
        keep ^= below
        gathered.append((rows[keep] * n + cols[keep], exact[keep]))

    def scan(lo, hi):
        near[:] = 0
        gathered.clear()
        for top in range(0, n, side):
            for left in range(top, n, side):
                screen_tile(lo, hi, top, left)
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
    Features must lie within the magnitude limit, so the diagonal is zero.
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
class DensityReport:
    """Row-aligned columns, one entry per row given to
    ``detect_noisy_positives``, grouped by class in predicate-index order.

    ``classes`` is each row's label, ``d_c`` its class's cutoff, ``rho`` its
    local density, ``subset`` its K-means subset (-1 in a class below
    ``min_class_size``) and ``flagged`` whether that subset is the class's
    noisy one; ``ids`` names the rows.
    """

    rows: np.ndarray
    classes: np.ndarray
    d_c: np.ndarray
    rho: np.ndarray
    subset: np.ndarray
    flagged: np.ndarray
    ids: Sequence[str]

    @property
    def noisy_rows(self) -> np.ndarray:
        return self.rows[self.flagged]

    @property
    def clean_rows(self) -> np.ndarray:
        return self.rows[~self.flagged]

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

    One stable sort by label groups the rows into classes in
    predicate-index order; within a class, rows keep their order in
    ``rows``.  Classes are handled independently.  Classes below the size
    guard, or degenerate under K-means, flag nothing.  The dataset's
    features are finite, so every distance is a number.
    """
    rows = np.asarray(rows, dtype=np.int64)
    labels = dataset.labels[rows]
    if np.any(labels < 0):
        raise DatasetError(f"record {dataset.ids[rows[labels < 0][0]]!r} has no label")
    order = np.argsort(labels, kind="stable")
    rows, labels = rows[order], labels[order]

    d_c = np.empty(rows.size)
    rho = np.empty(rows.size, dtype=np.int64)
    subset = np.full(rows.size, -1, dtype=np.int64)
    flagged = np.zeros(rows.size, dtype=bool)
    class_ids, starts, sizes = np.unique(labels, return_index=True, return_counts=True)
    for k, lo, n in zip(*(a.tolist() for a in (class_ids, starts, sizes))):
        at = slice(lo, lo + n)
        feats = dataset.features[rows[at]]
        alpha = config.alpha[dataset.partition[k]]
        if n > MATRIX_MAX_MEMBERS:
            d_c[at], rho[at] = streamed_density(feats, alpha)
        else:
            dmat = distance_matrix(feats)
            d_c[at] = cutoff_distance(dmat, alpha)
            rho[at] = local_density(dmat, d_c[lo])
            # freed here, or it stays alive while the next class builds its own
            del dmat
        if n >= config.min_class_size:
            subset[at], noisy = split_subsets(rho[at], config.n_subsets)
            if noisy is not None:
                flagged[at] = subset[at] == noisy
        logger.debug("class %d: n=%d d_c=%.4g flagged=%d", k, n, d_c[lo], flagged[at].sum())

    return DensityReport(rows, labels, d_c, rho, subset, flagged, dataset.ids)


# one density report line, its class and cutoff filled in once per run
DENSITY_LINE = (
    '{"id": %%s, "class": %d, "rho": %%d, "d_c": %s, "subset": %%d, "flagged": %%s}\n'
)


def density_report_to_text(report: DensityReport) -> str:
    """Line-delimited audit rows: one sample per line, grouped by class,
    byte for byte as ``json.dumps`` writes them."""
    classes, d_c, ids = report.classes, report.d_c, report.ids
    bits = d_c.view(np.int64)
    ends = np.flatnonzero((classes[1:] != classes[:-1]) | (bits[1:] != bits[:-1])) + 1
    bounds = [0, *ends.tolist(), len(classes)] if len(classes) else []

    def lines():
        # each run of rows that share a class and a cutoff spells both once
        for lo, hi in zip(bounds, bounds[1:]):
            line = DENSITY_LINE % (classes[lo], json_numbers(d_c[lo : lo + 1].tolist()))
            at = slice(lo, hi)
            columns = (report.rows[at], report.rho[at], report.subset[at], report.flagged[at])
            for row, rho, subset, flagged in column_values(*columns):
                yield line % (json_string(ids[row]), rho, subset, JSON_BOOLS[flagged])

    return joined(lines())


def load_flagged(path: str) -> frozenset[str]:
    """Ids that a density report file marks as flagged."""
    rows = read_jsonl(path, {"id": str, "flagged": bool})
    return frozenset(row["id"] for _, row in rows if row["flagged"])
