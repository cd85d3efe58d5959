"""Tests for the local-density stage, checked against brute-force oracles."""

import dataclasses
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tripletclean import core, correction, density

from tripletclean.correction import CorrectionConfig, Pool, knn_vote
from tripletclean.core import (
    NO_LABEL,
    Dataset,
    DatasetError,
    Part,
    jsonl_text,
)
from tripletclean.density import (
    DensityConfig,
    DensityReport,
    cutoff_distance,
    density_report_to_text,
    detect_noisy_positives,
    distance_matrix,
    kmeans_1d,
    local_density,
    split_subsets,
    streamed_density,
)
from test_core import INT64_LIMITS, ODD_FLOATS, ODD_STRINGS, json_lines, traced


def oracle_distance_matrix(feats):
    n = len(feats)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sum((feats[i] - feats[j]) ** 2)
    return out


def oracle_density(matrix, d_c):
    n = matrix.shape[0]
    rho = np.zeros(n, dtype=np.int64)
    for i in range(n):
        count = 0
        for j in range(n):
            if d_c - matrix[i, j] > 0:
                count += 1
        rho[i] = count
    return rho


def oracle_cutoff(matrix, alpha):
    entries = sorted(matrix.ravel().tolist())
    rank = int(np.ceil(alpha / 100 * len(entries)))
    return entries[rank - 1]


def boundary_ranks(ordered):
    """1-based ranks on both sides of every change of value, and the ends."""
    change = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return sorted({1, ordered.size, *change.tolist(), *(change + 1).tolist()})


def alpha_for(rank, size):
    """An alpha whose Fraction rank arithmetic lands on ``rank``, half a
    rank clear of float rounding."""
    alpha = 100 * (rank - 0.5) / size
    assert int(np.ceil(Fraction(alpha) * size / 100)) == rank
    return alpha


def grid_matrix(seed, n=60):
    """Distances between integer grid points: few distinct values, many ties."""
    feats = np.random.default_rng(seed).integers(0, 4, size=(n, 2)).astype(np.float64)
    return distance_matrix(feats)


def best_two_split(values):
    """Exhaustive lowest-cost contiguous 2-way split of sorted scalars."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    best_cost, best_cut = np.inf, 1
    for cut in range(1, len(vals)):
        lo, hi = vals[:cut], vals[cut:]
        cost = np.sum((lo - lo.mean()) ** 2) + np.sum((hi - hi.mean()) ** 2)
        if cost < best_cost:
            best_cost, best_cut = cost, cut
    return set(vals[:best_cut].tolist()), set(vals[best_cut:].tolist())


def labeled_dataset(features, labels, ids=None):
    """Rows ``r0``, ``r1``, ... (or ``ids``) labeled ``p0``, ``p1``, ...;
    classes this small all fall in the tail."""
    n = len(labels)
    ids = [f"r{i}" for i in range(n)] if ids is None else ids
    names = [f"p{i}" for i in range(max(labels) + 1)]
    return Dataset.counted(ids, ["img"] * n, [(1, 2)] * n, features, labels, names)


def flag(dataset, config=None):
    """Density report over every row of ``dataset``."""
    return detect_noisy_positives(dataset, np.arange(len(dataset)), config or DensityConfig())


def assert_streams_like_the_matrix(feats, alpha):
    """``streamed_density`` equals distance_matrix -> cutoff_distance ->
    local_density, the cutoff bit for bit and every count."""
    mat = distance_matrix(feats)
    d_c = cutoff_distance(mat, alpha)
    rho = local_density(mat, d_c)
    streamed_d_c, streamed_rho = streamed_density(feats, alpha)
    assert streamed_d_c == d_c
    assert streamed_rho.dtype == rho.dtype
    np.testing.assert_array_equal(streamed_rho, rho)


def unscreened_upper_ranks(feats, rank, count=1):
    """``upper_ranks`` from the whole ``distance_matrix``, with no screen,
    bracket or sample: the reference the screened scan must equal.  The
    values come from a full sort of the strictly-upper entries (NaN last),
    the counts from each row's entries below the first value, the diagonal
    cleared."""
    mat = distance_matrix(feats)
    upper = np.sort(mat[np.triu_indices(len(feats), k=1)])
    values = upper[rank - 1 : rank - 1 + count]
    below = mat < values[0]
    np.fill_diagonal(below, False)
    return values, below.sum(axis=1)


def adversarial_features(kind, n, d, seed):
    """n x d features on which the screen's bound is tested hardest."""
    rng = np.random.default_rng([seed, n, d])
    if kind == "offset 1e4":
        return 1e4 + rng.normal(size=(n, d))
    if kind == "offset 1e8":  # nearly every entry is within the bound of the bracket
        return 1e8 + rng.normal(size=(n, d))
    if kind == "grid":  # few distinct distances, heavy ties
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    if kind == "duplicates":
        base = rng.normal(size=((n + 3) // 4, d))
        return base[rng.integers(0, len(base), size=n)]
    if kind == "subnormal":  # squared distances below 2^-1022
        return rng.normal(size=(n, d)) * 1e-160
    if kind == "huge":
        # just inside the feature magnitude limit L, each row near L or -L
        # in every feature: distances between opposite rows come within a
        # rounding margin of float_max
        limit = core.unbounded_rows(np.zeros((1, d)))[1]
        signs = rng.choice([-1.0, 1.0], size=(n, 1))
        return signs * limit * (1 - 1e-3 * rng.random(size=(n, d)))
    raise ValueError(kind)


FEATURE_KINDS = ["offset 1e4", "offset 1e8", "grid", "duplicates", "subnormal", "huge"]
SCREEN_DIMS = [1, 7, 8, 9, 64, 300]


def report_values(report):
    """Every column of a density report as plain values, for equality."""
    plain = lambda v: v.tolist() if isinstance(v, np.ndarray) else list(v)
    return {f.name: plain(getattr(report, f.name)) for f in dataclasses.fields(report)}


class TestDistanceMatrix:
    def test_reference_values(self):
        mat = distance_matrix(np.array([[0.0], [1.0], [10.0]]))
        np.testing.assert_array_equal(mat, [[0, 1, 100], [1, 0, 81], [100, 81, 0]])

    def test_single_sample(self):
        np.testing.assert_array_equal(distance_matrix(np.array([[3.0, 4.0]])), [[0.0]])

    def test_identical_vectors_give_zero(self):
        mat = distance_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(mat, np.zeros((2, 2)))

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(17, 6))
        np.testing.assert_array_equal(distance_matrix(feats), oracle_distance_matrix(feats))

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(12)
        mat = distance_matrix(rng.normal(size=(9, 4)))
        np.testing.assert_array_equal(mat, mat.T)
        np.testing.assert_array_equal(np.diag(mat), np.zeros(9))

    def test_bad_shape_rejected(self):
        with pytest.raises(DatasetError):
            distance_matrix(np.zeros(5))

    @pytest.mark.parametrize("budget", [1, 2 * 17 * 6, 5 * 17 * 6 + 1])
    def test_row_blocks_match_loop_oracle_exactly(self, monkeypatch, budget):
        # one-row blocks, then blocks of 2 and 5 rows leaving a short last block
        monkeypatch.setattr(density, "BLOCK_ELEMENTS", budget)
        feats = np.random.default_rng(13).normal(size=(17, 6))
        np.testing.assert_array_equal(distance_matrix(feats), oracle_distance_matrix(feats))

    def test_peak_memory_is_bounded_by_the_output(self):
        # a whole N x N x d broadcast would need about 2 GB here
        n, d = 2000, 32
        feats = np.random.default_rng(14).normal(size=(n, d))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mat = distance_matrix(feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mat.shape == (n, n)
        assert peak < 3 * mat.nbytes


class TestExactDistances:
    """Every exact distance comes from ``exact_distances``; each must equal
    the 1-D sum of the pair's squared differences, also where numpy's
    pairwise sum splits the d features (d > 128)."""

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("d", [1, 7, 8, 9, 64, 127, 128, 129, 300])
    def test_every_caller_matches_the_1d_oracle(self, monkeypatch, d, budget):
        # one-row blocks and one-pair chunks, then the default budget
        if budget is not None:
            monkeypatch.setattr(density, "BLOCK_ELEMENTS", budget)
        n = 13
        rng = np.random.default_rng(d)
        feats = rng.normal(size=(n, d)) * np.logspace(-3, 3, n)[:, None]
        oracle = np.array([[np.sum((x - y) ** 2) for y in feats] for x in feats])
        assert distance_matrix(feats).tobytes() == oracle.tobytes()
        rows, cols = np.divmod(np.arange(n * n), n)
        assert density._pair_distances(feats, rows, cols).tobytes() == oracle.tobytes()
        for q in range(n):
            # the vote's shape: candidate pool rows minus one query row
            dists = density.exact_distances(feats, feats[q][None, :])
            assert dists.tobytes() == oracle[:, q].tobytes()


class TestCutoffDistance:
    def test_reference_value(self):
        mat = distance_matrix(np.array([[0.0], [1.0], [10.0]]))
        assert cutoff_distance(mat, 50.0) == 1.0

    def test_alpha_100_is_max(self):
        mat = distance_matrix(np.array([[0.0], [1.0], [10.0]]))
        assert cutoff_distance(mat, 100.0) == 100.0

    def test_single_sample_is_zero(self):
        assert cutoff_distance(np.zeros((1, 1)), 37.0) == 0.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mat = distance_matrix(rng.normal(size=(rng.integers(2, 30), 3)))
            alpha = float(rng.uniform(1, 100))
            assert cutoff_distance(mat, alpha) == oracle_cutoff(mat, alpha)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(14)
        mat = distance_matrix(rng.normal(size=(20, 4)))
        cuts = [cutoff_distance(mat, a) for a in np.linspace(1, 100, 40)]
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    def test_invalid_alpha_rejected(self):
        with pytest.raises(DatasetError):
            cutoff_distance(np.zeros((2, 2)), 0.0)
        with pytest.raises(DatasetError):
            cutoff_distance(np.zeros((2, 2)), 101.0)

    def test_every_rank_boundary_matches_sort_oracle(self):
        # integer grid points, so that many entries are equal
        feats = np.random.default_rng(18).integers(0, 3, size=(6, 2)).astype(np.float64)
        mat = distance_matrix(feats)
        ordered = np.sort(mat.ravel())
        for r in range(1, ordered.size + 1):
            alpha = 100 * r / ordered.size
            rank = int(np.ceil(Fraction(alpha) * ordered.size / 100))
            assert cutoff_distance(mat, alpha) == ordered[rank - 1]

    def test_grid_rank_boundaries(self):
        mat = grid_matrix(30)
        ordered = np.sort(mat.ravel())
        for rank in boundary_ranks(ordered):
            alpha = alpha_for(rank, ordered.size)
            assert cutoff_distance(mat, alpha) == ordered[rank - 1], rank

    def test_non_symmetric_and_transposed_matrices(self):
        base = np.random.default_rng(31).integers(0, 9, size=(45, 45)).astype(np.float64)
        for mat in (base, base.T):
            ordered = np.sort(mat.ravel())
            for rank in boundary_ranks(ordered):
                alpha = alpha_for(rank, ordered.size)
                assert cutoff_distance(mat, alpha) == ordered[rank - 1]

    def test_nan_entries_sort_last(self):
        mat = grid_matrix(33, n=20)
        mat[[0, 3, 3, 7, 19], [5, 3, 9, 1, 0]] = np.nan
        mat[[2, 4, 6], [8, 11, 6]] = [np.inf, np.inf, -np.inf]
        ordered = np.sort(mat.ravel())
        for rank in [*boundary_ranks(ordered[~np.isnan(ordered)]), ordered.size - 1]:
            alpha = alpha_for(rank, ordered.size)
            np.testing.assert_equal(cutoff_distance(mat, alpha), ordered[rank - 1])


class TestLocalDensity:
    def test_reference_values(self):
        mat = distance_matrix(np.array([[0.0], [1.0], [10.0]]))
        np.testing.assert_array_equal(local_density(mat, 2.0), [2, 2, 1])

    def test_zero_cutoff_gives_zero_density(self):
        mat = distance_matrix(np.array([[0.0], [1.0], [10.0]]))
        np.testing.assert_array_equal(local_density(mat, 0.0), [0, 0, 0])

    def test_huge_cutoff_counts_everything(self):
        rng = np.random.default_rng(15)
        mat = distance_matrix(rng.normal(size=(8, 3)))
        np.testing.assert_array_equal(local_density(mat, mat.max() + 1), np.full(8, 8))

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            mat = distance_matrix(rng.normal(size=(rng.integers(2, 25), 4)))
            d_c = float(rng.uniform(0, mat.max() * 1.2))
            np.testing.assert_array_equal(local_density(mat, d_c), oracle_density(mat, d_c))

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(17)
        mat = distance_matrix(rng.normal(size=(15, 3)))
        prev = local_density(mat, 0.0)
        for d_c in np.linspace(0.0, float(mat.max()) + 1, 30):
            cur = local_density(mat, float(d_c))
            assert np.all(cur >= prev)
            prev = cur

    def test_self_counts_when_cutoff_positive(self):
        rng = np.random.default_rng(18)
        mat = distance_matrix(rng.normal(size=(10, 3)))
        assert np.all(local_density(mat, 1e-9) >= 1)

    @pytest.mark.parametrize("d_c", [-1.0, np.nan])
    def test_negative_or_nan_cutoff_rejected(self, d_c):
        mat = distance_matrix(np.random.default_rng(19).normal(size=(6, 3)))
        with pytest.raises(DatasetError, match="cutoff must be non-negative"):
            local_density(mat, d_c)

    def test_grid_cutoffs(self):
        mat = grid_matrix(35)
        for d_c in [*np.unique(mat).tolist(), 0.5, float(mat.max()) + 1]:
            np.testing.assert_array_equal(local_density(mat, d_c), oracle_density(mat, d_c))


class TestStreamedDensity:
    def test_matches_the_matrix_on_random_classes(self):
        # acceptance criterion 03's classes and alphas
        rng = np.random.default_rng(303)
        for trial in range(100):
            n = int(rng.integers(2, 41))
            dim = int(rng.integers(1, 9))
            feats = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, dim))
            alpha = 100.0 if trial % 10 == 0 else float(rng.uniform(0.1, 100.0))
            assert_streams_like_the_matrix(feats, alpha)

    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_matches_the_matrix_at_every_grid_rank_boundary(self, monkeypatch, rows):
        # 60 points on a 4 x 4 grid: repeated points, many equal distances
        feats = np.random.default_rng(36).integers(0, 4, size=(60, 2)).astype(np.float64)
        if rows is not None:  # tiles of 1 and 7 rows and columns
            monkeypatch.setattr(density, "BLOCK_ELEMENTS", rows * rows)
        ordered = np.sort(distance_matrix(feats).ravel())
        for rank in boundary_ranks(ordered):
            assert_streams_like_the_matrix(feats, alpha_for(rank, ordered.size))

    def test_zero_cutoff_past_the_diagonal_counts_nothing(self):
        # two points repeated: ranks 6 to 9 of the 25 entries are still 0
        feats = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        for rank in range(1, 26):
            assert_streams_like_the_matrix(feats, alpha_for(rank, 25))
        d_c, rho = streamed_density(feats, alpha_for(9, 25))
        assert d_c == 0.0 and rho.tolist() == [0] * 5
        d_c, rho = streamed_density(feats, alpha_for(10, 25))
        assert d_c == 1.0 and rho.tolist() == [2, 2, 2, 2, 1]

    @pytest.mark.parametrize("n", [30, 31])
    def test_ranks_at_and_just_past_the_diagonal(self, n):
        feats = np.random.default_rng(n).normal(size=(n, 3))
        for rank in (1, n, n + 1, n + 2, n + 3, n * n):
            assert_streams_like_the_matrix(feats, alpha_for(rank, n * n))
        assert_streams_like_the_matrix(feats, 100.0)
        assert streamed_density(feats, alpha_for(n, n * n))[0] == 0.0
        assert streamed_density(feats, alpha_for(n + 1, n * n))[0] > 0.0

    @pytest.mark.parametrize(
        "sample",
        [np.full(4, 1e9), np.full(4, -1.0), np.zeros(1), np.full(3, np.nan), np.arange(2.0)],
    )
    def test_a_missed_bracket_widens_to_the_exact_entry(self, monkeypatch, sample):
        monkeypatch.setattr(density, "_pair_sample", lambda feats, size: sample.copy())
        monkeypatch.setattr(density, "BLOCK_ELEMENTS", 5 * 32 * 2)
        feats = np.random.default_rng(32).integers(0, 4, size=(32, 2)).astype(np.float64)
        ordered = np.sort(distance_matrix(feats).ravel())
        for rank in boundary_ranks(ordered):
            assert_streams_like_the_matrix(feats, alpha_for(rank, ordered.size))

    def test_single_sample_bad_shape_and_invalid_alpha(self):
        d_c, rho = streamed_density(np.array([[3.0, 4.0]]), 37.0)
        assert d_c == 0.0 and rho.tolist() == [0]
        with pytest.raises(DatasetError):
            streamed_density(np.zeros(5), 50.0)
        for alpha in (0.0, 101.0):
            with pytest.raises(DatasetError):
                streamed_density(np.zeros((3, 2)), alpha)


class TestScreenedScan:
    """``upper_ranks`` decides most entries by an error bound on BLAS
    distances; every result must equal the scan of exact distances."""

    @pytest.mark.parametrize("d", SCREEN_DIMS)
    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_matches_the_unscreened_scan(self, monkeypatch, kind, d):
        n = 45
        feats = adversarial_features(kind, n, d, 1)
        size = n * (n - 1) // 2
        # tiles of at most 13: four row blocks, each starting on the diagonal
        monkeypatch.setattr(density, "BLOCK_ELEMENTS", 4 * n)
        for rank in sorted({1, 2, size // 9, size // 2, size // 2 + 1, size - 1}):
            values, counts = density.upper_ranks(feats, rank, 2)
            expected, expected_counts = unscreened_upper_ranks(feats, rank, 2)
            assert values.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(counts, expected_counts)

    @pytest.mark.parametrize("side, shapes", [(1, {(1, 1)}), (7, {(7, 7), (7, 3), (3, 3)})])
    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_tiles_match_the_unscreened_scan(self, monkeypatch, kind, side, shapes):
        # 45 samples in tiles of 1 and of 7: every row block starts with a
        # tile across the diagonal, then holds several more, the last short
        n = 45
        feats = adversarial_features(kind, n, 9, 6)
        size = n * (n - 1) // 2
        # a budget short of the next square still gives tiles of ``side``
        monkeypatch.setattr(density, "BLOCK_ELEMENTS", side * side + side - 1)
        seen = set()
        screen = density.screened_distances

        def recorded(a, a_sq, b, b_sq):
            seen.add((len(a), len(b)))
            return screen(a, a_sq, b, b_sq)

        monkeypatch.setattr(density, "screened_distances", recorded)
        for rank in sorted({1, 2, size // 9, size // 2, size // 2 + 1, size - 1}):
            values, counts = density.upper_ranks(feats, rank, 2)
            expected, expected_counts = unscreened_upper_ranks(feats, rank, 2)
            assert values.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(counts, expected_counts)
        assert seen == shapes

    def test_a_tile_keeps_its_temporaries_within_the_budget(self, monkeypatch):
        # the bracket pinned to the answer gathers next to nothing, so the
        # peak is one tile's approximate distances (8 bytes an entry) and its
        # two masks (1 byte each), over 2,000 samples in six row blocks
        n = 2000
        feats = np.random.default_rng(44).normal(size=(n, 8))
        rank = n * (n - 1) // 6
        expected, expected_counts = unscreened_upper_ranks(feats, rank)
        pinned = np.full(4096, expected[0])
        monkeypatch.setattr(density, "_pair_sample", lambda feats, size: pinned.copy())
        density.upper_ranks(feats, rank)  # first-call allocations land outside the peak
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            values, counts = density.upper_ranks(feats, rank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(counts, expected_counts)
        assert peak < 11 * density.BLOCK_ELEMENTS

    @pytest.mark.parametrize("d", SCREEN_DIMS)
    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_streams_like_the_matrix(self, kind, d):
        feats = adversarial_features(kind, 40, d, 2)
        for alpha in (3.0, 12.5, 50.0, 99.0):
            assert_streams_like_the_matrix(feats, alpha)

    @pytest.mark.parametrize("d", SCREEN_DIMS)
    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_a_bracket_pinned_to_the_answer(self, monkeypatch, kind, d):
        # lo = hi = the answer, so every entry the screen misplaces by one
        # side of it changes a count
        n = 40
        feats = adversarial_features(kind, n, d, 9)
        size = n * (n - 1) // 2
        for rank in (size // 5, size // 2):
            expected, expected_counts = unscreened_upper_ranks(feats, rank)
            pinned = np.full(4096, expected[0])
            monkeypatch.setattr(density, "_pair_sample", lambda feats, size: pinned.copy())
            values, counts = density.upper_ranks(feats, rank)
            assert values.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(counts, expected_counts)

    def test_grid_rank_boundaries_match_the_unscreened_scan(self, monkeypatch):
        feats = adversarial_features("grid", 50, 8, 3)
        monkeypatch.setattr(density, "BLOCK_ELEMENTS", 300)
        upper = distance_matrix(feats)[np.triu_indices(50, k=1)]
        for rank in boundary_ranks(np.sort(upper)):
            values, counts = density.upper_ranks(feats, rank)
            expected, expected_counts = unscreened_upper_ranks(feats, rank)
            assert values.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(counts, expected_counts)

    @pytest.mark.parametrize("d", [1, 2, 300, 2000])
    def test_distances_near_float_max_match_the_unscreened_scan(self, d):
        # rows near 0 and near the magnitude limit alternate, and no step
        # of the screen may overflow
        feats = adversarial_features("huge", 40, d, 4)
        feats[::2] = np.random.default_rng(4).normal(size=(20, d))
        size = 40 * 39 // 2
        with np.errstate(all="raise"):
            for rank in (1, size // 4, size // 2, size):
                values, counts = density.upper_ranks(feats, rank)
                expected, expected_counts = unscreened_upper_ranks(feats, rank)
                assert values.tobytes() == expected.tobytes()
                np.testing.assert_array_equal(counts, expected_counts)
        assert values[0] > 0.99 * sys.float_info.max

    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_bound_covers_every_entry(self, kind):
        # |approximate - exact| <= each row's own E, which is finite
        for d in SCREEN_DIMS:
            feats = adversarial_features(kind, 30, d, 5)
            sq = density.squared_norms(feats)
            exact = distance_matrix(feats)
            for i in range(len(feats)):
                row = slice(i, i + 1)
                with np.errstate(over="raise", invalid="raise"):
                    approx, bound = density.screened_distances(feats[row], sq[row], feats, sq)
                assert math.isfinite(bound)
                assert (np.abs(approx[0] - exact[i]) <= bound).all()

    @pytest.mark.parametrize("d", [*SCREEN_DIMS, 2000])
    def test_bound_meets_its_condition_up_to_the_limit(self, d):
        # E·(1 − u) >= (3.1·d + 6.3)·u·(s + r)², the condition that
        # screened_distances derives, in exact arithmetic, for norms up to
        # those of rows at the magnitude limit, where E is still finite
        u = Fraction(2) ** -53
        factor = (Fraction(31, 10) * d + Fraction(63, 10)) * u
        at_limit = np.full((1, d), core.unbounded_rows(np.zeros((1, d)))[1])
        top = math.sqrt(density.squared_norms(at_limit)[0])
        for s in (1.0, top / 3, top):
            for r in (1.0, top):
                bound = density.screen_bound(s, r, d)
                assert math.isfinite(bound)
                assert Fraction(bound) * (1 - u) >= factor * (Fraction(s) + Fraction(r)) ** 2

    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_a_tile_bound_is_its_rows_largest(self, kind):
        # E grows with each norm under rounding, so the tile's one E, from
        # both sides' largest norms, is bit for bit its rows' largest E
        for d in SCREEN_DIMS:
            feats = adversarial_features(kind, 30, d, 5)
            sq = density.squared_norms(feats)
            for rows, cols in [(slice(0, 30), slice(0, 30)), (slice(3, 17), slice(11, 30))]:
                b, b_sq = feats[cols], sq[cols]
                _, bound = density.screened_distances(feats[rows], sq[rows], b, b_sq)
                per_row = [
                    density.screened_distances(feats[i : i + 1], sq[i : i + 1], b, b_sq)[1]
                    for i in range(30)[rows]
                ]
                assert bound.hex() == max(per_row).hex()

    @pytest.mark.parametrize("d", [1, 9, 64])
    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_an_infinite_bound_changes_no_result(self, monkeypatch, kind, d):
        # with E infinite no threshold decides and every distance is
        # computed exactly: the screen only saves work
        feats = adversarial_features(kind, 60, d, 6)
        config = CorrectionConfig(k=3, kernel_c=1.0)
        pool = Pool.build([f"r{i}" for i in range(50)], np.arange(50) % 4, feats[:50], config)

        def stream():
            d_c, rho = streamed_density(feats, 25.0)
            return d_c.hex(), rho.tolist()

        runs = {
            "stream": stream,
            "median": lambda: correction._kernel_scale(feats, CorrectionConfig()).hex(),
            "votes": lambda: [knn_vote(q, pool, config) for q in feats[50:]],
        }
        # the weights of distances near float_max overflow their square
        with np.errstate(over="ignore"):
            screened = {name: run() for name, run in runs.items()}
            calls = []
            unbounded = lambda *args: calls.append(args) or math.inf
            monkeypatch.setattr(density, "screen_bound", unbounded)
            for name, run in runs.items():
                calls.clear()
                assert run() == screened[name], name
                assert calls, name


# dot products summed in orders other than BLAS's
PRODUCT_SWAPS = {
    "reversed": lambda a, b: a[..., ::-1] @ np.swapaxes(b[..., ::-1], -1, -2),
    "einsum": lambda a, b: np.einsum("...ik,...jk->...ij", a, b),
}


class TestAnySummationOrder:
    """The screen's guarantee holds for every order of summing its dot
    products, not only the one this BLAS uses."""

    def outcomes(self):
        """Streamed densities, pool medians and votes over data where the
        screen refines many entries."""
        config = CorrectionConfig(k=3)
        out = []
        for kind in ("offset 1e4", "offset 1e8", "grid", "subnormal"):
            for d in (1, 9, 64):
                feats = adversarial_features(kind, 60, d, 6)
                d_c, rho = streamed_density(feats, 25.0)
                ids = [f"r{i}" for i in range(50)]
                pool = Pool.build(ids, np.arange(50) % 4, feats[:50], config)
                votes = [knn_vote(q, pool, config) for q in feats[50:]]
                out.append((d_c.hex(), rho.tolist(), pool.scale.hex(), votes))
        return out

    @pytest.mark.parametrize("swap", sorted(PRODUCT_SWAPS))
    def test_results_do_not_depend_on_the_order(self, monkeypatch, swap):
        expected = self.outcomes()
        feats = adversarial_features("offset 1e4", 60, 64, 6)
        sq = density.squared_norms(feats)
        approx, _ = density.screened_distances(feats, sq, feats, sq)
        monkeypatch.setattr(density, "_products", PRODUCT_SWAPS[swap])
        swapped, _ = density.screened_distances(feats, sq, feats, sq)
        assert not np.array_equal(swapped, approx)  # the swap changes the screen
        assert self.outcomes() == expected

    def test_the_swap_reaches_every_screen(self, monkeypatch):
        # the stream, the pool median and the vote each take their dot
        # products from the helper that the swaps replace
        feats = adversarial_features("offset 1e4", 60, 9, 6)
        config = CorrectionConfig(k=3)
        calls = []

        def counted(a, b):
            calls.append(1)
            return a @ b.swapaxes(-1, -2)

        monkeypatch.setattr(density, "_products", counted)
        streamed_density(feats, 25.0)
        assert calls
        calls.clear()
        pool = Pool.build([f"r{i}" for i in range(50)], np.arange(50) % 4, feats[:50], config)
        assert calls
        calls.clear()
        knn_vote(feats[50], pool, config)
        assert calls


class TestSplitSubsets:
    def test_reference_two_means(self):
        rho = [1, 1, 1, 9, 9, 10]
        assign, noisy = split_subsets(rho, 2)
        assert noisy is not None
        noisy_vals = {rho[i] for i in range(6) if assign[i] == noisy}
        clean_vals = {rho[i] for i in range(6) if assign[i] != noisy}
        lo, hi = best_two_split(rho)
        assert noisy_vals == lo == {1}
        assert clean_vals == hi == {9, 10}

    def test_all_equal_densities_skip_class(self):
        assign, noisy = split_subsets([4, 4, 4, 4, 4], 3)
        assert noisy is None
        assert set(assign.tolist()) == {0}

    def test_fewer_samples_than_clusters_skips(self):
        assign, noisy = split_subsets([1, 9], 3)
        assert noisy is None
        np.testing.assert_array_equal(assign, [0, 0])

    def test_singleton_clusters_pick_lowest(self):
        rho = [2, 5, 11, 30]
        assign, noisy = split_subsets(rho, 4)
        assert noisy is not None
        members = [rho[i] for i in range(4) if assign[i] == noisy]
        assert members == [2]

    def test_kmeans_converges_on_random_data(self):
        rng = np.random.default_rng(20)
        vals = np.concatenate([rng.normal(0, 1, 40), rng.normal(50, 1, 40)])
        assign, centers = kmeans_1d(vals, 2)
        assert set(assign.tolist()) == {0, 1}
        assert abs(min(centers) - 0) < 2 and abs(max(centers) - 50) < 2


class TestDetectNoisyPositives:
    def test_isolated_outliers_flagged(self):
        rng = np.random.default_rng(21)
        feats = np.concatenate(
            [
                rng.normal(0.0, 0.1, size=(50, 3)),
                rng.normal(8.0, 0.1, size=(50, 3)),
                rng.uniform(40.0, 90.0, size=(5, 3)),
            ]
        )
        report = flag(labeled_dataset(feats, [0] * 105))
        outlier_ids = {f"r{i}" for i in range(100, 105)}
        assert outlier_ids <= report.flagged_set()

    def test_small_class_all_clean(self):
        report = flag(labeled_dataset([[0.0], [1.0], [2.0]], [0] * 3))
        assert report.noisy_ids == ()
        assert report.clean_rows.tolist() == [0, 1, 2]

    def test_empty_input(self):
        ds = labeled_dataset([[0.0]], [0])
        report = detect_noisy_positives(ds, np.array([], dtype=int), DensityConfig())
        assert report.noisy_ids == () and report.clean_rows.size == 0

    def test_unlabeled_record_rejected(self):
        ds = labeled_dataset([[0.0], [1.0]], [0, NO_LABEL], ids=["p1", "n1"])
        with pytest.raises(DatasetError, match="n1"):
            flag(ds)

    def test_noisy_clean_partition_input(self):
        rng = np.random.default_rng(22)
        report = flag(labeled_dataset(rng.normal(size=(60, 4)), [i % 3 for i in range(60)]))
        noisy, clean = set(report.noisy_rows.tolist()), set(report.clean_rows.tolist())
        assert noisy & clean == set()
        assert noisy | clean == set(range(60))

    def test_rows_keep_their_given_order_within_a_class(self):
        rng = np.random.default_rng(28)
        ds = labeled_dataset(rng.normal(size=(12, 2)), [0, 1] * 6)
        rows = np.array([11, 4, 7, 0, 2, 9, 5, 1, 3])
        report = detect_noisy_positives(ds, rows, DensityConfig())
        assert report.rows.tolist() == [4, 0, 2, 11, 7, 9, 5, 1, 3]

    def test_permutation_leaves_flagged_set_unchanged(self):
        rng = np.random.default_rng(23)
        feats = np.concatenate(
            [rng.normal(0, 0.2, size=(30, 2)), rng.normal(30, 0.2, size=(4, 2))]
        )
        ds = labeled_dataset(feats, [0] * 34)
        report_a = flag(ds)
        report_b = detect_noisy_positives(ds, rng.permutation(34), DensityConfig())
        assert report_a.flagged_set() == report_b.flagged_set()

    def test_uniform_scaling_leaves_flagged_set_unchanged(self):
        rng = np.random.default_rng(24)
        feats = np.concatenate(
            [rng.normal(0, 0.2, size=(30, 2)), rng.normal(30, 0.2, size=(4, 2))]
        )
        report_a = flag(labeled_dataset(feats, [0] * 34))
        report_b = flag(labeled_dataset(feats * 7.5, [0] * 34))
        assert report_a.flagged_set() == report_b.flagged_set()

    def test_alpha_chosen_by_frequency_part(self):
        rng = np.random.default_rng(25)
        ds = labeled_dataset(rng.normal(size=(20, 3)), [0] * 10 + [1] * 10)
        report = flag(dataclasses.replace(ds, partition=(Part.HEAD, Part.TAIL)))
        for k, alpha in ((0, 12.5), (1, 50.0)):
            cutoff = cutoff_distance(distance_matrix(ds.features[10 * k : 10 * k + 10]), alpha)
            assert report.d_c[report.classes == k].tolist() == [cutoff] * 10

    def test_columns_are_aligned_with_the_rows(self):
        ds = oracle_cases_dataset()
        rows = np.random.default_rng(43).permutation(len(ds))
        config = DensityConfig()
        report = detect_noisy_positives(ds, rows, config)
        np.testing.assert_array_equal(report.classes, ds.labels[report.rows])
        assert sorted(report.rows.tolist()) == list(range(len(ds)))
        for k, size in enumerate(np.bincount(ds.labels).tolist()):
            at = report.classes == k
            assert len(set(report.d_c[at].tolist())) == 1
            assert (report.subset[at] == -1).all() == (size < config.min_class_size)
            noisy = None
            if size >= config.min_class_size:
                _, noisy = split_subsets(report.rho[at], config.n_subsets)
            np.testing.assert_array_equal(report.flagged[at], report.subset[at] == noisy)
        assert report.flagged.any()

    @pytest.mark.parametrize("sizes", [(2000,), (1500, 1500)])
    def test_peak_memory_is_one_class_matrix(self, sizes):
        # the largest class's N x N float64 matrix, plus bounded temporaries
        labels = [k for k, n in enumerate(sizes) for _ in range(n)]
        ds = labeled_dataset(np.random.default_rng(29).normal(size=(len(labels), 8)), labels)
        rows = np.arange(len(ds))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            detect_noisy_positives(ds, rows, DensityConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * max(sizes) ** 2 * 8

    def test_one_block_matrix_is_alive_at_a_time(self, monkeypatch):
        # many one-block classes peak above one such class only by their
        # row columns, not by a second matrix kept alive beside the next
        n, d = 360, 32
        monkeypatch.setattr(density, "MATRIX_MAX_MEMBERS", n)

        def peak(classes):
            labels = [k for k in range(classes) for _ in range(n)]
            feats = np.random.default_rng(30).normal(size=(len(labels), d))
            ds = labeled_dataset(feats, labels)
            rows = np.arange(len(ds))
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                detect_noisy_positives(ds, rows, DensityConfig())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert n * n <= density.BLOCK_ELEMENTS
        peak(1)  # first-call allocations land outside both measurements
        one = peak(1)
        assert peak(32) - one < n * n * 8

    def test_matrix_and_streamed_paths_give_the_same_report(self, monkeypatch):
        rng = np.random.default_rng(37)
        sizes = (40, 55, 70)
        feats = np.concatenate(
            [rng.normal(3.0 * k, 1.0, size=(n, 4)) for k, n in enumerate(sizes)]
        )
        feats[[3, 50, 120]] += 20.0
        labels = [k for k, n in enumerate(sizes) for _ in range(n)]
        ds = labeled_dataset(feats, labels)
        monkeypatch.setattr(density, "MATRIX_MAX_MEMBERS", max(sizes))
        by_matrix = flag(ds)
        monkeypatch.setattr(density, "MATRIX_MAX_MEMBERS", min(sizes) - 1)
        # tiles of 39, so that each class spans two row blocks
        monkeypatch.setattr(density, "BLOCK_ELEMENTS", 39 * 39)
        monkeypatch.setattr(density, "distance_matrix", None)  # any matrix call fails
        streamed = flag(ds)
        assert report_values(streamed) == report_values(by_matrix)
        assert density_report_to_text(streamed) == density_report_to_text(by_matrix)
        assert by_matrix.noisy_rows.size  # the comparison covers flagged rows

    @pytest.mark.parametrize(
        "floor, sizes, matrices",
        [
            (None, (64, 65), [64]),
            (362, (362, 363), [362]),
            (40, (30, 40, 41, 60), [30, 40]),
        ],
    )
    def test_a_class_above_one_block_builds_no_matrix(self, monkeypatch, floor, sizes, matrices):
        # a class builds its matrix up to the floor, of 64 members unless patched
        if floor is not None:
            monkeypatch.setattr(density, "MATRIX_MAX_MEMBERS", floor)
        built = []
        real = density.distance_matrix

        def counted(features):
            built.append(len(features))
            return real(features)

        monkeypatch.setattr(density, "distance_matrix", counted)
        labels = [k for k, n in enumerate(sizes) for _ in range(n)]
        ds = labeled_dataset(np.random.default_rng(38).normal(size=(len(labels), 2)), labels)
        flag(ds)
        assert built == matrices

    def test_peak_memory_of_a_streamed_class_is_a_fraction_of_its_matrix(self):
        n = 4000
        ds = labeled_dataset(np.random.default_rng(39).normal(size=(n, 8)), [0] * n)
        rows = np.arange(n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            detect_noisy_positives(ds, rows, DensityConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, monkeypatch, budget, value):
        # on the matrix path, then streamed in one-entry tiles, the dataset
        # is rejected when it is built, so neither path meets it
        if budget is not None:
            monkeypatch.setattr(density, "BLOCK_ELEMENTS", budget)
            monkeypatch.setattr(density, "MATRIX_MAX_MEMBERS", 0)
        feats = np.random.default_rng(40).normal(size=(8, 2))
        feats[5, 1] = value
        with pytest.raises(DatasetError, match="'r5' has non-finite features"):
            flag(labeled_dataset(feats, [0, 1] * 4))


def oracle_report_text(dataset, rows, config):
    """``density_report.jsonl`` from the loop oracles: classes in index
    order, each in the order of ``rows``."""
    by_class = {}
    for row in rows.tolist():
        by_class.setdefault(int(dataset.labels[row]), []).append(row)
    out = []
    for k in sorted(by_class):
        members = by_class[k]
        mat = oracle_distance_matrix(dataset.features[members])
        d_c = oracle_cutoff(mat, config.alpha[dataset.partition[k]])
        rho = oracle_density(mat, d_c)
        subset, noisy = [-1] * len(members), None
        if len(members) >= config.min_class_size:
            subset, noisy = split_subsets(rho, config.n_subsets)
            subset = subset.tolist()
        for row, r, s in zip(members, rho.tolist(), subset):
            out.append({"id": dataset.ids[row], "class": k, "rho": r, "d_c": d_c,
                        "subset": s, "flagged": s == noisy})
    return jsonl_text(out)


def oracle_cases_dataset():
    """Four classes: 40 rows with outliers, 25 rows, 3 rows (below
    ``min_class_size``) and 8 identical rows, in three frequency parts."""
    rng = np.random.default_rng(41)
    blocks = [rng.normal(0.0, 1.0, size=(40, 3)), rng.normal(5.0, 2.0, size=(25, 3)),
              rng.normal(-4.0, 1.0, size=(3, 3)), np.full((8, 3), 2.5)]
    blocks[0][:4] += 9.0
    labels = [k for k, block in enumerate(blocks) for _ in block]
    ds = labeled_dataset(np.concatenate(blocks), labels)
    return dataclasses.replace(ds, partition=(Part.HEAD, Part.BODY, Part.TAIL, Part.TAIL))


class TestReportExport:
    # a floor of 30 members: class 0 (40 rows) streams, the rest build matrices
    @pytest.mark.parametrize("floor", [None, 30])
    def test_text_matches_the_loop_oracles(self, monkeypatch, floor):
        if floor is not None:
            monkeypatch.setattr(density, "MATRIX_MAX_MEMBERS", floor)
        ds = oracle_cases_dataset()
        # every row but two, out of class order
        rows = np.random.default_rng(42).permutation(len(ds))[:-2]
        expected = oracle_report_text(ds, rows, DensityConfig())
        assert '"flagged": true' in expected and '"subset": -1' in expected
        got = density_report_to_text(detect_noisy_positives(ds, rows, DensityConfig()))
        assert got == expected

    @staticmethod
    def reference_text(report):
        """The report as json.dumps writes each row."""
        columns = (report.rows, report.classes, report.rho, report.d_c, report.subset)
        return json_lines(
            {"id": report.ids[row], "class": k, "rho": rho, "d_c": d_c, "subset": subset,
             "flagged": flagged}
            for row, k, rho, d_c, subset, flagged in zip(
                *(c.tolist() for c in columns), report.flagged.tolist()
            )
        )

    def test_matches_json_dumps_on_odd_values(self):
        # two rows to each cutoff; -0.0 and 0.0 are two cutoffs of class 3,
        # and classes 0 and 2 hold two cutoffs each
        d_c = np.repeat([-0.0, 0.0, *ODD_FLOATS[1:]], 2)
        classes = np.repeat([3, 3, INT64_LIMITS[0], 0, 0, 1, 2, 2, 4, 5, INT64_LIMITS[1]], 2)
        n = d_c.size
        ids = [*ODD_STRINGS, *(f"r{i}" for i in range(n))]
        report = DensityReport(
            rows=np.random.default_rng(2).permutation(len(ids))[:n],
            classes=classes,
            d_c=d_c,
            rho=np.array([INT64_LIMITS[0], 0, 1, INT64_LIMITS[1]] * (n // 4) + [7] * (n % 4)),
            subset=np.arange(n) % 3 - 1,
            flagged=np.arange(n) % 2 == 0,
            ids=ids,
        )
        assert density_report_to_text(report) == self.reference_text(report)

    def test_cutoff_near_float_max(self):
        # rows near the magnitude limit in every feature, with either sign:
        # the 99th percentile lies between opposite rows
        feats = adversarial_features("huge", 40, 3, 4)
        config = DensityConfig(alpha={part: 99.0 for part in Part})
        with np.errstate(all="raise"):
            report = flag(labeled_dataset(feats, [0] * 40), config)
        assert report.d_c[0] > 0.99 * sys.float_info.max
        text = density_report_to_text(report)
        assert f'"d_c": {float(report.d_c[0])!r}' in text
        assert text == self.reference_text(report)

    def test_peak_memory_is_about_two_texts(self):
        n = 20_000
        report = DensityReport(
            rows=np.arange(n),
            classes=np.repeat(np.arange(8), n // 8),
            d_c=np.repeat(np.random.default_rng(7).random(8), n // 8),
            rho=np.arange(n) % 500,
            subset=np.arange(n) % 3,
            flagged=np.arange(n) % 3 == 0,
            ids=[f"r{i:06d}" for i in range(n)],
        )
        text, peak = traced(density_report_to_text, report)
        assert peak < 2.5 * len(text)

    def test_rows_match_schema(self):
        rng = np.random.default_rng(26)
        report = flag(labeled_dataset(rng.normal(size=(8, 2)), [0] * 8))
        lines = density_report_to_text(report).strip().split("\n")
        assert len(lines) == 8
        for line in lines:
            row = json.loads(line)
            assert set(row) == {"id", "class", "rho", "d_c", "subset", "flagged"}
            assert row["rho"] >= 1  # positive cutoff counts self

    def test_flag_column_matches_report(self):
        rng = np.random.default_rng(27)
        feats = np.concatenate(
            [rng.normal(0, 0.2, size=(20, 2)), rng.normal(25, 0.2, size=(3, 2))]
        )
        report = flag(labeled_dataset(feats, [0] * 23))
        rows = [json.loads(l) for l in density_report_to_text(report).strip().split("\n")]
        assert {r["id"] for r in rows if r["flagged"]} == report.flagged_set()


class TestConfigValidation:
    def test_alpha_bounds(self):
        with pytest.raises(DatasetError):
            DensityConfig(alpha={Part.HEAD: 0.0, Part.BODY: 25.0, Part.TAIL: 50.0})

    def test_missing_part(self):
        with pytest.raises(DatasetError):
            DensityConfig(alpha={Part.HEAD: 10.0})

    def test_n_subsets_floor(self):
        with pytest.raises(DatasetError):
            DensityConfig(n_subsets=1)
