"""Tests for the weighted-KNN correction stage."""

import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from tripletclean.core import NO_LABEL, Dataset, DatasetError
from tripletclean import correction, density
from test_density import FEATURE_KINDS, SCREEN_DIMS, adversarial_features
from tripletclean.correction import (
    KERNEL_SCALE_FLOOR,
    CorrectionConfig,
    Pool,
    correct,
    knn_vote,
    ledger_to_text,
)

Row = namedtuple("Row", "id label feature pair")


def rec(rid, label, feature, pair=(3, 4)):
    feature = np.atleast_1d(np.asarray(feature, dtype=np.float64))
    return Row(rid, NO_LABEL if label is None else label, feature, pair)


def pool_of(rows, config):
    return Pool.build(
        [r.id for r in rows], [r.label for r in rows], [r.feature for r in rows], config
    )


def build_dataset(records, n_classes=10):
    return Dataset.counted(
        [r.id for r in records],
        ["img"] * len(records),
        [r.pair for r in records],
        [r.feature for r in records],
        [r.label for r in records],
        [f"p{i}" for i in range(n_classes)],
    )


def rows(dataset, ids):
    return np.array([dataset.ids.index(rid) for rid in ids], dtype=np.int64)


def correct_ids(noisy_ids, dataset, clean_ids, config):
    """``correct`` with the flagged and clean rows named by id."""
    return correct(rows(dataset, noisy_ids), dataset, rows(dataset, clean_ids), config)


def label_of(dataset, rid):
    return int(dataset.labels[dataset.ids.index(rid)])


def oracle_ledger(noisy_ids, dataset, clean_ids, config):
    """(id, old, new, neighbor ids, weights) per flagged id, by explicit loops."""
    clean = set(clean_ids)
    out = []
    for rid in sorted(noisy_ids):
        q = dataset.ids.index(rid)
        old = int(dataset.labels[q])
        pool = [
            i
            for i, cid in enumerate(dataset.ids)
            if cid in clean and tuple(dataset.pairs[i]) == tuple(dataset.pairs[q])
        ]
        if not pool:
            out.append((rid, old, old, (), ()))
            continue
        feats = [dataset.features[i] for i in pool]
        upper = [
            np.sum((feats[i] - feats[j]) ** 2)
            for i in range(len(pool))
            for j in range(i + 1, len(pool))
        ]
        c = max(float(np.median(upper)), KERNEL_SCALE_FLOOR) if upper else KERNEL_SCALE_FLOOR
        dists = np.array([np.sum((f - dataset.features[q]) ** 2) for f in feats])
        order = np.argsort(dists, kind="stable")[: config.k]
        d = dists[order]
        weights = config.kernel_a * np.exp(-((d - config.kernel_b) ** 2) / (2.0 * c * c))
        score, total = {}, {}
        for i, w, dist in zip(order, weights, d):
            label = int(dataset.labels[pool[i]])
            score[label] = score.get(label, 0.0) + float(w)
            total[label] = total.get(label, 0.0) + float(dist)
        winner = min(score, key=lambda v: (-score[v], total[v], v))
        ids = tuple(dataset.ids[pool[i]] for i in order)
        out.append((rid, old, winner, ids, tuple(float(w) for w in weights)))
    return out


class TestKnnVote:
    def test_k1_is_nearest_neighbor(self):
        pool = [rec("a", 7, [1.0]), rec("b", 2, [10.0]), rec("c", 4, [-3.0])]
        config = CorrectionConfig(k=1, kernel_c=50.0)
        vote = knn_vote(np.array([0.0]), pool_of(pool, config), config)
        assert vote.label == 7
        assert vote.neighbor_ids == ("a",)

    def test_equal_distance_majority(self):
        pool = [
            rec("a1", 5, [1.0]),
            rec("a2", 5, [-1.0]),
            rec("b1", 8, [1.0]),
        ]
        config = CorrectionConfig(k=3, kernel_c=1.0)
        vote = knn_vote(np.array([0.0]), pool_of(pool, config), config)
        assert vote.label == 5

    def test_close_single_beats_far_pair(self):
        # squared distances 0.1 vs 5.0 each; kernel (1, 0, 1)
        pool = [
            rec("a", 5, [np.sqrt(0.1)]),
            rec("b1", 8, [np.sqrt(5.0)]),
            rec("b2", 8, [-np.sqrt(5.0)]),
        ]
        config = CorrectionConfig(k=3, kernel_b=0.0, kernel_c=1.0)
        vote = knn_vote(np.array([0.0]), pool_of(pool, config), config)
        assert vote.label == 5
        w = dict(zip(vote.neighbor_ids, vote.weights))
        np.testing.assert_allclose(w["a"], np.exp(-0.005), rtol=1e-12)
        np.testing.assert_allclose(w["b1"], np.exp(-12.5), rtol=1e-12)

    def test_empty_pool_returns_none(self):
        config = CorrectionConfig()
        vote = knn_vote(np.array([0.0]), pool_of([], config), config)
        assert vote.label is None
        assert vote.neighbor_ids == ()

    def test_pool_smaller_than_k_still_votes(self):
        pool = [rec("a", 3, [0.5]), rec("b", 3, [0.6])]
        config = CorrectionConfig(k=5)
        vote = knn_vote(np.array([0.0]), pool_of(pool, config), config)
        assert vote.label == 3
        assert len(vote.neighbor_ids) == 2

    def test_vote_label_comes_from_neighbors(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            pool = [
                rec(f"n{i}", int(rng.integers(0, 6)), rng.normal(size=3))
                for i in range(8)
            ]
            config = CorrectionConfig()
            vote = knn_vote(rng.normal(size=3), pool_of(pool, config), config)
            neighbor_labels = {
                r.label for r in pool if r.id in set(vote.neighbor_ids)
            }
            assert vote.label in neighbor_labels

    def test_weights_positive_for_finite_distances(self):
        rng = np.random.default_rng(32)
        pool = [rec(f"n{i}", 0, rng.normal(size=2) * 100) for i in range(5)]
        config = CorrectionConfig()
        vote = knn_vote(np.zeros(2), pool_of(pool, config), config)
        assert all(w > 0 for w in vote.weights)

    def test_k2_distinct_labels_closer_wins(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            near = rec("near", 9, rng.normal(size=2))
            far = rec("far", 1, near.feature + rng.normal(size=2) * 10)
            config = CorrectionConfig(k=2, kernel_b=0.0)
            vote = knn_vote(near.feature + 0.01, pool_of([far, near], config), config)
            assert vote.label == 9

    def test_tied_score_smaller_total_distance_wins(self):
        # kernel centered at b=2.5 weighs distances 1 and 4 identically
        pool = [rec("x", 5, [1.0]), rec("y", 2, [2.0])]
        config = CorrectionConfig(k=2, kernel_b=2.5, kernel_c=1.0)
        vote = knn_vote(np.array([0.0]), pool_of(pool, config), config)
        assert vote.label == 5

    def test_full_tie_lower_index_wins(self):
        pool = [rec("x", 7, [1.0]), rec("y", 4, [-1.0])]
        config = CorrectionConfig(k=2, kernel_c=1.0)
        vote = knn_vote(np.array([0.0]), pool_of(pool, config), config)
        assert vote.label == 4


def oracle_vote(query, pool, config):
    """knn_vote with a stable sort of the whole pool."""
    if not len(pool):
        return correction.VoteResult(label=None)
    dists = np.array([np.sum((f - query) ** 2) for f in pool.features])
    order = np.argsort(dists, kind="stable")[: config.k]
    d = dists[order]
    c = pool.scale
    weights = config.kernel_a * np.exp(-((d - config.kernel_b) ** 2) / (2.0 * c * c))
    score, total = {}, {}
    for i, w in zip(order, weights):
        label = int(pool.labels[i])
        score[label] = score.get(label, 0.0) + float(w)
        total[label] = total.get(label, 0.0) + float(dists[i])
    winner = min(score, key=lambda v: (-score[v], total[v], v))
    return correction.VoteResult(
        winner, tuple(pool.ids[i] for i in order), tuple(float(w) for w in weights)
    )


class TestKnnVoteTies:
    """Integer-grid features, so that many pool rows lie at equal distances."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("above_k", [-1, 0, 1, None])
    def test_matches_full_stable_sort(self, k, above_k):
        # pools of k - 1, k, k + 1 and 50 rows
        m = 50 if above_k is None else k + above_k
        rng = np.random.default_rng([k, m])
        query = rng.integers(-2, 3, size=2).astype(np.float64)
        feats = rng.integers(-2, 3, size=(m, 2)).astype(np.float64)
        feats[::4] = query  # duplicates of the query, at distance 0
        labels = rng.integers(0, 4, size=m)
        config = CorrectionConfig(k=k, kernel_c=2.0)
        pool = Pool.build([f"r{i}" for i in range(m)], labels, feats, config)
        for q in (query, query + 1.0, np.zeros(2)):
            assert knn_vote(q, pool, config) == oracle_vote(q, pool, config)

    def test_equal_distances_keep_pool_order(self):
        # eight rows at squared distance 1, four nearer ones at 0
        feats = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]] * 2 + [[0.0, 0]] * 4)
        config = CorrectionConfig(k=6, kernel_c=1.0)
        pool = Pool.build([f"r{i:02d}" for i in range(12)], [0] * 12, feats, config)
        vote = knn_vote(np.zeros(2), pool, config)
        assert vote.neighbor_ids == ("r08", "r09", "r10", "r11", "r00", "r01")


class TestPoolMedian:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 17, 40, 42, 43])
    @pytest.mark.parametrize("kind", ["normal", "grid"])
    @pytest.mark.parametrize("block_rows", [1, 2, 5])
    @pytest.mark.parametrize("skew", [None, "below", "above", "middle"])
    def test_matches_triangle_of_the_matrix(self, monkeypatch, m, kind, block_rows, skew):
        # m mod 4 in {0, 1} gives an even pair count (two middle entries), in
        # {2, 3} an odd one; the grid holds many equal distances
        d = 3
        rng = np.random.default_rng(m)
        if kind == "grid":
            feats = rng.integers(-3, 4, size=(m, d)).astype(np.float64)
        else:
            feats = rng.normal(size=(m, d))
        upper = density.distance_matrix(feats)[np.triu_indices(m, k=1)]
        expected = max(float(np.median(upper)), KERNEL_SCALE_FLOOR)
        # blocks of 1, 2 and 5 rows, the last one short when they do not divide m
        monkeypatch.setattr(density, "BLOCK_ELEMENTS", block_rows * m * d)
        if skew is not None:
            # a sample wholly below or above the distances, or all at the lower
            # middle one: the first bracket misses one or both middle entries
            at = {"below": -1.0, "above": 1e9, "middle": np.sort(upper)[(upper.size - 1) // 2]}
            monkeypatch.setattr(density, "_pair_sample", lambda feats, size: np.full(64, at[skew]))
        pool = pool_of([rec(f"r{i}", 0, f) for i, f in enumerate(feats)], CorrectionConfig())
        assert pool.scale.hex() == expected.hex()

    def test_identical_features_take_the_floor(self):
        feats = [rec(f"r{i}", 0, [1.5, -2.0]) for i in range(6)]
        assert pool_of(feats, CorrectionConfig()).scale == KERNEL_SCALE_FLOOR

    def test_no_m_by_m_matrix_is_built(self):
        m, d = 2000, 8
        feats = np.random.default_rng(5).normal(size=(m, d))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            pool = Pool.build([""] * m, np.zeros(m), feats, CorrectionConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool.scale > 0
        # well below a copy of the m(m-1)/2 distances
        assert peak < m * (m - 1) // 2 * 8 / 4

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected(self, value):
        feats = np.zeros((4, 2))
        feats[2, 1] = value
        with pytest.raises(DatasetError, match="record 'r2' has non-finite features"):
            Pool.build(["r0", "r1", "r2", "r3"], np.zeros(4), feats, CorrectionConfig())


class TestScreenedVote:
    """``knn_vote`` computes exact distances only for rows its screen cannot
    rule out, and ``Pool.build``'s median scans screened distances; both
    must equal the unscreened results on data that defeats the screen."""

    @pytest.mark.parametrize("d", SCREEN_DIMS)
    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3, 40])
    def test_matches_full_stable_sort(self, kind, d, m):
        feats = adversarial_features(kind, m + 2, d, 7)
        config = CorrectionConfig(k=3, kernel_c=1.0)
        labels = np.arange(m) % 3
        pool = Pool.build([f"r{i}" for i in range(m)], labels, feats[:m], config)
        queries = [feats[0], feats[m - 1], feats[m], feats[m + 1], np.nextafter(feats[0], 0)]
        # the weights of distances near 1e300 overflow their square
        with np.errstate(over="ignore"):
            for q in queries:
                assert knn_vote(q, pool, config) == oracle_vote(q, pool, config)

    @pytest.mark.parametrize("d", SCREEN_DIMS)
    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    def test_pool_median_matches_the_matrix(self, monkeypatch, kind, d):
        m = 41
        feats = adversarial_features(kind, m, d, 8)
        upper = density.distance_matrix(feats)[np.triu_indices(m, k=1)]
        expected = max(float(np.median(upper)), KERNEL_SCALE_FLOOR)
        monkeypatch.setattr(density, "BLOCK_ELEMENTS", 3 * m)
        pool = Pool.build([f"r{i}" for i in range(m)], np.zeros(m), feats, CorrectionConfig())
        assert pool.scale.hex() == expected.hex()


class TestCorrect:
    def surrounded_dataset(self):
        """One mislabeled record amid same-pair cleans of another class."""
        cleans = [rec(f"c{i}", 6, [float(i) * 0.01], pair=(1, 2)) for i in range(10)]
        noisy = rec("bad", 3, [0.02], pair=(1, 2))
        return build_dataset(cleans + [noisy]), ["bad"], [c.id for c in cleans]

    def test_surrounded_record_relabeled(self):
        ds, noisy_ids, clean_ids = self.surrounded_dataset()
        fixed, ledger = correct_ids(noisy_ids, ds, clean_ids, CorrectionConfig())
        entry = ledger[0]
        assert entry.changed and entry.old_label == 3 and entry.new_label == 6
        assert label_of(fixed, "bad") == 6
        assert label_of(ds, "bad") == 3

    def test_zero_noisy_is_noop(self):
        ds, _, clean_ids = self.surrounded_dataset()
        fixed, ledger = correct_ids([], ds, clean_ids, CorrectionConfig())
        assert ledger == ()
        np.testing.assert_array_equal(fixed.labels, ds.labels)

    def test_agreeing_vote_keeps_label(self):
        cleans = [rec(f"c{i}", 6, [float(i) * 0.01], pair=(1, 2)) for i in range(10)]
        flagged = rec("ok", 6, [0.02], pair=(1, 2))
        ds = build_dataset(cleans + [flagged])
        fixed, ledger = correct_ids(["ok"], ds, [c.id for c in cleans], CorrectionConfig())
        entry = ledger[0]
        assert not entry.changed
        assert entry.new_label == entry.old_label == 6
        assert label_of(fixed, "ok") == 6

    def test_empty_pool_keeps_label(self):
        lone = rec("lone", 2, [0.0], pair=(8, 8))
        cleans = [rec(f"c{i}", 6, [float(i)], pair=(1, 2)) for i in range(5)]
        ds = build_dataset(cleans + [lone])
        fixed, ledger = correct_ids(["lone"], ds, [c.id for c in cleans], CorrectionConfig())
        assert not ledger[0].changed
        assert ledger[0].neighbor_ids == ()
        assert label_of(fixed, "lone") == 2

    def test_pool_holds_only_the_same_pair(self):
        # the clean record nearest the query sits on another subject-object pair
        same = [rec(f"s{i}", 6, [5.0 + i], pair=(1, 2)) for i in range(3)]
        closer = rec("other", 4, [0.0], pair=(2, 1))
        flagged = rec("q", 3, [0.0], pair=(1, 2))
        ds = build_dataset(same + [closer, flagged])
        clean_ids = [r.id for r in same + [closer]]
        _, ledger = correct_ids(["q"], ds, clean_ids, CorrectionConfig(k=5))
        assert ledger[0].neighbor_ids == ("s0", "s1", "s2")
        assert ledger[0].new_label == 6

    def test_only_labels_change(self):
        ds, noisy_ids, clean_ids = self.surrounded_dataset()
        fixed, _ = correct_ids(noisy_ids, ds, clean_ids, CorrectionConfig())
        assert fixed.ids == ds.ids and fixed.vocab == ds.vocab
        np.testing.assert_array_equal(fixed.pairs, ds.pairs)
        np.testing.assert_array_equal(fixed.features, ds.features)
        assert np.flatnonzero(fixed.labels != ds.labels).tolist() == rows(ds, noisy_ids).tolist()

    def test_corrections_never_cascade(self):
        # two flagged records would vote for each other if pools weren't frozen
        cleans = [rec(f"c{i}", 6, [10.0 + i * 0.01], pair=(1, 2)) for i in range(3)]
        bad_a = rec("bad_a", 3, [0.0], pair=(1, 2))
        bad_b = rec("bad_b", 3, [0.01], pair=(1, 2))
        ds = build_dataset(cleans + [bad_a, bad_b])
        fixed, ledger = correct_ids(
            ["bad_a", "bad_b"], ds, [c.id for c in cleans], CorrectionConfig()
        )
        for entry in ledger:
            assert "bad_a" not in entry.neighbor_ids
            assert "bad_b" not in entry.neighbor_ids
            assert entry.new_label == 6

    def test_repeat_run_gives_identical_ledger(self):
        ds, noisy_ids, clean_ids = self.surrounded_dataset()
        _, first = correct_ids(noisy_ids, ds, clean_ids, CorrectionConfig())
        _, second = correct_ids(noisy_ids, ds, clean_ids, CorrectionConfig())
        assert first == second

    def test_overlapping_id_sets_rejected(self):
        ds, _, clean_ids = self.surrounded_dataset()
        with pytest.raises(DatasetError, match="both"):
            correct_ids([clean_ids[0]], ds, clean_ids, CorrectionConfig())

    def test_unlabeled_clean_record_rejected(self):
        cleans = [rec(f"c{i}", 6, [float(i)], pair=(1, 2)) for i in range(5)]
        neg = rec("neg", None, [0.5], pair=(1, 2))
        noisy = rec("bad", 3, [0.1], pair=(1, 2))
        ds = build_dataset(cleans + [neg, noisy])
        with pytest.raises(DatasetError, match="neg"):
            correct_ids(["bad"], ds, [c.id for c in cleans] + ["neg"], CorrectionConfig())

    def test_unlabeled_flagged_record_rejected(self):
        cleans = [rec(f"c{i}", 6, [float(i)], pair=(1, 2)) for i in range(5)]
        neg = rec("neg", None, [0.5], pair=(1, 2))
        ds = build_dataset(cleans + [neg])
        with pytest.raises(DatasetError, match="flagged record 'neg' has no label"):
            correct_ids(["neg"], ds, [c.id for c in cleans], CorrectionConfig())

    def test_kernel_scale_that_underflows_is_rejected(self):
        # 2 * c * c underflows to 0, so every weight would divide by zero
        ds, noisy_ids, clean_ids = self.surrounded_dataset()
        with pytest.raises(DatasetError, match="record 'bad': kernel weights are not finite"):
            correct_ids(noisy_ids, ds, clean_ids, CorrectionConfig(kernel_c=1e-200))

    @pytest.mark.parametrize("where", ["pool", "flagged"])
    def test_non_finite_features_are_rejected(self, where):
        # six cleans and two flagged records on one pair; a NaN in the pool
        # would make the median scale NaN, and one in a flagged record would
        # leave its vote without neighbours
        cleans = [rec(f"c{i}", 6, [float(i), 0.5 * i], pair=(1, 2)) for i in range(6)]
        flagged = [rec(f"f{i}", 3, [0.5 + i, 1.0], pair=(1, 2)) for i in range(2)]
        bad = cleans[4] if where == "pool" else flagged[1]
        bad.feature[1] = np.nan
        ds = build_dataset(cleans + flagged)
        with pytest.raises(DatasetError, match=f"record '{bad.id}' has non-finite features"):
            correct_ids(["f0", "f1"], ds, [c.id for c in cleans], CorrectionConfig())

    def test_ledger_sorted_by_id(self):
        cleans = [rec(f"c{i}", 6, [float(i) * 0.01], pair=(1, 2)) for i in range(8)]
        flagged = [rec(x, 3, [0.5], pair=(1, 2)) for x in ("zz", "aa", "mm")]
        ds = build_dataset(cleans + flagged)
        _, ledger = correct_ids(
            ["zz", "aa", "mm"], ds, [c.id for c in cleans], CorrectionConfig()
        )
        assert [e.id for e in ledger] == ["aa", "mm", "zz"]


class TestPoolReuse:
    def seeded_set(self):
        """Four pairs of clean and flagged records, plus a pair with no clean pool."""
        rng = np.random.default_rng(21)
        records, noisy_ids, clean_ids = [], [], []
        for p, pair in enumerate([(0, 1), (1, 0), (2, 5), (4, 4)]):
            for i in range(12 + 3 * p):
                r = rec(f"c{p}_{i:02d}", int(rng.integers(5)), rng.normal(size=4), pair=pair)
                records.append(r)
                clean_ids.append(r.id)
            for i in range(4):
                r = rec(f"n{p}_{i}", int(rng.integers(5)), rng.normal(size=4), pair=pair)
                records.append(r)
                noisy_ids.append(r.id)
        records.append(rec("n_lone", 2, rng.normal(size=4), pair=(9, 9)))
        noisy_ids.append("n_lone")
        return build_dataset(records), noisy_ids, clean_ids

    def test_ledger_matches_loop_oracle(self):
        ds, noisy_ids, clean_ids = self.seeded_set()
        config = CorrectionConfig(k=4)
        _, ledger = correct_ids(noisy_ids, ds, clean_ids, config)
        got = [(e.id, e.old_label, e.new_label, e.neighbor_ids, e.weights) for e in ledger]
        assert got == oracle_ledger(noisy_ids, ds, clean_ids, config)
        assert any(e.changed for e in ledger)

    def test_scale_once_per_pair_and_one_vote_per_record(self, monkeypatch):
        ds, noisy_ids, clean_ids = self.seeded_set()
        scales, votes = [], []
        kernel_scale, vote = correction._kernel_scale, correction.knn_vote
        monkeypatch.setattr(
            correction, "_kernel_scale", lambda f, c: scales.append(len(f)) or kernel_scale(f, c)
        )
        monkeypatch.setattr(
            correction, "knn_vote", lambda q, p, c: votes.append(p) or vote(q, p, c)
        )
        correct_ids(noisy_ids, ds, clean_ids, CorrectionConfig())
        assert sorted(scales) == [12, 15, 18, 21]
        assert len(votes) == len(noisy_ids)
        assert sum(len(p) > 0 for p in votes) == len(noisy_ids) - 1  # n_lone
        assert len(votes[-1]) == 0

    def test_one_member_pool_uses_the_floor(self):
        cleans = [rec("c0", 6, [1.0, 0.0], pair=(1, 2))]
        flagged = rec("q", 3, [1.0, 1e-7], pair=(1, 2))
        ds = build_dataset(cleans + [flagged])
        assert pool_of(cleans, CorrectionConfig()).scale == KERNEL_SCALE_FLOOR
        _, ledger = correct_ids(["q"], ds, ["c0"], CorrectionConfig())
        assert ledger[0].neighbor_ids == ("c0",)
        assert ledger[0].new_label == 6
        assert all(np.isfinite(w) and w > 0 for w in ledger[0].weights)

    def test_identical_feature_pool_uses_the_floor(self):
        labels = [2, 6, 6, 2, 6]
        cleans = [rec(f"c{i}", lab, [0.5, 0.5], pair=(1, 2)) for i, lab in enumerate(labels)]
        flagged = rec("q", 3, [0.5, 0.5], pair=(1, 2))
        ds = build_dataset(cleans + [flagged])
        assert pool_of(cleans, CorrectionConfig()).scale == KERNEL_SCALE_FLOOR
        _, ledger = correct_ids(["q"], ds, [c.id for c in cleans], CorrectionConfig(k=3))
        assert ledger[0].neighbor_ids == ("c0", "c1", "c2")
        assert ledger[0].weights == (1.0, 1.0, 1.0)
        assert ledger[0].new_label == 6


class TestLedgerExport:
    def test_rows_have_required_fields(self):
        import json

        cleans = [rec(f"c{i}", 6, [float(i) * 0.01], pair=(1, 2)) for i in range(6)]
        noisy = rec("bad", 3, [0.02], pair=(1, 2))
        ds = build_dataset(cleans + [noisy])
        _, ledger = correct_ids(["bad"], ds, [c.id for c in cleans], CorrectionConfig())
        rows = [json.loads(l) for l in ledger_to_text(ledger).strip().split("\n")]
        assert set(rows[0]) == {
            "id",
            "old_label",
            "new_label",
            "changed",
            "neighbor_ids",
            "weights",
        }
        assert rows[0]["changed"] is True

    def test_text_matches_asdict_rows(self):
        import dataclasses

        from tripletclean.core import jsonl_text

        cleans = [rec(f"c{i}", 6 - i % 2, [float(i) * 0.01], pair=(1, 2)) for i in range(6)]
        noisy = [rec("bad", 3, [0.02], pair=(1, 2)), rec("lone", 3, [0.0], pair=(4, 5))]
        ds = build_dataset(cleans + noisy)
        _, ledger = correct_ids(["bad", "lone"], ds, [c.id for c in cleans], CorrectionConfig())
        assert ledger_to_text(ledger) == jsonl_text(map(dataclasses.asdict, ledger))


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(DatasetError):
            CorrectionConfig(k=0)

    def test_bad_kernel(self):
        with pytest.raises(DatasetError):
            CorrectionConfig(kernel_a=0.0)
        with pytest.raises(DatasetError):
            CorrectionConfig(kernel_c=-1.0)
