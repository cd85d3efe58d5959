"""Tests for the synthetic generator and truth-based scoring."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from tripletclean.core import DatasetError, dataset_to_text
from tripletclean.correction import CorrectionRecord
from tripletclean.synthetic import (
    GroundTruth,
    Metrics,
    NoiseTag,
    SynthConfig,
    _assign_pairs,
    class_centers,
    class_counts,
    generate,
    load_truth,
    save_truth,
    score,
    truth_to_text,
)


def base_config(**overrides):
    defaults = dict(
        n_classes=5,
        n_pairs=5,
        feature_dim=8,
        samples_per_class=100,
        cluster_spread=0.5,
        class_separation=6.0,
        seed=3,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestGenerate:
    def test_exact_missing_count(self):
        ds, truth = generate(base_config(eta_neg=0.2))
        assert len(truth.tagged(NoiseTag.MISSING)) == 100
        assert len(ds.negatives()) == 100

    def test_zero_rates_are_identity(self):
        ds, truth = generate(base_config())
        assert truth.tagged(NoiseTag.COMMON) == frozenset()
        assert truth.tagged(NoiseTag.SYNONYM) == frozenset()
        assert truth.tagged(NoiseTag.MISSING) == frozenset()
        for rid, label in zip(ds.ids, ds.labels):
            assert ds.vocab.names[label] == truth.true_predicate[rid]

    def test_every_record_has_one_tag(self):
        ds, truth = generate(base_config(eta_neg=0.1, n_background=20))
        assert set(ds.ids) == truth.ids()
        assert set(truth.tag) == truth.ids()

    def test_synonym_flip_changes_only_the_label(self):
        config = base_config(synonym_pairs=((0, 1),), eta_syn=0.5)
        ds, truth = generate(config)
        flipped = truth.tagged(NoiseTag.SYNONYM)
        assert flipped
        row = {rid: i for i, rid in enumerate(ds.ids)}
        pair_of_class = {}
        for rid, pair in zip(ds.ids, ds.pairs.tolist()):
            if truth.tag[rid] is NoiseTag.NONE:
                pair_of_class.setdefault(truth.true_predicate[rid], pair)
        for rid in flipped:
            label = ds.labels[row[rid]]
            true_name = truth.true_predicate[rid]
            assert {ds.vocab.names[label], true_name} == {"p0", "p1"}
            assert ds.vocab.names[label] != true_name
            assert ds.pairs[row[rid]].tolist() == pair_of_class[true_name]

    def test_synonym_classes_share_pair_and_others_do_not(self):
        config = base_config(synonym_pairs=((0, 1),))
        ds, truth = generate(config)
        pairs = {}
        for rid, pair in zip(ds.ids, ds.pairs.tolist()):
            pairs.setdefault(truth.true_predicate[rid], set()).add(tuple(pair))
        assert pairs["p0"] == pairs["p1"]
        assert pairs["p2"] != pairs["p0"]

    def test_pair_slots_follow_group_roots_and_wrap(self):
        # groups {0, 1, 2} (a chain), {3, 4} and {5, 7} (listed 4-3 and
        # 7-5); 6 and 8 alone.  Each group takes its slot at its smallest
        # class, so {5, 7} comes before 6; slots wrap after 2.
        config = base_config(
            n_classes=9,
            n_pairs=3,
            feature_dim=9,
            synonym_pairs=((0, 1), (1, 2), (4, 3), (7, 5)),
        )
        slots = [0, 0, 0, 1, 1, 2, 0, 2, 1]
        assert _assign_pairs(config) == {k: (p, p + 1) for k, p in enumerate(slots)}

    def test_common_flip_targets_coarse_parent(self):
        config = base_config(coarse_of={1: 0, 2: 0}, eta_common=0.25)
        ds, truth = generate(config)
        flipped = truth.tagged(NoiseTag.COMMON)
        assert len(flipped) == int(0.25 * 200)
        for rid in flipped:
            assert ds.vocab.names[ds.labels[ds.ids.index(rid)]] == "p0"
            assert truth.true_predicate[rid] in ("p1", "p2")

    def test_noise_sets_are_disjoint(self):
        config = base_config(
            coarse_of={1: 0},
            synonym_pairs=((2, 3),),
            eta_common=0.5,
            eta_syn=0.5,
            eta_neg=0.2,
        )
        _, truth = generate(config)
        common = truth.tagged(NoiseTag.COMMON)
        syn = truth.tagged(NoiseTag.SYNONYM)
        missing = truth.tagged(NoiseTag.MISSING)
        assert not (common & syn) and not (common & missing) and not (syn & missing)

    def test_deterministic_given_seed(self):
        config = base_config(eta_neg=0.1, synonym_pairs=((0, 1),), eta_syn=0.2)
        ds_a, truth_a = generate(config)
        ds_b, truth_b = generate(config)
        assert truth_a == truth_b
        assert ds_a.ids == ds_b.ids
        np.testing.assert_array_equal(ds_a.labels, ds_b.labels)
        np.testing.assert_array_equal(ds_a.features, ds_b.features)

    # SHA-256 of dataset_to_text + truth_to_text, pinned when the generator
    # still built per-record lists: the column rewrite must keep every draw
    @pytest.mark.parametrize(
        "settings, digest",
        [
            (
                dict(
                    n_classes=6, n_pairs=3, feature_dim=8, samples_per_class=40,
                    imbalance=0.5, eta_common=0.3, eta_syn=0.4, eta_neg=0.2,
                    synonym_pairs=((0, 1), (1, 2), (3, 4)), coarse_of={1: 0, 4: 3, 5: 3},
                    n_background=10, seed=4,
                ),
                "e53d79847525909e44007335b1d343d31171a9c8454ebc51d2f9863fe31a6ff7",
            ),
            (
                dict(
                    n_classes=8, feature_dim=8, imbalance=0.3, eta_syn=0.1, eta_neg=0.1,
                    synonym_pairs=((0, 1), (2, 3)), samples_per_class=30,
                    n_background=12, seed=7,
                ),
                "68b07a5d31b119a8db31ffb2c63ed78ed71e33d95988b3ffa665033f4f53d1f1",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, settings, digest):
        ds, truth = generate(SynthConfig(**settings))
        text = dataset_to_text(ds) + truth_to_text(truth, ds.ids)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_different_seeds_differ(self):
        ds_a, _ = generate(base_config(seed=1))
        ds_b, _ = generate(base_config(seed=2))
        assert not np.array_equal(ds_a.features[0], ds_b.features[0])

    def test_background_records_are_negative(self):
        ds, truth = generate(base_config(n_background=30))
        negs = ds.negatives()
        assert len(negs) == 30
        for row in negs:
            assert truth.true_predicate[ds.ids[row]] is None
            assert truth.tag[ds.ids[row]] is NoiseTag.NONE

    def test_center_separation_is_exact(self):
        config = base_config(class_separation=7.0)
        centers = class_centers(config)
        for i in range(config.n_classes):
            for j in range(i + 1, config.n_classes):
                np.testing.assert_allclose(
                    np.linalg.norm(centers[i] - centers[j]), 7.0, rtol=1e-12
                )

    def test_imbalance_makes_counts_non_increasing(self):
        counts = class_counts(base_config(imbalance=1.5))
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 100 and counts[-1] >= 1

    def test_coarse_cycle_rejected(self):
        with pytest.raises(DatasetError, match="cycle"):
            base_config(coarse_of={0: 1, 1: 0})

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="seed must be non-negative, got -1"):
            base_config(seed=-1)

    def test_feature_dim_must_cover_classes(self):
        with pytest.raises(DatasetError, match="feature_dim"):
            base_config(feature_dim=3)


class TestScore:
    def noisy_setup(self):
        config = base_config(
            coarse_of={1: 0},
            synonym_pairs=((2, 3),),
            eta_common=0.3,
            eta_syn=0.3,
            eta_neg=0.1,
            n_background=20,
        )
        return generate(config)

    def test_identity_cleaner_accuracy_matches_tag_counts(self):
        ds, truth = self.noisy_setup()
        metrics = score(ds, truth, {}, frozenset(), ())
        n_labeled = sum(1 for v in truth.true_predicate.values() if v is not None)
        n_clean = sum(
            1
            for rid, v in truth.true_predicate.items()
            if v is not None and truth.tag[rid] is NoiseTag.NONE
        )
        assert metrics.accuracy_before == n_clean / n_labeled
        assert metrics.accuracy_after == metrics.accuracy_before
        assert metrics.neg_recall == 0.0 and metrics.pos_recall == 0.0

    def test_perfect_pipeline_scores_ones(self):
        ds, truth = self.noisy_setup()
        names = ds.vocab.names
        index_of = {n: i for i, n in enumerate(names)}
        mined = {}
        flagged = set()
        ledger = []
        labels = ds.labels.copy()
        for row, rid in enumerate(ds.ids):
            tag = truth.tag[rid]
            true_name = truth.true_predicate[rid]
            if tag is NoiseTag.MISSING:
                mined[rid] = true_name
            elif tag in (NoiseTag.COMMON, NoiseTag.SYNONYM):
                flagged.add(rid)
                ledger.append(
                    CorrectionRecord(
                        id=rid,
                        old_label=int(labels[row]),
                        new_label=index_of[true_name],
                        changed=True,
                        neighbor_ids=(),
                        weights=(),
                    )
                )
            if tag is not NoiseTag.NONE:
                labels[row] = index_of[true_name]
        cleaned = replace(ds, labels=labels)
        metrics = score(cleaned, truth, mined, flagged, tuple(ledger))
        assert metrics.neg_recall == 1.0 and metrics.neg_precision == 1.0
        assert metrics.pseudo_label_accuracy == 1.0
        assert metrics.pos_recall == 1.0 and metrics.pos_precision == 1.0
        assert metrics.correction_accuracy == 1.0
        assert metrics.accuracy_after == 1.0

    def test_random_half_flagging_precision_tracks_noise_rate(self):
        ds, truth = self.noisy_setup()
        rng = np.random.default_rng(5)
        positives = [ds.ids[row] for row in ds.positives()]
        flagged = set(rng.choice(positives, size=len(positives) // 2, replace=False))
        metrics = score(ds, truth, {}, flagged, ())
        noisy = truth.tagged(NoiseTag.COMMON) | truth.tagged(NoiseTag.SYNONYM)
        noise_rate = len(noisy & set(positives)) / len(positives)
        assert abs(metrics.pos_precision - noise_rate) < 0.06

    def test_id_mismatch_rejected(self):
        ds, truth = self.noisy_setup()
        bad_truth = GroundTruth(
            dict(list(truth.true_predicate.items())[:-1]),
            dict(list(truth.tag.items())[:-1]),
        )
        with pytest.raises(DatasetError, match="ids"):
            score(ds, bad_truth, {}, frozenset(), ())

    @pytest.mark.parametrize("which", ["mined", "flagged", "ledger"])
    def test_ids_outside_the_dataset_rejected(self, which):
        ds, truth = self.noisy_setup()
        ghosts = [f"ghost{i}" for i in range(7)]
        inputs = {"mined": {}, "flagged": frozenset(), "ledger": ()}
        inputs[which] = {
            "mined": {rid: ds.vocab.names[0] for rid in ghosts},
            "flagged": frozenset(ghosts),
            "ledger": tuple(CorrectionRecord(rid, 0, 1, True, (), ()) for rid in ghosts),
        }[which]
        expected = f"{which} ids not in the dataset (7): {ghosts[:5]}"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            score(ds, truth, inputs["mined"], inputs["flagged"], inputs["ledger"])

    def test_metrics_serialize(self):
        ds, truth = self.noisy_setup()
        metrics = score(ds, truth, {}, frozenset(), ())
        payload = metrics.to_dict()
        assert payload["tag_counts"]["missing"] > 0
        assert isinstance(payload["accuracy_before"], float)


class TestTruthPersistence:
    def test_roundtrip(self, tmp_path):
        ds, truth = generate(base_config(eta_neg=0.1, n_background=5))
        path = tmp_path / "truth.jsonl"
        save_truth(truth, ds, str(path))
        loaded = load_truth(str(path))
        assert loaded == truth

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_truth(str(path))

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"id": "a", "true_predicate": null, "tag": "odd"}\n')
        with pytest.raises(DatasetError, match="truth.jsonl: line 1: unknown tag 'odd'"):
            load_truth(str(path))
