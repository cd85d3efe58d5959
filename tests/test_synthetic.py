"""Tests for the synthetic generator and truth-based scoring."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from tripletclean.core import NO_LABEL, Dataset, DatasetError, dataset_to_text
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


def oracle_score(cleaned, truth, mined, flagged_ids, ledger) -> Metrics:
    """``score`` as a loop over records for each metric, on the id-keyed
    truth and its ``tagged`` sets, comparing predicate names as strings."""
    known = set(cleaned.ids)
    if known != set(truth.true_predicate):
        raise DatasetError("dataset ids do not match ground truth ids")
    given = (("mined", mined), ("flagged", flagged_ids), ("ledger", [e.id for e in ledger]))
    for what, ids in given:
        unknown = sorted(set(ids) - known)
        if unknown:
            raise DatasetError(f"{what} ids not in the dataset ({len(unknown)}): {unknown[:5]}")
    ratio = lambda num, den: num / den if den else 1.0

    missing = truth.tagged(NoiseTag.MISSING)
    mined_ids = set(mined)
    neg_recall = ratio(len(mined_ids & missing), len(missing))
    neg_precision = ratio(len(mined_ids & missing), len(mined_ids))
    recovered = sorted(mined_ids & missing)
    pseudo_acc = ratio(
        sum(1 for rid in recovered if mined[rid] == truth.true_predicate[rid]),
        len(recovered),
    )

    noisy_pos = truth.tagged(NoiseTag.COMMON) | truth.tagged(NoiseTag.SYNONYM)
    flagged = set(flagged_ids)
    pos_recall = ratio(len(flagged & noisy_pos), len(noisy_pos))
    pos_precision = ratio(len(flagged & noisy_pos), len(flagged))

    names = cleaned.vocab.names
    for entry in ledger:
        if not (0 <= entry.old_label < len(names) and 0 <= entry.new_label < len(names)):
            raise DatasetError(
                f"ledger entry {entry.id!r}: label index outside the vocabulary of "
                f"{len(names)} predicates"
            )
    changed = [entry for entry in ledger if entry.changed]
    correction_acc = ratio(
        sum(
            1
            for entry in changed
            if truth.true_predicate[entry.id] == names[entry.new_label]
        ),
        len(changed),
    )

    truth_labeled = [rid for rid, name in truth.true_predicate.items() if name is not None]
    before_correct = sum(1 for rid in truth_labeled if truth.tag[rid] is NoiseTag.NONE)
    after_correct = background_kept = 0
    for rid, label in zip(cleaned.ids, cleaned.labels.tolist()):
        true_name = truth.true_predicate[rid]
        if label == NO_LABEL:
            background_kept += true_name is None
        else:
            after_correct += names[label] == true_name

    return Metrics(
        neg_recall=neg_recall,
        neg_precision=neg_precision,
        pseudo_label_accuracy=pseudo_acc,
        false_promotions=sum(1 for rid in mined_ids if truth.true_predicate[rid] is None),
        pos_recall=pos_recall,
        pos_precision=pos_precision,
        correction_accuracy=correction_acc,
        accuracy_before=ratio(before_correct, len(truth_labeled)),
        accuracy_after=ratio(after_correct, len(truth_labeled)),
        label_accuracy_all=ratio(after_correct + background_kept, len(cleaned.ids)),
        tag_counts={t.value: len(truth.tagged(t)) for t in NoiseTag},
    )


def checked_score(cleaned, truth, mined, flagged, ledger) -> Metrics:
    """``score``, after asserting that it equals ``oracle_score`` with every
    value of the same Python type, so ``eval`` writes the same JSON."""
    typed = lambda d: {k: typed(v) if isinstance(v, dict) else (type(v), v) for k, v in d.items()}
    metrics = score(cleaned, truth, mined, flagged, ledger)
    assert typed(metrics.to_dict()) == typed(
        oracle_score(cleaned, truth, mined, flagged, ledger).to_dict()
    )
    return metrics


def noisy_setup():
    config = base_config(
        coarse_of={1: 0},
        synonym_pairs=((2, 3),),
        eta_common=0.3,
        eta_syn=0.3,
        eta_neg=0.1,
        n_background=20,
    )
    return generate(config)


def perfect_outcome(ds, truth):
    """The cleaned dataset, mined map, flagged set and ledger of a pipeline
    that finds and fixes every planted error."""
    index_of = {n: i for i, n in enumerate(ds.vocab.names)}
    mined, flagged, ledger = {}, set(), []
    labels = ds.labels.copy()
    for row, rid in enumerate(ds.ids):
        tag = truth.tag[rid]
        true_name = truth.true_predicate[rid]
        if tag is NoiseTag.MISSING:
            mined[rid] = true_name
        elif tag in (NoiseTag.COMMON, NoiseTag.SYNONYM):
            flagged.add(rid)
            ledger.append(
                CorrectionRecord(rid, int(labels[row]), index_of[true_name], True, (), ())
            )
        if tag is not NoiseTag.NONE:
            labels[row] = index_of[true_name]
    return replace(ds, labels=labels), mined, flagged, tuple(ledger)


def random_half_outcome(ds, seed):
    """Each stage acts on a random half of its records: half the unlabeled
    rows are mined under a random name, half the labeled ones are flagged
    and re-voted to a random label, often their own (``changed`` false)."""
    rng = np.random.default_rng(seed)
    names = ds.vocab.names
    labels = ds.labels.copy()
    negatives, positives = ds.negatives(), ds.positives()
    mined = {}
    for row in rng.choice(negatives, size=len(negatives) // 2, replace=False).tolist():
        labels[row] = int(rng.integers(len(names)))
        mined[ds.ids[row]] = names[labels[row]]
    flagged_rows = rng.choice(positives, size=len(positives) // 2, replace=False)
    ledger = []
    for row in sorted(flagged_rows.tolist(), key=ds.ids.__getitem__):
        old = int(labels[row])
        new = old if rng.random() < 0.3 else int(rng.integers(len(names)))
        labels[row] = new
        ledger.append(CorrectionRecord(ds.ids[row], old, new, new != old, (), ()))
    flagged = frozenset(ds.ids[row] for row in flagged_rows.tolist())
    return replace(ds, labels=labels), mined, flagged, tuple(ledger)


def reordered(ds, order) -> Dataset:
    """``ds`` with its rows in ``order``."""
    return Dataset.counted(
        [ds.ids[r] for r in order],
        [ds.image_ids[r] for r in order],
        ds.pairs[order],
        ds.features[order],
        ds.labels[order],
        ds.vocab.names,
    )


class TestScoreMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_half_cleaner(self, seed):
        ds, truth = noisy_setup()
        cleaned, mined, flagged, ledger = random_half_outcome(ds, seed)
        assert any(not e.changed for e in ledger) and any(e.changed for e in ledger)
        checked_score(cleaned, truth, mined, flagged, ledger)

    def test_names_outside_the_vocabulary_match_only_themselves(self):
        ds, truth = noisy_setup()
        cleaned, mined, flagged, ledger = random_half_outcome(ds, 5)
        # mined "far" against true "far", "other" against "far", and "far"
        # against a vocabulary name
        missing = sorted(truth.tagged(NoiseTag.MISSING))
        mined = {**mined, **{rid: ("far", "other", "far")[i % 3] for i, rid in enumerate(missing)}}
        rename = {rid: "far" for i, rid in enumerate(missing) if i % 3 < 2}
        # a true name outside the vocabulary on flagged, voted and untouched rows
        rename.update({ds.ids[row]: "elsewhere" for row in ds.positives()[::5].tolist()})
        renamed = GroundTruth({**truth.true_predicate, **rename}, truth.tag)
        metrics = checked_score(cleaned, renamed, mined, flagged, ledger)
        assert metrics.pseudo_label_accuracy == len(missing[::3]) / len(missing)

    def test_cleaned_rows_in_another_order_than_the_truth(self):
        ds, truth = noisy_setup()
        cleaned, mined, flagged, ledger = random_half_outcome(ds, 6)
        shuffled = reordered(cleaned, np.random.default_rng(7).permutation(len(cleaned)))
        backwards = GroundTruth(
            dict(reversed(truth.true_predicate.items())), dict(reversed(truth.tag.items()))
        )
        metrics = checked_score(shuffled, backwards, mined, flagged, ledger)
        assert metrics == score(cleaned, truth, mined, flagged, ledger)

    def test_all_negative_cleaned_dataset(self):
        ds, truth = noisy_setup()
        cleaned = replace(ds, labels=np.full(len(ds), NO_LABEL))
        metrics = checked_score(cleaned, truth, {}, frozenset(), ())
        assert metrics.accuracy_after == 0.0 and metrics.label_accuracy_all == 20 / len(ds)

    def test_ledger_entries_that_change_nothing(self):
        ds, truth = noisy_setup()
        rows = ds.positives()[::3].tolist()
        ledger = tuple(
            CorrectionRecord(ds.ids[r], int(ds.labels[r]), int(ds.labels[r]), False, (), ())
            for r in rows
        )
        flagged = frozenset(ds.ids[r] for r in rows)
        metrics = checked_score(ds, truth, {}, flagged, ledger)
        assert metrics.correction_accuracy == 1.0


class TestScore:
    def test_identity_cleaner_accuracy_matches_tag_counts(self):
        ds, truth = noisy_setup()
        metrics = checked_score(ds, truth, {}, frozenset(), ())
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
        ds, truth = noisy_setup()
        cleaned, mined, flagged, ledger = perfect_outcome(ds, truth)
        metrics = checked_score(cleaned, truth, mined, flagged, ledger)
        assert metrics.neg_recall == 1.0 and metrics.neg_precision == 1.0
        assert metrics.pseudo_label_accuracy == 1.0
        assert metrics.pos_recall == 1.0 and metrics.pos_precision == 1.0
        assert metrics.correction_accuracy == 1.0
        assert metrics.accuracy_after == 1.0

    def test_promoted_background_lowers_label_accuracy_all_only(self):
        ds, truth = noisy_setup()
        before = checked_score(ds, truth, {}, frozenset(), ())
        background = [row for row, rid in enumerate(ds.ids) if truth.true_predicate[rid] is None]
        assert len(background) == 20
        assert before.false_promotions == 0
        n_right = sum(1 for rid in ds.ids if truth.tag[rid] is NoiseTag.NONE)
        assert before.label_accuracy_all == n_right / len(ds)

        labels = ds.labels.copy()
        labels[background] = 0
        mined = {ds.ids[row]: ds.vocab.names[0] for row in background}
        after = checked_score(replace(ds, labels=labels), truth, mined, frozenset(), ())
        assert after.accuracy_after == before.accuracy_after
        assert after.false_promotions == 20
        assert after.label_accuracy_all == (n_right - 20) / len(ds)

    def test_random_half_flagging_precision_tracks_noise_rate(self):
        ds, truth = noisy_setup()
        rng = np.random.default_rng(5)
        positives = [ds.ids[row] for row in ds.positives()]
        flagged = set(rng.choice(positives, size=len(positives) // 2, replace=False))
        metrics = checked_score(ds, truth, {}, flagged, ())
        noisy = truth.tagged(NoiseTag.COMMON) | truth.tagged(NoiseTag.SYNONYM)
        noise_rate = len(noisy & set(positives)) / len(positives)
        assert abs(metrics.pos_precision - noise_rate) < 0.06

    def test_id_mismatch_rejected(self):
        ds, truth = noisy_setup()
        bad_truth = GroundTruth(
            dict(list(truth.true_predicate.items())[:-1]),
            dict(list(truth.tag.items())[:-1]),
        )
        with pytest.raises(DatasetError, match="ids"):
            score(ds, bad_truth, {}, frozenset(), ())

    @pytest.mark.parametrize("which", ["mined", "flagged", "ledger"])
    def test_ids_outside_the_dataset_rejected(self, which):
        ds, truth = noisy_setup()
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
        ds, truth = noisy_setup()
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
