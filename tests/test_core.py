"""Tests for the shared data model: columns, vocab, partition, persistence."""

import dataclasses
import json
import math

import numpy as np
import pytest

from tripletclean.core import (
    NO_LABEL,
    Dataset,
    DatasetError,
    Part,
    PredicateVocab,
    dataset_to_text,
    load_dataset,
    partition_predicates,
    save_dataset,
    save_vocab,
)
from tripletclean.density import distance_matrix


def small_dataset(ids=("a", "b"), labels=(0, NO_LABEL), dim=4):
    n = len(ids)
    return Dataset.counted(
        ids, ["img0"] * n, [(1, 2)] * n, np.zeros((n, dim)), labels, ["on"]
    )


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def sample_rows():
    def row(rid, pred, feat):
        return {
            "id": rid,
            "image_id": "im1",
            "subject_class": 5,
            "object_class": 7,
            "predicate": pred,
            "feature": feat,
        }

    return [
        row("t1", "on", [0.0, 1.0]),
        row("t2", "near", [1.0, 0.0]),
        row("t3", "on", [0.5, 0.5]),
        row("t4", None, [2.0, 2.0]),
        row("t5", None, [3.0, 3.0]),
    ]


class TestLoadDataset:
    def test_counts_and_states(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, sample_rows())
        ds = load_dataset(str(path))
        assert len(ds) == 5
        assert len(ds.positives()) == 3
        assert len(ds.negatives()) == 2
        assert ds.vocab.names == ("on", "near")
        assert ds.vocab.counts == (2, 1)
        assert ds.feature_dim == 2

    def test_columns(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, sample_rows())
        ds = load_dataset(str(path))
        assert ds.ids == ("t1", "t2", "t3", "t4", "t5")
        assert ds.image_ids == ("im1",) * 5
        np.testing.assert_array_equal(ds.pairs, [[5, 7]] * 5)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, NO_LABEL, NO_LABEL])
        np.testing.assert_array_equal(ds.features[2], [0.5, 0.5])
        assert ds.features.dtype == np.float64 and ds.features.shape == (5, 2)

    def test_positives_negatives_partition_rows(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, sample_rows())
        ds = load_dataset(str(path))
        np.testing.assert_array_equal(ds.positives(), [0, 1, 2])
        np.testing.assert_array_equal(ds.negatives(), [3, 4])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_dataset(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        rows = sample_rows()
        rows[1]["id"] = "t1"
        path = tmp_path / "dup.jsonl"
        write_lines(path, rows)
        with pytest.raises(DatasetError, match=r"dup.jsonl: line 2: duplicate record id 't1'"):
            load_dataset(str(path))

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = sample_rows()
        bad_class = json.dumps({**rows[1], "subject_class": "person"})
        huge_class = json.dumps({**rows[1], "object_class": 2**63})
        tiny_class = json.dumps({**rows[1], "subject_class": -(2**63) - 1})
        bad_features = [
            json.dumps({**rows[1], "feature": feature})
            for feature in (
                ["1.5", 0.0],
                [None, 0.0],
                [[1.0], 0.0],
                [float("nan"), 0.0],
                [10**400, 0.0],
                [],
            )
        ]
        for bad_line in ("{not json", bad_class, huge_class, tiny_class, *bad_features):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(rows[0]) + "\n")
                fh.write(bad_line + "\n")
            with pytest.raises(DatasetError, match="line 2"):
                load_dataset(str(path))

    def test_class_ids_at_the_int64_limits_are_accepted(self, tmp_path):
        rows = sample_rows()
        rows[0]["subject_class"] = -(2**63)
        rows[0]["object_class"] = 2**63 - 1
        path = tmp_path / "limits.jsonl"
        write_lines(path, rows)
        ds = load_dataset(str(path))
        assert ds.pairs[0].tolist() == [-(2**63), 2**63 - 1]

    def test_empty_features_rejected_on_the_first_line(self, tmp_path):
        rows = [{**row, "feature": []} for row in sample_rows()]
        path = tmp_path / "empty.jsonl"
        write_lines(path, rows)
        with pytest.raises(DatasetError, match="line 1: feature must be a non-empty list"):
            load_dataset(str(path))

    @pytest.mark.parametrize("factor, ok", [(0.999, True), (1.001, False)])
    def test_features_whose_squared_distances_overflow_are_rejected(
        self, tmp_path, factor, ok
    ):
        # two dimensions: the largest squared distance is 2 * (2 * x)**2
        x = factor * math.sqrt(np.finfo(np.float64).max / 8)
        rows = sample_rows()
        rows[1]["feature"] = [x, x]
        rows[2]["feature"] = [-x, -x]
        path = tmp_path / "huge.jsonl"
        write_lines(path, rows)
        if not ok:
            with pytest.raises(DatasetError, match="line 2: feature magnitude exceeds"):
                load_dataset(str(path))
            return
        features = load_dataset(str(path)).features
        with np.errstate(all="raise"):
            assert np.isfinite(distance_matrix(features)).all()

    def test_inconsistent_feature_dim_rejected(self, tmp_path):
        rows = sample_rows()
        rows[2]["feature"] = [1.0, 2.0, 3.0]
        path = tmp_path / "dim.jsonl"
        write_lines(path, rows)
        with pytest.raises(DatasetError, match="dimension"):
            load_dataset(str(path))

    def test_explicit_vocab_sidecar(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, sample_rows())
        vocab_path = tmp_path / "vocab.json"
        save_vocab(["near", "on", "under"], str(vocab_path))
        ds = load_dataset(str(path), vocab_path=str(vocab_path))
        assert ds.vocab.names == ("near", "on", "under")
        assert ds.vocab.counts == (1, 2, 0)

    def test_unknown_predicate_with_explicit_vocab(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, sample_rows())
        vocab_path = tmp_path / "vocab.json"
        save_vocab(["near"], str(vocab_path))
        with pytest.raises(DatasetError, match="on"):
            load_dataset(str(path), vocab_path=str(vocab_path))

    def test_malformed_vocab_sidecar_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, sample_rows())
        vocab_path = tmp_path / "vocab.json"
        for content in (b'{"predicates": ["near", "on"', b'{"predicates": ["\xff"]}'):
            vocab_path.write_bytes(content)
            with pytest.raises(DatasetError, match="vocab.json: malformed vocabulary"):
                load_dataset(str(path), vocab_path=str(vocab_path))


class TestRoundtrip:
    def test_save_then_load_is_identity(self, tmp_path):
        src = tmp_path / "in.jsonl"
        write_lines(src, sample_rows())
        ds = load_dataset(str(src))
        out = tmp_path / "out.jsonl"
        save_dataset(ds, str(out))
        ds2 = load_dataset(str(out))
        assert len(ds2) == len(ds)
        assert ds2.vocab == ds.vocab
        assert ds2.ids == ds.ids and ds2.image_ids == ds.image_ids
        np.testing.assert_array_equal(ds2.pairs, ds.pairs)
        np.testing.assert_array_equal(ds2.labels, ds.labels)
        np.testing.assert_array_equal(ds2.features, ds.features)
        assert (tmp_path / "out.jsonl").read_text() == src.read_text()

    def test_serialization_is_deterministic(self, tmp_path):
        src = tmp_path / "in.jsonl"
        write_lines(src, sample_rows())
        ds = load_dataset(str(src))
        assert dataset_to_text(ds) == dataset_to_text(ds)


class TestPartition:
    def test_reference_counts(self):
        vocab = PredicateVocab(("a", "b", "c"), (20_000, 3_000, 100))
        fp = partition_predicates(vocab)
        assert fp.part(0) is Part.HEAD
        assert fp.part(1) is Part.BODY
        assert fp.part(2) is Part.TAIL

    def test_boundary_count_goes_to_body(self):
        vocab = PredicateVocab(("a",), (10_000,))
        assert partition_predicates(vocab).part(0) is Part.BODY
        vocab = PredicateVocab(("a",), (500,))
        assert partition_predicates(vocab).part(0) is Part.BODY

    def test_all_zero_counts_are_tail(self):
        vocab = PredicateVocab(("a", "b", "c"), (0, 0, 0))
        fp = partition_predicates(vocab)
        assert all(fp.part(i) is Part.TAIL for i in range(3))

    def test_every_predicate_gets_exactly_one_part(self):
        rng = np.random.default_rng(7)
        counts = tuple(int(c) for c in rng.integers(0, 30_000, size=50))
        vocab = PredicateVocab(tuple(f"p{i}" for i in range(50)), counts)
        fp = partition_predicates(vocab)
        assert len(fp.part_of) == 50
        assert all(isinstance(p, Part) for p in fp.part_of)

    def test_crossed_thresholds_rejected(self):
        vocab = PredicateVocab(("a",), (10,))
        with pytest.raises(DatasetError):
            partition_predicates(vocab, head_min=100, tail_max=200)


class TestDataset:
    def test_columns_are_read_only(self):
        ds = small_dataset()
        for column in (ds.pairs, ds.features, ds.labels):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_replace_derives_a_new_dataset(self):
        ds = small_dataset()
        labels = ds.labels.copy()
        labels[1] = 0
        ds2 = dataclasses.replace(ds, labels=labels)
        np.testing.assert_array_equal(ds2.labels, [0, 0])
        np.testing.assert_array_equal(ds.labels, [0, NO_LABEL])

    def test_duplicate_id_rejected(self):
        with pytest.raises(DatasetError, match="duplicate record id 'a'"):
            small_dataset(ids=("a", "b", "a"), labels=(0, 0, 0))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DatasetError, match="label index 1 out of range"):
            dataclasses.replace(small_dataset(), labels=np.array([0, 1]))

    def test_column_length_mismatch_rejected(self):
        ds = small_dataset()
        with pytest.raises(DatasetError, match="one row for each of the 2 ids"):
            dataclasses.replace(ds, features=np.zeros((3, 4)))

    def test_zero_width_features_rejected(self):
        ds = small_dataset()
        with pytest.raises(DatasetError, match="at least one value"):
            dataclasses.replace(ds, features=np.zeros((len(ds), 0)))

    def test_vocab_counts_are_labeled_rows(self):
        ds = small_dataset(ids=("a", "b", "c"), labels=(0, NO_LABEL, 0))
        assert ds.vocab.counts == (2,)
        assert ds.partition.part(0) is Part.TAIL
