"""Tests for the shared data model: records, vocab, partition, persistence."""

import json

import numpy as np
import pytest

from tripletclean.core import (
    Dataset,
    DatasetError,
    LabelState,
    Part,
    PredicateVocab,
    TripletRecord,
    compose_positive_set,
    dataset_to_text,
    load_dataset,
    partition_predicates,
    save_dataset,
    save_vocab,
)


def make_record(rid, label=0, state=LabelState.ANNOTATED, feature=None, pair=(1, 2)):
    if feature is None:
        feature = np.zeros(4)
    return TripletRecord(
        id=rid,
        image_id="img0",
        subject_class=pair[0],
        object_class=pair[1],
        feature=np.asarray(feature, dtype=np.float64),
        label=label,
        label_state=state,
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

    def test_positives_negatives_partition_records(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, sample_rows())
        ds = load_dataset(str(path))
        pos_ids = {r.id for r in ds.positives()}
        neg_ids = {r.id for r in ds.negatives()}
        assert pos_ids & neg_ids == set()
        assert pos_ids | neg_ids == {r.id for r in ds.records}

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
        with pytest.raises(DatasetError, match="t1"):
            load_dataset(str(path))

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = sample_rows()
        bad_class = json.dumps({**rows[1], "subject_class": "person"})
        for bad_line in ("{not json", bad_class):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(rows[0]) + "\n")
                fh.write(bad_line + "\n")
            with pytest.raises(DatasetError, match="line 2"):
                load_dataset(str(path))

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
        for a, b in zip(ds.records, ds2.records):
            assert a.id == b.id
            assert a.label == b.label
            assert a.label_state == b.label_state
            np.testing.assert_array_equal(a.feature, b.feature)

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


class TestRecordInvariants:
    def test_negative_must_have_no_label(self):
        with pytest.raises(DatasetError):
            make_record("r1", label=0, state=LabelState.NEGATIVE)

    def test_labeled_state_must_have_label(self):
        with pytest.raises(DatasetError):
            make_record("r1", label=None, state=LabelState.ANNOTATED)

    def test_confidence_range_checked(self):
        with pytest.raises(DatasetError):
            TripletRecord(
                id="r1",
                image_id="i",
                subject_class=0,
                object_class=0,
                feature=np.zeros(2),
                label=0,
                label_state=LabelState.PSEUDO,
                confidence=1.5,
            )


class TestComposePositiveSet:
    def test_cardinality_and_order(self):
        pos = [make_record(f"p{i}") for i in range(3)]
        mined = [make_record(f"m{i}", state=LabelState.PSEUDO) for i in range(2)]
        out = compose_positive_set(pos, mined)
        assert len(out) == 5
        assert [r.id for r in out] == ["p0", "p1", "p2", "m0", "m1"]

    def test_empty_mined_is_identity(self):
        pos = [make_record(f"p{i}") for i in range(3)]
        out = compose_positive_set(pos, [])
        assert out == tuple(pos)

    def test_non_pseudo_mined_rejected(self):
        pos = [make_record("p0")]
        bad = [make_record("m0", state=LabelState.ANNOTATED)]
        with pytest.raises(DatasetError, match="pseudo"):
            compose_positive_set(pos, bad)

    def test_id_collision_rejected(self):
        pos = [make_record("x0")]
        mined = [make_record("x0", state=LabelState.PSEUDO)]
        with pytest.raises(DatasetError, match="x0"):
            compose_positive_set(pos, mined)


class TestDataset:
    def test_with_records_replaces_in_place(self):
        vocab = PredicateVocab(("on",), (2,))
        recs = (make_record("a"), make_record("b"))
        ds = Dataset(recs, vocab, partition_predicates(vocab), 4)
        promoted = TripletRecord(
            id="b",
            image_id="img0",
            subject_class=1,
            object_class=2,
            feature=np.zeros(4),
            label=0,
            label_state=LabelState.PSEUDO,
            confidence=0.9,
        )
        ds2 = ds.with_records({"b": promoted})
        assert [r.id for r in ds2.records] == ["a", "b"]
        assert ds2.records[1].label_state is LabelState.PSEUDO
        assert ds.records[1].label_state is LabelState.ANNOTATED

    def test_with_records_unknown_id_rejected(self):
        vocab = PredicateVocab(("on",), (1,))
        ds = Dataset((make_record("a"),), vocab, partition_predicates(vocab), 4)
        with pytest.raises(DatasetError, match="zz"):
            ds.with_records({"zz": make_record("zz")})

    def test_feature_dim_mismatch_rejected(self):
        vocab = PredicateVocab(("on",), (1,))
        with pytest.raises(DatasetError, match="dimension"):
            Dataset(
                (make_record("a", feature=np.zeros(3)),),
                vocab,
                partition_predicates(vocab),
                4,
            )
