"""Tests for the shared data model: columns, vocab, partition, persistence."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from tripletclean import core
from tripletclean.core import (
    NO_LABEL,
    Dataset,
    DatasetError,
    Part,
    dataset_to_text,
    jsonl_text,
    load_dataset,
    partition_predicates,
    save_dataset,
    save_vocab,
)
from tripletclean.density import distance_matrix
from tripletclean.synthetic import SynthConfig, generate

# strings and numbers whose JSON spelling a hand-made writer could get wrong
ODD_STRINGS = [
    "plain",
    'quote"d',
    "back\\slash",
    "caf\u00e9",
    "\u4e2d\U0001f600",
    "line\u2028separator",
    "control\x00\x1f\x7f\n\t",
]
ODD_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1, -2.5, math.inf, -math.inf, math.nan]
INT64_LIMITS = [-(2**63), 2**63 - 1]


def json_lines(rows):
    """The reference text of the writers: json.dumps of each row."""
    return "".join(json.dumps(row) + "\n" for row in rows)


def traced(write, *args):
    """``write(*args)`` and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = write(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def small_dataset(ids=("a", "b"), labels=(0, NO_LABEL), dim=4):
    n = len(ids)
    return Dataset.counted(
        ids, ["img0"] * n, [(1, 2)] * n, np.zeros((n, dim)), labels, ["on"]
    )


def bands_at(ds, count):
    """Bands with head_min == tail_max == count: BODY marks exactly the
    predicates with ``count`` labeled rows, HEAD more and TAIL fewer."""
    return partition_predicates(ds.labels, len(ds.vocab), head_min=count, tail_max=count)


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
        # labeled counts (2, 1): the two negatives count for neither
        assert bands_at(ds, 2) == (Part.BODY, Part.TAIL)
        assert bands_at(ds, 1) == (Part.HEAD, Part.BODY)
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
        # labeled counts (1, 2, 0)
        assert bands_at(ds, 0) == (Part.HEAD, Part.HEAD, Part.BODY)
        assert bands_at(ds, 1) == (Part.BODY, Part.HEAD, Part.TAIL)
        assert bands_at(ds, 2) == (Part.TAIL, Part.BODY, Part.TAIL)

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


    def test_chunked_conversion_keeps_every_value(self, tmp_path, monkeypatch):
        # integers, booleans and exponent forms, across chunk boundaries
        values = [[3, -0.0], [True, 5e-324], [1e-05, 1e22], [2**70, -7], [0.1, 1e16]]
        rows = [{**sample_rows()[0], "id": f"t{i}", "feature": v} for i, v in enumerate(values)]
        path = tmp_path / "values.jsonl"
        write_lines(path, rows)
        expected = np.array([[float(x) for x in v] for v in values])
        for chunk in (1, 3, 4, core.FEATURE_CHUNK):
            monkeypatch.setattr(core, "FEATURE_CHUNK", chunk)
            assert load_dataset(str(path)).features.tobytes() == expected.tobytes()

    def test_blank_and_padded_lines(self, tmp_path):
        rows = [json.dumps(row) for row in sample_rows()]
        path = tmp_path / "padded.jsonl"
        # str.strip removes more than JSON's whitespace: NBSP, \v, \f, U+3000
        path.write_text(
            f"  \t \n\u00a0{rows[0]}\x0b\n\n\x0c{rows[1]}\u3000\r\n{rows[2]}\n \n"
            f"{rows[3]}\n{rows[4]}\n",
            encoding="utf-8",
        )
        ds = load_dataset(str(path))
        assert ds.ids == ("t1", "t2", "t3", "t4", "t5")
        # blank lines keep their numbers
        path.write_text(f"\n \n{rows[0]}\n\t\n{{not json\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 5: malformed JSON"):
            load_dataset(str(path))

    def test_peak_memory_of_a_wide_input(self, tmp_path):
        # 10,600 rows of 64 features, 5.4 MB as float64: a loader that
        # converted each line as it was read peaked at 2.9 times the
        # features, one that converts every row at once at 6.6 times
        rng = np.random.default_rng(3)
        path = tmp_path / "wide.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, feature in enumerate(rng.normal(size=(10_600, 64)).tolist()):
                row = {**sample_rows()[0], "id": f"r{i:06d}", "feature": feature}
                fh.write(json.dumps(row) + "\n")
        ds, peak = traced(load_dataset, str(path))
        assert peak < 3.5 * ds.features.nbytes


# one bad line of each kind, as the text of line 2 (id "t2") of a file
# whose line 1 is sample_rows()[0], and the message it gets
NOT_FINITE = "feature must be a non-empty list of finite numbers"
BAD_LINES = {
    "malformed JSON": (
        "{not json",
        "malformed JSON (Expecting property name enclosed in double quotes)",
    ),
    "not an object": ("[1, 2]", "expected an object"),
    "missing field": ({"feature": None}, "missing fields ['feature']"),
    "field type": ({"subject_class": "person"}, "subject_class must be an integer, got 'person'"),
    "duplicate id": ({"id": "t1"}, "duplicate record id 't1'"),
    "feature type": ({"feature": ["1.5", 0.0]}, NOT_FINITE),
    "huge integer": ({"feature": [10**400, 0.0]}, NOT_FINITE),
    "NaN": ({"feature": [math.nan, 0.0]}, NOT_FINITE),
    "empty feature": ({"feature": []}, NOT_FINITE),
    "magnitude": (
        {"feature": [1e300, 0.0]},
        "feature magnitude exceeds 4.74037e+153, so squared distances would overflow",
    ),
    "dimension": ({"feature": [1.0, 2.0, 3.0]}, "feature dimension 3 != 2"),
    "unknown predicate": ({"predicate": "under"}, "unknown predicate name 'under'"),
    "class range": (
        {"object_class": 2**63},
        "subject_class and object_class must be signed 64-bit integers",
    ),
}


def bad_line(kind, rid):
    """Line ``kind`` of BAD_LINES with id ``rid``, unless its id is the
    fault; a field changed to None is left out."""
    change = BAD_LINES[kind][0]
    if isinstance(change, str):
        return change
    row = {**sample_rows()[1], "id": rid, **change}
    return json.dumps({key: value for key, value in row.items() if value is not None})


class TestLoaderErrorOrder:
    """Whatever the chunking, the first bad line in file order is named,
    with the message a line-by-line loader gave it."""

    @pytest.mark.parametrize("chunk", [2, 4, None])
    def test_the_earlier_of_two_bad_lines_is_named(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(core, "FEATURE_CHUNK", chunk)
        path = tmp_path / "two.jsonl"
        vocab = tmp_path / "vocab.json"
        save_vocab(["on", "near"], str(vocab))
        good = [json.dumps(row) for row in sample_rows()]
        for first in BAD_LINES:
            for second in BAD_LINES:
                if second == first:
                    continue
                lines = [good[0], bad_line(first, "t2"), bad_line(second, "t3"), *good[3:]]
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                with pytest.raises(DatasetError) as err:
                    load_dataset(str(path), vocab_path=str(vocab))
                assert str(err.value) == f"{path}: line 2: {BAD_LINES[first][1]}", second

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"feature": ["x", 0.0], "predicate": "under"}, "feature must be a non-empty list"),
            ({"feature": [1.0, 2.0, 3.0], "predicate": "under"}, "feature dimension 3 != 2"),
            ({"predicate": "under", "object_class": 2**63}, "unknown predicate name 'under'"),
            ({"feature": [1e300, 0.0], "object_class": -(2**63) - 1}, "feature magnitude"),
            # a list of another length is checked against its own length first
            ({"feature": ["x", 1.0, 2.0]}, "feature must be a non-empty list"),
            ({"feature": [1e300, 1.0, 2.0]}, "feature magnitude exceeds 3.8705e+153"),
        ],
    )
    def test_one_line_with_two_problems(self, tmp_path, change, message):
        path = tmp_path / "one.jsonl"
        vocab = tmp_path / "vocab.json"
        save_vocab(["on", "near"], str(vocab))
        rows = sample_rows()
        rows[2].update(change)
        write_lines(path, rows)
        with pytest.raises(DatasetError, match=re.escape(f"line 3: {message}")):
            load_dataset(str(path), vocab_path=str(vocab))


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


class TestDatasetText:
    def test_matches_json_dumps_on_odd_values(self):
        n = len(ODD_STRINGS)
        names = ["on", 'quote"d', "caf\u00e9"]
        pairs = [(INT64_LIMITS[i % 2], INT64_LIMITS[1 - i % 2] if i % 3 else 0) for i in range(n)]
        # a dataset's features are finite; json_numbers spells the others
        finite = [v for v in ODD_FLOATS if math.isfinite(v)]
        assert core.json_numbers(ODD_FLOATS) == json.dumps(ODD_FLOATS)[1:-1]
        features = [np.roll(finite, i) for i in range(n)]
        labels = [NO_LABEL if i % 4 == 3 else i % 3 for i in range(n)]
        images = [*ODD_STRINGS[::-1]]
        ds = Dataset.counted(ODD_STRINGS, images, pairs, features, labels, names)
        expected = json_lines(
            {
                "id": rid,
                "image_id": image_id,
                "subject_class": subject,
                "object_class": obj,
                "predicate": names[label] if label != NO_LABEL else None,
                "feature": feature.tolist(),
            }
            for rid, image_id, (subject, obj), label, feature in zip(
                ODD_STRINGS, images, pairs, labels, features
            )
        )
        assert dataset_to_text(ds) == expected

    def test_peak_memory_is_about_two_texts(self):
        rng = np.random.default_rng(6)
        ids = [f"r{i:05d}" for i in range(2_000)]
        ds = Dataset.counted(
            ids, ["img"] * 2_000, [(1, 2)] * 2_000, rng.normal(size=(2_000, 16)),
            np.arange(2_000) % 3 - 1, ["on", "near"],
        )
        text, peak = traced(dataset_to_text, ds)
        assert peak < 2.5 * len(text)


class TestJsonlText:
    def rows(self, n):
        rng = np.random.default_rng(5)
        return [{"id": f"r{i}", "feature": rng.normal(size=16).tolist()} for i in range(n)]

    def test_one_object_per_line(self):
        rows = self.rows(3)
        assert jsonl_text(rows) == "\n".join(map(json.dumps, rows)) + "\n"
        assert jsonl_text([]) == ""

    def test_peak_memory_is_about_two_texts(self):
        # the lines and their one join, with no further copy of the text
        text, peak = traced(jsonl_text, self.rows(500))
        assert peak < 2.5 * len(text)


class TestPartition:
    def test_reference_counts(self):
        labels = np.repeat([0, 1, 2], [20_000, 3_000, 100])
        fp = partition_predicates(labels, 3)
        assert fp[0] is Part.HEAD
        assert fp[1] is Part.BODY
        assert fp[2] is Part.TAIL

    def test_boundary_count_goes_to_body(self):
        assert partition_predicates(np.repeat(0, 10_000), 1)[0] is Part.BODY
        assert partition_predicates(np.repeat(0, 500), 1)[0] is Part.BODY

    def test_all_zero_counts_are_tail(self):
        for labels in (np.full(4, NO_LABEL), np.empty(0, dtype=np.int64)):
            fp = partition_predicates(labels, 3)
            assert len(fp) == 3
            assert all(fp[i] is Part.TAIL for i in range(3))

    def test_every_predicate_gets_exactly_one_part(self):
        rng = np.random.default_rng(7)
        labels = np.repeat(np.arange(50), rng.integers(0, 30_000, size=50))
        fp = partition_predicates(labels, 50)
        assert len(fp) == 50
        assert all(isinstance(p, Part) for p in fp)

    def test_crossed_thresholds_rejected(self):
        with pytest.raises(DatasetError):
            partition_predicates(np.repeat(0, 10), 1, head_min=100, tail_max=200)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected_when_built(self, value):
        # however the dataset is built, the first bad record is named
        features = np.zeros((4, 3))
        features[1, 2] = features[3, 0] = value
        ids = ("a", "b", "c", "d")
        with pytest.raises(DatasetError, match="^record 'b' has non-finite features$"):
            Dataset.counted(ids, ["img0"] * 4, [(1, 2)] * 4, features, [0] * 4, ["on"])
        with pytest.raises(DatasetError, match="^record 'b' has non-finite features$"):
            dataclasses.replace(small_dataset(ids, [0] * 4, dim=3), features=features)

    def test_features_beyond_the_magnitude_limit_rejected_when_built(self):
        # one positive row of a generated dataset set to 1e200: its squared
        # distances would overflow, so no stage may meet it
        ds, _ = generate(SynthConfig(seed=1))
        row = int(ds.positives()[3])
        features = np.array(ds.features)
        features[row, 2] = 1e200
        message = (
            f"^record '{ds.ids[row]}': feature magnitude exceeds 1.67597e\\+153, "
            "so squared distances would overflow$"
        )
        with pytest.raises(DatasetError, match=message):
            dataclasses.replace(ds, features=features)
        with pytest.raises(DatasetError, match=message):
            Dataset.counted(ds.ids, ds.image_ids, ds.pairs, features, ds.labels, ds.vocab.names)

    def test_vocab_counts_are_labeled_rows(self):
        ds = small_dataset(ids=("a", "b", "c"), labels=(0, NO_LABEL, 0))
        assert bands_at(ds, 2) == (Part.BODY,)
        assert ds.partition[0] is Part.TAIL

    @pytest.mark.parametrize("partition", [(), (Part.TAIL, Part.TAIL)])
    def test_partition_of_the_wrong_length_rejected(self, partition):
        # one band for each predicate, so a stage never indexes past the end
        with pytest.raises(DatasetError, match=f"^{len(partition)} bands for 1 predicates$"):
            dataclasses.replace(small_dataset(), partition=partition)
