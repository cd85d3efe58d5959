"""Tests for the orchestrated pipeline: toggles, identities, persistence."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import tripletclean
from tripletclean.cli import _load_cli_config, build_parser, main
from tripletclean.core import (
    NO_LABEL,
    Dataset,
    DatasetError,
    Part,
    dataset_to_text,
    load_dataset,
    partition_predicates,
)
from tripletclean.negatives import MinerConfig
from tripletclean.pipeline import (
    CleaningReport,
    IOConfig,
    PartitionConfig,
    PipelineConfig,
    PipelineError,
    StagesConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    load_flagged,
    load_ledger,
    load_mined,
    run,
    write_outputs,
)
from tripletclean.synthetic import SynthConfig, generate, load_truth

FAST_MINER = dict(hidden_size=16, epochs=15, learning_rate=0.5, batch_size=32)


def noisy_dataset(seed=1):
    config = SynthConfig(
        n_classes=6,
        n_pairs=3,
        feature_dim=8,
        samples_per_class=60,
        cluster_spread=0.6,
        class_separation=7.0,
        eta_syn=0.2,
        eta_neg=0.15,
        synonym_pairs=((0, 1), (2, 3), (4, 5)),
        n_background=40,
        seed=seed,
    )
    return generate(config)


def fast_config(**overrides):
    defaults = dict(neg_nsd=MinerConfig(seed=1, **FAST_MINER))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRun:
    def test_full_run_counts_are_consistent(self):
        ds, _ = noisy_dataset()
        result = run(fast_config(), dataset=ds)
        counts = result.report.counts()
        assert counts["total"] == len(ds)
        assert counts["composed"] == counts["positives"] + counts["mined_negatives"]
        assert counts["flagged"] + counts["unflagged"] == counts["composed"]
        assert (
            counts["unflagged"] + counts["flagged"] + counts["kept_negatives"]
            == counts["total"]
        )
        assert counts["mined_negatives"] > 0
        assert counts["flagged"] > 0

    def test_label_changes_are_promotions_and_changed_ledger_rows(self):
        ds, _ = noisy_dataset()
        result = run(fast_config(), dataset=ds)
        row = {rid: i for i, rid in enumerate(ds.ids)}
        promoted = set(result.promoted.rows.tolist())
        corrected = {row[e.id] for e in result.ledger if e.changed}
        assert promoted and corrected
        changed = np.flatnonzero(result.dataset.labels != ds.labels)
        assert set(changed.tolist()) == promoted | corrected
        for entry in result.ledger:
            assert result.dataset.labels[row[entry.id]] == entry.new_label
        assert result.mined == {
            ds.ids[r]: ds.vocab.names[k]
            for r, k in zip(result.promoted.rows, result.promoted.labels)
        }

    def test_disabled_miner_keeps_negatives(self):
        ds, _ = noisy_dataset()
        result = run(fast_config(stages=StagesConfig(neg_nsd=False)), dataset=ds)
        assert result.report.mined_negatives == 0
        assert result.report.kept_negatives == result.report.negatives
        assert result.model is None

    def test_disabled_density_flags_nothing(self):
        ds, _ = noisy_dataset()
        result = run(fast_config(stages=StagesConfig(pos_nsd=False)), dataset=ds)
        assert result.report.flagged == 0
        assert result.ledger == ()

    def test_disabled_corrector_keeps_flagged_labels(self):
        ds, _ = noisy_dataset()
        with_nsc = run(fast_config(), dataset=ds)
        without = run(fast_config(stages=StagesConfig(nsc=False)), dataset=ds)
        assert without.report.flagged == with_nsc.report.flagged
        assert without.report.relabeled == 0 and without.ledger == ()
        expected = ds.labels.copy()
        expected[without.promoted.rows] = without.promoted.labels
        np.testing.assert_array_equal(without.dataset.labels, expected)

    def test_all_stages_off_reserializes_input(self):
        ds, _ = noisy_dataset()
        result = run(
            fast_config(stages=StagesConfig(neg_nsd=False, pos_nsd=False, nsc=False)),
            dataset=ds,
        )
        assert dataset_to_text(result.dataset) == dataset_to_text(ds)

    def test_no_negatives_is_fine(self):
        ds, _ = noisy_dataset()
        pos = ds.positives()
        positives_only = dataclasses.replace(
            ds,
            ids=tuple(ds.ids[r] for r in pos),
            image_ids=tuple(ds.image_ids[r] for r in pos),
            pairs=ds.pairs[pos],
            features=ds.features[pos],
            labels=ds.labels[pos],
        )
        result = run(fast_config(), dataset=positives_only)
        assert result.report.mined_negatives == 0
        assert result.report.negatives == 0

    def test_stage_failure_names_stage(self):
        ids = [f"n{i}" for i in range(3)]
        ds = Dataset.counted(
            ids, ["im"] * 3, [(0, 1)] * 3, np.zeros((3, 4)), [NO_LABEL] * 3, ["p0"]
        )
        with pytest.raises(DatasetError, match="neg_nsd"):
            run(fast_config(), dataset=ds)

    def test_runtime_failure_in_a_stage_is_a_pipeline_error(self):
        ds, _ = noisy_dataset()
        diverging = MinerConfig(hidden_size=4, epochs=3, learning_rate=1e308, lam=10.0, seed=1)
        with pytest.raises(PipelineError, match="neg_nsd: non-finite"):
            run(fast_config(neg_nsd=diverging), dataset=ds)

    def test_rerun_is_identical(self):
        ds, _ = noisy_dataset()
        a = run(fast_config(), dataset=ds)
        b = run(fast_config(), dataset=ds)
        assert dataset_to_text(a.dataset) == dataset_to_text(b.dataset)
        assert a.report.to_text() == b.report.to_text()
        assert a.ledger == b.ledger


class TestBands:
    """``run`` draws a given dataset's bands from ``config.partition`` too."""

    def test_partition_of_the_config_bands_a_given_dataset(self):
        # 32, 30, 33 and 33 labeled records: every class is body in [20, 35]
        ds, _ = generate(SynthConfig(
            n_classes=4, n_pairs=2, feature_dim=6, samples_per_class=40, eta_neg=0.2, seed=1
        ))
        body_only = {Part.HEAD: None, Part.BODY: 0.0, Part.TAIL: None}
        config = fast_config(
            partition=PartitionConfig(head_min=35, tail_max=20),
            neg_nsd=MinerConfig(thresholds=body_only, seed=1, **FAST_MINER),
        )
        result = run(config, dataset=ds)
        assert ds.partition == (Part.TAIL,) * 4  # the loaders' default split
        assert result.report.negatives == 32
        assert result.report.mined_negatives == 32
        echoed = result.report.config_echo["partition"]
        assert echoed == {"head_min": 35, "tail_max": 20}
        assert result.dataset.partition == partition_predicates(ds.labels, len(ds.vocab), **echoed)
        assert result.dataset.partition == (Part.BODY,) * 4

    def test_cleaned_data_bands_alike_in_memory_and_from_its_file(self, tmp_path):
        # the first pass moves the labeled counts from 32, 30, 33 and 33 to
        # 40 each, across the tail_max of 35
        ds, _ = generate(SynthConfig(
            n_classes=4, n_pairs=2, feature_dim=6, samples_per_class=40, eta_neg=0.2, seed=1
        ))
        config = fast_config(
            partition=PartitionConfig(head_min=100, tail_max=35),
            neg_nsd=MinerConfig(thresholds=dict.fromkeys(Part, 0.0), seed=1, **FAST_MINER),
        )
        first = run(config, dataset=ds)
        assert first.dataset.partition == (Part.TAIL,) * 4
        write_outputs(first, str(tmp_path))
        in_memory = run(config, dataset=first.dataset)
        io = IOConfig(input=str(tmp_path / "cleaned.jsonl"), vocab=str(tmp_path / "vocab.json"))
        from_file = run(dataclasses.replace(config, io=io))
        assert in_memory.dataset.partition == from_file.dataset.partition == (Part.BODY,) * 4
        assert in_memory.report.counts() == from_file.report.counts()

    def test_crossed_bounds_rejected_for_a_given_dataset(self):
        ds, _ = noisy_dataset()
        config = fast_config(partition=PartitionConfig(head_min=5, tail_max=10))
        with pytest.raises(DatasetError, match=r"^tail_max \(10\) must not exceed head_min"):
            run(config, dataset=ds)


class TestWriteOutputs:
    def test_files_written(self, tmp_path):
        ds, _ = noisy_dataset()
        result = run(fast_config(), dataset=ds)
        out = tmp_path / "out"
        write_outputs(result, str(out))
        for name in (
            "cleaned.jsonl",
            "vocab.json",
            "report.json",
            "mined.jsonl",
            "density_report.jsonl",
            "correction_ledger.jsonl",
            "model.json",
            "timings.json",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"counts", "config", "artifacts"}
        # wall-clock values live only in the timings sidecar
        assert not any("time" in key for key in report["counts"])
        assert not any("time" in key for key in report["config"])

    def test_artifact_roundtrip(self, tmp_path):
        ds, _ = noisy_dataset()
        result = run(fast_config(), dataset=ds)
        out = tmp_path / "out"
        write_outputs(result, str(out))
        assert load_mined(str(out / "mined.jsonl")) == result.mined
        assert load_flagged(str(out / "density_report.jsonl")) == set(
            result.density.noisy_ids
        )
        assert load_ledger(str(out / "correction_ledger.jsonl")) == result.ledger


# (id, predicate, feature) in file order; the ids sort in another order
ORDER_ROWS = [
    ("p-b", "on", [0.0, 0.0]),
    ("p-a", "on", [0.25, 0.0]),
    ("z-neg", None, [0.0, 0.25]),
    ("p-c", "on", [0.0, 0.5]),
    ("p-d", "on", [0.5, 0.5]),
    ("b-neg", None, [0.25, 0.25]),
    ("q1", "near", [6.0, 6.0]),
    ("q2", "near", [6.25, 6.0]),
    ("q3", "near", [6.0, 6.25]),
    ("m-neg", None, [6.25, 6.25]),
    ("q4", "near", [6.5, 6.5]),
    ("q5", "on", [6.25, 6.5]),
]


def order_lines(relabel):
    return "".join(
        json.dumps(
            {
                "id": rid,
                "image_id": "im",
                "subject_class": 0,
                "object_class": 1,
                "predicate": relabel.get(rid, predicate),
                "feature": feature,
            }
        )
        + "\n"
        for rid, predicate, feature in ORDER_ROWS
    )


class TestRowOrder:
    def test_id_order_differs_from_file_order(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text(order_lines({}))
        promote_all = MinerConfig(
            thresholds={part: 0.0 for part in Part}, hidden_size=16, epochs=15, seed=1
        )
        config = PipelineConfig(io=IOConfig(input=str(data)), neg_nsd=promote_all)
        write_outputs(run(config), str(tmp_path))
        # the composed set: annotated positives in file order, then the
        # promoted negatives in id order
        density_ids = [
            json.loads(line)["id"]
            for line in (tmp_path / "density_report.jsonl").read_text().splitlines()
        ]
        assert density_ids == [
            "p-b", "p-a", "p-c", "p-d", "q5", "b-neg", "z-neg",
            "q1", "q2", "q3", "q4", "m-neg",
        ]
        # vote pools keep file order, so m-neg outranks q4 at equal distance
        ledger = load_ledger(str(tmp_path / "correction_ledger.jsonl"))
        assert [(e.id, e.new_label, e.neighbor_ids) for e in ledger] == [
            ("p-c", 0, ("z-neg", "b-neg", "p-b")),
            ("p-d", 0, ("b-neg", "p-a", "z-neg")),
            ("q5", 1, ("m-neg", "q4", "q3")),
        ]
        relabel = {"z-neg": "on", "b-neg": "on", "m-neg": "near", "q5": "near"}
        assert (tmp_path / "cleaned.jsonl").read_text() == order_lines(relabel)


# one well-formed line of each artifact a reader takes
VALID_LINES = {
    load_dataset: {
        "id": "first",
        "image_id": "i",
        "subject_class": 0,
        "object_class": 1,
        "predicate": "on",
        "feature": [0.5],
    },
    load_mined: {"id": "first", "predicate": "on", "confidence": 0.9},
    load_flagged: {"id": "first", "class": 0, "rho": 1, "d_c": 0.5, "subset": 0, "flagged": True},
    load_ledger: {
        "id": "first",
        "old_label": 0,
        "new_label": 1,
        "changed": True,
        "neighbor_ids": ["b"],
        "weights": [0.5],
    },
    load_truth: {"id": "first", "true_predicate": None, "tag": "missing"},
}
BAD_LINES = {
    "not_json": lambda row: "{not json",
    "not_an_object": lambda row: "[1, 2]",
    "missing_keys": lambda row: '{"id": "a"}',
    "wrong_type": lambda row: json.dumps({**row, "id": ["a"]}),
}


class TestArtifactReaders:
    @pytest.mark.parametrize("reader", list(VALID_LINES), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", list(BAD_LINES))
    def test_bad_line_names_path_and_physical_line(self, tmp_path, reader, bad):
        row = VALID_LINES[reader]
        path = tmp_path / "artifact.jsonl"
        path.write_text(json.dumps(row) + "\n\n" + BAD_LINES[bad](row) + "\n")
        with pytest.raises(DatasetError, match=re.escape(f"{path}: line 3: ")):
            reader(str(path))

    @pytest.mark.parametrize("reader", list(VALID_LINES), ids=lambda f: f.__name__)
    def test_duplicate_id_rejected(self, tmp_path, reader):
        row = VALID_LINES[reader]
        path = tmp_path / "artifact.jsonl"
        path.write_text(json.dumps(row) + "\n\n" + json.dumps(row) + "\n")
        with pytest.raises(
            DatasetError, match=re.escape(f"{path}: line 3: duplicate record id 'first'")
        ):
            reader(str(path))

    @pytest.mark.parametrize(
        "reader, key", [(load_dataset, "subject_class"), (load_ledger, "old_label")]
    )
    def test_boolean_is_not_an_integer(self, tmp_path, reader, key):
        path = tmp_path / "artifact.jsonl"
        path.write_text(json.dumps({**VALID_LINES[reader], key: True}) + "\n")
        with pytest.raises(DatasetError, match=f"line 1: {key} must be an integer, got True"):
            reader(str(path))

    @pytest.mark.parametrize("reader", list(VALID_LINES), ids=lambda f: f.__name__)
    def test_valid_line_is_read(self, tmp_path, reader):
        path = tmp_path / "artifact.jsonl"
        path.write_text("\n" + json.dumps(VALID_LINES[reader]) + "\n")
        assert reader(str(path))

    @pytest.mark.parametrize("reader", list(VALID_LINES), ids=lambda f: f.__name__)
    def test_non_utf8_file_rejected(self, tmp_path, reader):
        path = tmp_path / "artifact.jsonl"
        path.write_bytes(b'{"id": "\xff"}\n')
        with pytest.raises(DatasetError, match="not UTF-8"):
            reader(str(path))


def cli_config(tmp_path, raw, *flags):
    """The config a ``run`` command builds from ``raw`` and its flags."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return _load_cli_config(build_parser().parse_args(["run", "--config", str(path), *flags]))


class TestConfigParsing:
    def test_defaults(self):
        config = config_from_dict({})
        assert config.stages.neg_nsd and config.stages.pos_nsd and config.stages.nsc
        assert config.neg_nsd.thresholds[list(config.neg_nsd.thresholds)[0]] is not None
        assert config.seed == 0

    def test_nested_overrides(self):
        raw = {
            "io": {"input": "d.jsonl", "out_dir": "results"},
            "seed": 7,
            "stages": {"neg_nsd": False},
            "neg_nsd": {"lambda": 0.5, "epochs": 3},
            "pos_nsd": {"alpha": {"head": 10.0, "body": 20.0, "tail": 30.0}},
            "nsc": {"k": 5, "kernel_c": 2.0},
        }
        config = config_from_dict(raw)
        assert config.io.input == "d.jsonl"
        assert config.io.out_dir == "results"
        assert not config.stages.neg_nsd
        assert config.neg_nsd.lam == 0.5 and config.neg_nsd.epochs == 3
        assert config.neg_nsd.seed == 7
        assert config.nsc.k == 5 and config.nsc.kernel_c == 2.0

    def test_disabled_threshold_sentinel(self, tmp_path, capsys):
        # null is the only way to disable a band; the "disabled" string is a bad number
        raw = {"neg_nsd": {"thresholds": {"head": None, "body": None, "tail": 0.6}}}
        thresholds = config_from_dict(raw).neg_nsd.thresholds
        assert thresholds == {Part.HEAD: None, Part.BODY: None, Part.TAIL: 0.6}
        path = tmp_path / "config.json"
        for bands, message in (
            (
                {"head": "disabled", "body": None, "tail": 0.6},
                "neg_nsd.thresholds.head must be a number, got 'disabled'",
            ),
            (
                {"head": None, "body": None, "tail": 0.6, "rare": 0.5},
                "neg_nsd.thresholds keys must be 'head' or 'body' or 'tail': "
                "['body', 'head', 'rare', 'tail']",
            ),
        ):
            path.write_text(json.dumps({"neg_nsd": {"thresholds": bands}}))
            assert main(["run", "--config", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_key_rejected(self):
        for raw in (
            {"negnsd": {}},
            {"nsc": {"K": 3}},
            {"pos_nsd": {"seed": 0}},
            {"neg_nsd": {"threshold_mode": "absolute"}},
            {"pos_nsd": {"exclude_self": False}},
            {"nsc": {"min_neighbors": 1}},
        ):
            with pytest.raises(DatasetError, match="unknown keys"):
                config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            {"nsc": {"k": "abc"}},
            {"nsc": {"k": 2.5}},
            {"io": "x"},
            {"io": {"out_dir": None}},
            {"neg_nsd": {"thresholds": [1, 2]}},
            {"neg_nsd": {"thresholds": {"head": 0.9, "body": 0.9}}},
            {"neg_nsd": {"epochs": True}},
            {"pos_nsd": {"alpha": {"head": "disabled", "body": 1.0, "tail": 1.0}}},
            {"synth": {"n_classes": "x"}},
            {"synth": {"synonym_pairs": [[0, 1, 2]]}},
            {"synth": {"coarse_of": {"a": 1}}},
            {"stages": {"nsc": "off"}},
            {"seed": "7"},
        ],
    )
    def test_wrong_value_type_rejected(self, raw):
        with pytest.raises(DatasetError):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw, where",
        [
            ({"nsc": {"kernel_c": float("nan")}}, "nsc.kernel_c"),
            ({"nsc": {"kernel_a": float("inf")}}, "nsc.kernel_a"),
            ({"neg_nsd": {"lambda": float("-inf")}}, "neg_nsd.lambda"),
            ({"neg_nsd": {"learning_rate": float("nan")}}, "neg_nsd.learning_rate"),
            (
                {"neg_nsd": {"thresholds": {"head": 0.9, "body": float("nan"), "tail": 0.9}}},
                "neg_nsd.thresholds.body",
            ),
        ],
    )
    def test_non_finite_number_rejected(self, raw, where):
        with pytest.raises(DatasetError, match=f"^{where} must be a finite number"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (
                {"neg_nsd": {"thresholds": {"head": 0.9, "body": 0.9}}},
                "neg_nsd: thresholds missing entry for part 'tail'",
            ),
            ({"pos_nsd": {"n_subsets": 1}}, "pos_nsd: n_subsets must be at least 2"),
            ({"nsc": {"k": 0}}, "nsc: k must be at least 1"),
            (
                {"synth": {"n_classes": 5, "feature_dim": 2}},
                "synth: feature_dim (2) must be at least n_classes (5)",
            ),
        ],
    )
    def test_section_check_names_its_section(self, raw, message):
        with pytest.raises(DatasetError) as err:
            config_from_dict(raw)
        assert str(err.value).startswith(message)

    def test_negative_global_seed_rejected(self):
        # no stage copies the global seed here, so no stage check sees it
        with pytest.raises(DatasetError, match="^seed must be non-negative, got -1$"):
            config_from_dict({"seed": -1, "neg_nsd": {"seed": 0}})

    def test_seed_override_wins(self, tmp_path):
        config = cli_config(tmp_path, {"seed": 3}, "--seed", "11")
        assert config.seed == 11
        assert config.neg_nsd.seed == 11

    def test_explicit_stage_seed_survives_override(self, tmp_path):
        config = cli_config(tmp_path, {"seed": 3, "neg_nsd": {"seed": 5}}, "--seed", "11")
        assert config.neg_nsd.seed == 5

    def test_file_roundtrip(self, tmp_path):
        raw = {
            "io": {"input": "x.jsonl", "out_dir": "o"},
            "seed": 2,
            "nsc": {"k": 1},
            "synth": {"n_classes": 3, "feature_dim": 4, "synonym_pairs": [[0, 1]]},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = load_config(str(path))
        assert config.nsc.k == 1
        assert config.synth.n_classes == 3
        assert config.synth.synonym_pairs == ((0, 1),)
        echoed = config_to_dict(config)
        reparsed = config_from_dict(echoed)
        assert reparsed == config

    def test_readme_lists_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == config_to_dict(PipelineConfig(synth=SynthConfig()))

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(DatasetError, match="malformed"):
            load_config(str(path))


class TestReportValidation:
    def test_identity_violation_raises(self):
        report = CleaningReport(
            total=10,
            positives=5,
            negatives=5,
            mined_negatives=2,
            kept_negatives=3,
            composed=6,  # should be 7
            flagged=1,
            unflagged=5,
            relabeled=1,
            kept_flagged=0,
            config_echo={},
            artifacts={},
        )
        with pytest.raises(PipelineError, match="identities"):
            report.validate()


class TestPackage:
    def test_readme_lists_the_package_exports(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        listing = readme.split("The package root exports", 1)[1].split("Everything else", 1)[0]
        exported = set(tripletclean.__all__) - {"__version__"}
        assert set(re.findall(r"`(\w+)`", listing)) == exported
        assert all(hasattr(tripletclean, name) for name in exported)
