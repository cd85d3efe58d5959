"""Tests for the orchestrated pipeline: toggles, identities, persistence."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from tripletclean.core import (
    Dataset,
    DatasetError,
    LabelState,
    PredicateVocab,
    TripletRecord,
    dataset_to_text,
    partition_predicates,
)
from tripletclean.density import DensityConfig
from tripletclean.negatives import MinerConfig
from tripletclean.pipeline import (
    CleaningReport,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    config_to_dict,
    load_config,
    load_flagged,
    load_ledger,
    load_mined,
    export_embeddings,
    run,
    write_outputs,
)
from tripletclean.synthetic import SynthConfig, generate

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
    defaults = dict(miner=MinerConfig(seed=1, **FAST_MINER))
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

    def test_final_states_partition_records(self):
        ds, _ = noisy_dataset()
        result = run(fast_config(), dataset=ds)
        states = {}
        for rec in result.dataset.records:
            states[rec.label_state] = states.get(rec.label_state, 0) + 1
        allowed = {
            LabelState.ANNOTATED,
            LabelState.NEGATIVE,
            LabelState.PSEUDO,
            LabelState.CORRECTED,
            LabelState.CLEAN_KEPT,
        }
        assert set(states) <= allowed
        assert states[LabelState.PSEUDO] >= 1
        assert states[LabelState.CORRECTED] >= 1

    def test_disabled_miner_keeps_negatives(self):
        ds, _ = noisy_dataset()
        result = run(fast_config(enable_neg=False), dataset=ds)
        assert result.report.mined_negatives == 0
        assert result.report.kept_negatives == result.report.negatives
        assert result.model is None

    def test_disabled_density_flags_nothing(self):
        ds, _ = noisy_dataset()
        result = run(fast_config(enable_pos=False), dataset=ds)
        assert result.report.flagged == 0
        assert result.ledger == ()

    def test_disabled_corrector_marks_flagged_clean_kept(self):
        ds, _ = noisy_dataset()
        with_nsc = run(fast_config(), dataset=ds)
        without = run(fast_config(enable_nsc=False), dataset=ds)
        assert without.report.flagged == with_nsc.report.flagged
        assert without.report.relabeled == 0
        by_id_before = ds.by_id()
        for rid in without.density.noisy_ids:
            rec = without.dataset.by_id()[rid]
            assert rec.label_state is LabelState.CLEAN_KEPT
            if by_id_before[rid].label is not None:
                assert rec.label == by_id_before[rid].label

    def test_all_stages_off_reserializes_input(self):
        ds, _ = noisy_dataset()
        result = run(
            fast_config(enable_neg=False, enable_pos=False, enable_nsc=False),
            dataset=ds,
        )
        assert dataset_to_text(result.dataset) == dataset_to_text(ds)

    def test_no_negatives_is_fine(self):
        ds, _ = noisy_dataset()
        positives_only = Dataset(
            ds.positives(), ds.vocab, ds.partition, ds.feature_dim
        )
        result = run(fast_config(), dataset=positives_only)
        assert result.report.mined_negatives == 0
        assert result.report.negatives == 0

    def test_stage_failure_names_stage(self):
        vocab = PredicateVocab(("p0",), (0,))
        negatives = tuple(
            TripletRecord(
                id=f"n{i}",
                image_id="im",
                subject_class=0,
                object_class=1,
                feature=np.zeros(4),
                label=None,
                label_state=LabelState.NEGATIVE,
            )
            for i in range(3)
        )
        ds = Dataset(negatives, vocab, partition_predicates(vocab), 4)
        with pytest.raises(PipelineError, match="neg_nsd"):
            run(fast_config(), dataset=ds)

    def test_rerun_is_identical(self):
        ds, _ = noisy_dataset()
        a = run(fast_config(), dataset=ds)
        b = run(fast_config(), dataset=ds)
        assert dataset_to_text(a.dataset) == dataset_to_text(b.dataset)
        assert a.report.to_text() == b.report.to_text()
        assert a.ledger == b.ledger


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

    def test_export_embeddings_schema(self):
        ds, _ = noisy_dataset()
        text = export_embeddings(ds)
        rows = [json.loads(line) for line in text.strip().split("\n")]
        assert len(rows) == len(ds)
        assert set(rows[0]) == {"id", "label", "feature"}
        negatives = [r for r in rows if r["label"] is None]
        assert len(negatives) == len(ds.negatives())


class TestConfigParsing:
    def test_defaults(self):
        config = config_from_dict({})
        assert config.enable_neg and config.enable_pos and config.enable_nsc
        assert config.miner.thresholds[list(config.miner.thresholds)[0]] is not None
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
        assert config.input_path == "d.jsonl"
        assert config.out_dir == "results"
        assert not config.enable_neg
        assert config.miner.lam == 0.5 and config.miner.epochs == 3
        assert config.miner.seed == 7
        assert config.corrector.k == 5 and config.corrector.kernel_c == 2.0

    def test_disabled_threshold_sentinel(self):
        raw = {
            "neg_nsd": {
                "thresholds": {"head": "disabled", "body": None, "tail": 0.6}
            }
        }
        config = config_from_dict(raw)
        thresholds = list(config.miner.thresholds.values())
        assert thresholds[0] is None and thresholds[1] is None
        assert thresholds[2] == 0.6

    def test_unknown_key_rejected(self):
        with pytest.raises(DatasetError, match="unknown keys"):
            config_from_dict({"negnsd": {}})
        with pytest.raises(DatasetError, match="unknown keys"):
            config_from_dict({"nsc": {"K": 3}})
        with pytest.raises(DatasetError, match="unknown keys"):
            config_from_dict({"pos_nsd": {"seed": 0}})

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

    def test_seed_override_wins(self):
        config = config_from_dict({"seed": 3}, seed_override=11)
        assert config.seed == 11
        assert config.miner.seed == 11

    def test_explicit_stage_seed_survives_override(self):
        config = config_from_dict({"seed": 3, "neg_nsd": {"seed": 5}}, seed_override=11)
        assert config.miner.seed == 5

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
        assert config.corrector.k == 1
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
