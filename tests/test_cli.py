"""End-to-end tests of the command-line interface."""

import json
import os

import pytest

from tripletclean.cli import main


@pytest.fixture
def workspace(tmp_path):
    """A config file wired to a small synthetic dataset in tmp_path."""
    config = {
        "io": {
            "input": str(tmp_path / "synth" / "data.jsonl"),
            "vocab": str(tmp_path / "synth" / "vocab.json"),
            "out_dir": str(tmp_path / "out"),
        },
        "seed": 1,
        "neg_nsd": {"hidden_size": 16, "epochs": 15, "learning_rate": 0.5},
        "synth": {
            "n_classes": 4,
            "n_pairs": 2,
            "feature_dim": 6,
            "samples_per_class": 50,
            "cluster_spread": 0.5,
            "class_separation": 6.0,
            "eta_syn": 0.2,
            "eta_neg": 0.2,
            "synonym_pairs": [[0, 1], [2, 3]],
            "n_background": 20,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return tmp_path, str(path)


def run_cli(*argv):
    return main(list(argv))


class TestSynth:
    def test_generates_dataset_and_truth(self, workspace):
        tmp_path, config = workspace
        code = run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        assert code == 0
        assert (tmp_path / "synth" / "data.jsonl").exists()
        assert (tmp_path / "synth" / "truth.jsonl").exists()
        assert (tmp_path / "synth" / "vocab.json").exists()

    def test_same_seed_is_byte_identical(self, workspace):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--seed", "7", "--out", str(tmp_path / "a"))
        run_cli("synth", "--config", config, "--seed", "7", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "data.jsonl").read_bytes() == (
            tmp_path / "b" / "data.jsonl"
        ).read_bytes()
        assert (tmp_path / "a" / "truth.jsonl").read_bytes() == (
            tmp_path / "b" / "truth.jsonl"
        ).read_bytes()

    def test_missing_synth_section_fails(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{}")
        assert run_cli("synth", "--config", str(config), "--out", str(tmp_path)) == 1


class TestRunAndEval:
    def test_full_cycle(self, workspace, capsys):
        tmp_path, config = workspace
        assert run_cli("synth", "--config", config, "--out", str(tmp_path / "synth")) == 0
        assert run_cli("run", "--config", config) == 0
        out = tmp_path / "out"
        assert (out / "cleaned.jsonl").exists()
        assert (out / "report.json").exists()
        code = run_cli(
            "eval",
            "--config",
            config,
            "--run-dir",
            str(out),
            "--truth",
            str(tmp_path / "synth" / "truth.jsonl"),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "accuracy_after" in captured.out
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy_after"] >= metrics["accuracy_before"]

    def test_run_reports_counts(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        assert run_cli("run", "--config", config) == 0
        captured = capsys.readouterr()
        assert "mined_negatives:" in captured.out
        assert "flagged:" in captured.out

    def test_run_twice_byte_identical(self, workspace):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        assert run_cli("run", "--config", config) == 0
        out = tmp_path / "out"
        first = {
            name: (out / name).read_bytes()
            for name in ("cleaned.jsonl", "report.json", "correction_ledger.jsonl")
        }
        assert run_cli("run", "--config", config) == 0
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload, name

    def test_stage_toggles(self, workspace):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        code = run_cli(
            "run",
            "--config",
            config,
            "--stage-toggle",
            "neg_nsd=off",
            "--stage-toggle",
            "nsc=off",
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["counts"]["mined_negatives"] == 0
        assert report["counts"]["relabeled"] == 0
        assert report["config"]["stages"]["neg_nsd"] is False

    def test_bad_toggle_is_validation_error(self, workspace):
        tmp_path, config = workspace
        assert run_cli("run", "--config", config, "--stage-toggle", "bogus=off") == 1

    def test_eval_id_mismatch_fails(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        run_cli("run", "--config", config)
        truth_path = tmp_path / "synth" / "truth.jsonl"
        lines = truth_path.read_text().strip().split("\n")
        truth_path.write_text("\n".join(lines[:-1]) + "\n")
        code = run_cli(
            "eval",
            "--config",
            config,
            "--run-dir",
            str(tmp_path / "out"),
            "--truth",
            str(truth_path),
        )
        assert code == 1
        assert "ids" in capsys.readouterr().err


def same_bytes(dir_a, dir_b, names):
    for name in names:
        payload = (dir_a / name).read_bytes()
        assert payload, name
        assert payload == (dir_b / name).read_bytes(), name


class TestStageCommands:
    def test_train_detect_flow(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        assert run_cli("run", "--config", config) == 0
        stage_dir = tmp_path / "stages"
        assert run_cli("train-negnsd", "--config", config, "--out", str(stage_dir)) == 0
        model_path = stage_dir / "model.json"
        assert model_path.exists()
        code = run_cli(
            "detect-neg",
            "--config",
            config,
            "--model",
            str(model_path),
            "--out",
            str(stage_dir),
        )
        assert code == 0
        assert "promoted" in capsys.readouterr().out
        # the stage commands reproduce what run writes
        same_bytes(stage_dir, tmp_path / "out", ("model.json", "mined.jsonl"))

    def test_train_seed_without_config(self, workspace):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        data = str(tmp_path / "synth" / "data.jsonl")
        for seed in ("1", "2"):
            out = str(tmp_path / f"seed{seed}")
            assert run_cli("train-negnsd", "--data", data, "--seed", seed, "--out", out) == 0
        assert (tmp_path / "seed1" / "model.json").read_bytes() != (
            tmp_path / "seed2" / "model.json"
        ).read_bytes()

    def test_detect_pos_then_correct(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        assert run_cli("run", "--config", config, "--stage-toggle", "neg_nsd=off") == 0
        stage_dir = tmp_path / "stages"
        assert run_cli("detect-pos", "--config", config, "--out", str(stage_dir)) == 0
        report_path = stage_dir / "density_report.jsonl"
        assert report_path.exists()
        code = run_cli(
            "correct",
            "--config",
            config,
            "--density-report",
            str(report_path),
            "--out",
            str(stage_dir),
        )
        assert code == 0
        # without mining, run's stages see the same records as the stage commands
        names = ("density_report.jsonl", "cleaned.jsonl", "correction_ledger.jsonl")
        same_bytes(stage_dir, tmp_path / "out", names)

    def test_export_embed(self, workspace):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        code = run_cli(
            "export-embed",
            "--config",
            config,
            "--data",
            str(tmp_path / "synth" / "data.jsonl"),
            "--out",
            str(tmp_path / "emb"),
        )
        assert code == 0
        rows = [
            json.loads(line)
            for line in (tmp_path / "emb" / "embed.jsonl").read_text().strip().split("\n")
        ]
        assert set(rows[0]) == {"id", "label", "feature"}


class TestArgumentHandling:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli("run", "--bogus") == 1

    def test_missing_required_flag_exits_1(self):
        assert run_cli("detect-neg") == 1

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 1

    def test_wrong_config_type_exits_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"nsc": {"k": "abc"}}))
        assert run_cli("run", "--config", str(config)) == 1
        assert "error: nsc.k" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["not json {", '{"format": "confidence-model", "version": 1}']
    )
    def test_bad_model_file_exits_1(self, workspace, capsys, text):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        model = tmp_path / "bad.json"
        model.write_text(text)
        argv = ("detect-neg", "--config", config, "--model", str(model), "--out", str(tmp_path))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err

    def test_bad_density_report_exits_1(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        report = tmp_path / "bad.jsonl"
        report.write_text("{not json\n")
        argv = ("correct", "--config", config, "--density-report", str(report))
        assert run_cli(*argv, "--out", str(tmp_path / "fixed")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{report}: line 1" in err

    @pytest.mark.parametrize("artifact", ["mined.jsonl", "correction_ledger.jsonl", "truth"])
    def test_corrupt_eval_input_exits_1(self, workspace, capsys, artifact):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        assert run_cli("run", "--config", config) == 0
        truth = tmp_path / "synth" / "truth.jsonl"
        corrupt = truth if artifact == "truth" else tmp_path / "out" / artifact
        corrupt.write_text('{"id": "a"}\n' + corrupt.read_text())
        capsys.readouterr()
        argv = ("eval", "--config", config, "--run-dir", str(tmp_path / "out"))
        assert run_cli(*argv, "--truth", str(truth)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{corrupt}: line 1: missing fields" in err

    def test_missing_input_data_exits_1(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"io": {"out_dir": str(tmp_path)}}))
        assert run_cli("run", "--config", str(config)) == 1
