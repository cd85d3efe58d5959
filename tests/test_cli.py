"""End-to-end tests of the command-line interface."""

import json
import logging
import os
import warnings

import pytest

from tripletclean import cli
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


def model_text(classes=4, **params):
    """A zero-weight confidence model file for the workspace's 6 features,
    with 2 hidden units; ``params`` replace parameter lists, class weights
    included."""
    lists = {
        "W1": [[0.0] * 2] * 6,
        "b1": [0.0] * 2,
        "W2": [[0.0] * classes] * 2,
        "b2": [0.0] * classes,
        "w3": [0.0] * 2,
        "b3": 0.0,
        "class_weights": [1.0] * classes,
        **params,
    }
    class_weights = lists.pop("class_weights")
    return json.dumps({
        "format": "confidence-model", "version": 1,
        "dims": {"input": 6, "hidden": 2, "classes": classes},
        "lambda": 0.1, "class_weights": class_weights, "params": lists,
    })


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

    def test_eval_flagged_id_outside_the_dataset_fails(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        assert run_cli("run", "--config", config) == 0
        report = tmp_path / "out" / "density_report.jsonl"
        ghost = {"id": "ghost", "class": 0, "rho": 1, "d_c": 0.5, "subset": 0, "flagged": True}
        report.write_text(report.read_text() + json.dumps(ghost) + "\n")
        capsys.readouterr()
        argv = ("eval", "--config", config, "--run-dir", str(tmp_path / "out"))
        assert run_cli(*argv, "--truth", str(tmp_path / "synth" / "truth.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: flagged ids not in the dataset (1): ['ghost']")


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

    def test_correct_rejects_unknown_flagged_id(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        report = tmp_path / "ghost.jsonl"
        row = {"id": "ghost", "class": 0, "rho": 1, "d_c": 0.5, "subset": 0, "flagged": True}
        report.write_text(json.dumps(row) + "\n")
        argv = ("correct", "--config", config, "--density-report", str(report))
        assert run_cli(*argv, "--out", str(tmp_path / "fixed")) == 1
        assert "unknown record ids: ['ghost']" in capsys.readouterr().err


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

    def test_section_check_exits_1_naming_the_section(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"nsc": {"k": 0}}))
        assert run_cli("run", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: nsc: k must be at least 1\n"

    def test_non_finite_config_value_exits_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"nsc": {"kernel_c": float("nan")}}))
        assert run_cli("run", "--config", str(config)) == 1
        assert capsys.readouterr().err == "error: nsc.kernel_c must be a finite number, got nan\n"

    @pytest.mark.parametrize(
        "text",
        [
            "not json {",
            '{"format": "confidence-model", "version": 1}',
            pytest.param(model_text(b1=[0.0] * 3), id="b1-length"),
            pytest.param(model_text(b2=[0.0] * 3), id="b2-length"),
            pytest.param(model_text(w3=[0.0] * 5), id="w3-length"),
            pytest.param(model_text(class_weights=[1.0] * 10), id="class-weights-length"),
            pytest.param(model_text(W1=[[float("nan")] * 2] * 6), id="W1-nan"),
            pytest.param(model_text(b3=float("inf")), id="b3-inf"),
            pytest.param(
                model_text(class_weights=[1.0, float("nan"), 1.0, 1.0]), id="class-weights-nan"
            ),
            pytest.param(model_text().replace('"lambda": 0.1', '"lambda": NaN'), id="lambda-nan"),
        ],
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

    def test_model_of_another_class_count_exits_1(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        model = tmp_path / "model.json"
        argv = ("detect-neg", "--config", config, "--model", str(model), "--out", str(tmp_path))
        model.write_text(model_text())
        assert run_cli(*argv) == 0
        model.write_text(model_text(classes=10))
        capsys.readouterr()
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == "error: model predicts 10 classes, but the vocabulary has 4\n"

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

    @pytest.mark.parametrize(
        "key, index", [("new_label", 99), ("new_label", -1), ("old_label", 4)]
    )
    def test_ledger_label_outside_the_vocabulary_exits_1(self, workspace, capsys, key, index):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        assert run_cli("run", "--config", config) == 0
        ledger = tmp_path / "out" / "correction_ledger.jsonl"
        first, *rest = ledger.read_text().splitlines(keepends=True)
        entry = json.loads(first)
        entry[key] = index
        ledger.write_text(json.dumps(entry) + "\n" + "".join(rest))
        capsys.readouterr()
        argv = ("eval", "--config", config, "--run-dir", str(tmp_path / "out"))
        assert run_cli(*argv, "--truth", str(tmp_path / "synth" / "truth.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ledger entry {entry['id']!r}: label index outside")

    def test_missing_input_data_exits_1(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"io": {"out_dir": str(tmp_path)}}))
        assert run_cli("run", "--config", str(config)) == 1

    def test_all_negative_input_exits_1(self, tmp_path, capsys):
        data = tmp_path / "negatives.jsonl"
        rows = [
            {"id": f"n{i}", "image_id": "im", "subject_class": 0, "object_class": 1,
             "predicate": None, "feature": [float(i), 1.0]}
            for i in range(3)
        ]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"io": {"input": str(data), "out_dir": str(tmp_path)}}))
        assert run_cli("run", "--config", str(config)) == 1
        assert "error: neg_nsd: cannot train on empty positives" in capsys.readouterr().err
        assert run_cli("train-negnsd", "--data", str(data), "--out", str(tmp_path)) == 1
        assert "error: cannot train on empty positives" in capsys.readouterr().err

    def test_features_whose_distances_overflow_exit_1(self, tmp_path, capsys):
        data = tmp_path / "huge.jsonl"
        rows = [
            {"id": f"r{i}", "image_id": "im", "subject_class": 0, "object_class": 1,
             "predicate": f"p{i % 2}", "feature": [(-1.0) ** i * 1e200, 1e200]}
            for i in range(12)
        ]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "io": {"input": str(data), "out_dir": str(out)}, "stages": {"neg_nsd": False},
        }))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("run", "--config", str(config)) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: line 1: feature magnitude exceeds")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_kernel_weights_that_overflow_exit_1(self, tmp_path, capsys):
        # squared distances near 1e201 are finite, but the kernel squares them again
        data = tmp_path / "far.jsonl"
        rows = [
            {"id": f"r{i}", "image_id": "im", "subject_class": 0, "object_class": 1,
             "predicate": f"p{i % 2}",
             "feature": [(-1.0) ** (i // 2) * 1e100, (-1.0) ** (i // 3) * 1e100]}
            for i in range(12)
        ]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "io": {"input": str(data), "out_dir": str(out)}, "stages": {"neg_nsd": False},
            "pos_nsd": {"min_class_size": 1},
        }))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("run", "--config", str(config)) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: nsc: record 'r1': kernel weights are not finite")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_diverging_training_is_one_runtime_error_line(self, workspace, capsys):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        path = tmp_path / "config.json"
        settings = json.loads(path.read_text())
        settings["neg_nsd"].update({"learning_rate": 1e308, "lambda": 10.0})
        path.write_text(json.dumps(settings))
        capsys.readouterr()
        assert run_cli("run", "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: neg_nsd: non-finite values at epoch 1;")
        assert err.count("\n") == 1 and "Warning" not in err


class TestNegativeSeed:
    """np.random.default_rng takes only non-negative seeds, so -1 is invalid
    input for every command that seeds a stage."""

    @pytest.mark.parametrize("command", ["run", "synth", "train-negnsd"])
    def test_negative_seed_exits_1(self, workspace, capsys, command):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        capsys.readouterr()
        argv = (command, "--config", config, "--seed", "-1", "--out", str(tmp_path / "neg"))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "neg").exists()

    def test_negative_global_seed_in_the_file_exits_1(self, workspace, capsys):
        # every seeded stage has its own seed, so only the global check sees -1
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        raw = json.loads((tmp_path / "config.json").read_text())
        raw.update(seed=-1, neg_nsd={**raw["neg_nsd"], "seed": 0})
        del raw["synth"]
        (tmp_path / "config.json").write_text(json.dumps(raw))
        capsys.readouterr()
        assert run_cli("run", "--config", config) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "out").exists()


# subcommand -> (callee it looks up in tripletclean.cli, the flags it needs)
FAULT_CASES = [
    ("run", "run", ()),
    ("run", "write_outputs", ()),
    ("train-negnsd", "train", ()),
    ("detect-neg", "detect_noisy_negatives", ("--model", "{model}")),
    ("detect-pos", "detect_noisy_positives", ()),
    ("correct", "correct", ("--density-report", "{report}")),
    ("synth", "generate", ()),
    ("eval", "score", ("--run-dir", "{out}", "--truth", "{synth}/truth.jsonl")),
]


class TestOneFaultPath:
    """Every subcommand maps a fault the same way: exit 2, one stderr line."""

    @pytest.mark.parametrize(
        "error, line",
        [
            # an empty message is replaced by the exception's type name
            (RuntimeError("boom"), "runtime error: boom\n"),
            (MemoryError(), "runtime error: MemoryError\n"),
        ],
        ids=["RuntimeError", "MemoryError"],
    )
    @pytest.mark.parametrize(
        "command, callee, flags", FAULT_CASES, ids=[f"{c}-{f}" for c, f, _ in FAULT_CASES]
    )
    def test_fault_is_one_runtime_error_line(
        self, workspace, capsys, monkeypatch, command, callee, flags, error, line
    ):
        tmp_path, config = workspace
        assert run_cli("synth", "--config", config, "--out", str(tmp_path / "synth")) == 0
        if command == "eval":
            assert run_cli("run", "--config", config) == 0
        paths = {"model": tmp_path / "model.json", "report": tmp_path / "report.jsonl"}
        paths["model"].write_text(model_text())
        paths["report"].write_text(json.dumps({"id": "r000000", "flagged": True}) + "\n")
        paths.update(out=tmp_path / "out", synth=tmp_path / "synth")
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, callee, fail)
        argv = [flag.format(**paths) for flag in flags]
        assert run_cli(command, "--config", config, *argv, "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err == line

    def test_traceback_is_logged_at_debug(self, workspace, capsys, monkeypatch, caplog):
        tmp_path, config = workspace
        monkeypatch.setattr(cli, "generate", lambda synth: 1 / 0)
        with caplog.at_level(logging.DEBUG, logger="tripletclean.cli"):
            assert run_cli("synth", "--config", config) == 2
        assert capsys.readouterr().err == "runtime error: division by zero\n"
        (record,) = caplog.records
        assert record.exc_info[0] is ZeroDivisionError

    def test_keyboard_interrupt_propagates(self, workspace, monkeypatch):
        tmp_path, config = workspace

        def interrupt(synth):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "generate", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cli("synth", "--config", config)


STAGE_COMMANDS = ["train-negnsd", "detect-neg", "detect-pos", "correct"]


@pytest.mark.parametrize("command", ["run", *STAGE_COMMANDS, "synth", "eval"])
def test_help_exits_0_and_only_stage_commands_take_data(capsys, command):
    assert run_cli(command, "--help") == 0
    assert ("--data" in capsys.readouterr().out) == (command in STAGE_COMMANDS)


class TestFlagsEditTheConfig:
    def test_unknown_stage_fails_like_an_unknown_key(self, workspace, capsys):
        tmp_path, config = workspace
        assert run_cli("run", "--config", config, "--stage-toggle", "bogus=off") == 1
        assert "error: unknown keys in stages: ['bogus']" in capsys.readouterr().err

    @pytest.mark.parametrize("toggle", ["nsc", "nsc=maybe", "nsc=false"])
    def test_malformed_toggle_exits_1(self, workspace, capsys, toggle):
        tmp_path, config = workspace
        assert run_cli("run", "--config", config, "--stage-toggle", toggle) == 1
        assert "bad stage toggle" in capsys.readouterr().err

    def test_flag_into_a_section_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"io": "x"}))
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path)) == 1
        assert "error: io must be an object" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("[1, 2]")
        assert run_cli("run", "--config", str(config), "--seed", "3") == 1
        assert "config must be an object, got [1, 2]" in capsys.readouterr().err

    def test_flags_are_echoed_in_the_report(self, workspace):
        tmp_path, config = workspace
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        out = tmp_path / "flagged"
        argv = ("run", "--config", config, "--seed", "4", "--out", str(out))
        assert run_cli(*argv, "--stage-toggle", "nsc=off", "--stage-toggle", "nsc=on") == 0
        echo = json.loads((out / "report.json").read_text())["config"]
        assert echo["seed"] == 4 and echo["neg_nsd"]["seed"] == 4
        assert echo["io"]["out_dir"] == str(out)
        assert echo["stages"] == {"neg_nsd": True, "pos_nsd": True, "nsc": True}


class TestBandsFromTheConfigFile:
    def test_stage_commands_and_run_use_the_body_threshold(self, workspace, capsys):
        tmp_path, config = workspace
        raw = json.loads((tmp_path / "config.json").read_text())
        # every class holds 38 to 44 labeled records, so all are body; in the
        # default split all are tail, where nothing would be promoted
        raw["partition"] = {"head_min": 60, "tail_max": 20}
        raw["neg_nsd"]["thresholds"] = {"head": None, "body": 0.0, "tail": None}
        (tmp_path / "config.json").write_text(json.dumps(raw))
        run_cli("synth", "--config", config, "--out", str(tmp_path / "synth"))
        stage_dir = str(tmp_path / "stages")
        assert run_cli("train-negnsd", "--config", config, "--out", stage_dir) == 0
        model = os.path.join(stage_dir, "model.json")
        capsys.readouterr()
        argv = ("detect-neg", "--config", config, "--model", model, "--out", stage_dir)
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == "promoted 52 of 52 negatives\n"
        assert run_cli("run", "--config", config) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["counts"]["mined_negatives"] == report["counts"]["negatives"] == 52
        assert report["config"]["partition"] == raw["partition"]


def record(i, predicate, feature, pair=(0, 1)):
    return {"id": f"r{i}", "image_id": "im", "subject_class": pair[0],
            "object_class": pair[1], "predicate": predicate, "feature": feature}


# small inputs at the edges of what a dataset may hold
DEGENERATE = {
    "identical_features_in_two_classes": [
        record(i, f"p{i % 2}" if i < 8 else None, [1.0, 2.0]) for i in range(10)
    ],
    "single_record": [record(0, "p0", [1.0, 2.0])],
    "all_zero_features": [
        record(i, f"p{i % 2}" if i < 8 else None, [0.0] * 3) for i in range(10)
    ],
    "extreme_class_ids": [
        record(i, f"p{i % 2}" if i < 8 else None, [float(i), 1.0], (-(2**63), 2**63 - 1))
        for i in range(10)
    ],
    "one_class_plus_negatives": [
        record(i, "p0" if i < 6 else None, [float(i % 3), 1.0]) for i in range(10)
    ],
}


@pytest.mark.parametrize("mining", ["on", "off"])
@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_input_runs_and_keeps_the_count_identities(tmp_path, name, mining):
    rows = DEGENERATE[name]
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "io": {"input": str(data), "out_dir": str(out)},
        "neg_nsd": {"hidden_size": 4, "epochs": 3, "batch_size": 4},
        "pos_nsd": {"min_class_size": 2},
    }))
    assert run_cli("run", "--config", str(config), "--stage-toggle", f"neg_nsd={mining}") == 0
    c = json.loads((out / "report.json").read_text())["counts"]
    assert c["total"] == len(rows)
    assert c["composed"] == c["positives"] + c["mined_negatives"]
    assert c["flagged"] + c["unflagged"] == c["composed"]
    assert c["relabeled"] + c["kept_flagged"] == c["flagged"]
    assert c["total"] == c["unflagged"] + c["flagged"] + c["kept_negatives"]
