"""Tests of the benchmark's span wrapper and output checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from spans import Span, Target, Tracer, self_times, summarize, tree_rows  # noqa: E402
from worker import CheckError, check_outputs, layer_values, trace_targets  # noqa: E402
from workloads import WARMUP, write_inputs  # noqa: E402

from tripletclean import cli  # noqa: E402


@pytest.fixture
def tiny_run_dir(tmp_path, monkeypatch):
    write_inputs(str(tmp_path), WARMUP, seed=3)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _input_ids():
    with open("data.jsonl", encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh]


def test_installed_wrapper_restores_the_original_functions(tiny_run_dir):
    targets = trace_targets()
    originals = [getattr(t.module, t.attr) for t in targets]
    tracer = Tracer()
    with tracer.installed(targets):
        assert all(getattr(t.module, t.attr) is not o for t, o in zip(targets, originals))
        assert cli.main(["run", "--config", "config.json"]) == 0
    assert all(getattr(t.module, t.attr) is o for t, o in zip(targets, originals))
    names = {s.name for s in tracer.spans}
    assert {t.name for t in targets} <= names

    with pytest.raises(RuntimeError):
        with Tracer().installed(targets):
            raise RuntimeError("stage failed")
    assert all(getattr(t.module, t.attr) is o for t, o in zip(targets, originals))


def test_spans_link_to_their_callers(tiny_run_dir):
    targets = trace_targets()
    tracer = Tracer()
    with tracer.installed(targets):
        assert cli.main(["run", "--config", "config.json"]) == 0
    spans = tracer.spans
    parent_name = lambda s: None if s.parent is None else spans[s.parent].name
    expected = {
        "pipeline.run": None,
        "pipeline.write_outputs": None,
        "core.load_dataset": "pipeline.run",
        "negatives.train": "pipeline.run",
        "negatives.loss_and_gradients": "negatives.train",
        "density.distance_matrix": "density.detect_noisy_positives",
        "correction.knn_vote": "correction.correct",
        "core.dataset_to_text": "pipeline.write_outputs",
    }
    for s in spans:
        if s.name in expected:
            assert parent_name(s) == expected[s.name], s.name
        assert s.parent is None or s.parent < spans.index(s)
        assert s.start <= s.end
    assert {parent_name(s) for s in spans if s.name == "negatives.forward"} == {
        "negatives.train",
        "negatives.detect_noisy_negatives",
    }
    values = layer_values(tracer, targets)
    assert values["negatives.forward.in_train.s"] + values[
        "negatives.forward.in_detect_noisy_negatives.s"
    ] == pytest.approx(values["negatives.forward.s"])
    assert values["correction.knn_vote.calls"] == values["density.flagged"]

    digest = check_outputs("out", _input_ids())
    assert len(digest) == 64


def test_self_time_is_duration_minus_children():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 3.0),
        Span("a.inner", 1, 1.5, 2.0),
        Span("b", 0, 4.0, 8.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 4.0])
    table = summarize(spans)
    assert table["root"] == {"calls": 1, "s": 10.0, "self_s": pytest.approx(4.0)}
    rows = {r["path"]: r for r in tree_rows(spans)}
    assert rows["root > a > a.inner"]["depth"] == 2
    assert rows["root > b"]["self_s"] == pytest.approx(4.0)


def test_wrapper_counts_and_nesting_on_a_fake_module():
    mod = types.SimpleNamespace()
    mod.inner = lambda xs: len(xs)
    mod.outer = lambda xs: mod.inner(xs) + mod.inner(xs[:1])
    tracer = Tracer()
    targets = [
        Target(mod, "outer", "outer"),
        Target(mod, "inner", "inner", {"inner.rows": lambda a, r: len(a[0])}),
    ]
    with tracer.installed(targets):
        assert mod.outer([1, 2, 3]) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    assert tracer.counts["inner.rows"] == 4
    own = self_times(tracer.spans)
    children = tracer.spans[1].duration + tracer.spans[2].duration
    assert own[0] == pytest.approx(tracer.spans[0].duration - children)


def test_output_checks_reject_a_reordered_dataset(tiny_run_dir):
    assert cli.main(["run", "--config", "config.json"]) == 0
    ids = _input_ids()
    check_outputs("out", ids)
    with pytest.raises(CheckError, match="input order"):
        check_outputs("out", ids[::-1])
    with open(os.path.join("out", "correction_ledger.jsonl"), encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(os.path.join("out", "correction_ledger.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(lines[1:])
    with pytest.raises(CheckError, match="ledger ids"):
        check_outputs("out", ids)
