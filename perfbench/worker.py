"""Closed-loop cleaning process of one benchmark run.

``run.py`` writes the inputs and then starts this script, so that this
process's peak RSS covers the cleaning alone and not the data generation.
One process runs one cleaning at a time:

    python3 perfbench/worker.py --dir RUN_DIR --seconds S [--trace]

``RUN_DIR`` holds ``config.json`` and the inputs it names.  The worker
first runs a tiny warm-up cleaning, then times
``tripletclean.cli.main(["run", "--config", "config.json"])`` back to back
for about ``S`` seconds, checks every run's outputs, and writes
``worker.json`` (and ``spans.json`` with ``--trace``) into ``RUN_DIR``.
With ``--trace`` every second run is traced, so the untraced runs in between
give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run's median needs a few samples even when one cleaning is long.
MIN_RUNS = 3
MIN_RUNS_TRACED = 4


class CheckError(Exception):
    """A run's outputs break an invariant the benchmark checks."""


def _read_jsonl(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines() if line.strip()]


def check_outputs(out_dir: str, input_ids: list[str]) -> str:
    """Check one run's output files; return the digest of its outputs.

    The digest is the SHA-256 of cleaned.jsonl, the correction ledger and
    report.json, in that order.  Raises CheckError naming every failed
    check.
    """

    def read(name: str) -> bytes:
        with open(os.path.join(out_dir, name), "rb") as fh:
            return fh.read()

    report, cleaned, ledger = (
        read("report.json"),
        read("cleaned.jsonl"),
        read("correction_ledger.jsonl"),
    )
    c = json.loads(report)["counts"]
    entries = _read_jsonl(ledger)
    flagged = [row["id"] for row in _read_jsonl(read("density_report.jsonl")) if row["flagged"]]
    ledger_ids = [e["id"] for e in entries]
    checks = {
        "composed == positives + mined_negatives": c["composed"] == c["positives"] + c["mined_negatives"],
        "flagged + unflagged == composed": c["flagged"] + c["unflagged"] == c["composed"],
        "relabeled + kept_flagged == flagged": c["relabeled"] + c["kept_flagged"] == c["flagged"],
        "total == unflagged + flagged + kept_negatives": c["total"]
        == c["unflagged"] + c["flagged"] + c["kept_negatives"],
        "cleaned ids are the input ids in input order": [row["id"] for row in _read_jsonl(cleaned)]
        == input_ids,
        "ledger ids are the flagged ids, sorted, once each": ledger_ids == sorted(set(flagged))
        and len(flagged) == len(set(flagged)),
        "report flagged == flagged rows": c["flagged"] == len(flagged),
        "report relabeled == changed ledger entries": c["relabeled"] == sum(e["changed"] for e in entries),
        "report mined_negatives == mined rows": c["mined_negatives"] == len(_read_jsonl(read("mined.jsonl"))),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise CheckError("; ".join(failed))
    return hashlib.sha256(cleaned + ledger + report).hexdigest()


def _broadcast_bytes(features) -> int:
    """Bytes of the N x N x d float64 temporary distance_matrix broadcasts."""
    n, d = features.shape
    return n * n * d * 8


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def trace_targets():
    """Public functions to time, at the attributes their callers look up."""
    from spans import Target
    from tripletclean import cli, correction, density, negatives, pipeline

    return [
        Target(cli, "run", "pipeline.run"),
        Target(
            pipeline, "load_dataset", "core.load_dataset",
            {"core.load_dataset.bytes": lambda a, r: os.path.getsize(a[0])},
        ),
        Target(pipeline, "train", "negatives.train"),
        Target(negatives, "loss_and_gradients", "negatives.loss_and_gradients"),
        Target(negatives, "forward", "negatives.forward"),
        Target(
            pipeline, "detect_noisy_negatives", "negatives.detect_noisy_negatives",
            {
                "negatives.scored": lambda a, r: len(a[1]),
                "negatives.promoted": lambda a, r: len(r[0]),
            },
        ),
        Target(
            pipeline, "detect_noisy_positives", "density.detect_noisy_positives",
            {"density.flagged": lambda a, r: len(r.noisy_ids)},
        ),
        Target(
            density, "distance_matrix", "density.distance_matrix",
            {"density.distance_matrix.bytes": lambda a, r: _broadcast_bytes(a[0])},
        ),
        Target(density, "cutoff_distance", "density.cutoff_distance"),
        Target(density, "local_density", "density.local_density"),
        Target(density, "split_subsets", "density.split_subsets"),
        Target(
            pipeline, "correct", "correction.correct",
            {"correction.relabeled": lambda a, r: sum(e.changed for e in r[1])},
        ),
        Target(
            correction, "knn_vote", "correction.knn_vote",
            {"correction.pool_rows": lambda a, r: len(a[1])},
        ),
        Target(
            cli, "write_outputs", "pipeline.write_outputs",
            {"pipeline.write_outputs.bytes": lambda a, r: _dir_bytes(a[1])},
        ),
        Target(pipeline, "dataset_to_text", "core.dataset_to_text"),
    ]


def layer_values(tracer, targets) -> dict[str, float]:
    """Per-layer numbers of one traced run, zero for layers never called."""
    from spans import summarize

    table = summarize(tracer.spans)
    values: dict[str, float] = {}
    for t in targets:
        row = table.get(t.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            values[f"{t.name}.{key}"] = value
        for key in t.counts:
            values[key] = tracer.counts[key]
    # the full-set loss pass inside train vs. scoring the negatives
    for parent in ("negatives.train", "negatives.detect_noisy_negatives"):
        values[f"negatives.forward.in_{parent.split('.')[1]}.s"] = sum(
            s.duration
            for s in tracer.spans
            if s.name == "negatives.forward"
            and s.parent is not None
            and tracer.spans[s.parent].name == parent
        )
    return values


def clean_once(targets=None):
    """Time one ``run`` command; returns (wall s, CPU s, exit code, tracer)."""
    from spans import Tracer
    from tripletclean import cli

    argv = ["run", "--config", "config.json"]
    if targets is None:
        started, cpu = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        return time.perf_counter() - started, time.process_time() - cpu, code, None
    tracer = Tracer()
    with tracer.installed(targets):
        started, cpu = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        seconds, cpu = time.perf_counter() - started, time.process_time() - cpu
    return seconds, cpu, code, tracer


def warm_up(directory: str) -> None:
    from tripletclean import cli
    from workloads import WARMUP, write_inputs

    os.makedirs(directory, exist_ok=True)
    write_inputs(directory, WARMUP, seed=0)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        if cli.main(["run", "--config", "config.json"]) != 0:
            raise CheckError("warm-up cleaning failed")
    finally:
        os.chdir(cwd)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from env import describe, pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    warm_up(os.path.join(args.dir, "warmup"))
    warmup_s = time.perf_counter() - started

    os.chdir(args.dir)
    with open("data.jsonl", "rb") as fh:
        input_ids = [row["id"] for row in _read_jsonl(fh.read())]
    targets = trace_targets() if args.trace else None
    min_runs = MIN_RUNS_TRACED if args.trace else MIN_RUNS

    runs: list[dict] = []
    last_spans = None
    loop_start = time.perf_counter()
    while True:
        traced = args.trace and len(runs) % 2 == 1
        run: dict = {"traced": traced}
        try:
            seconds, cpu_s, code, tracer = clean_once(targets if traced else None)
            if code != 0:
                raise CheckError(f"run command exited with {code}")
            run["digest"] = check_outputs("out", input_ids)
            run["seconds"] = seconds
            run["cpu_s"] = cpu_s
            if tracer is not None:
                run["layers"] = layer_values(tracer, targets)
                last_spans = tracer.spans
        except Exception as exc:  # one failed run is counted, not fatal
            traceback.print_exc()
            run["error"] = f"{type(exc).__name__}: {exc}"
        runs.append(run)
        elapsed = time.perf_counter() - loop_start
        durations = [r["seconds"] for r in runs if "seconds" in r] or [elapsed / len(runs)]
        if len(runs) >= min_runs and elapsed + statistics.median(durations) > args.seconds:
            break

    digests = [r["digest"] for r in runs if "digest" in r]
    for r in runs:
        if "digest" in r and r["digest"] != digests[0]:
            r["error"] = f"output digest {r['digest']} differs from the first run's {digests[0]}"

    if last_spans is not None:
        from spans import self_times, tree_rows

        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "tree": tree_rows(last_spans),
                    "spans": [
                        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "self_s": own}
                        for s, own in zip(last_spans, self_times(last_spans))
                    ],
                },
                fh,
                indent=1,
            )
    with open("worker.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "env": describe(),
                "warmup_s": warmup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "runs": runs,
            },
            fh,
            indent=1,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
