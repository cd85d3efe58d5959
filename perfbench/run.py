"""Seeded end-to-end benchmark of the ``tripletclean run`` command.

    python3 perfbench/run.py --workload tail_mix --seed 1 --seconds 30 --trace 0

Run it from anywhere; it uses the ``src/`` next to this directory and
works in ``.perfbench_work/`` at the repository root.

Set-up, timed as ``setup_s``: generate the workload's synthetic dataset
from the seed and write ``data.jsonl``, ``vocab.json``, ``truth.jsonl`` and
``config.json`` (repeated, median taken), plus the cleaning process's
start-up and warm-up.  The cleaning runs in its own process
(``worker.py``), one at a time, so its peak RSS excludes the set-up.

Output: readable lines, the environment, the span tree with ``--trace 1``,
then one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  The
metrics are the ``end_to_end`` list of BENCHMARK.json with ``--trace 0``
and its ``per_layer`` list with ``--trace 1``; units come from that file.

Exit status: 0 when every run passed its output checks, 1 when any run
failed, 2 when the benchmark could not run at all (for example, when there
is no ``src/tripletclean`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is short next to a cleaning, so repeat it for a steadier median.
SETUP_REPEATS = 3
# Everything must end within 180 s; leave room for set-up and scoring.
WORKER_TIMEOUT_S = 150


def _median(values):
    return statistics.median(values) if values else None


def _fmt(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def score_outputs(run_dir: str) -> dict[str, float]:
    """Quality of the last run's outputs against the generator's truth.

    ``accuracy_after`` and the per-stage ratios come from
    ``synthetic.score``.  ``label_accuracy_all`` is computed here from the
    files alone: over every record, a record whose truth is background
    counts as correct only if it is still unlabeled.
    """
    from tripletclean.core import load_dataset
    from tripletclean.pipeline import load_flagged, load_ledger, load_mined
    from tripletclean.synthetic import load_truth, score

    out = lambda name: os.path.join(run_dir, "out", name)
    truth = load_truth(os.path.join(run_dir, "truth.jsonl"))
    metrics = score(
        load_dataset(out("cleaned.jsonl"), vocab_path=out("vocab.json")),
        truth,
        load_mined(out("mined.jsonl")),
        load_flagged(out("density_report.jsonl")),
        load_ledger(out("correction_ledger.jsonl")),
    ).to_dict()
    del metrics["tag_counts"]

    right = total = 0
    with open(out("cleaned.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            right += row["predicate"] == truth.true_predicate[row["id"]]
            total += 1
    metrics["label_accuracy_all"] = right / total
    return metrics


def computed_distance_bytes(run_dir: str) -> int:
    """Sum over classes of N^2 * d * 8, from the density report's class sizes."""
    sizes: dict[int, int] = {}
    with open(os.path.join(run_dir, "out", "density_report.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            cls = json.loads(line)["class"]
            sizes[cls] = sizes.get(cls, 0) + 1
    with open(os.path.join(run_dir, "data.jsonl"), encoding="utf-8") as fh:
        dim = len(json.loads(fh.readline())["feature"])
    return sum(n * n * dim * 8 for n in sizes.values())


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="Seeded benchmark of tripletclean run")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tripletclean", "__init__.py")):
        print(f"error: no tripletclean sources under {SRC}", file=sys.stderr)
        return 2

    from env import pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, write_inputs

    workload = WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    work = os.path.join(ROOT, ".perfbench_work", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    run_dir = os.path.join(work, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        setup_s, generate_s = [], []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            generate_s.append(write_inputs(run_dir, workload, args.seed))
            setup_s.append(time.perf_counter() - started)
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--dir", run_dir, "--seconds", str(args.seconds)]
        if args.trace:
            cmd.append("--trace")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: cleaning process ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 2
        if proc.returncode != 0:
            print(f"error: cleaning process exited with {proc.returncode}", file=sys.stderr)
            return 2
        with open(os.path.join(run_dir, "worker.json"), encoding="utf-8") as fh:
            worker = json.load(fh)
        runs = worker["runs"]
        failed = [r for r in runs if "error" in r]
        quality = score_outputs(run_dir) if len(failed) < len(runs) else {}
        distance_bytes = computed_distance_bytes(run_dir) if quality else 0
        tree = None
        if args.trace and os.path.exists(os.path.join(run_dir, "spans.json")):
            with open(os.path.join(run_dir, "spans.json"), encoding="utf-8") as fh:
                tree = json.load(fh)["tree"]
            shutil.copy(os.path.join(run_dir, "spans.json"), os.path.join(work, "spans.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r["seconds"] for r in runs if "seconds" in r and not r["traced"]]
    traced = [r for r in runs if "seconds" in r and r["traced"]]
    values = {
        "clean_s": _median(plain),
        "peak_rss_mb": worker["peak_rss_mb"],
        "setup_s": statistics.median(setup_s) + worker["warmup_s"],
        "ok_frac": 1 - len(failed) / len(runs),
        "synthetic.generate.s": statistics.median(generate_s),
        **quality,
    }
    if traced and plain:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
        }
        values.update(layers)
        values["trace.overhead_s"] = _median([r["seconds"] for r in traced]) - values["clean_s"]

    print(f"workload {workload.name}: {why}")
    print(f"seed {args.seed}, {len(runs)} cleaning runs ({len(traced)} traced), {len(failed)} failed")
    for r in failed:
        print(f"  failed run: {r['error']}")
    print(f"failed_frac {len(failed) / len(runs):.4f}")
    digests = sorted({r["digest"] for r in runs if "digest" in r})
    print(f"output digest (sha256 of cleaned + ledger + report): {' '.join(digests)}")
    print(f"env {json.dumps(worker['env'], sort_keys=True)}")
    print(
        f"peak_rss_mb {worker['peak_rss_mb']:.1f} (cleaning process); "
        f"set-up process peak {setup_rss_mb:.1f} MB, not counted; "
        f"density.distance_matrix.bytes {distance_bytes} (computed, N^2*d*8 summed over classes)"
    )
    print(f"clean_s samples: {_fmt(plain)}")
    print(f"cleaning CPU s (user + sys): {_fmt(r['cpu_s'] for r in runs if 'cpu_s' in r and not r['traced'])}")
    if traced:
        print(f"traced clean_s samples: {_fmt(r['seconds'] for r in traced)}")
    print(f"setup_s: generate+write {_fmt(setup_s)}, warm-up {worker['warmup_s']:.4f}")
    for key in sorted(quality):
        print(f"{key} {quality[key]:.4f}")
    if tree is not None:
        print("span tree of the last traced run (calls, total s, self s):")
        for row in tree:
            print(f"  {'  ' * row['depth']}{row['path'].rsplit(' > ', 1)[-1]}"
                  f"  {row['calls']}  {row['s']:.4f}  {row['self_s']:.4f}")
        top = max(tree, key=lambda row: row["self_s"])
        print(f"largest self time: {top['path']} {top['self_s']:.4f} s")

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    if not failed:
        for m in section:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']} {value} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(runs), "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
