"""The benchmark's three seeded workloads and why each was chosen.

Each workload is a synthetic dataset (``synthetic.SynthConfig``) plus the
pipeline config keys that differ from the defaults.  The three stages scale
with different input properties: ``neg_nsd`` with the number of positives
times epochs, ``pos_nsd`` with the square of a class's size, and ``nsc``
with flagged records times the size of their subject-object pool (squared,
when the kernel scale is the pool median).  Each workload makes a different
stage dominate, so an optimisation aimed at one layer has a workload that
exercises it and one that bypasses it.

tail_mix
    The ROADMAP re-anchor baseline at ``samples_per_class=200`` with the
    default ``PipelineConfig``.  It is the only workload that leaves
    ``nsc.kernel_c`` unset, so it is the only one that runs the O(m^2 * d)
    pool median once per flagged record (``correction.knn_vote`` has the
    largest self time).  Its 200 background negatives sit far from every
    class, yet the tail threshold promotes many of them, so the false
    promotions that ``accuracy_after`` hides show in ``label_accuracy_all``.
    The ROADMAP re-anchor row for this config (10.1 s for the three stages,
    ``nsc`` 7.6 s) was one run with two BLAS threads.  At seed 0 with one
    BLAS thread on a 2-vCPU KVM guest (Xeon, 2.1 GHz), a traced run gave
    ``correction.correct`` 7.6 s and ``negatives.train`` 1.5 s, and
    ``clean_s`` was 9.1-9.7 s including load and write: ``nsc`` reproduces,
    and the stages total about 10 % less, which is ``neg_nsd`` running
    faster on one thread.

big_class
    Four classes of 1,500 records at d=16 and no negatives.  ``pos_nsd``
    builds an N x N x d temporary per class (twice, counting ``diff*diff``),
    so this workload sets the highest peak RSS and loads the
    ``density.distance_matrix`` layer.  Pools of ~1,800 with a fixed kernel
    make the Python vote loop the main cost of ``nsc``.  ``neg_nsd`` never
    runs and the pool median is bypassed, so an optimisation of training
    or of the kernel scale should change nothing here.

wide_mine
    32 classes at d=64 with 30 % of labels demoted and 1,000 background
    negatives (10,600 records, ~3,900 negatives).  Training on ~6,700
    positives dominates, and the JSONL parse and write are at their
    largest share of the run, so this loads ``negatives`` and the ``core``
    I/O layer.  ``kernel_c`` is fixed because the pool median would
    otherwise take about a minute; with 32 pairs the pools stay small and
    ``nsc`` stays light.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from tripletclean.core import atomic_write_text, dataset_to_text, save_vocab
from tripletclean.synthetic import SynthConfig, generate, save_truth


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    pipeline: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tail_mix",
            synth=dict(
                n_classes=20,
                feature_dim=32,
                imbalance=0.3,
                eta_syn=0.1,
                eta_neg=0.1,
                synonym_pairs=((0, 1), (2, 3)),
                samples_per_class=200,
                n_background=200,
            ),
            pipeline={},
        ),
        Workload(
            name="big_class",
            synth=dict(
                n_classes=4,
                n_pairs=4,
                feature_dim=16,
                samples_per_class=1500,
                eta_syn=0.1,
                synonym_pairs=((0, 1), (2, 3)),
            ),
            pipeline={"nsc": {"kernel_c": 32.0}},
        ),
        Workload(
            name="wide_mine",
            synth=dict(
                n_classes=32,
                n_pairs=32,
                feature_dim=64,
                samples_per_class=300,
                eta_neg=0.3,
                n_background=1000,
            ),
            pipeline={"nsc": {"kernel_c": 128.0}},
        ),
    )
}

# A few seconds' worth of every code path, all three stages and the pool
# median included; the cleaning process runs it once before timing.
WARMUP = Workload(
    name="warmup",
    synth=dict(
        n_classes=3,
        n_pairs=2,
        feature_dim=8,
        samples_per_class=30,
        eta_syn=0.1,
        eta_neg=0.2,
        synonym_pairs=((0, 1),),
        n_background=6,
    ),
    pipeline={},
)


def write_inputs(directory: str, workload: Workload, seed: int) -> float:
    """Generate the dataset from the seed and write the run's input files.

    Writes ``data.jsonl``, ``vocab.json``, ``truth.jsonl`` and a
    ``config.json`` whose paths are relative to ``directory``, so that the
    outputs, and their digest, do not depend on where the checkout lives.
    Returns the seconds spent in ``synthetic.generate``.
    """
    started = time.perf_counter()
    dataset, truth = generate(SynthConfig(seed=seed, **workload.synth))
    generate_s = time.perf_counter() - started
    join = lambda name: os.path.join(directory, name)
    atomic_write_text(join("data.jsonl"), dataset_to_text(dataset))
    save_vocab(dataset.vocab.names, join("vocab.json"))
    save_truth(truth, dataset, join("truth.jsonl"))
    config = {
        "io": {"input": "data.jsonl", "vocab": "vocab.json", "out_dir": "out"},
        "seed": seed,
        **workload.pipeline,
    }
    atomic_write_text(join("config.json"), json.dumps(config, indent=2) + "\n")
    return generate_s
