"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every check recomputes its expected values from scratch (loop oracles,
finite differences, exhaustive search, hidden ground truth) rather than
trusting the library code under test.
"""

import dataclasses
import math
import time

import numpy as np

from tripletclean import (
    CorrectionConfig,
    DensityConfig,
    MinerConfig,
    PipelineConfig,
    Pool,
    SynthConfig,
    adjust_probs,
    correct,
    cutoff_distance,
    detect_noisy_negatives,
    detect_noisy_positives,
    distance_matrix,
    generate,
    knn_vote,
    local_density,
    loss_and_gradients,
    run,
    score,
    train,
    write_outputs,
)
from tripletclean.negatives import forward, initialize_model
from tripletclean.pipeline import IOConfig, StagesConfig
from tripletclean.synthetic import NoiseTag, class_centers

from test_negatives import dense_loss_and_gradients


def verdict(number: int, ok: bool, detail: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}  {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {number}: {detail}"


def auroc(positive_scores: np.ndarray, negative_scores: np.ndarray) -> float:
    """Rank-based area under the ROC curve, midranks for ties."""
    scores = np.concatenate([positive_scores, negative_scores])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    ordered = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and ordered[j] == ordered[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    n_pos = positive_scores.size
    n_neg = negative_scores.size
    return float((ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def planted_positive_config(seed: int = 1) -> SynthConfig:
    """Ten well-separated classes, 15 percent of labels swapped pairwise."""
    return SynthConfig(
        n_classes=10,
        n_pairs=10,
        feature_dim=16,
        samples_per_class=200,
        cluster_spread=1.0,
        class_separation=8.0,
        eta_syn=0.15,
        synonym_pairs=((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)),
        seed=seed,
    )


def standard_noisy_config(seed: int = 0) -> SynthConfig:
    """Mixed corpus: swapped labels, demoted positives, true negatives."""
    return SynthConfig(
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


def pipeline_config(**stage_flags) -> PipelineConfig:
    return PipelineConfig(io=IOConfig(out_dir="unused"), stages=StagesConfig(**stage_flags))


def end_to_end_accuracy(dataset, truth, **stage_flags) -> float:
    result = run(pipeline_config(**stage_flags), dataset=dataset)
    metrics = score(
        result.dataset, truth, result.mined, result.density.flagged_set(), result.ledger
    )
    return metrics.accuracy_after


def test_criterion_01_probability_blend():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 12))
        logits = rng.normal(size=k)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        y = np.zeros(k)
        y[rng.integers(k)] = 1.0
        c = float(rng.uniform())
        assert np.array_equal(adjust_probs(p, y, 1.0), p)
        assert np.array_equal(adjust_probs(p, y, 0.0), y)
        blended = adjust_probs(p, y, c)
        assert np.all(blended >= 0.0) and np.all(blended <= 1.0)
        worst = max(worst, abs(blended.sum() - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    verdict(1, ok, f"blend identities on 1000 draws, worst sum error {worst:.1e}", started)


def test_criterion_02_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    eps = 1e-6
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(3, 7))
        h = int(rng.integers(4, 9))
        k = int(rng.integers(3, 6))
        n = int(rng.integers(2, 7))
        weights = rng.uniform(0.2, 1.0, size=k)
        model = initialize_model(d, h, k, weights, float(rng.uniform(0.01, 1.0)), rng)
        X = rng.normal(size=(n, d))
        Y = np.eye(k)[rng.integers(0, k, size=n)]
        _, grads = loss_and_gradients(model, X, Y.argmax(1))

        def loss_at(candidate):
            return dense_loss_and_gradients(candidate, X, Y)[0]

        for name, grad in grads.items():
            analytic = np.atleast_1d(np.asarray(grad, dtype=np.float64))
            numeric = np.zeros_like(analytic)
            base = np.atleast_1d(np.asarray(getattr(model, name), dtype=np.float64))
            for idx in np.ndindex(base.shape):
                plus = base.copy()
                plus[idx] += eps
                minus = base.copy()
                minus[idx] -= eps
                shape_of = lambda arr: float(arr[0]) if name == "b3" else arr
                up = loss_at(dataclasses.replace(model, **{name: shape_of(plus)}))
                down = loss_at(dataclasses.replace(model, **{name: shape_of(minus)}))
                numeric[idx] = (up - down) / (2.0 * eps)
            denom = max(float(np.linalg.norm(numeric)), 1e-12)
            rel = float(np.linalg.norm(analytic - numeric)) / denom
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 30.0
    verdict(2, ok, f"finite differences on 10 random nets, worst rel err {worst:.1e}", started)


def test_criterion_03_density_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(100):
        n = int(rng.integers(2, 41))
        dim = int(rng.integers(1, 9))
        feats = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, dim))
        matrix = distance_matrix(feats)

        oracle_matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                oracle_matrix[i, j] = np.sum((feats[i] - feats[j]) ** 2)
        assert np.array_equal(matrix, oracle_matrix), f"trial {trial}: distances differ"

        alpha = 100.0 if trial % 10 == 0 else float(rng.uniform(0.1, 100.0))
        d_c = cutoff_distance(matrix, alpha)
        pool = np.sort(matrix.reshape(-1))
        rank = math.ceil(alpha * pool.size / 100.0)
        assert d_c == pool[rank - 1], f"trial {trial}: cutoff differs"

        rho = local_density(matrix, d_c)
        oracle_rho = np.array(
            [sum(1 for j in range(n) if matrix[i, j] < d_c) for i in range(n)]
        )
        assert np.array_equal(rho, oracle_rho), f"trial {trial}: densities differ"
    elapsed = time.perf_counter() - started
    verdict(3, elapsed < 10.0, "100 random classes match the loop oracles exactly", started)


def test_criterion_04_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(100):
        n = int(rng.integers(2, 30))
        feats = rng.normal(size=(n, int(rng.integers(1, 6))))
        matrix = distance_matrix(feats)

        cuts = np.sort(rng.uniform(0.0, float(matrix.max()) + 1.0, size=4))
        densities = [local_density(matrix, d_c) for d_c in cuts]
        for lo, hi in zip(densities, densities[1:]):
            assert np.all(lo <= hi), f"trial {trial}: density not monotone in cutoff"

        alphas = np.sort(rng.uniform(0.1, 100.0, size=4))
        cutoffs = [cutoff_distance(matrix, a) for a in alphas]
        for lo, hi in zip(cutoffs, cutoffs[1:]):
            assert lo <= hi, f"trial {trial}: cutoff not monotone in alpha"
    verdict(4, True, "density and cutoff monotone on 100 random matrices", started)


def test_criterion_05_flagging_quality():
    started = time.perf_counter()
    dataset, truth = generate(planted_positive_config(seed=1))
    report = detect_noisy_positives(dataset, dataset.positives(), DensityConfig())

    flagged = report.flagged_set()
    noisy = truth.tagged(NoiseTag.SYNONYM)
    clean = frozenset(truth.true_predicate) - noisy
    recall = len(flagged & noisy) / len(noisy)
    fpr = len(flagged & clean) / len(clean)
    elapsed = time.perf_counter() - started
    ok = recall >= 0.90 and fpr <= 0.15 and elapsed < 60.0
    verdict(5, ok, f"planted-label recall {recall:.3f}, false positive rate {fpr:.3f}", started)


def test_criterion_06_correction_quality_and_nn_oracle():
    started = time.perf_counter()
    dataset, truth = generate(planted_positive_config(seed=1))
    report = detect_noisy_positives(dataset, dataset.positives(), DensityConfig())
    cleaned, ledger = correct(report.noisy_rows, dataset, report.clean_rows, CorrectionConfig())

    names = cleaned.vocab.names
    changed = [entry for entry in ledger if entry.changed]
    hits = sum(
        1 for entry in changed if truth.true_predicate[entry.id] == names[entry.new_label]
    )
    accuracy = hits / len(changed) if changed else 0.0

    rng = np.random.default_rng(606)
    config = CorrectionConfig(k=1)
    for trial in range(1000):
        size = int(rng.integers(1, 21))
        dim = int(rng.integers(1, 5))
        rows = [(rng.normal(size=dim), int(rng.integers(0, 4))) for _ in range(size)]
        feats = np.array([feature for feature, _ in rows])
        labels = [label for _, label in rows]
        ids = [f"p{trial}-{i}" for i in range(size)]
        query = rng.normal(size=dim)
        nearest = int(np.argmin(np.sum((feats - query[None, :]) ** 2, axis=1)))
        vote = knn_vote(query, Pool.build(ids, labels, feats, config), config)
        assert vote.label == labels[nearest], f"trial {trial}: K=1 vote differs"
    elapsed = time.perf_counter() - started
    ok = accuracy >= 0.85 and elapsed < 60.0
    verdict(
        6,
        ok,
        f"correction accuracy {accuracy:.3f} on {len(changed)} changes, K=1 matches",
        started,
    )


def test_criterion_07_miner_quality():
    started = time.perf_counter()
    id_config = SynthConfig(
        n_classes=6,
        n_pairs=3,
        feature_dim=8,
        samples_per_class=150,
        cluster_spread=1.0,
        class_separation=8.0,
        seed=1,
    )
    dataset, _ = generate(id_config)
    miner = MinerConfig(seed=1)
    model = train(dataset, dataset.positives(), miner)

    rng = np.random.default_rng(707)
    centers = class_centers(id_config)
    picks = rng.integers(0, id_config.n_classes, size=300)
    in_distribution = centers[picks] + id_config.cluster_spread * rng.normal(
        size=(300, id_config.feature_dim)
    )
    directions = rng.normal(size=(300, id_config.feature_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    far_out = 30.0 * directions
    spacing = min(
        float(np.linalg.norm(far_out[:, None, :] - centers[None, :, :], axis=2).min()),
        float("inf"),
    )
    assert spacing >= 10.0 * id_config.cluster_spread

    _, c_in = forward(model, in_distribution)
    _, c_out = forward(model, far_out)
    separation = auroc(c_in, c_out)

    noisy, truth = generate(
        SynthConfig(
            n_classes=6,
            n_pairs=3,
            feature_dim=8,
            samples_per_class=100,
            cluster_spread=0.6,
            class_separation=7.0,
            eta_neg=0.25,
            seed=1,
        )
    )
    model2 = train(noisy, noisy.positives(), miner)
    promoted = detect_noisy_negatives(model2, noisy.negatives(), noisy, miner)
    names = noisy.vocab.names
    recovered = [
        (noisy.ids[row], label)
        for row, label in zip(promoted.rows, promoted.labels)
        if truth.tag[noisy.ids[row]] is NoiseTag.MISSING
    ]
    hits = sum(1 for rid, label in recovered if names[label] == truth.true_predicate[rid])
    pseudo_accuracy = hits / len(recovered) if recovered else 0.0
    elapsed = time.perf_counter() - started
    ok = separation >= 0.80 and pseudo_accuracy >= 0.80 and elapsed < 120.0
    verdict(
        7,
        ok,
        f"confidence AUROC {separation:.3f}, pseudo-label accuracy {pseudo_accuracy:.3f}",
        started,
    )


def test_criterion_08_count_identities():
    started = time.perf_counter()
    dataset, _ = generate(standard_noisy_config(seed=0))
    configurations = [
        {},
        {"neg_nsd": False},
        {"pos_nsd": False},
        {"nsc": False},
    ]
    for flags in configurations:
        counts = run(pipeline_config(**flags), dataset=dataset).report
        assert counts.composed == counts.positives + counts.mined_negatives, flags
        assert counts.flagged + counts.unflagged == counts.composed, flags
        assert counts.relabeled + counts.kept_flagged == counts.flagged, flags
        assert (
            counts.total == counts.unflagged + counts.flagged + counts.kept_negatives
        ), flags
    verdict(8, True, "count identities exact under 4 stage configurations", started)


def test_criterion_09_determinism(tmp_path):
    started = time.perf_counter()
    dataset, _ = generate(standard_noisy_config(seed=0))
    config = pipeline_config()
    out = tmp_path / "run"

    write_outputs(run(config, dataset=dataset), str(out))
    first = {
        name: (out / name).read_bytes() for name in ("cleaned.jsonl", "report.json")
    }
    write_outputs(run(config, dataset=dataset), str(out))
    same = all((out / name).read_bytes() == payload for name, payload in first.items())
    verdict(9, same, "repeat run writes byte-identical dataset and report", started)


def test_criterion_10_ablation_monotonicity():
    started = time.perf_counter()
    dataset, truth = generate(standard_noisy_config(seed=0))

    none = end_to_end_accuracy(
        dataset, truth, neg_nsd=False, pos_nsd=False, nsc=False
    )
    neg_only = end_to_end_accuracy(
        dataset, truth, neg_nsd=True, pos_nsd=False, nsc=False
    )
    pos_only = end_to_end_accuracy(
        dataset, truth, neg_nsd=False, pos_nsd=True, nsc=False
    )
    pos_nsc = end_to_end_accuracy(
        dataset, truth, neg_nsd=False, pos_nsd=True, nsc=True
    )
    everything = end_to_end_accuracy(dataset, truth)

    chain_a = none <= neg_only <= everything
    chain_b = none <= pos_only <= pos_nsc <= everything
    detail = (
        f"accuracy {none:.3f} -> neg {neg_only:.3f} / pos {pos_only:.3f}"
        f" -> pos+nsc {pos_nsc:.3f} -> all {everything:.3f}"
    )
    verdict(10, chain_a and chain_b, detail, started)
