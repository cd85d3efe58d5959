"""Tests for the negative-mining stage: loss math, training, detection."""

import numpy as np
import pytest

from tripletclean.core import (
    DatasetError,
    LabelState,
    Part,
    PredicateVocab,
    TripletRecord,
    partition_predicates,
)
from tripletclean.negatives import (
    DISABLED,
    ConfidenceModel,
    MinerConfig,
    adjust_probs,
    detect_noisy_negatives,
    forward,
    initialize_model,
    load_model,
    loss_and_gradients,
    loss_value,
    one_hot,
    save_model,
    train,
)


def make_positive(rid, label, feature):
    return TripletRecord(
        id=rid,
        image_id="img",
        subject_class=0,
        object_class=1,
        feature=np.asarray(feature, dtype=np.float64),
        label=label,
        label_state=LabelState.ANNOTATED,
    )


def make_negative(rid, feature, pair=(0, 1)):
    return TripletRecord(
        id=rid,
        image_id="img",
        subject_class=pair[0],
        object_class=pair[1],
        feature=np.asarray(feature, dtype=np.float64),
        label=None,
        label_state=LabelState.NEGATIVE,
    )


def constant_model(n_classes, logits, conf_logit, input_dim=2):
    """Model ignoring its input: tanh(0)=0 hidden, heads driven by biases."""
    return ConfidenceModel(
        W1=np.zeros((input_dim, 1)),
        b1=np.zeros(1),
        W2=np.zeros((1, n_classes)),
        b2=np.asarray(logits, dtype=np.float64),
        w3=np.zeros(1),
        b3=float(conf_logit),
        class_weights=np.ones(n_classes),
        lam=0.1,
    )


def all_tail_partition(n_classes):
    vocab = PredicateVocab(tuple(f"p{i}" for i in range(n_classes)), (0,) * n_classes)
    return partition_predicates(vocab)


def separable_positives(n_per_class, rng, spread=0.3):
    records = []
    centers = [np.array([0.0, 0.0]), np.array([5.0, 5.0])]
    for label, center in enumerate(centers):
        for i in range(n_per_class):
            records.append(
                make_positive(
                    f"c{label}_{i}", label, center + rng.normal(0, spread, size=2)
                )
            )
    return records


class TestAdjustProbs:
    def test_full_confidence_returns_p(self):
        np.testing.assert_array_equal(
            adjust_probs([0.7, 0.3], [0.0, 1.0], 1.0), [0.7, 0.3]
        )

    def test_zero_confidence_returns_target(self):
        np.testing.assert_array_equal(adjust_probs([0.7, 0.3], [0.0, 1.0], 0.0), [0.0, 1.0])

    def test_halfway_blend(self):
        np.testing.assert_allclose(
            adjust_probs([0.7, 0.3], [0.0, 1.0], 0.5), [0.35, 0.65]
        )

    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(k))
            y = np.zeros(k)
            y[rng.integers(k)] = 1.0
            out = adjust_probs(p, y, float(rng.uniform()))
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            adjust_probs([0.5, 0.5], [1.0, 0.0, 0.0], 0.5)

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(DatasetError):
            adjust_probs([0.5, 0.5], [1.0, 0.0], 1.5)


class TestLoss:
    def test_reference_value(self):
        loss = loss_value(
            P=np.array([[0.7, 0.3]]),
            Y=np.array([[0.0, 1.0]]),
            C=np.array([0.5]),
            class_weights=np.ones(2),
            lam=0.1,
        )
        expected = -np.log(0.65) - 0.1 * np.log(0.5)
        np.testing.assert_allclose(loss, expected, rtol=1e-12)
        np.testing.assert_allclose(loss, 0.5001, atol=5e-5)

    def test_perfect_prediction_at_full_confidence(self):
        P = np.array([[0.0, 1.0]])
        loss = loss_value(P, P.copy(), np.array([1.0]), np.ones(2), lam=0.1)
        assert loss == 0.0

    def test_zero_confidence_no_penalty_is_free(self):
        loss = loss_value(
            P=np.array([[0.9, 0.1]]),
            Y=np.array([[0.0, 1.0]]),
            C=np.array([0.0]),
            class_weights=np.ones(2),
            lam=0.0,
        )
        assert loss == 0.0

    def test_class_weights_scale_the_ce_term(self):
        P = np.array([[0.7, 0.3]])
        Y = np.array([[0.0, 1.0]])
        C = np.array([1.0])
        base = loss_value(P, Y, C, np.array([1.0, 1.0]), lam=0.0)
        double = loss_value(P, Y, C, np.array([1.0, 2.0]), lam=0.0)
        np.testing.assert_allclose(double, 2 * base)


class TestGradients:
    def finite_difference(self, model, X, Y, step=1e-5):
        import dataclasses

        grads = {}
        for name in ("W1", "b1", "W2", "b2", "w3", "b3"):
            value = getattr(model, name)
            if np.isscalar(value):
                hi = dataclasses.replace(model, **{name: value + step})
                lo = dataclasses.replace(model, **{name: value - step})
                lh, _ = loss_and_gradients(hi, X, Y)
                ll, _ = loss_and_gradients(lo, X, Y)
                grads[name] = (lh - ll) / (2 * step)
                continue
            out = np.zeros_like(value)
            flat = value.ravel()
            for idx in range(flat.size):
                bump = value.copy().ravel()
                bump[idx] = flat[idx] + step
                hi = dataclasses.replace(model, **{name: bump.reshape(value.shape)})
                bump2 = value.copy().ravel()
                bump2[idx] = flat[idx] - step
                lo = dataclasses.replace(model, **{name: bump2.reshape(value.shape)})
                lh, _ = loss_and_gradients(hi, X, Y)
                ll, _ = loss_and_gradients(lo, X, Y)
                out.ravel()[idx] = (lh - ll) / (2 * step)
            grads[name] = out
        return grads

    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            model = initialize_model(4, 6, 3, rng.uniform(0.5, 2.0, size=3), 0.1, rng)
            X = rng.normal(size=(5, 4))
            Y = one_hot(rng.integers(0, 3, size=5), 3)
            _, analytic = loss_and_gradients(model, X, Y)
            numeric = self.finite_difference(model, X, Y)
            for name in analytic:
                ga = np.atleast_1d(np.asarray(analytic[name]))
                gf = np.atleast_1d(np.asarray(numeric[name]))
                denom = max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-10)
                assert np.linalg.norm(ga - gf) / denom < 1e-4, name


class TestTrain:
    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(6)
        records = separable_positives(100, rng)
        config = MinerConfig(hidden_size=16, epochs=8, learning_rate=0.3, seed=1)
        model = train(records, 2, config)
        assert model.loss_history[-1] < model.loss_history[0]
        assert model.loss_history[-1] <= model.loss_history[1]

    def test_single_sample_step_moves_parameters(self):
        records = [make_positive("only", 0, [1.0, -1.0])]
        config = MinerConfig(hidden_size=4, epochs=1, learning_rate=0.1, seed=2)
        model = train(records, 2, config)
        rng = np.random.default_rng(2)
        init = initialize_model(2, 4, 2, model.class_weights, 0.1, rng)
        assert not np.array_equal(model.W2, init.W2)

    def test_large_penalty_forces_high_confidence(self):
        rng = np.random.default_rng(7)
        records = separable_positives(40, rng, spread=1.5)
        X = np.stack([r.feature for r in records])
        common = dict(hidden_size=8, epochs=12, learning_rate=0.3, seed=3)
        bold = train(records, 2, MinerConfig(lam=100.0, **common))
        timid = train(records, 2, MinerConfig(lam=0.01, **common))
        _, c_bold = forward(bold, X)
        _, c_timid = forward(timid, X)
        assert c_bold.mean() > c_timid.mean()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        records = separable_positives(30, rng)
        config = MinerConfig(hidden_size=8, epochs=3, seed=9)
        a = train(records, 2, config)
        b = train(records, 2, config)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)
        np.testing.assert_array_equal(a.w3, b.w3)

    def test_empty_positives_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            train([], 2, MinerConfig())

    def test_class_weights_are_reciprocal_counts(self):
        records = [make_positive(f"a{i}", 0, [0.0, 0.0]) for i in range(4)]
        records += [make_positive("b0", 1, [1.0, 1.0])]
        model = train(records, 3, MinerConfig(hidden_size=2, epochs=1))
        np.testing.assert_allclose(model.class_weights, [0.25, 1.0, 1.0])


class TestForwardInvariants:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(10)
        model = initialize_model(6, 12, 5, np.ones(5), 0.1, rng)
        P, C = forward(model, rng.normal(size=(40, 6)))
        np.testing.assert_allclose(P.sum(axis=1), np.ones(40), atol=1e-9)
        assert np.all(P >= 0)
        assert np.all((C > 0) & (C < 1))


class TestDetect:
    def test_confident_tail_prediction_promoted(self):
        model = constant_model(3, logits=[3.0, 0.0, 0.0], conf_logit=3.0)
        negs = [make_negative("n1", [0.5, 0.5])]
        config = MinerConfig()
        mined, clean = detect_noisy_negatives(model, negs, config, all_tail_partition(3))
        assert len(mined) == 1 and clean == ()
        assert mined[0].label == 0
        assert mined[0].label_state is LabelState.PSEUDO
        assert mined[0].confidence is not None

    def test_boundary_confidence_is_promoted(self):
        model = constant_model(2, logits=[1.0, 0.0], conf_logit=0.4)
        negs = [make_negative("n1", [0.0, 0.0])]
        _, c = forward(model, np.zeros((1, 2)))
        exact = float(c[0])
        config = MinerConfig(
            thresholds={Part.HEAD: exact, Part.BODY: exact, Part.TAIL: exact}
        )
        mined, clean = detect_noisy_negatives(model, negs, config, all_tail_partition(2))
        assert len(mined) == 1 and clean == ()

    def test_all_disabled_promotes_nothing(self):
        model = constant_model(2, logits=[5.0, 0.0], conf_logit=9.0)
        negs = [make_negative(f"n{i}", [0.1, 0.2]) for i in range(4)]
        config = MinerConfig(
            thresholds={Part.HEAD: DISABLED, Part.BODY: DISABLED, Part.TAIL: DISABLED}
        )
        mined, clean = detect_noisy_negatives(model, negs, config, all_tail_partition(2))
        assert mined == ()
        assert len(clean) == 4

    def test_outputs_partition_input_and_are_sorted(self):
        rng = np.random.default_rng(11)
        model = initialize_model(3, 6, 4, np.ones(4), 0.1, rng)
        negs = [make_negative(f"n{i:02d}", rng.normal(size=3)) for i in range(30)]
        rng.shuffle(negs)
        config = MinerConfig(
            thresholds={Part.HEAD: 0.5, Part.BODY: 0.5, Part.TAIL: 0.5}
        )
        mined, clean = detect_noisy_negatives(model, negs, config, all_tail_partition(4))
        ids = sorted(r.id for r in negs)
        got = sorted([r.id for r in mined] + [r.id for r in clean])
        assert got == ids
        assert [r.id for r in mined] == sorted(r.id for r in mined)
        assert [r.id for r in clean] == sorted(r.id for r in clean)

    def test_raising_threshold_never_promotes_more(self):
        rng = np.random.default_rng(12)
        model = initialize_model(3, 6, 3, np.ones(3), 0.1, rng)
        negs = [make_negative(f"n{i}", rng.normal(size=3)) for i in range(50)]
        counts = []
        for theta in (0.3, 0.5, 0.7, 0.9):
            config = MinerConfig(
                thresholds={Part.HEAD: theta, Part.BODY: theta, Part.TAIL: theta}
            )
            mined, _ = detect_noisy_negatives(model, negs, config, all_tail_partition(3))
            counts.append(len(mined))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_quantile_mode_selects_top_scores(self):
        rng = np.random.default_rng(13)
        model = initialize_model(2, 6, 2, np.ones(2), 0.1, rng)
        negs = [make_negative(f"n{i:02d}", rng.normal(size=2) * 3) for i in range(40)]
        config = MinerConfig(
            thresholds={Part.HEAD: 0.9, Part.BODY: 0.9, Part.TAIL: 0.9},
            threshold_mode="quantile",
        )
        mined, clean = detect_noisy_negatives(model, negs, config, all_tail_partition(2))
        assert 0 < len(mined) <= 8
        if clean:
            assert min(r.confidence for r in mined) >= max(
                float(forward(model, r.feature[None, :])[1][0]) for r in clean
            )

    def test_non_negative_input_rejected(self):
        model = constant_model(2, logits=[1.0, 0.0], conf_logit=0.0)
        pos = make_positive("p1", 0, [0.0, 0.0])
        with pytest.raises(DatasetError, match="p1"):
            detect_noisy_negatives(model, [pos], MinerConfig(), all_tail_partition(2))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        model = initialize_model(4, 8, 3, rng.uniform(0.1, 1, size=3), 0.25, rng)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        np.testing.assert_array_equal(loaded.W1, model.W1)
        np.testing.assert_array_equal(loaded.b2, model.b2)
        np.testing.assert_array_equal(loaded.class_weights, model.class_weights)
        assert loaded.lam == model.lam
        X = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(forward(loaded, X)[0], forward(model, X)[0])

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(DatasetError, match="not a confidence model"):
            load_model(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        model = initialize_model(2, 2, 2, np.ones(2), 0.1, rng)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="version"):
            load_model(str(path))

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(DatasetError, match="bad.json: malformed model file"):
            load_model(str(path))

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(DatasetError, match="not a confidence model"):
            load_model(str(path))

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "confidence-model", "version": 1}')
        with pytest.raises(DatasetError, match="bad.json: model file lacks"):
            load_model(str(path))

    @pytest.mark.parametrize("key", ["dims", "params", "lambda", "class_weights"])
    def test_missing_section_rejected(self, tmp_path, key):
        import json

        model = initialize_model(2, 2, 2, np.ones(2), 0.1, np.random.default_rng(16))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match=f"model.json: model file lacks \\['{key}'\\]"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["params"].pop("W1"),
            lambda p: p["dims"].pop("hidden"),
            lambda p: p.update(dims=[2, 2, 2]),
            lambda p: p.update({"lambda": "high"}),
        ],
        ids=["no-W1", "no-hidden", "dims-list", "lambda-string"],
    )
    def test_malformed_parameters_rejected(self, tmp_path, edit):
        import json

        model = initialize_model(2, 2, 2, np.ones(2), 0.1, np.random.default_rng(17))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="model.json: malformed model parameters"):
            load_model(str(path))


class TestConfigValidation:
    def test_threshold_range(self):
        with pytest.raises(DatasetError):
            MinerConfig(thresholds={Part.HEAD: 1.2, Part.BODY: 0.9, Part.TAIL: 0.6})

    def test_negative_lambda_rejected(self):
        with pytest.raises(DatasetError):
            MinerConfig(lam=-0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DatasetError):
            MinerConfig(threshold_mode="percentile")
