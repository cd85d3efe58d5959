"""Tests for the negative-mining stage: loss math, training, detection."""

import dataclasses
import math
import re

import numpy as np
import pytest

from tripletclean import negatives
from tripletclean.core import NO_LABEL, Dataset, DatasetError, Part
from tripletclean.negatives import (
    LOG_FLOOR,
    PARAMS,
    ConfidenceModel,
    MinerConfig,
    TrainingError,
    _loss,
    _sigmoid,
    adjust_probs,
    detect_noisy_negatives,
    forward,
    initialize_model,
    load_model,
    loss_and_gradients,
    save_model,
    train,
)


def make_dataset(features, labels, n_classes, ids=None):
    """Rows ``r000``, ``r001``, ... (or ``ids``) over an all-tail vocabulary
    of ``n_classes`` predicates."""
    n = len(labels)
    ids = [f"r{i:03d}" for i in range(n)] if ids is None else ids
    names = [f"p{i}" for i in range(n_classes)]
    return Dataset.counted(ids, ["img"] * n, [(0, 1)] * n, features, labels, names)


def negatives_dataset(ids, features, n_classes, labels=None):
    labels = [NO_LABEL] * len(ids) if labels is None else labels
    return make_dataset(features, labels, n_classes, ids)


def fit(X, y, n_classes, config):
    """Train on every row of the given features and labels."""
    return train(make_dataset(X, y, n_classes), np.arange(len(y)), config)


def detect(model, dataset, config):
    """Promotions over every row of ``dataset``, plus the rows kept back."""
    promoted = detect_noisy_negatives(model, np.arange(len(dataset)), dataset, config)
    kept = np.setdiff1d(np.arange(len(dataset)), promoted.rows)
    return promoted, kept


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


def separable_positives(n_per_class, rng, spread=0.3):
    """Feature rows and labels of two Gaussian blobs, class 0 first."""
    centers = [np.array([0.0, 0.0]), np.array([5.0, 5.0])]
    X = np.array(
        [center + rng.normal(0, spread, size=2) for center in centers for _ in range(n_per_class)]
    )
    return X, np.repeat([0, 1], n_per_class)


def dense_forward(model, X):
    """The forward pass as it stood before it worked in place."""
    A = np.tanh(X @ model.W1 + model.b1)
    logits = A @ model.W2 + model.b2
    expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    P = expd / expd.sum(axis=1, keepdims=True)
    C = _sigmoid(A @ model.w3 + model.b3)
    return P, C, A


def dense_loss_and_gradients(model, X, Y):
    """Oracle: the loss and gradients by the dense formula over every
    column of ``Y``, as ``loss_and_gradients`` computed them before it
    worked on the label column alone."""
    n = X.shape[0]
    P, C, A = dense_forward(model, X)
    w = model.class_weights

    P_adj = C[:, None] * P + (1.0 - C[:, None]) * Y
    clamped = np.maximum(P_adj, LOG_FLOOR)
    ce = -np.sum(w[None, :] * np.log(clamped) * Y, axis=1)
    penalty = -model.lam * np.log(np.maximum(C, LOG_FLOOR))
    loss = float(np.mean(ce + penalty))

    G = np.where(P_adj > LOG_FLOOR, -(w[None, :] * Y) / clamped, 0.0) / n
    dP = G * C[:, None]
    dC = np.sum(G * (P - Y), axis=1)
    dC -= (model.lam / n) * np.where(C > LOG_FLOOR, 1.0 / np.maximum(C, LOG_FLOOR), 0.0)

    dU = P * (dP - np.sum(dP * P, axis=1, keepdims=True))
    dV = dC * C * (1.0 - C)

    dA = dU @ model.W2.T + dV[:, None] * model.w3[None, :]
    dZ = dA * (1.0 - A * A)

    grads = {
        "W1": X.T @ dZ,
        "b1": dZ.sum(axis=0),
        "W2": A.T @ dU,
        "b2": dU.sum(axis=0),
        "w3": A.T @ dV,
        "b3": float(dV.sum()),
    }
    return loss, grads


def same_bytes(a, b):
    """Equal dtype, shape and bytes, so the signs of zeros count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    """``_loss`` on the label column: p is the label's probability."""

    def test_reference_value(self):
        loss, clamped = _loss(p=np.array([0.3]), C=np.array([0.5]), w=np.ones(1), lam=0.1)
        expected = -np.log(0.65) - 0.1 * np.log(0.5)
        np.testing.assert_allclose(loss, expected, rtol=1e-12)
        np.testing.assert_allclose(loss, 0.5001, atol=5e-5)
        np.testing.assert_allclose(clamped, [0.65], rtol=1e-15)

    def test_perfect_prediction_at_full_confidence(self):
        loss, _ = _loss(np.array([1.0]), np.array([1.0]), np.ones(1), lam=0.1)
        assert loss == 0.0

    def test_zero_confidence_no_penalty_is_free(self):
        loss, clamped = _loss(p=np.array([0.1]), C=np.array([0.0]), w=np.ones(1), lam=0.0)
        assert loss == 0.0
        assert clamped.tolist() == [1.0]

    def test_class_weights_scale_the_ce_term(self):
        p = np.array([0.3])
        C = np.array([1.0])
        base, _ = _loss(p, C, np.array([1.0]), lam=0.0)
        double, _ = _loss(p, C, np.array([2.0]), lam=0.0)
        np.testing.assert_allclose(double, 2 * base)


class TestGradients:
    def finite_difference(self, model, X, labels, step=1e-5):
        import dataclasses

        grads = {}
        for name in ("W1", "b1", "W2", "b2", "w3", "b3"):
            value = getattr(model, name)
            if np.isscalar(value):
                hi = dataclasses.replace(model, **{name: value + step})
                lo = dataclasses.replace(model, **{name: value - step})
                lh, _ = loss_and_gradients(hi, X, labels)
                ll, _ = loss_and_gradients(lo, X, labels)
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
                lh, _ = loss_and_gradients(hi, X, labels)
                ll, _ = loss_and_gradients(lo, X, labels)
                out.ravel()[idx] = (lh - ll) / (2 * step)
            grads[name] = out
        return grads

    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            model = initialize_model(4, 6, 3, rng.uniform(0.5, 2.0, size=3), 0.1, rng)
            X = rng.normal(size=(5, 4))
            labels = rng.integers(0, 3, size=5)
            _, analytic = loss_and_gradients(model, X, labels)
            numeric = self.finite_difference(model, X, labels)
            for name in analytic:
                ga = np.atleast_1d(np.asarray(analytic[name]))
                gf = np.atleast_1d(np.asarray(numeric[name]))
                denom = max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-10)
                assert np.linalg.norm(ga - gf) / denom < 1e-4, name


    def random_net(self, rng, case):
        """A net and batch; ``case`` cycles through the edges of the formula."""
        n = 1 if case % 5 == 0 else int(rng.integers(2, 80))
        d, h, k = (int(v) for v in rng.integers(1, 7, size=3))
        scale = float(rng.choice([0.1, 1.0, 10.0, 100.0]))
        normal = lambda *shape: rng.normal(0.0, scale, size=shape)
        model = ConfidenceModel(
            W1=normal(d, h),
            b1=normal(h),
            W2=normal(h, k),
            b2=normal(k),
            w3=normal(h),
            b3=float(normal()),
            class_weights=rng.uniform(0.01, 3.0, size=k),
            lam=[0.0, 0.1, 5.0][case % 3],
        )
        if case % 4 == 1:  # confidence saturates at exactly 1.0, or at 0.0
            model.w3[:] = 0.0
            model.b3 = [40.0, -800.0][case % 8 // 4]
        if case % 4 == 3:  # p_adj = p at C = 1.0, so a vanishing p floors it
            model.w3[:] = 0.0
            model.b3 = 40.0
            model.b2[:] = rng.choice([0.0, -40.0, -800.0], size=k)
        Y = np.eye(k)[rng.integers(0, k, size=n)]
        return model, rng.normal(size=(n, d)), Y

    def test_label_column_matches_the_dense_formula_bitwise(self):
        rng = np.random.default_rng(20)
        seen = {"C == 1": 0, "p_adj < floor": 0, "lam == 0": 0, "n == 1": 0}
        for case in range(240):
            model, X, Y = self.random_net(rng, case)
            P, C, _ = dense_forward(model, X)
            p_adj = C * P[Y == 1.0] + (1.0 - C)
            seen["C == 1"] += bool((C == 1.0).any())
            seen["p_adj < floor"] += bool((p_adj < LOG_FLOOR).any())
            seen["lam == 0"] += model.lam == 0.0
            seen["n == 1"] += len(X) == 1

            expected_loss, expected = dense_loss_and_gradients(model, X, Y)
            loss, grads = loss_and_gradients(model, X, Y.argmax(1))
            assert same_bytes(loss, expected_loss), case
            assert list(grads) == list(expected)
            assert type(grads["b3"]) is float
            for name in expected:
                assert same_bytes(grads[name], expected[name]), (case, name)
        assert min(seen.values()) >= 20, seen


class TestLabelIndices:
    @pytest.mark.parametrize(
        "labels",
        [np.array([0, -1]), np.array([0, 3]), np.array([0, 99])],
        ids=["negative", "n_classes", "far-above"],
    )
    def test_out_of_range_rejected(self, labels):
        model = initialize_model(4, 5, 3, np.ones(3), 0.1, np.random.default_rng(21))
        with pytest.raises(DatasetError, match=re.escape("labels must lie in [0, 3)")):
            loss_and_gradients(model, np.zeros((2, 4)), labels)

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0.0, 1.0]),
            np.array([True, False]),
            np.array([[0], [1]]),
            np.eye(3)[[0, 1]],
            np.array([0]),
            np.array([0, 1, 2]),
        ],
        ids=["float", "bool", "2-d", "one-hot", "short", "long"],
    )
    def test_not_one_index_per_row_rejected(self, labels):
        model = initialize_model(4, 5, 3, np.ones(3), 0.1, np.random.default_rng(22))
        expected = f"labels must be 2 class indices, got {labels.dtype} {labels.shape}"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            loss_and_gradients(model, np.zeros((2, 4)), labels)

    def test_any_integer_dtype_accepted(self):
        model = initialize_model(4, 5, 3, np.ones(3), 0.1, np.random.default_rng(23))
        X = np.random.default_rng(24).normal(size=(3, 4))
        expected_loss, expected = loss_and_gradients(model, X, np.array([2, 0, 1]))
        for dtype in (np.int32, np.uint8):
            loss, grads = loss_and_gradients(model, X, np.array([2, 0, 1], dtype=dtype))
            assert same_bytes(loss, expected_loss)
            for name in expected:
                assert same_bytes(grads[name], expected[name]), (dtype, name)


def out_of_place_train(dataset, rows, config):
    """Oracle: the training loop as it stood before it stepped in place,
    over the dense gradient formula."""
    labels = dataset.labels[rows]
    X = dataset.features[rows]
    n_classes = len(dataset.vocab)
    class_weights = 1.0 / np.maximum(np.bincount(labels, minlength=n_classes), 1)
    rng = np.random.default_rng(config.seed)
    model = initialize_model(
        X.shape[1], config.hidden_size, n_classes, class_weights, config.lam, rng
    )
    Y = np.eye(n_classes)[labels]
    n = labels.size
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grads = negatives.loss_and_gradients(model, X[batch], Y[batch])
            for name in PARAMS:
                step = config.learning_rate * grads[name]
                setattr(model, name, getattr(model, name) - step)
    return model


class TestTrain:
    @pytest.mark.parametrize(
        "config",
        [
            # 45 rows in batches of 8 end in a batch of 5
            MinerConfig(hidden_size=8, epochs=4, batch_size=8, seed=3),
            MinerConfig(hidden_size=16, epochs=3, batch_size=15, lam=0.0, learning_rate=0.9, seed=5),
        ],
        ids=["short-last-batch", "whole-batches"],
    )
    def test_same_parameters_as_the_out_of_place_dense_trainer(self, monkeypatch, config):
        rng = np.random.default_rng(23)
        dataset = make_dataset(rng.normal(size=(45, 5)), rng.integers(0, 4, size=45), 4)
        rows = np.arange(45)
        model = train(dataset, rows, config)
        monkeypatch.setattr(negatives, "loss_and_gradients", dense_loss_and_gradients)
        expected = out_of_place_train(dataset, rows, config)
        for name in PARAMS:
            assert same_bytes(getattr(model, name), getattr(expected, name)), name
        assert type(model.b3) is float

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(6)
        X, y = separable_positives(100, rng)
        Y = np.eye(2)[y]
        config = MinerConfig(hidden_size=16, epochs=8, learning_rate=0.3, seed=1)

        def full_loss(model):
            return dense_loss_and_gradients(model, X, Y)[0]

        weights = 1.0 / np.bincount(y)
        initial = initialize_model(2, 16, 2, weights, config.lam, np.random.default_rng(1))
        after_one = fit(X, y, 2, dataclasses.replace(config, epochs=1))
        final = fit(X, y, 2, config)
        assert full_loss(final) < full_loss(initial)
        assert full_loss(final) <= full_loss(after_one)

    def test_single_sample_step_moves_parameters(self):
        config = MinerConfig(hidden_size=4, epochs=1, learning_rate=0.1, seed=2)
        model = fit(np.array([[1.0, -1.0]]), [0], 2, config)
        rng = np.random.default_rng(2)
        init = initialize_model(2, 4, 2, model.class_weights, 0.1, rng)
        assert not np.array_equal(model.W2, init.W2)

    def test_large_penalty_forces_high_confidence(self):
        rng = np.random.default_rng(7)
        X, y = separable_positives(40, rng, spread=1.5)
        common = dict(hidden_size=8, epochs=12, learning_rate=0.3, seed=3)
        bold = fit(X, y, 2, MinerConfig(lam=100.0, **common))
        timid = fit(X, y, 2, MinerConfig(lam=0.01, **common))
        _, c_bold = forward(bold, X)
        _, c_timid = forward(timid, X)
        assert c_bold.mean() > c_timid.mean()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        X, y = separable_positives(30, rng)
        config = MinerConfig(hidden_size=8, epochs=3, seed=9)
        a = fit(X, y, 2, config)
        b = fit(X, y, 2, config)
        for name in ("W1", "b1", "W2", "b2", "w3", "b3"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_empty_positives_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            fit(np.zeros((0, 2)), [], 2, MinerConfig())

    def test_unlabeled_row_rejected(self):
        with pytest.raises(DatasetError, match="^record 'r001' has no label$"):
            fit(np.zeros((2, 2)), [0, NO_LABEL], 2, MinerConfig())

    def test_class_weights_are_reciprocal_counts(self):
        X = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]])
        model = fit(X, [0, 0, 0, 0, 1], 3, MinerConfig(hidden_size=2, epochs=1))
        np.testing.assert_allclose(model.class_weights, [0.25, 1.0, 1.0])

    def test_huge_learning_rate_raises_training_error(self):
        rng = np.random.default_rng(6)
        X, y = separable_positives(20, rng)
        config = MinerConfig(hidden_size=4, epochs=3, learning_rate=1e308, lam=10.0, seed=1)
        with pytest.raises(TrainingError, match="non-finite values at epoch 1; reduce learning_rate"):
            fit(X, y, 2, config)

    def test_non_finite_parameter_raises_at_its_epoch(self, monkeypatch):
        # b1 -> -inf saturates tanh, so the loss over all rows stays finite
        def infinite_b1(model, X, labels):
            loss, grads = loss_and_gradients(model, X, labels)
            grads["b1"] = np.full_like(grads["b1"], np.inf)
            return loss, grads

        monkeypatch.setattr(negatives, "loss_and_gradients", infinite_b1)
        rng = np.random.default_rng(6)
        X, y = separable_positives(10, rng)
        config = MinerConfig(hidden_size=4, epochs=3, seed=1)
        with pytest.raises(TrainingError, match="non-finite parameters at epoch 1;"):
            fit(X, y, 2, config)

    def test_non_finite_final_loss_raises(self, monkeypatch):
        def nan_confidence(model, X):
            P, C = forward(model, X)
            return P, np.full_like(C, np.nan)

        # only the check after the last epoch calls forward
        monkeypatch.setattr(negatives, "forward", nan_confidence)
        rng = np.random.default_rng(6)
        X, y = separable_positives(10, rng)
        config = MinerConfig(hidden_size=4, epochs=2, seed=1)
        with pytest.raises(TrainingError, match="non-finite loss nan after the last epoch"):
            fit(X, y, 2, config)

    def test_one_full_set_forward_per_run(self, monkeypatch):
        calls = {"forward": 0, "loss_and_gradients": 0}

        def counted(name):
            original = getattr(negatives, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(negatives, name, wrapper)

        counted("forward")
        counted("loss_and_gradients")
        rng = np.random.default_rng(6)
        X, y = separable_positives(11, rng)
        config = MinerConfig(hidden_size=4, epochs=5, batch_size=4, seed=1)
        fit(X, y, 2, config)
        assert calls == {"forward": 1, "loss_and_gradients": 5 * math.ceil(22 / 4)}

    def test_final_loss_is_the_dense_loss_over_every_row(self, monkeypatch):
        losses = []

        def recorded(*args):
            loss, clamped = _loss(*args)
            losses.append(loss)
            return loss, clamped

        monkeypatch.setattr(negatives, "_loss", recorded)
        rng = np.random.default_rng(31)
        # unequal classes in shuffled rows, so each row's weight and
        # probability must come from its own label
        y = rng.permutation(np.repeat(np.arange(5), [20, 12, 8, 5, 2]))
        X = rng.normal(size=(y.size, 3))
        config = MinerConfig(hidden_size=6, epochs=2, batch_size=16, lam=0.3, seed=4)
        model = fit(X, y, 5, config)
        assert len(losses) == 2 * math.ceil(47 / 16) + 1
        expected, _ = dense_loss_and_gradients(model, X, np.eye(5)[y])
        assert same_bytes(losses[-1], expected)


class TestForwardInvariants:
    def test_sigmoid_matches_the_two_branch_formula_bitwise(self):
        special = [0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.0, -745.0]
        special += [800.0, -800.0, 1e-320, -1e-320]
        x = np.concatenate([special, np.random.default_rng(11).normal(0, 50, size=10_000)])
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        np.testing.assert_array_equal(_sigmoid(x).view(np.int64), expected.view(np.int64))
        assert np.isnan(_sigmoid(np.array([np.nan]))).all()

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
        ds = negatives_dataset(["n1"], [[0.5, 0.5]], 3)
        promoted, kept = detect(model, ds, MinerConfig())
        assert promoted.rows.tolist() == [0] and kept.size == 0
        assert promoted.labels.tolist() == [0]
        assert 0.0 < promoted.confidence[0] < 1.0

    def test_boundary_confidence_is_promoted(self):
        model = constant_model(2, logits=[1.0, 0.0], conf_logit=0.4)
        ds = negatives_dataset(["n1"], [[0.0, 0.0]], 2)
        _, c = forward(model, np.zeros((1, 2)))
        exact = float(c[0])
        config = MinerConfig(
            thresholds={Part.HEAD: exact, Part.BODY: exact, Part.TAIL: exact}
        )
        promoted, kept = detect(model, ds, config)
        assert len(promoted.rows) == 1 and kept.size == 0

    def test_all_disabled_promotes_nothing(self):
        model = constant_model(2, logits=[5.0, 0.0], conf_logit=9.0)
        ds = negatives_dataset([f"n{i}" for i in range(4)], [[0.1, 0.2]] * 4, 2)
        config = MinerConfig(
            thresholds={Part.HEAD: None, Part.BODY: None, Part.TAIL: None}
        )
        promoted, kept = detect(model, ds, config)
        assert promoted.rows.size == 0
        assert len(kept) == 4

    def test_threshold_lookup_matches_per_part_loop(self):
        """The class-indexed threshold lookup promotes exactly the rows that
        an OR over each enabled part's mask promotes."""

        def per_part_loop(model, rows, dataset, config):
            P, C = forward(model, dataset.features[rows])
            predicted = np.argmax(P, axis=1)
            parts = np.array([p.value for p in dataset.partition])[predicted]
            promote = np.zeros(rows.size, dtype=bool)
            for part in Part:
                theta = config.thresholds[part]
                if theta is not None:
                    promote |= (parts == part.value) & (C >= theta)
            chosen = sorted(np.flatnonzero(promote), key=lambda i: dataset.ids[rows[i]])
            return rows[chosen], predicted[chosen], C[chosen]

        kinds_seen, disabled_counts = set(), set()
        at_attained = 0
        for seed in range(240):
            rng = np.random.default_rng(seed)
            n_classes, dim, n = (int(v) for v in rng.integers((1, 1, 1), (6, 4, 40)))
            model = initialize_model(dim, 5, n_classes, np.ones(n_classes), 0.1, rng)
            ids = [f"n{i:02d}" for i in rng.permutation(n)]
            ds = negatives_dataset(ids, rng.normal(scale=2.0, size=(n, dim)), n_classes)
            ds = dataclasses.replace(
                ds, partition=tuple(list(Part)[i] for i in rng.integers(0, 3, n_classes))
            )
            _, C = forward(model, ds.features)
            thresholds = {}
            for part in Part:
                kind = "none" if seed % 10 == 0 else rng.choice(
                    ["none", "zero", "one", "uniform", "attained"]
                )
                kinds_seen.add(kind)
                thresholds[part] = {
                    "none": None,
                    "zero": 0.0,
                    "one": 1.0,
                    "uniform": float(rng.uniform(C.min(), C.max())),
                    "attained": float(C[rng.integers(n)]),
                }[kind]
            config = MinerConfig(thresholds=thresholds)
            rows = np.arange(n)
            got = detect_noisy_negatives(model, rows, ds, config)
            want = per_part_loop(model, rows, ds, config)
            for actual, expected in zip(got, want):
                np.testing.assert_array_equal(actual, expected)
            disabled_counts.add(sum(th is None for th in thresholds.values()))
            at_attained += sum(
                c == thresholds[ds.partition[k]]
                for k, c in zip(got.labels.tolist(), got.confidence.tolist())
            )
        assert kinds_seen == {"none", "zero", "one", "uniform", "attained"}
        assert {1, len(Part)} <= disabled_counts
        # some promoted row sits exactly on its part's threshold
        assert at_attained > 0

    def test_promoted_rows_are_in_id_order(self):
        rng = np.random.default_rng(11)
        model = initialize_model(3, 6, 4, np.ones(4), 0.1, rng)
        ids = [f"n{i:02d}" for i in range(30)]
        rng.shuffle(ids)
        ds = negatives_dataset(ids, rng.normal(size=(30, 3)), 4)
        config = MinerConfig(
            thresholds={Part.HEAD: 0.5, Part.BODY: 0.5, Part.TAIL: 0.5}
        )
        promoted, kept = detect(model, ds, config)
        assert 0 < len(promoted.rows) < 30
        promoted_ids = [ds.ids[r] for r in promoted.rows]
        assert promoted_ids == sorted(promoted_ids)
        assert promoted_ids != [ds.ids[r] for r in sorted(promoted.rows)]
        P, C = forward(model, ds.features[promoted.rows])
        np.testing.assert_array_equal(promoted.labels, np.argmax(P, axis=1))
        np.testing.assert_array_equal(promoted.confidence, C)

    def test_raising_threshold_never_promotes_more(self):
        rng = np.random.default_rng(12)
        model = initialize_model(3, 6, 3, np.ones(3), 0.1, rng)
        ds = negatives_dataset([f"n{i}" for i in range(50)], rng.normal(size=(50, 3)), 3)
        counts = []
        for theta in (0.3, 0.5, 0.7, 0.9):
            config = MinerConfig(
                thresholds={Part.HEAD: theta, Part.BODY: theta, Part.TAIL: theta}
            )
            promoted, _ = detect(model, ds, config)
            counts.append(len(promoted.rows))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_subset_of_rows_is_scored(self):
        model = constant_model(2, logits=[1.0, 0.0], conf_logit=3.0)
        ds = negatives_dataset(["a", "b", "c"], np.zeros((3, 2)), 2)
        promoted = detect_noisy_negatives(model, np.array([2, 0]), ds, MinerConfig())
        assert promoted.rows.tolist() == [0, 2]

    def test_no_rows_promotes_nothing(self):
        model = constant_model(2, logits=[1.0, 0.0], conf_logit=3.0)
        ds = negatives_dataset(["a"], np.zeros((1, 2)), 2)
        promoted = detect_noisy_negatives(model, np.array([], dtype=int), ds, MinerConfig())
        assert [len(column) for column in promoted] == [0, 0, 0]

    def test_labeled_row_rejected(self):
        model = constant_model(2, logits=[1.0, 0.0], conf_logit=0.0)
        ds = negatives_dataset(["n1", "p1"], np.zeros((2, 2)), 2, labels=[NO_LABEL, 0])
        with pytest.raises(DatasetError, match="p1"):
            detect(model, ds, MinerConfig())


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

    def test_negative_seed_rejected(self):
        # np.random.default_rng accepts only non-negative seeds
        with pytest.raises(DatasetError, match="seed must be non-negative, got -1"):
            MinerConfig(seed=-1)
