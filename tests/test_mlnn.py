import dataclasses

import numpy as np
import pytest

from doalab.errors import TrainingError
from doalab.mlnn import (
    Hyper,
    MlnnModel,
    TrainingSet,
    eig_features,
    forward,
    init_model,
    load_model,
    save_model,
    select_architecture,
    standardization_from,
    train,
)
from doalab.rng import trial_rng
from doalab.spectral import sample_covariance


def _xor_set(n=400, seed=0, noise=0.05):
    """Noisy XOR: linearly inseparable, learnable by one hidden layer."""
    rng = trial_rng(seed)
    y = np.zeros(n)
    y[: n // 2] = 1.0
    pick = rng.integers(0, 2, size=n)
    pos = np.column_stack([pick, 1 - pick]).astype(float)   # (0,1) or (1,0)
    neg = np.column_stack([pick, pick]).astype(float)       # (0,0) or (1,1)
    bits = np.where(y[:, None] > 0.5, pos, neg)
    x = bits + noise * rng.standard_normal((n, 2))
    idx = rng.permutation(n)
    return TrainingSet(x[idx], y[idx])


class TestModelBasics:
    def test_output_layer_must_be_scalar(self):
        with pytest.raises(ValueError):
            init_model((4, 8, 2), ("relu",), 0)

    def test_activation_count_checked(self):
        with pytest.raises(ValueError):
            init_model((4, 8, 1), (), 0)

    def test_array_shapes_checked(self):
        m = init_model((4, 8, 1), ("relu",), 0, input_center=np.zeros(4))
        for bad in (dict(weights=[m.weights[0][:-1], m.weights[1]]),
                    dict(weights=m.weights[:1]),
                    dict(biases=[m.biases[0][:-1], m.biases[1]]),
                    dict(input_center=np.zeros(3)),
                    dict(input_scale=np.ones(5))):
            with pytest.raises(ValueError):
                dataclasses.replace(m, **bad)

    def test_glorot_bounds(self):
        m = init_model((10, 20, 1), ("tanh",), 3)
        lim0 = np.sqrt(6.0 / 30.0)
        assert np.max(np.abs(m.weights[0])) <= lim0
        assert np.all(m.biases[0] == 0.0)

    def test_n_weights(self):
        m = init_model((4, 8, 1), ("relu",), 0)
        assert m.n_weights == 4 * 8 + 8 + 8 * 1 + 1

    def test_deterministic_init(self):
        a = init_model((4, 8, 1), ("relu",), 5)
        b = init_model((4, 8, 1), ("relu",), 5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_scores_in_unit_interval(self):
        m = init_model((3, 16, 16, 1), ("relu", "tanh"), 1)
        x = 100.0 * trial_rng(2).standard_normal((50, 3))
        s = forward(m, x)
        assert np.all((s >= 0) & (s <= 1))

    def test_single_vector_accepted(self):
        m = init_model((3, 4, 1), ("sigmoid",), 0)
        assert np.isscalar(float(forward(m, [0.5, 0.3, 0.2])[0]))

    def test_feature_length_checked(self):
        m = init_model((3, 4, 1), ("sigmoid",), 0)
        with pytest.raises(ValueError):
            forward(m, np.zeros((2, 5)))

    def test_standardization_applied(self):
        m = init_model((2, 4, 1), ("tanh",), 0)
        shifted = init_model((2, 4, 1), ("tanh",), 0,
                             input_center=[5.0, -3.0], input_scale=[2.0, 0.5])
        x = np.array([[7.0, -2.5]])
        np.testing.assert_allclose(forward(shifted, x),
                                   forward(m, (x - [5.0, -3.0]) / [2.0, 0.5]))


class TestGradients:
    @pytest.mark.parametrize("act", ["sigmoid", "tanh", "relu"],
                             ids=["sigmoid-mse", "tanh-mse", "relu-mse"])
    def test_numeric_gradient_check(self, act):
        from doalab.mlnn import _forward_backward

        rng = trial_rng(4)
        m = init_model((3, 5, 1), (act,), 8)
        x = rng.standard_normal((12, 3)) + 0.1  # keep relu off its kink
        y = (rng.random(12) > 0.5).astype(float)
        _, gw, gb = _forward_backward(m, x, y)
        eps = 1e-6
        for li in range(len(m.weights)):
            w = m.weights[li]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                w[idx] += eps
                lp, _, _ = _forward_backward(m, x, y)
                w[idx] -= 2 * eps
                lm, _, _ = _forward_backward(m, x, y)
                w[idx] += eps
                num = (lp - lm) / (2 * eps)
                assert gw[li][idx] == pytest.approx(num, abs=1e-6)


class TestTrain:
    def test_loss_decreases_on_xor(self):
        data = _xor_set()
        m = init_model((2, 16, 1), ("tanh",), 0)
        trained, history = train(m, data, Hyper(epochs=60, seed=1))
        assert history[-1] < 0.5 * history[0]
        acc = np.mean((forward(trained, data.features) > 0.5) == (data.labels > 0.5))
        assert acc > 0.95

    def test_input_model_untouched(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), 0)
        before = [w.copy() for w in m.weights]
        train(m, data, Hyper(epochs=2, seed=0))
        for w0, w1 in zip(before, m.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_deterministic(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), 0)
        _, h1 = train(m, data, Hyper(epochs=5, seed=3))
        _, h2 = train(m, data, Hyper(epochs=5, seed=3))
        assert h1 == h2

    def test_zero_learning_rate_flat(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), 0)
        trained, _ = train(m, data, Hyper(learning_rate=0.0, epochs=3, seed=0))
        for w0, w1 in zip(m.weights, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_nonfinite_loss_raises_with_history(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), 0)
        m.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingError) as exc:
            train(m, data, Hyper(epochs=10, seed=0))
        assert isinstance(exc.value.loss_history, list)


class TestTrainingSet:
    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((4, 2)), [1, 1, 1, 0])

    def test_odd_length_ok(self):
        TrainingSet(np.zeros((3, 2)), [1, 0, 1])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TrainingSet(np.array([[np.inf, 0.0], [0.0, 0.0]]), [1, 0])


class TestEigFeatures:
    def test_sum_to_one(self):
        x = trial_rng(0).standard_normal((6, 40)) * (1 + 0j)
        f = eig_features(sample_covariance(x).eigenvalues)
        assert f.sum() == pytest.approx(1.0)
        assert np.all(np.diff(f) <= 1e-12)

    def test_scale_blind(self):
        eigs = np.array([5.0, 2.0, 1.0])
        np.testing.assert_allclose(eig_features(eigs), eig_features(10 * eigs))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            eig_features(np.zeros(4))


@pytest.fixture(scope="module")
def selected():
    model, report = select_architecture(
        ("tanh", "relu"), ((8,), (16,)), lambda n, seed: _xor_set(n, seed),
        seed=5, hyper=Hyper(epochs=15), search_size=600, final_ratio=6.0)
    return model, report


class TestSelection:
    def test_three_stages_reported(self, selected):
        _, report = selected
        stages = [r["stage"] for r in report]
        assert stages.count(1) == 2 and stages.count(2) == 2 and stages.count(3) == 1

    def test_final_dataset_ratio_in_rule(self, selected):
        model, report = selected
        final = report[-1]
        assert 5.0 <= final["dataset_ratio"] <= 10.0
        assert model.metadata["dataset_ratio"] == final["dataset_ratio"]

    def test_winner_beats_chance(self, selected):
        model, _ = selected
        data = _xor_set(500, seed=99)
        acc = np.mean((forward(model, data.features) > 0.5) == (data.labels > 0.5))
        assert acc > 0.9

    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValueError):
            select_architecture(("tanh",), ((8,),), lambda n, s: _xor_set(n, s),
                                seed=0, final_ratio=20.0)


class TestSerialization:
    def test_exact_roundtrip(self, tmp_path):
        data = _xor_set(200)
        center, scale = standardization_from(data)
        m = init_model((2, 8, 1), ("tanh",), 7, center, scale)
        m, _ = train(m, data, Hyper(epochs=3, seed=2))
        path = tmp_path / "model.json"
        save_model(m, path)
        m2 = load_model(path)
        for w1, w2 in zip(m.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(m.input_center, m2.input_center)
        x = trial_rng(3).standard_normal((20, 2))
        np.testing.assert_array_equal(forward(m, x), forward(m2, x))

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        m = init_model((2, 4, 1), ("relu",), 0)
        save_model(m, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError):
            load_model(path)
