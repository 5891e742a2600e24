import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import expit

import doalab.mlnn as mlnn
from doalab.errors import ConfigError, TrainingError
from doalab.harness import make_detection_dataset_factory
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

    def test_n_weights(self, selected):
        # the stage-3 report counts the winner's weights and biases
        model, report = selected
        (hidden,) = report[-1]["shape"]
        n_in = model.layer_sizes[0]
        assert report[-1]["n_weights"] == n_in * hidden + hidden + hidden * 1 + 1

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
        trained, history = train(m, data, Hyper(epochs=60), 1)
        assert history[-1] < 0.5 * history[0]
        acc = np.mean((forward(trained, data.features) > 0.5) == (data.labels > 0.5))
        assert acc > 0.95

    def test_input_model_untouched(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), 0)
        before = [w.copy() for w in m.weights]
        train(m, data, Hyper(epochs=2), 0)
        for w0, w1 in zip(before, m.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_deterministic(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), 0)
        _, h1 = train(m, data, Hyper(epochs=5), 3)
        _, h2 = train(m, data, Hyper(epochs=5), 3)
        assert h1 == h2

    def test_zero_learning_rate_flat(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), 0)
        trained, _ = train(m, data, Hyper(learning_rate=0.0, epochs=3), 0)
        for w0, w1 in zip(m.weights, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_nonfinite_loss_raises_with_history(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), 0)
        m.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingError) as exc:
            train(m, data, Hyper(epochs=10), 0)
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

    @pytest.mark.parametrize("n_shapes,span", [(1, 2000), (1901, 2000),
                                               (1902, 2001)])
    def test_seed_span_refused_before_any_draw(self, n_shapes, span):
        # the fits reach seed + max(2000, 99 + shapes) and a stream key takes
        # the seed modulo 2**64: the last seed whose streams stay below 2**64
        # reaches the factory, the next is refused before it
        class Reached(Exception):
            pass

        def factory(n, seed):
            raise Reached

        shapes = [(k,) for k in range(1, n_shapes + 1)]
        for seed in (-1, 2 ** 64 - span):
            with pytest.raises(ConfigError, match=rf"2\*\*64 - {span}\)"):
                select_architecture(("tanh",), shapes, factory, seed=seed)
        with pytest.raises(Reached):
            select_architecture(("tanh",), shapes, factory, seed=2 ** 64 - span - 1)


# --- the search against its earlier form -------------------------------------

def _act_oracle(z, kind):
    if kind == "sigmoid":
        return expit(z)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {kind!r}")


def _act_grad_oracle(z, a, kind):
    if kind == "sigmoid":
        return a * (1.0 - a)
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "relu":
        return (z > 0.0).astype(float)
    raise ValueError(f"unknown activation {kind!r}")


def _layers_oracle(model, x):
    zs, acts = [], [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        kind = model.activations[i] if i < len(model.activations) else "sigmoid"
        zs.append(z)
        acts.append(_act_oracle(z, kind))
    return zs, acts


def _forward_backward_oracle(model, x, y):
    zs, acts = _layers_oracle(model, x)
    score = acts[-1][:, 0]
    delta = (2.0 / len(y)) * (score - y)[:, None] * _act_grad_oracle(
        zs[-1], acts[-1], "sigmoid")
    grads_w, grads_b = [], []
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w.append(delta.T @ acts[i])
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i]) * _act_grad_oracle(
                zs[i - 1], acts[i], model.activations[i - 1])
    return mlnn._mse(score, y), grads_w[::-1], grads_b[::-1]


def _train_oracle(model, data, hyper, seed):
    out = MlnnModel(model.layer_sizes, model.activations,
                    [w.copy() for w in model.weights],
                    [b.copy() for b in model.biases],
                    model.input_center, model.input_scale, dict(model.metadata))
    x_all = mlnn._standardize(out, data.features)
    y_all = data.labels
    rng = trial_rng(seed, 1)
    history = []
    lr = hyper.learning_rate
    n = len(data)
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            loss, gw, gb = _forward_backward_oracle(out, x_all[idx], y_all[idx])
            epoch_loss += loss * len(idx)
            if lr > 0.0:
                for w, b, dw, db in zip(out.weights, out.biases, gw, gb):
                    w -= lr * dw
                    b -= lr * db
        history.append(epoch_loss / n)
        if not math.isfinite(history[-1]):
            raise TrainingError(f"training diverged at epoch {epoch}", history)
    out.metadata = dict(out.metadata, loss_history=history,
                        hyper=dict(learning_rate=hyper.learning_rate,
                                   batch_size=hyper.batch_size,
                                   epochs=hyper.epochs, seed=seed,
                                   loss="mse"),
                        n_examples=n)
    return out, history


def select_architecture_oracle(candidate_activations, candidate_shapes,
                               dataset_factory, seed, hyper=Hyper(),
                               search_size=8000, final_ratio=6.0):
    """``select_architecture`` as two hand-written stage loops, a separate
    scorer, three report appends and the ``if`` chains of activations; the
    per-fit seed is handed to ``train`` as it was through ``Hyper.seed``."""
    candidate_activations = tuple(candidate_activations)
    candidate_shapes = tuple(tuple(s) for s in candidate_shapes)
    train_set = dataset_factory(search_size, seed)
    val_set = dataset_factory(max(search_size // 2, 2000), seed + 1)
    center, scale = standardization_from(train_set)
    n_features = train_set.features.shape[1]
    report = []

    def fit(shape, act, fit_data, fit_seed):
        sizes = (n_features, *shape, 1)
        model = init_model(sizes, (act,) * len(shape), fit_seed, center, scale)
        return _train_oracle(model, fit_data, hyper, fit_seed)

    def val_loss(model):
        x = mlnn._standardize(model, val_set.features)
        return mlnn._mse(_layers_oracle(model, x)[1][-1][:, 0], val_set.labels)

    stage1_shape = (32,) if (32,) in candidate_shapes else candidate_shapes[0]
    best_act, best_val = None, math.inf
    for i, act in enumerate(candidate_activations):
        model, _ = fit(stage1_shape, act, train_set, seed + 10 + i)
        val = val_loss(model)
        report.append(dict(stage=1, activation=act, shape=stage1_shape, val_loss=val))
        if val < best_val:
            best_act, best_val = act, val

    best_shape, best_val = None, math.inf
    for i, shape in enumerate(candidate_shapes):
        model, _ = fit(shape, best_act, train_set, seed + 100 + i)
        val = val_loss(model)
        report.append(dict(stage=2, activation=best_act, shape=shape, val_loss=val))
        if val < best_val:
            best_shape, best_val = shape, val

    sizes = (n_features, *best_shape, 1)
    init = init_model(sizes, (best_act,) * len(best_shape), 0)
    n_weights = sum(w.size + b.size for w, b in zip(init.weights, init.biases))
    final_set = dataset_factory(int(final_ratio * n_weights), seed + 1000)
    ratio = len(final_set) / n_weights
    model, _ = fit(best_shape, best_act, final_set, seed + 2000)
    val = val_loss(model)
    report.append(dict(stage=3, activation=best_act, shape=best_shape,
                       val_loss=val, dataset_size=len(final_set),
                       n_weights=n_weights, dataset_ratio=ratio))
    model.metadata = dict(model.metadata, selection_seed=seed,
                          dataset_ratio=ratio, activation=best_act,
                          shape=list(best_shape))
    return model, report


def _assert_same_search(got, want):
    (model, report), (ref, ref_report) = got, want
    assert model.layer_sizes == ref.layer_sizes
    assert model.activations == ref.activations
    for a, b in zip([*model.weights, *model.biases, model.input_center,
                     model.input_scale],
                    [*ref.weights, *ref.biases, ref.input_center,
                     ref.input_scale], strict=True):
        assert a.tobytes() == b.tobytes()
    assert json.dumps(model.metadata) == json.dumps(ref.metadata)
    assert repr(report) == repr(ref_report)


def _detection_factory(n, seed):
    return make_detection_dataset_factory(8, 20, -3.0)(n, seed)


# (activations, shapes, dataset factory, seed, Hyper, search size, final ratio)
SEARCH_CASES = {
    "xor": (("tanh", "relu"), ((8,), (16,)), lambda n, seed: _xor_set(n, seed),
            5, Hyper(epochs=15), 600, 6.0),
    "detection": (("sigmoid", "tanh", "relu"), ((4,), (32,), (6, 3)),
                  _detection_factory, 17, Hyper(epochs=4), 400, 7.5),
}


class TestSearchOracle:
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_matches_oracle(self, case):
        args = SEARCH_CASES[case]
        _assert_same_search(select_architecture(*args),
                            select_architecture_oracle(*args))

    @pytest.mark.parametrize("losses", [[math.nan], [0.25, 0.25, 0.25]],
                             ids=["nan-first", "tied"])
    def test_selection_rule(self, monkeypatch, losses):
        """The first stage-1 validation scores are replaced by ``losses``:
        a NaN never wins, and a tie goes to the earlier candidate."""
        args = SEARCH_CASES["detection"]
        real_mse = mlnn._mse

        def scripted_mse():
            calls = []

            def fake_mse(score, y):
                if len(y) >= 2000:  # a validation score, not a batch loss
                    calls.append(None)
                    if len(calls) <= len(losses):
                        return losses[len(calls) - 1]
                return real_mse(score, y)
            return fake_mse

        monkeypatch.setattr(mlnn, "_mse", scripted_mse())
        got = select_architecture(*args)
        monkeypatch.setattr(mlnn, "_mse", scripted_mse())
        want = select_architecture_oracle(*args)
        _assert_same_search(got, want)
        winner = got[0].metadata["activation"]
        if math.isnan(losses[0]):
            assert winner != args[0][0]
        else:
            assert winner == args[0][0]

    def test_no_finite_loss_raises(self, monkeypatch):
        real_mse = mlnn._mse
        monkeypatch.setattr(mlnn, "_mse", lambda score, y: math.nan
                            if len(y) >= 2000 else real_mse(score, y))
        with pytest.raises(TrainingError):
            select_architecture(*SEARCH_CASES["xor"])


class TestSerialization:
    def test_exact_roundtrip(self, tmp_path):
        data = _xor_set(200)
        center, scale = standardization_from(data)
        m = init_model((2, 8, 1), ("tanh",), 7, center, scale)
        m, _ = train(m, data, Hyper(epochs=3), 2)
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
