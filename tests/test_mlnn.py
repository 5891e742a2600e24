import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from scipy.special import expit

import doalab.mlnn as mlnn
from doalab.errors import TrainingError
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
from doalab.rng import (
    FINAL_STREAMS,
    FIT_STREAMS,
    SEARCH_STREAMS,
    VALIDATION_STREAMS,
    trial_rng,
)
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
            init_model((4, 8, 2), ("relu",), trial_rng(0))

    def test_activation_count_checked(self):
        with pytest.raises(ValueError):
            init_model((4, 8, 1), (), trial_rng(0))

    def test_array_shapes_checked(self):
        m = init_model((4, 8, 1), ("relu",), trial_rng(0), input_center=np.zeros(4))
        for bad in (dict(weights=[m.weights[0][:-1], m.weights[1]]),
                    dict(weights=m.weights[:1]),
                    dict(biases=[m.biases[0][:-1], m.biases[1]]),
                    dict(input_center=np.zeros(3)),
                    dict(input_scale=np.ones(5))):
            with pytest.raises(ValueError):
                dataclasses.replace(m, **bad)

    def test_glorot_bounds(self):
        m = init_model((10, 20, 1), ("tanh",), trial_rng(3))
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
        a = init_model((4, 8, 1), ("relu",), trial_rng(5))
        b = init_model((4, 8, 1), ("relu",), trial_rng(5))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_scores_in_unit_interval(self):
        m = init_model((3, 16, 16, 1), ("relu", "tanh"), trial_rng(1))
        x = 100.0 * trial_rng(2).standard_normal((50, 3))
        s = forward(m, x)
        assert np.all((s >= 0) & (s <= 1))

    def test_single_vector_accepted(self):
        m = init_model((3, 4, 1), ("sigmoid",), trial_rng(0))
        assert np.isscalar(float(forward(m, [0.5, 0.3, 0.2])[0]))

    def test_feature_length_checked(self):
        m = init_model((3, 4, 1), ("sigmoid",), trial_rng(0))
        with pytest.raises(ValueError):
            forward(m, np.zeros((2, 5)))

    def test_standardization_applied(self):
        m = init_model((2, 4, 1), ("tanh",), trial_rng(0))
        shifted = init_model((2, 4, 1), ("tanh",), trial_rng(0),
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
        m = init_model((3, 5, 1), (act,), trial_rng(8))
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
        m = init_model((2, 16, 1), ("tanh",), trial_rng(0))
        trained, history = train(m, data, Hyper(epochs=60), trial_rng(1))
        assert history[-1] < 0.5 * history[0]
        acc = np.mean((forward(trained, data.features) > 0.5) == (data.labels > 0.5))
        assert acc > 0.95

    def test_input_model_untouched(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), trial_rng(0))
        before = [w.copy() for w in m.weights]
        train(m, data, Hyper(epochs=2), trial_rng(0))
        for w0, w1 in zip(before, m.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_deterministic(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), trial_rng(0))
        _, h1 = train(m, data, Hyper(epochs=5), trial_rng(3))
        _, h2 = train(m, data, Hyper(epochs=5), trial_rng(3))
        assert h1 == h2

    def test_zero_learning_rate_flat(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), trial_rng(0))
        trained, _ = train(m, data, Hyper(learning_rate=0.0, epochs=3), trial_rng(0))
        for w0, w1 in zip(m.weights, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_nonfinite_loss_raises_with_history(self):
        data = _xor_set(100)
        m = init_model((2, 8, 1), ("tanh",), trial_rng(0))
        m.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingError) as exc:
            train(m, data, Hyper(epochs=10), trial_rng(0))
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
        ("tanh", "relu"), ((8,), (16,)), lambda n, first: _xor_set(n, first),
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

    def test_wrapped_seed_refused_before_a_fit(self, monkeypatch):
        # seed -1 would draw the fit streams of seed 2**64 - 1
        monkeypatch.setattr(mlnn, "train",
                            lambda *args: pytest.fail("a fit ran"))
        with pytest.raises(ValueError):
            select_architecture(("tanh",), ((2,),), lambda n, s: _xor_set(n, s),
                                seed=-1, search_size=200)

    # enough steps that the fits converge, so the gap between two shapes
    # that both learn the XOR is validation noise
    _CONVERGED = Hyper(learning_rate=0.5, epochs=60)

    @staticmethod
    def _stage2(report):
        return [r["val_loss"] for r in report if r["stage"] == 2]

    def test_smallest_within_one_se_wins(self):
        # both shapes learn the XOR: the wider one reaches the lower
        # validation loss, by less than one SE, so the narrower one is kept
        model, report = select_architecture(
            ("tanh",), ((16,), (8,)), lambda n, first: _xor_set(n, first, 0.35),
            seed=1, hyper=self._CONVERGED, search_size=600)
        losses = self._stage2(report)
        se = model.metadata["shape_se"]
        assert losses[0] < losses[1] <= losses[0] + se
        assert model.metadata["shape"] == [8]
        assert model.metadata["shape_rule"] == "one-se"

    def test_larger_beyond_one_se_wins(self):
        # one hidden unit cannot learn the XOR: the larger shape's lower
        # loss lies beyond one SE, so it is kept
        model, report = select_architecture(
            ("tanh",), ((1,), (16,)), lambda n, first: _xor_set(n, first, 0.35),
            seed=1, hyper=self._CONVERGED, search_size=600)
        losses = self._stage2(report)
        assert losses[1] + model.metadata["shape_se"] < losses[0]
        assert model.metadata["shape"] == [16]


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


def _train_oracle(model, data, hyper, rng):
    out = MlnnModel(model.layer_sizes, model.activations,
                    [w.copy() for w in model.weights],
                    [b.copy() for b in model.biases],
                    model.input_center, model.input_scale, dict(model.metadata))
    x_all = mlnn._standardize(out, data.features)
    y_all = data.labels
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
                                   epochs=hyper.epochs, loss="mse"),
                        n_examples=n)
    return out, history


def select_architecture_oracle(candidate_activations, candidate_shapes,
                               dataset_factory, seed, hyper=Hyper(),
                               search_size=8000, final_ratio=6.0):
    """``select_architecture`` as hand-written stage loops, a separate
    scorer, three report appends and the ``if`` chains of activations; the
    fits take the streams from ``FIT_STREAMS`` on in the order they run,
    and stage 2's one-SE rule is a loop over the candidates."""
    candidate_activations = tuple(candidate_activations)
    candidate_shapes = tuple(tuple(s) for s in candidate_shapes)
    train_set = dataset_factory(search_size, SEARCH_STREAMS)
    val_set = dataset_factory(max(search_size // 2, 2000), VALIDATION_STREAMS)
    center, scale = standardization_from(train_set)
    n_features = train_set.features.shape[1]
    fit_streams = itertools.count(FIT_STREAMS)
    report = []

    def fit(shape, act, fit_data):
        rng = trial_rng(seed, next(fit_streams))
        sizes = (n_features, *shape, 1)
        model = init_model(sizes, (act,) * len(shape), rng, center, scale)
        return _train_oracle(model, fit_data, hyper, rng)

    def val_errors(model):
        x = mlnn._standardize(model, val_set.features)
        return (_layers_oracle(model, x)[1][-1][:, 0] - val_set.labels) ** 2

    def n_weights(shape):
        init = init_model((n_features, *shape, 1), ("relu",) * len(shape),
                          trial_rng(0))
        return sum(w.size + b.size for w, b in zip(init.weights, init.biases))

    stage1_shape = (32,) if (32,) in candidate_shapes else candidate_shapes[0]
    best_act, best_val = None, math.inf
    for act in candidate_activations:
        model, _ = fit(stage1_shape, act, train_set)
        val = float(np.mean(val_errors(model)))
        report.append(dict(stage=1, activation=act, shape=stage1_shape, val_loss=val))
        if val < best_val:
            best_act, best_val = act, val
    if best_act is None:
        raise TrainingError("no finite stage-1 loss")

    vals, best_errors, best_val = [], None, math.inf
    for shape in candidate_shapes:
        model, _ = fit(shape, best_act, train_set)
        errors = val_errors(model)
        vals.append(float(np.mean(errors)))
        report.append(dict(stage=2, activation=best_act, shape=shape,
                           val_loss=vals[-1]))
        if vals[-1] < best_val:
            best_errors, best_val = errors, vals[-1]
    if best_errors is None:
        raise TrainingError("no finite stage-2 loss")
    se = float(np.std(best_errors, ddof=1)) / math.sqrt(len(best_errors))
    best_shape, fewest = None, math.inf
    for shape, val in zip(candidate_shapes, vals):
        if val <= best_val + se and n_weights(shape) < fewest:
            best_shape, fewest = shape, n_weights(shape)

    final_set = dataset_factory(int(final_ratio * fewest), FINAL_STREAMS)
    ratio = len(final_set) / fewest
    model, _ = fit(best_shape, best_act, final_set)
    val = float(np.mean(val_errors(model)))
    report.append(dict(stage=3, activation=best_act, shape=best_shape,
                       val_loss=val, dataset_size=len(final_set),
                       n_weights=fewest, dataset_ratio=ratio))
    model.metadata = dict(model.metadata, selection_seed=seed,
                          dataset_ratio=ratio, activation=best_act,
                          shape=list(best_shape), shape_rule="one-se",
                          shape_se=se)
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


def _detection_factory(n, first_stream):
    return make_detection_dataset_factory(8, 20, -3.0, 17)(n, first_stream)


# (activations, shapes, dataset factory, seed, Hyper, search size, final ratio)
SEARCH_CASES = {
    "xor": (("tanh", "relu"), ((8,), (16,)), lambda n, first: _xor_set(n, first),
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

    # per-example errors of mean 0.1 and SE 0.1 * sqrt(1000 / 999) / sqrt(1000)
    _BASE = np.tile([0.0, 0.2], 500)

    @pytest.mark.parametrize("errors,n_weights,n_se,kept", [
        ([np.full(1000, np.nan), _BASE + 0.01, _BASE + 0.02], [5, 5, 5], 0.0, 1),
        ([_BASE, _BASE, _BASE], [5, 5, 5], 0.0, 0),
        ([_BASE, _BASE + 0.003], [9, 5], 1.0, 1),
        ([_BASE, _BASE + 0.004], [9, 5], 1.0, 0),
        ([_BASE + 0.002, _BASE, _BASE + 0.001, _BASE + 0.002], [9, 9, 4, 4], 1.0, 2),
    ], ids=["nan-first", "tied", "within-one-se", "beyond-one-se", "fewest-tied"])
    def test_selection_rule(self, errors, n_weights, n_se, kept):
        """A NaN never wins; at SE 0 a tie goes to the earlier candidate;
        at one SE the fewest weights within it of the lowest loss win, the
        earlier of equal sizes."""
        index, se = mlnn._keep(errors, n_weights, n_se)
        assert index == kept
        best = min(range(len(errors)), key=lambda i: (np.nan_to_num(
            np.mean(errors[i]), nan=np.inf), i))
        assert se == n_se * np.std(errors[best], ddof=1) / math.sqrt(1000)

    def test_no_finite_loss_raises(self, monkeypatch):
        # every validation score is NaN; the search sets are smaller
        real = mlnn._standardize
        monkeypatch.setattr(mlnn, "_standardize", lambda model, x: real(model, x)
                            if len(x) < 2000 else np.full(x.shape, np.nan))
        with pytest.raises(TrainingError):
            select_architecture(*SEARCH_CASES["xor"])


class TestSerialization:
    def test_exact_roundtrip(self, tmp_path):
        data = _xor_set(200)
        center, scale = standardization_from(data)
        m = init_model((2, 8, 1), ("tanh",), trial_rng(7), center, scale)
        m, _ = train(m, data, Hyper(epochs=3), trial_rng(2))
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
        m = init_model((2, 4, 1), ("relu",), trial_rng(0))
        save_model(m, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError):
            load_model(path)
