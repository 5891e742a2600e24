"""Feed-forward eigenvalue detector trained from scratch.

A small multi-input single-output network scores the sorted, sum-normalized
eigenvalues of the sample covariance; the output sigmoid keeps scores in
[0, 1].  Training is plain mini-batch SGD on mean squared error, and the
search over activations and shapes follows a three-stage protocol:
activations first, then depth/width, then a final fit on a dataset sized
5-10x the winner's weight count.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import TrainingError
from .rng import trial_rng

MODEL_FORMAT_VERSION = 1

SIGMOID = "sigmoid"
TANH = "tanh"
RELU = "relu"
ACTIVATIONS = (SIGMOID, TANH, RELU)

LOSS_MSE = "mse"
LOSS_CROSS_ENTROPY = "cross-entropy"


def _act(z, kind):
    if kind == SIGMOID:
        return expit(z)
    if kind == TANH:
        return np.tanh(z)
    if kind == RELU:
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {kind!r}")


def _act_grad(z, a, kind):
    if kind == SIGMOID:
        return a * (1.0 - a)
    if kind == TANH:
        return 1.0 - a * a
    if kind == RELU:
        return (z > 0.0).astype(float)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class MlnnModel:
    """Weights and metadata of one feed-forward binary scorer.

    ``weights[i]`` maps layer i to i+1 (shape out x in); the output layer
    has exactly one unit and a sigmoid, so scores live in [0, 1].  The
    optional input center/scale standardize features before the first
    affine layer (identity by default); both are stored with the model.
    """

    layer_sizes: tuple
    activations: tuple
    weights: list
    biases: list
    input_center: np.ndarray | None = None
    input_scale: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.layer_sizes[-1] != 1:
            raise ValueError("output layer must have exactly one unit")
        if len(self.activations) != len(self.layer_sizes) - 2:
            raise ValueError("need one activation per hidden layer")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")

    @property
    def n_weights(self) -> int:
        """Total count of weights and biases."""
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def init_model(layer_sizes, activations, seed: int,
               input_center=None, input_scale=None) -> MlnnModel:
    """Glorot-style uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    rng = trial_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlnnModel(tuple(layer_sizes), tuple(activations), weights, biases,
                     None if input_center is None else np.asarray(input_center, float),
                     None if input_scale is None else np.asarray(input_scale, float))


def _standardize(model: MlnnModel, x: np.ndarray) -> np.ndarray:
    if model.input_center is not None:
        x = x - model.input_center
    if model.input_scale is not None:
        x = x / model.input_scale
    return x


def forward(model: MlnnModel, x) -> np.ndarray:
    """Scores in [0, 1]; accepts one feature vector or a batch (rows)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"feature length {x.shape[1]} != input layer {model.layer_sizes[0]}")
    a = _standardize(model, x)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        kind = model.activations[i] if i < len(model.activations) else SIGMOID
        a = _act(z, kind)
    return a[:, 0]


def _forward_backward(model, x, y, loss_kind):
    """Mean loss and gradients over a batch; x pre-standardized rows."""
    acts = [x]
    zs = []
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        kind = model.activations[i] if i < len(model.activations) else SIGMOID
        a = _act(z, kind)
        zs.append(z)
        acts.append(a)
    score = acts[-1][:, 0]
    n = len(y)
    if loss_kind == LOSS_MSE:
        loss = float(np.mean((score - y) ** 2))
        # d loss / d z_out via sigmoid derivative
        delta = (2.0 / n) * (score - y)[:, None] * _act_grad(zs[-1], acts[-1], SIGMOID)
    elif loss_kind == LOSS_CROSS_ENTROPY:
        eps = 1e-12
        loss = float(-np.mean(y * np.log(score + eps)
                              + (1.0 - y) * np.log(1.0 - score + eps)))
        delta = (1.0 / n) * (score - y)[:, None]
    else:
        raise ValueError(f"unknown loss {loss_kind!r}")
    grads_w, grads_b = [], []
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w.append(delta.T @ acts[i])
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i]) * _act_grad(
                zs[i - 1], acts[i], model.activations[i - 1])
    return loss, grads_w[::-1], grads_b[::-1]


def batch_loss(model: MlnnModel, features, labels, loss_kind=LOSS_MSE) -> float:
    x = _standardize(model, np.asarray(features, dtype=float))
    loss, _, _ = _forward_backward(model, x, np.asarray(labels, dtype=float), loss_kind)
    return loss


@dataclass(frozen=True)
class TrainingSet:
    """Eigenvalue features (rows) with binary labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=float))
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be rows matching labels")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        ones = int(self.labels.sum())
        if abs(2 * ones - len(self.labels)) > 1:
            raise ValueError("classes must be balanced within one example")

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class Hyper:
    learning_rate: float = 0.3
    batch_size: int = 64
    epochs: int = 40
    seed: int = 0
    loss: str = LOSS_MSE

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ValueError("learning rate must be nonnegative")


def eig_features(eigs) -> np.ndarray:
    """Eigenvalues sorted descending and normalized by their sum.

    Accepts a sorted eigenvalue vector, or a matrix of them, one trial per
    row, normalized row by row.  The normalization makes the detector blind
    to absolute noise power.
    """
    eigs = np.asarray(eigs, float)
    total = eigs.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("degenerate covariance: nonpositive trace")
    return eigs / total


def train(model: MlnnModel, data: TrainingSet, hyper: Hyper):
    """Mini-batch SGD on MSE (or cross-entropy); returns (model, loss_history).

    Deterministic given the hyperparameter seed.  Weights are updated in
    place on a copied model; the input model is left untouched.
    """
    if not len(data):
        raise ValueError("empty training set")
    out = MlnnModel(model.layer_sizes, model.activations,
                    [w.copy() for w in model.weights],
                    [b.copy() for b in model.biases],
                    model.input_center, model.input_scale, dict(model.metadata))
    x_all = _standardize(out, data.features)
    y_all = data.labels
    rng = trial_rng(hyper.seed)
    history = []
    lr = hyper.learning_rate
    n = len(data)
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            loss, gw, gb = _forward_backward(out, x_all[idx], y_all[idx], hyper.loss)
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
                                   epochs=hyper.epochs, seed=hyper.seed,
                                   loss=hyper.loss),
                        n_examples=n)
    return out, history


def standardization_from(data: TrainingSet):
    """Per-feature center/scale for input normalization."""
    center = data.features.mean(axis=0)
    scale = data.features.std(axis=0)
    scale[scale <= 0] = 1.0
    return center, scale


STAGE1_SHAPE = (32,)


def select_architecture(candidate_activations, candidate_shapes,
                        dataset_factory, seed: int,
                        hyper: Hyper = Hyper(),
                        search_size: int = 8000,
                        final_ratio: float = 6.0):
    """Three-stage architecture selection.

    Stage 1 fixes the hidden activation by validation loss on a small
    default shape; stage 2 grid-searches hidden shapes with that
    activation; stage 3 retrains the winner on a fresh dataset sized
    ``final_ratio`` times its weight count (clamped to the 5-10x rule).

    ``dataset_factory(n_examples, seed)`` must return a balanced
    TrainingSet.  Returns (model, report) where the report records every
    candidate's score.
    """
    candidate_activations = tuple(candidate_activations)
    candidate_shapes = tuple(tuple(s) for s in candidate_shapes)
    if not candidate_activations or not candidate_shapes:
        raise ValueError("candidate lists must be nonempty")
    if not 5.0 <= final_ratio <= 10.0:
        raise ValueError("final dataset ratio must lie in [5, 10]")

    train_set = dataset_factory(search_size, seed)
    val_set = dataset_factory(max(search_size // 2, 2000), seed + 1)
    center, scale = standardization_from(train_set)
    n_features = train_set.features.shape[1]
    report = []

    def fit(shape, act, fit_data, fit_seed):
        sizes = (n_features, *shape, 1)
        model = init_model(sizes, (act,) * len(shape), fit_seed, center, scale)
        model, history = train(model, fit_data,
                               Hyper(hyper.learning_rate, hyper.batch_size,
                                     hyper.epochs, fit_seed, hyper.loss))
        return model, history

    # stage 1: activation on a small default shape
    stage1_shape = STAGE1_SHAPE if STAGE1_SHAPE in candidate_shapes else candidate_shapes[0]
    best_act, best_val = None, math.inf
    for i, act in enumerate(candidate_activations):
        model, _ = fit(stage1_shape, act, train_set, seed + 10 + i)
        val = batch_loss(model, val_set.features, val_set.labels, hyper.loss)
        report.append(dict(stage=1, activation=act, shape=stage1_shape, val_loss=val))
        if val < best_val:
            best_act, best_val = act, val

    # stage 2: depth and width with the chosen activation
    best_shape, best_val = None, math.inf
    for i, shape in enumerate(candidate_shapes):
        model, _ = fit(shape, best_act, train_set, seed + 100 + i)
        val = batch_loss(model, val_set.features, val_set.labels, hyper.loss)
        report.append(dict(stage=2, activation=best_act, shape=shape, val_loss=val))
        if val < best_val:
            best_shape, best_val = shape, val

    # stage 3: final fit on a dataset sized by the winner's weight count
    sizes = (n_features, *best_shape, 1)
    n_weights = init_model(sizes, (best_act,) * len(best_shape), 0).n_weights
    final_size = int(final_ratio * n_weights)
    final_set = dataset_factory(final_size, seed + 1000)
    ratio = len(final_set) / n_weights
    if not 5.0 <= ratio <= 10.0:
        raise TrainingError(
            f"final dataset ratio {ratio:.2f} outside the 5-10x rule")
    model, history = fit(best_shape, best_act, final_set, seed + 2000)
    val = batch_loss(model, val_set.features, val_set.labels, hyper.loss)
    report.append(dict(stage=3, activation=best_act, shape=best_shape,
                       val_loss=val, dataset_size=len(final_set),
                       n_weights=n_weights, dataset_ratio=ratio))
    model.metadata = dict(model.metadata, selection_seed=seed,
                          dataset_ratio=ratio, activation=best_act,
                          shape=list(best_shape))
    return model, report


def save_model(model: MlnnModel, path) -> None:
    """Versioned JSON dump; floats round-trip bit-exactly."""
    doc = dict(
        format_version=MODEL_FORMAT_VERSION,
        layer_sizes=list(model.layer_sizes),
        activations=list(model.activations),
        weights=[w.tolist() for w in model.weights],
        biases=[b.tolist() for b in model.biases],
        input_center=None if model.input_center is None else model.input_center.tolist(),
        input_scale=None if model.input_scale is None else model.input_scale.tolist(),
        metadata=model.metadata,
    )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> MlnnModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format_version')!r}")
    return MlnnModel(
        tuple(doc["layer_sizes"]), tuple(doc["activations"]),
        [np.asarray(w, dtype=float) for w in doc["weights"]],
        [np.asarray(b, dtype=float) for b in doc["biases"]],
        None if doc["input_center"] is None else np.asarray(doc["input_center"], float),
        None if doc["input_scale"] is None else np.asarray(doc["input_scale"], float),
        doc.get("metadata", {}),
    )
