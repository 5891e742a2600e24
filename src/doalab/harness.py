"""Seeded Monte Carlo experiment runner.

Each experiment produces one benchmark curve as CSV: detector
ROCs, RMSE versus SNR, RMSE versus FD proportion, quantization loss versus
bits, and the neural detector training pipeline.  Outputs are
deterministic for a given master seed and identical across worker counts:
every trial draws from its own counter-based stream keyed by
(seed, trial index), and aggregation is ordered by trial index.
"""

import configparser
import csv
import hashlib
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arrays import (
    CONSTANT_MODULUS,
    GAUSSIAN,
    ArrayConfig,
    EmitterScenario,
    synthesize_snapshots,
)
from .crlb import RAD2_TO_DEG2, crlb_had, crlb_tlhad
from .detect import (
    BATCH,
    GLRT_MAX_OVER_MEAN,
    GLRT_SPHERICITY,
    TAIL_SCORES,
    decision_threshold,
    glrt_statistic,
    maxmin_statistic,
    roc_points,
    trial_eigs,
)
from .doa import (
    METHOD_CLASSIC,
    METHOD_FHAD,
    METHOD_TLHAD,
    broadside_gain_ok,
    fhad_root_music,
    had_root_music_classic,
    tlhad_estimate,
)
from .errors import ConfigError
from .mlnn import (
    ACTIVATIONS,
    Hyper,
    TrainingSet,
    eig_features,
    forward,
    load_model,
    save_model,
    select_architecture,
)
from .quantize import performance_loss_db, quantize
from .rng import trial_rng
from .spectral import root_music, sample_covariance

EXPERIMENTS = ("roc", "rmse-snr", "rmse-eta", "loss-bits", "train-mlnn")

# flat sectioned key=value schema; every key has a default, unknown keys
# are rejected at parse time
SCHEMA = {
    "run": {
        "seed": "20240901",
        "trials": "",  # empty = per-experiment default
        "out": "out",
        "workers": "1",
    },
    "array": {
        "n_total": "64",
        "m_sub": "4",
        "fd_proportion": "0.25",
        "spacing": "0.5",
    },
    "scenario": {
        "snr_db": "-20",
        "snr_db_list": "0,5,10,15",
        "theta_deg": "15",
        "n_snapshots": "200",
        "t_snapshots": "1",
        "signal_model": CONSTANT_MODULUS,
    },
    "detect": {
        "target_fap": "0.1",
        # sphericity reproduces the published detector ordering; the
        # max-over-mean form is available here as well
        "glrt_form": "sphericity",
    },
    "rmse": {
        "eta_grid": "0.0625,0.25,0.5,0.75,1.0",
        "eta_snr_db_list": "-10,0,10",
    },
    "quant": {
        "bits": "1,2,3,4,5,6,7,8",
        "n_antennas": "32",
        "n_snapshots": "50",
        "snr_db_list": "-10,0,10",
        "empirical_trials": "500",
    },
    "mlnn": {
        "activations": "sigmoid,tanh,relu",
        "shapes": "16|32|64|16,16|32,32|64,64|16,16,16|32,32,32|64,64,64",
        "search_size": "8000",
        "final_ratio": "6",
        "learning_rate": "0.3",
        "batch_size": "64",
        "epochs": "40",
        "snr_jitter_db": "0",
    },
}

# numeric settings with the values load_config accepts; anything else
# would fail deep inside a run instead of as a config error
BOUNDS = (
    ("run.trials", int, lambda v: v >= 100, "at least 100"),
    ("run.workers", int, lambda v: v >= 1, "at least 1"),
    ("array.n_total", int, lambda v: v >= 2, "at least 2"),
    ("array.m_sub", int, lambda v: v >= 1, "at least 1"),
    ("array.fd_proportion", float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("array.spacing", float, lambda v: v > 0, "positive"),
    ("scenario.snr_db", float, math.isfinite, "finite"),
    ("scenario.theta_deg", float, lambda v: -90.0 < v < 90.0, "in (-90, 90)"),
    ("scenario.n_snapshots", int, lambda v: v >= 1, "at least 1"),
    ("scenario.t_snapshots", int, lambda v: v >= 1, "at least 1"),
    ("quant.n_antennas", int, lambda v: v >= 2, "at least 2"),
    ("quant.n_snapshots", int, lambda v: v >= 1, "at least 1"),
    ("quant.empirical_trials", int, lambda v: v >= 1, "at least 1"),
    ("mlnn.search_size", int, lambda v: v >= 2, "at least 2"),
    ("mlnn.final_ratio", float, lambda v: 5.0 <= v <= 10.0, "in [5, 10]"),
    ("mlnn.learning_rate", float, lambda v: 0.0 <= v < math.inf,
     "finite and nonnegative"),
    ("mlnn.batch_size", int, lambda v: v >= 1, "at least 1"),
    ("mlnn.epochs", int, lambda v: v >= 1, "at least 1"),
    ("mlnn.snr_jitter_db", float, lambda v: 0.0 <= v < math.inf,
     "finite and nonnegative"),
)

# SNR lists, in dB; every value must be finite
SNR_LISTS = ("scenario.snr_db_list", "rmse.eta_snr_db_list", "quant.snr_db_list")

DEFAULT_TRIALS = {
    "roc": 10_000,
    "rmse-snr": 2_000,
    "rmse-eta": 2_000,
    "loss-bits": 500,
    "train-mlnn": 10_000,  # validation trials for threshold calibration
}

# false-alarm probabilities train-mlnn stores thresholds for
THRESHOLD_FAPS = (0.01, 0.1)


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment settings."""

    experiment: str
    values: dict
    seed: int
    trials: int
    out_dir: str
    workers: int

    def __getitem__(self, key):
        return self.values[key]

    @property
    def digest(self) -> str:
        # out and workers are execution environment, not experiment identity
        skip = ("run.out", "run.workers")
        text = self.experiment + "".join(
            f"|{k}={self.values[k]}" for k in sorted(self.values) if k not in skip)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def array_config(self) -> ArrayConfig:
        return ArrayConfig.two_layer(
            int(self["array.n_total"]), int(self["array.m_sub"]),
            float(self["array.fd_proportion"]), float(self["array.spacing"]))


def _parse_list(text, conv=float):
    return tuple(conv(x.strip()) for x in str(text).split(",") if x.strip())


def _parse_shapes(text):
    return tuple(_parse_list(s, int) for s in str(text).split("|") if s.strip())


def load_config(experiment: str, path=None, seed=None, out=None,
                workers=None) -> ExperimentConfig:
    """Read a sectioned key=value file, apply defaults, reject unknowns."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    values = {f"{sec}.{key}": val for sec, keys in SCHEMA.items()
              for key, val in keys.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
            for sec in parser.sections():
                if sec not in SCHEMA:
                    raise ConfigError(f"unknown config section [{sec}]")
                for key, val in parser.items(sec):
                    if key not in SCHEMA[sec]:
                        raise ConfigError(
                            f"unknown key {key!r} in section [{sec}]")
                    values[f"{sec}.{key}"] = val
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
    if seed is not None:
        values["run.seed"] = str(seed)
    if out is not None:
        values["run.out"] = str(out)
    if workers is not None:
        values["run.workers"] = str(workers)
    values["run.trials"] = values["run.trials"] or str(DEFAULT_TRIALS[experiment])
    try:
        seed_val = int(values["run.seed"])
        num = {key: conv(values[key]) for key, conv, _, _ in BOUNDS}
        bits = _parse_list(values["quant.bits"], int)
        eta_grid = _parse_list(values["rmse.eta_grid"])
        snr_lists = {key: _parse_list(values[key]) for key in SNR_LISTS}
        shapes = _parse_shapes(values["mlnn.shapes"])
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from None
    for key, _, accept, meaning in BOUNDS:
        if not accept(num[key]):
            raise ConfigError(f"{key} must be {meaning}, got {values[key]}")
    for key, snrs in snr_lists.items():
        if not all(map(math.isfinite, snrs)):
            raise ConfigError(f"{key} values must be finite, got {values[key]}")
    if values["scenario.signal_model"] not in (CONSTANT_MODULUS, GAUSSIAN):
        raise ConfigError(f"unknown signal model {values['scenario.signal_model']!r}")
    if values["detect.glrt_form"] not in (GLRT_MAX_OVER_MEAN, GLRT_SPHERICITY):
        raise ConfigError(f"unknown GLRT form {values['detect.glrt_form']!r}")
    if any(b < 1 for b in bits):
        raise ConfigError("quant bits must be integers of at least 1")
    if not all(0.0 < eta <= 1.0 for eta in eta_grid):
        raise ConfigError("eta grid values must lie in (0, 1]")
    activations = _parse_list(values["mlnn.activations"], str)
    if not activations or not set(activations) <= set(ACTIVATIONS):
        raise ConfigError(f"mlnn.activations must be drawn from {ACTIVATIONS}, "
                          f"got {values['mlnn.activations']!r}")
    if not shapes or not all(shape and min(shape) >= 1 for shape in shapes):
        raise ConfigError("mlnn.shapes must be positive layer widths, got "
                          f"{values['mlnn.shapes']!r}")
    floor = TAIL_SCORES / min(THRESHOLD_FAPS)  # for the thresholds' H0 scores
    if experiment == "train-mlnn" and num["run.trials"] < floor:
        raise ConfigError(f"train-mlnn needs run.trials of at least "
                          f"{math.ceil(floor)}, got {values['run.trials']}")
    values["run.trials"] = str(num["run.trials"])
    config = ExperimentConfig(experiment, values, seed_val, num["run.trials"],
                              values["run.out"], num["run.workers"])
    # the subarray partition couples several keys, so only the arrays built
    # from all of them can tell whether they fit together
    try:
        config.array_config()
        if experiment == "rmse-eta":
            for eta in eta_grid:
                ArrayConfig.two_layer(num["array.n_total"], num["array.m_sub"],
                                      eta, num["array.spacing"])
    except ValueError as exc:
        raise ConfigError(f"[array] settings do not fit together: {exc}") from None
    return config


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


@contextmanager
def _pool(workers):
    """Yield the map a run's trial blocks go through: the built-in ``map``
    for one worker, else the map of one process pool that lives until the
    context exits.  ``workers`` may already be such a map, held by the
    enclosing run; it is passed through, so a run opens at most one pool.
    """
    if callable(workers):
        yield workers
    elif workers <= 1:
        yield map
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield pool.map


def _monte_carlo(block_fn, params, n, seed, pmap, n_blocks, offset=0):
    """Rows of ``block_fn(params, seed, trials)`` for trials [offset, offset + n),
    split into ``n_blocks`` ranges of trial indices mapped by ``pmap``.

    Every trial draws from its own stream and the rows come back in trial
    order, so the result does not depend on how blocks meet workers.
    """
    bounds = offset + np.linspace(0, n, n_blocks + 1).astype(int)
    blocks = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    return np.concatenate(list(pmap(partial(block_fn, params, seed), blocks)))


def _rms(x) -> float:
    return float(np.sqrt(np.mean(x ** 2)))


def _detection_block(params, seed, trials):
    n_total, l_snapshots, snr_db, jitter_db, hypothesis = params
    # the eigenvalue law does not depend on the direction (trial_eigs), so
    # every emitter sits at broadside
    if hypothesis == 0:
        scen = EmitterScenario.noise_only(l_snapshots)
    else:
        scen = EmitterScenario.single_emitter(0.0, snr_db, l_snapshots)

    def scen_for(rng):
        if hypothesis == 0 or not jitter_db:
            return scen
        snr = snr_db + rng.uniform(-jitter_db, jitter_db)
        return EmitterScenario.single_emitter(0.0, snr, l_snapshots)

    return trial_eigs(ArrayConfig.fully_digital(n_total), scen_for, seed,
                      trials.start, trials.stop)


def detection_eigs(n_total, l_snapshots, snr_db, hypothesis, n_trials, seed,
                   workers=1, jitter_db=0.0, offset=0):
    """Eigenvalue matrix for H0 or H1 detection trials (one stream each).

    ``workers`` is a process count or the map of a run's pool (``_pool``).
    """
    params = (n_total, l_snapshots, snr_db, jitter_db, hypothesis)
    with _pool(workers) as pmap:
        return _monte_carlo(_detection_block, params, n_trials, seed, pmap,
                            math.ceil(n_trials / BATCH), offset)


def make_detection_dataset_factory(n_total, l_snapshots, snr_db,
                                   jitter_db=0.0, workers=1):
    """Factory(n, seed) -> balanced TrainingSet of normalized eig features."""

    def factory(n_examples, seed):
        n_h1 = n_examples // 2
        n_h0 = n_examples - n_h1
        e0 = detection_eigs(n_total, l_snapshots, snr_db, 0, n_h0, seed,
                            workers, jitter_db)
        e1 = detection_eigs(n_total, l_snapshots, snr_db, 1, n_h1, seed,
                            workers, jitter_db, offset=n_h0)
        feats = eig_features(np.vstack([e0, e1]))
        labels = np.concatenate([np.zeros(n_h0), np.ones(n_h1)])
        return TrainingSet(feats, labels)

    return factory


# --- roc -------------------------------------------------------------------

def train_mlnn_model(config: ExperimentConfig, workers=None):
    """Three-stage selection + final training per the [mlnn] settings."""
    n_total = int(config["array.n_total"])
    l_snap = int(config["scenario.n_snapshots"])
    snr_db = float(config["scenario.snr_db"])
    jitter = float(config["mlnn.snr_jitter_db"])
    factory = make_detection_dataset_factory(
        n_total, l_snap, snr_db, jitter, workers or config.workers)
    shapes = _parse_shapes(config["mlnn.shapes"])
    hyper = Hyper(float(config["mlnn.learning_rate"]),
                  int(config["mlnn.batch_size"]),
                  int(config["mlnn.epochs"]), config.seed)
    model, report = select_architecture(
        _parse_list(config["mlnn.activations"], str), shapes, factory,
        config.seed, hyper, int(config["mlnn.search_size"]),
        float(config["mlnn.final_ratio"]))
    model.metadata = dict(model.metadata, operating_point=dict(
        n_total=n_total, l_snapshots=l_snap, snr_db=snr_db))
    return model, report


def run_roc(config: ExperimentConfig, model=None):
    """ROC CSV for GLRT, R-MaxEV-MinEV, and the MLNN on paired realizations."""
    n_total = int(config["array.n_total"])
    l_snap = int(config["scenario.n_snapshots"])
    snr_db = float(config["scenario.snr_db"])
    trials = config.trials
    with _pool(config.workers) as pmap:
        if model is None:
            model, _ = train_mlnn_model(config, pmap)
        e0 = detection_eigs(n_total, l_snap, snr_db, 0, trials, config.seed,
                            pmap)
        e1 = detection_eigs(n_total, l_snap, snr_db, 1, trials, config.seed,
                            pmap, offset=trials)
    glrt_form = config["detect.glrt_form"]
    scores = {}
    for tag, eigs in (("h0", e0), ("h1", e1)):
        scores[tag] = {
            "glrt": glrt_statistic(eigs, glrt_form),
            "r-maxev-minev": maxmin_statistic(eigs),
            "mlnn": forward(model, eig_features(eigs)),
        }
    rows = []
    for detector in ("glrt", "r-maxev-minev", "mlnn"):
        pts = roc_points(scores["h0"][detector], scores["h1"][detector])
        for fap, pd in pts:
            rows.append((fap, pd, detector, snr_db, n_total, l_snap,
                         trials, config.seed))
    path = os.path.join(config.out_dir, "roc.csv")
    _write_csv(path, ["fap", "pd", "detector", "snr_db", "n", "l",
                      "trials", "seed"], rows)
    return path, scores


# --- rmse ------------------------------------------------------------------

def _rmse_block(params, seed, trials):
    """Paired DOA errors (degrees) at one SNR point, one column per method.

    The classic and fast eliminators run on the HAD subsystem of the
    configured array; the two-layer estimator sees the full array.  All
    methods share the trial stream, so snapshot realizations are paired.
    """
    cfg, theta_deg, snr_db, t_snap, signal_model, methods = params
    cfg_had = (ArrayConfig.pure_had(cfg.n_had, cfg.m_sub, cfg.spacing)
               if cfg.k_sub >= 1 else None)
    scen_1, scen_t = (EmitterScenario.single_emitter(
        theta_deg, snr_db, t, signal_model=signal_model) for t in (1, t_snap))
    runners = {
        METHOD_CLASSIC: (had_root_music_classic, cfg_had, scen_1),
        METHOD_FHAD: (fhad_root_music, cfg_had, scen_1),
        METHOD_TLHAD: (tlhad_estimate, cfg, scen_t),
    }
    errors = np.empty((len(trials), len(methods)))
    for k, i in enumerate(trials):
        for j, m in enumerate(methods):
            fn, mcfg, scen = runners[m]
            est = fn(mcfg, scen, trial_rng(seed, i))
            errors[k, j] = est.angle_deg - theta_deg
    return errors


def _run_rmse_point(config, cfg, theta_deg, snr_db, methods, pmap):
    params = (cfg, theta_deg, snr_db, int(config["scenario.t_snapshots"]),
              config["scenario.signal_model"], methods)
    errors = _monte_carlo(_rmse_block, params, config.trials, config.seed,
                          pmap, 4 * config.workers)
    return {m: _rms(errors[:, j]) for j, m in enumerate(methods)}


def run_rmse_snr(config: ExperimentConfig):
    """RMSE versus SNR for the three estimators, with CRLB benchmark columns."""
    cfg = config.array_config()
    theta = float(config["scenario.theta_deg"])
    t_snap = int(config["scenario.t_snapshots"])
    if not broadside_gain_ok(cfg, math.sin(math.radians(theta))):
        raise ConfigError(
            f"theta={theta} sits in a broadside analog null; pick another angle")
    cfg_had = ArrayConfig.pure_had(cfg.n_had, cfg.m_sub, cfg.spacing)
    methods = (METHOD_CLASSIC, METHOD_FHAD, METHOD_TLHAD)
    rows = []
    with _pool(config.workers) as pmap:
        for snr_db in _parse_list(config["scenario.snr_db_list"]):
            rmse = _run_rmse_point(config, cfg, theta, snr_db, methods, pmap)
            # the HAD eliminators estimate from a broadside snapshot, so their
            # bound is the broadside one
            sqrt_had = math.sqrt(crlb_had(cfg_had, theta, snr_db, 1,
                                          analog_steer_u=0.0) * RAD2_TO_DEG2)
            sqrt_crlb = {
                METHOD_CLASSIC: sqrt_had,
                METHOD_FHAD: sqrt_had,
                METHOD_TLHAD: math.sqrt(
                    crlb_tlhad(cfg, theta, snr_db, t_snap) * RAD2_TO_DEG2),
            }
            for m in methods:
                rows.append((snr_db, m, rmse[m], sqrt_crlb[m], config.trials,
                             config.seed, config.digest))
    path = os.path.join(config.out_dir, "rmse_snr.csv")
    _write_csv(path, ["snr_db", "method", "rmse_deg", "sqrt_crlb_deg",
                      "trials", "seed", "digest"], rows)
    return path, rows


def run_rmse_eta(config: ExperimentConfig):
    """Two-layer RMSE and bound versus FD proportion, per SNR."""
    n_total = int(config["array.n_total"])
    m_sub = int(config["array.m_sub"])
    spacing = float(config["array.spacing"])
    theta = float(config["scenario.theta_deg"])
    t_snap = int(config["scenario.t_snapshots"])
    rows = []
    with _pool(config.workers) as pmap:
        for eta in _parse_list(config["rmse.eta_grid"]):
            cfg = ArrayConfig.two_layer(n_total, m_sub, eta, spacing)
            if abs(cfg.fd_proportion - eta) > 1e-9:
                warnings.warn(f"eta={eta} rounded down to {cfg.fd_proportion}",
                              stacklevel=2)
            for snr_db in _parse_list(config["rmse.eta_snr_db_list"]):
                rmse = _run_rmse_point(config, cfg, theta, snr_db,
                                       (METHOD_TLHAD,), pmap)
                bound = math.sqrt(crlb_tlhad(cfg, theta, snr_db, t_snap)
                                  * RAD2_TO_DEG2)
                rows.append((cfg.fd_proportion, snr_db, rmse[METHOD_TLHAD],
                             bound, config.trials, config.seed, config.digest))
    path = os.path.join(config.out_dir, "rmse_eta.csv")
    _write_csv(path, ["eta", "snr_db", "rmse_deg", "sqrt_crlb_deg", "trials",
                      "seed", "digest"], rows)
    return path, rows


# --- quantization ----------------------------------------------------------

def _quant_block(params, seed, trials):
    """Root-MUSIC errors in u: the quantized estimate in column 0, the
    unquantized one in column 1."""
    n_antennas, l_snap, theta_deg, snr_db, bits = params
    cfg = ArrayConfig.fully_digital(n_antennas)
    scen = EmitterScenario.single_emitter(theta_deg, snr_db, l_snap)
    u_true = math.sin(math.radians(theta_deg))
    errors = np.empty((len(trials), 2))
    for k, i in enumerate(trials):
        x = synthesize_snapshots(cfg, scen, trial_rng(seed, i)).samples
        u_hat = root_music(sample_covariance(x), 1, cfg.spacing)[0]
        uq = root_music(sample_covariance(quantize(x, bits)), 1, cfg.spacing)[0]
        errors[k] = uq - u_true, u_hat - u_true
    return errors


def run_loss_bits(config: ExperimentConfig):
    """AQNM loss formula versus bits, with an empirical Root-MUSIC column."""
    bits_grid = _parse_list(config["quant.bits"], int)
    n_ant = int(config["quant.n_antennas"])
    l_snap = int(config["quant.n_snapshots"])
    theta = float(config["scenario.theta_deg"])
    emp_trials = int(config["quant.empirical_trials"])
    rows = []
    with _pool(config.workers) as pmap:
        for snr_db in _parse_list(config["quant.snr_db_list"]):
            for bits in [*bits_grid, math.inf]:
                loss_db = performance_loss_db(bits, snr_db)
                errors = _monte_carlo(
                    _quant_block, (n_ant, l_snap, theta, snr_db, bits),
                    emp_trials, config.seed, pmap, 2 * config.workers)
                rmse_q, rmse_u = _rms(errors[:, 0]), _rms(errors[:, 1])
                empirical_db = 20.0 * math.log10(rmse_q / rmse_u) if rmse_u > 0 else 0.0
                rows.append(("inf" if bits == math.inf else bits, snr_db,
                             loss_db, empirical_db, emp_trials, config.seed,
                             config.digest))
    path = os.path.join(config.out_dir, "loss_bits.csv")
    _write_csv(path, ["bits", "snr_db", "loss_db_formula", "loss_db_empirical",
                      "trials", "seed", "digest"], rows)
    return path, rows


# --- mlnn training ---------------------------------------------------------

def run_train_mlnn(config: ExperimentConfig):
    """Architecture selection, final training, and threshold calibration."""
    n_total = int(config["array.n_total"])
    l_snap = int(config["scenario.n_snapshots"])
    with _pool(config.workers) as pmap:
        model, report = train_mlnn_model(config, pmap)
        # threshold calibration on fresh H0 validation scores
        e0 = detection_eigs(n_total, l_snap, float(config["scenario.snr_db"]),
                            0, config.trials, config.seed + 7, pmap)
    scores = forward(model, eig_features(e0))
    thresholds = {fap: decision_threshold(scores, fap) for fap in THRESHOLD_FAPS}
    model.metadata = dict(model.metadata, thresholds={
        str(fap): tau for fap, tau in thresholds.items()})
    os.makedirs(config.out_dir, exist_ok=True)
    model_path = os.path.join(config.out_dir, "mlnn_model.json")
    save_model(model, model_path)
    rows = [(r["stage"], r["activation"], ",".join(map(str, r["shape"])),
             r["val_loss"], r.get("dataset_size", ""), r.get("n_weights", ""),
             r.get("dataset_ratio", ""), config.seed, config.digest)
            for r in report]
    report_path = os.path.join(config.out_dir, "mlnn_report.csv")
    _write_csv(report_path, ["stage", "activation", "shape", "val_loss",
                             "dataset_size", "n_weights", "dataset_ratio",
                             "seed", "digest"], rows)
    return model_path, report_path, model


def run_experiment(config: ExperimentConfig, model_path=None):
    """Dispatch one experiment; returns the primary output path."""
    if config.experiment == "roc":
        try:
            model = load_model(model_path) if model_path else None
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot load model {model_path}: {exc}") from None
        return run_roc(config, model)[0]
    if config.experiment == "rmse-snr":
        return run_rmse_snr(config)[0]
    if config.experiment == "rmse-eta":
        return run_rmse_eta(config)[0]
    if config.experiment == "loss-bits":
        return run_loss_bits(config)[0]
    if config.experiment == "train-mlnn":
        return run_train_mlnn(config)[0]
    raise ConfigError(f"unknown experiment {config.experiment!r}")
