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
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arrays import (
    CONSTANT_MODULUS,
    GAUSSIAN,
    ArrayConfig,
    EmitterScenario,
    synthesize_snapshot_rows,
)
from .crlb import RAD2_TO_DEG2, crlb_had, crlb_tlhad
from .detect import (
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
    eliminator_sets,
    had_eliminator_rows,
    require_fd_block,
    tlhad_estimate_rows,
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
from .quantize import normalise, performance_loss_db, quantize
from .rng import CALIBRATION_STREAMS, ROC_STREAMS, TrialStreams
from .spectral import root_music_rows, signal_vectors

# a config key: its default text, the parser of that text (which raises
# ValueError on text it cannot read), and a check of the parsed value with
# what the check means
Setting = namedtuple("Setting", "default parse check meaning")


def _parse_list(text, conv=float):
    return tuple(conv(x.strip()) for x in str(text).split(",") if x.strip())


def _parse_shapes(text):
    return tuple(_parse_list(s, int) for s in str(text).split("|") if s.strip())


def _count(default, low):
    return Setting(default, int, lambda v: v >= low, f"an integer of at least {low}")


def _choice(default, options):
    return Setting(default, str, options.__contains__, "one of " + ", ".join(options))


def _list(default, parse, accept, meaning):
    # every list needs a value: an empty curve list would run no curve
    # point, or only the unquantized reference rows of loss-bits
    return Setting(default, parse, lambda v: bool(v) and all(map(accept, v)),
                   f"a list of at least one value, each {meaning}")


# ADC resolutions [quant] bits accepts: the Lloyd-Max solve takes a
# fraction of a second at 16 bits, but fails after 24 s at 20 bits and
# cannot allocate its 2**64 levels at 64 bits
MAX_BITS = 16

# SNRs in dB the runs accept: past about 3000 dB the power 10**(snr/10)
# overflows or reaches zero; 300 dB keeps the power, the snapshots and
# the bounds well inside the range of a double
MAX_SNR_DB = 300.0
_SNR = (lambda v: abs(v) <= MAX_SNR_DB, f"a number in [-{MAX_SNR_DB:g}, {MAX_SNR_DB:g}]")

# flat sectioned key=value schema; every key has a default, unknown keys
# are rejected at parse time, and load_config parses and checks every key
SCHEMA = {
    "run": {
        # the Philox key holds the seed in one 64-bit word, and rng.rekey
        # refuses a seed outside it; refused here, it exits 2 at load
        "seed": Setting("20240901", int, lambda v: 0 <= v < 1 << 64,
                        "an integer in [0, 2**64)"),
        "trials": _count("", 100),  # empty = per-experiment default
        "out": Setting("out", str, lambda v: True, "a directory"),
        "workers": _count("1", 1),
    },
    "array": {
        "n_total": _count("64", 2),
        "m_sub": _count("4", 1),
        "fd_proportion": Setting("0.25", float, lambda v: 0.0 <= v <= 1.0,
                                 "a number in [0, 1]"),
        # the FD block is a ULA, which aliases past half a wavelength; and
        # a wider spacing grows the candidate lattice, ceil(2 M d) per
        # trial, without bound
        "spacing": Setting("0.5", float, lambda v: 0.0 < v <= 0.5,
                           "a number in (0, 0.5]"),
    },
    "scenario": {
        "snr_db": Setting("-20", float, *_SNR),
        "snr_db_list": _list("0,5,10,15", _parse_list, *_SNR),
        "theta_deg": Setting("15", float, lambda v: -90.0 < v < 90.0,
                             "a number in (-90, 90)"),
        "n_snapshots": _count("200", 1),
        "t_snapshots": _count("1", 1),
        "signal_model": _choice(CONSTANT_MODULUS, (CONSTANT_MODULUS, GAUSSIAN)),
    },
    "rmse": {
        "eta_grid": _list("0.0625,0.25,0.5,0.75,1.0", _parse_list,
                          lambda eta: 0.0 < eta <= 1.0, "in (0, 1]"),
        "eta_snr_db_list": _list("-10,0,10", _parse_list, *_SNR),
    },
    "quant": {
        "bits": _list("1,2,3,4,5,6,7,8", partial(_parse_list, conv=int),
                      lambda b: 1 <= b <= MAX_BITS, f"an integer in [1, {MAX_BITS}]"),
        "n_antennas": _count("32", 2),
        "n_snapshots": _count("50", 1),
        "snr_db_list": _list("-10,0,10", _parse_list, *_SNR),
        "empirical_trials": _count("500", 1),
    },
    "mlnn": {
        "activations": _list("sigmoid,tanh,relu", partial(_parse_list, conv=str),
                             ACTIVATIONS.__contains__, "one of " + ", ".join(ACTIVATIONS)),
        "shapes": _list("16|32|64|16,16|32,32|64,64|16,16,16|32,32,32|64,64,64",
                        _parse_shapes, lambda s: bool(s) and min(s) >= 1,
                        "a comma list of layer widths of at least 1"),
        "search_size": _count("8000", 2),
        "final_ratio": Setting("6", float, lambda v: 5.0 <= v <= 10.0,
                               "a number in [5, 10]"),
        "learning_rate": Setting("0.3", float, lambda v: 0.0 <= v < math.inf,
                                 "a finite nonnegative number"),
        "batch_size": _count("64", 1),
        "epochs": _count("40", 1),
    },
}

DEFAULT_TRIALS = {
    "roc": 10_000,
    "rmse-snr": 2_000,
    "rmse-eta": 2_000,
    "loss-bits": 500,
    "train-mlnn": 10_000,  # validation trials for threshold calibration
}
EXPERIMENTS = tuple(DEFAULT_TRIALS)

# false-alarm probabilities train-mlnn stores thresholds for
THRESHOLD_FAPS = (0.01, 0.1)


@dataclass
class ExperimentConfig:
    """Validated experiment settings: the text of every key, and the value
    ``load_config`` parsed from it."""

    experiment: str
    values: dict
    parsed: dict

    def __getitem__(self, key):
        return self.values[key]

    def value(self, key):
        return self.parsed[key]

    seed = property(lambda self: self.value("run.seed"))
    trials = property(lambda self: self.value("run.trials"))
    out_dir = property(lambda self: self.value("run.out"))
    workers = property(lambda self: self.value("run.workers"))

    @property
    def digest(self) -> str:
        # out and workers are execution environment, not experiment identity
        skip = ("run.out", "run.workers")
        text = self.experiment + "".join(
            f"|{k}={self.values[k]}" for k in sorted(self.values) if k not in skip)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def array_config(self, fd_proportion=None) -> ArrayConfig:
        """The [array] two-layer array, at ``fd_proportion`` if given."""
        if fd_proportion is None:
            fd_proportion = self.value("array.fd_proportion")
        return ArrayConfig.two_layer(
            self.value("array.n_total"), self.value("array.m_sub"),
            fd_proportion, self.value("array.spacing"))


def _parse(key, setting, text):
    """``text`` parsed by ``setting`` and checked, else ConfigError."""
    try:
        value = setting.parse(text)
        if setting.check(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"{key} must be {setting.meaning}, got {text!r}")


def load_config(experiment: str, path=None, seed=None, out=None,
                workers=None) -> ExperimentConfig:
    """Read a sectioned key=value file, apply defaults, reject unknowns,
    and parse and check every key."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    values = {f"{sec}.{key}": setting.default for sec, keys in SCHEMA.items()
              for key, setting in keys.items()}
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
    if experiment == "loss-bits" and values["run.trials"]:
        raise ConfigError("loss-bits does not read [run] trials; its trial "
                          "count is [quant] empirical_trials")
    values["run.trials"] = values["run.trials"] or str(DEFAULT_TRIALS[experiment])
    parsed = {f"{sec}.{key}": _parse(f"{sec}.{key}", setting,
                                     values[f"{sec}.{key}"])
              for sec, keys in SCHEMA.items() for key, setting in keys.items()}
    floor = TAIL_SCORES / min(THRESHOLD_FAPS)  # for the thresholds' H0 scores
    if experiment == "train-mlnn" and parsed["run.trials"] < floor:
        raise ConfigError(f"train-mlnn needs run.trials of at least "
                          f"{math.ceil(floor)}, got {values['run.trials']}")
    values["run.trials"] = str(parsed["run.trials"])
    config = ExperimentConfig(experiment, values, parsed)
    # the subarray partition couples several keys, so only the arrays built
    # from all of them can tell whether they fit together; only the rmse
    # runs build them, rmse-snr at fd_proportion and rmse-eta at each eta
    etas = {"rmse-snr": [parsed["array.fd_proportion"]],
            "rmse-eta": parsed["rmse.eta_grid"]}.get(experiment, ())
    try:
        arrays = [config.array_config(eta) for eta in etas]
    except ValueError as exc:
        raise ConfigError(f"[array] settings do not fit together: {exc}") from None
    # so do the estimators' needs, which would otherwise fail in a trial
    for cfg in arrays:
        require_fd_block(cfg)
        if experiment == "rmse-snr":
            eliminator_sets(cfg)
    u = math.sin(math.radians(parsed["scenario.theta_deg"]))
    if experiment == "rmse-snr" and not broadside_gain_ok(arrays[0], u):
        raise ConfigError(
            f"scenario.theta_deg must leave the broadside analog beam "
            f"its gain, got {values['scenario.theta_deg']!r}, which sits "
            f"in a null of the {arrays[0].m_sub}-antenna subarrays")
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


# samples (trials x channels x snapshots x sets) of the draws one Monte
# Carlo block keeps at most: 2 MiB, as many bytes as the complex snapshots
# of one curve point drawn from them
BLOCK_SAMPLES = 1 << 17


@dataclass(frozen=True)
class _Pool:
    """The map a run's trial blocks go through, with the worker count
    behind it, which sizes the blocks (``_monte_carlo``)."""

    map: object
    workers: int


# the pool of one worker: trial blocks run in the calling process
_IN_PROCESS = _Pool(map, 1)


@contextmanager
def _pool(workers: int):
    """Yield the ``_Pool`` of a run of ``workers`` workers: the
    in-process one for one worker, else the map of one process pool that
    lives until the context exits.  A run opens it once and hands it to
    every helper that maps trials.  The pool forks at most one process per
    CPU this process may run on, since the executor starts all of its
    processes at once, and the blocks are planned for the processes it
    forks.
    """
    if workers <= 1:
        yield _IN_PROCESS
    else:
        # sched_getaffinity is missing on macOS and Windows
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(workers, cpus)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield _Pool(pool.map, workers)


def _monte_carlo(kernel, points, n, seed, pool, trial_size, offset=0):
    """Per curve point ``args`` of ``points``, the rows of
    ``kernel(*args, streams)`` for the ``TrialStreams`` of trials
    [offset, offset + n) at ``seed``.

    The trials are split into blocks, ranges of trial indices that every
    point shares: one block per worker of ``pool``, or more where a block
    would keep over ``BLOCK_SAMPLES`` samples at ``trial_size`` samples a
    trial, but no more blocks than trials, and one empty block for no
    trials.  A block runs each point's kernel in turn on one
    ``TrialStreams``, so the points after the first draw no snapshots the
    first drew (``synthesize_snapshot_rows``), and the blocks go through
    one ``pool.map`` call.  Every trial draws from its own stream and the
    rows come back in trial order, so the result does not depend on how
    blocks meet workers.
    """
    per_block = max(1, BLOCK_SAMPLES // trial_size)
    k = min(max(pool.workers, math.ceil(n / per_block)), max(n, 1))
    bounds = [offset + n * i // k for i in range(k + 1)]
    blocks = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    rows = list(pool.map(partial(_run_block, kernel, points, seed), blocks))
    return [np.concatenate(point) for point in zip(*rows)]


def _run_block(kernel, points, seed, trials):
    """One task of ``_monte_carlo``: a block of trials at every point."""
    streams = TrialStreams(seed, trials)
    return [kernel(*args, streams) for args in points]


def _rms(x) -> float:
    return float(np.sqrt(np.mean(x ** 2)))


def _emitter(config, snr_db, n_snapshots):
    """The [scenario] emitter at ``snr_db`` over ``n_snapshots``."""
    return EmitterScenario.single_emitter(
        config.value("scenario.theta_deg"), snr_db, n_snapshots,
        signal_model=config.value("scenario.signal_model"))


def detection_eigs(n_total, l_snapshots, snr_db, hypothesis, n_trials, seed,
                   pool=_IN_PROCESS, offset=0, signal_model=CONSTANT_MODULUS):
    """Eigenvalue matrix for H0 or H1 detection trials (one stream each),
    mapped over the run's ``pool``: a block holds each trial's ``n_total``
    eigenvalues; no snapshots are drawn."""
    # the eigenvalue law does not depend on the direction (trial_eigs), so
    # every emitter sits at broadside
    if hypothesis == 0:
        scen = EmitterScenario.noise_only(l_snapshots)
    else:
        scen = EmitterScenario.single_emitter(0.0, snr_db, l_snapshots,
                                              signal_model=signal_model)
    return _monte_carlo(trial_eigs, [(ArrayConfig.fully_digital(n_total), scen)],
                        n_trials, seed, pool, n_total, offset)[0]


def make_detection_dataset_factory(n_total, l_snapshots, snr_db, seed,
                                   pool=_IN_PROCESS, signal_model=CONSTANT_MODULUS):
    """Factory(n, first_stream) -> balanced TrainingSet of normalized eig
    features, H0 then H1 trials from the streams at ``first_stream`` on."""

    def factory(n_examples, first_stream):
        n_h1 = n_examples // 2
        n_h0 = n_examples - n_h1
        e0 = detection_eigs(n_total, l_snapshots, snr_db, 0, n_h0, seed, pool,
                            offset=first_stream)
        e1 = detection_eigs(n_total, l_snapshots, snr_db, 1, n_h1, seed, pool,
                            offset=first_stream + n_h0, signal_model=signal_model)
        feats = eig_features(np.vstack([e0, e1]))
        labels = np.concatenate([np.zeros(n_h0), np.ones(n_h1)])
        return TrainingSet(feats, labels)

    return factory


# --- roc -------------------------------------------------------------------

def train_mlnn_model(config: ExperimentConfig, pool=_IN_PROCESS):
    """Three-stage selection + final training per the [mlnn] settings, its
    detection trials mapped over the run's ``pool``."""
    v = config.value
    n_total, l_snap = v("array.n_total"), v("scenario.n_snapshots")
    snr_db = v("scenario.snr_db")
    factory = make_detection_dataset_factory(
        n_total, l_snap, snr_db, config.seed, pool, v("scenario.signal_model"))
    hyper = Hyper(v("mlnn.learning_rate"), v("mlnn.batch_size"),
                  v("mlnn.epochs"))
    model, report = select_architecture(
        v("mlnn.activations"), v("mlnn.shapes"), factory, config.seed, hyper,
        v("mlnn.search_size"), v("mlnn.final_ratio"))
    model.metadata = dict(model.metadata, operating_point=dict(
        n_total=n_total, l_snapshots=l_snap, snr_db=snr_db))
    return model, report


def run_roc(config: ExperimentConfig, model=None):
    """ROC CSV for GLRT, R-MaxEV-MinEV, and the MLNN on paired realizations,
    drawn from the streams at ``ROC_STREAMS`` onwards."""
    n_total = config.value("array.n_total")
    l_snap = config.value("scenario.n_snapshots")
    snr_db = config.value("scenario.snr_db")
    trials = config.trials
    if model is not None and model.layer_sizes[0] != n_total:
        raise ConfigError(f"the model takes {model.layer_sizes[0]} eigenvalues "
                          f"but [array] n_total is {n_total}")
    with _pool(config.workers) as pool:
        if model is None:
            model, _ = train_mlnn_model(config, pool)
        e0 = detection_eigs(n_total, l_snap, snr_db, 0, trials, config.seed,
                            pool, offset=ROC_STREAMS)
        e1 = detection_eigs(n_total, l_snap, snr_db, 1, trials, config.seed,
                            pool, offset=ROC_STREAMS + trials,
                            signal_model=config.value("scenario.signal_model"))
    scores = {}
    for tag, eigs in (("h0", e0), ("h1", e1)):
        scores[tag] = {
            "glrt": glrt_statistic(eigs),
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

def _rmse_block(cfg, scen, eliminators, streams):
    """Paired DOA errors (degrees) at one curve point: with
    ``eliminators`` a column each for the classic and the fast
    eliminator, then one for the two-layer estimator.

    The classic and fast eliminators see the HAD subsystem of ``cfg`` and
    one snapshot of ``scen``; the two-layer estimator sees the full array
    and every snapshot.  Each method runs over the whole block at once.
    All methods share the trial stream, so snapshot realizations are
    paired: the eliminators read each stream in one pass, and the
    two-layer estimator reads it again from its start, unless an earlier
    point of the block drew the same shapes (``synthesize_snapshot_rows``).
    """
    u = []
    if eliminators:
        cfg_had = ArrayConfig.pure_had(cfg.n_had, cfg.m_sub, cfg.spacing)
        classic, fast = had_eliminator_rows(cfg_had, scen, streams)
        u += [classic[0], fast[0]]
    u.append(tlhad_estimate_rows(cfg, scen, streams)[0])
    return np.degrees(np.arcsin(np.column_stack(u))) - scen.theta_deg


def _rmse_curve(config, points, eliminators):
    """Per curve point (cfg, snr_db) of ``points``, a (method, RMSE,
    sqrt CRLB) triple, both in degrees, for each column of
    ``_rmse_block``, from one Monte Carlo map over all points."""
    u = float(np.sin(np.radians(config.value("scenario.theta_deg"))))
    t_snap = config.value("scenario.t_snapshots")
    tasks = [(cfg, _emitter(config, snr_db, t_snap), eliminators)
             for cfg, snr_db in points]
    # the samples a block keeps per trial: one draw of each shape, as
    # (channels, snapshots, sets), of the two-layer estimator's snapshots
    # and of the eliminators' broadside and candidate snapshots
    shapes = {(cfg.n_total, t_snap, 1) for cfg, _ in points}
    if eliminators:
        shapes |= {(cfg.n_had, 1, eliminator_sets(cfg)) for cfg, _ in points}
    with _pool(config.workers) as pool:
        errors = _monte_carlo(_rmse_block, tasks, config.trials, config.seed,
                              pool, sum(n * t * sets for n, t, sets in shapes))
    methods = ((METHOD_CLASSIC, METHOD_FHAD) if eliminators else ()) + (METHOD_TLHAD,)
    curve = []
    for (cfg, scen, _), e in zip(tasks, errors):
        bounds = []
        if eliminators:
            # the HAD eliminators estimate from a broadside snapshot of the
            # HAD part, so their bound is that part's broadside one
            bounds += 2 * [math.sqrt(crlb_had(cfg, u, scen.power, 1) * RAD2_TO_DEG2)]
        bounds.append(math.sqrt(crlb_tlhad(cfg, u, scen.power, t_snap) * RAD2_TO_DEG2))
        curve.append(list(zip(methods, map(_rms, e.T), bounds)))
    return curve


def run_rmse_snr(config: ExperimentConfig):
    """RMSE versus SNR for the three estimators, with CRLB benchmark columns."""
    snrs = config.value("scenario.snr_db_list")
    curve = _rmse_curve(config, [(config.array_config(), snr_db)
                                 for snr_db in snrs], eliminators=True)
    rows = [(snr_db, method, rmse, bound, config.trials, config.seed,
             config.digest)
            for snr_db, point in zip(snrs, curve)
            for method, rmse, bound in point]
    path = os.path.join(config.out_dir, "rmse_snr.csv")
    _write_csv(path, ["snr_db", "method", "rmse_deg", "sqrt_crlb_deg",
                      "trials", "seed", "digest"], rows)
    return path, rows


def run_rmse_eta(config: ExperimentConfig):
    """Two-layer RMSE and bound versus FD proportion, per SNR."""
    points = []
    for eta in config.value("rmse.eta_grid"):
        cfg = config.array_config(eta)
        if abs(cfg.fd_proportion - eta) > 1e-9:
            warnings.warn(f"eta={eta} rounded down to {cfg.fd_proportion}",
                          stacklevel=2)
        points += [(cfg, snr_db)
                   for snr_db in config.value("rmse.eta_snr_db_list")]
    curve = _rmse_curve(config, points, eliminators=False)
    rows = [(cfg.fd_proportion, snr_db, rmse, bound, config.trials,
             config.seed, config.digest)
            for (cfg, snr_db), [(_, rmse, bound)] in zip(points, curve)]
    path = os.path.join(config.out_dir, "rmse_eta.csv")
    _write_csv(path, ["eta", "snr_db", "rmse_deg", "sqrt_crlb_deg", "trials",
                      "seed", "digest"], rows)
    return path, rows


# --- quantization ----------------------------------------------------------

def _quant_block(cfg, scen, bits, streams):
    """Root-MUSIC errors in u at one SNR: one column per bit depth of
    ``bits``, then the unquantized estimate in the last column.  Each
    trial's snapshots are drawn once, for every SNR of the block
    (``synthesize_snapshot_rows``), and the unquantized stack is rooted
    once; every bit depth quantizes that same draw, normalised once, so
    the columns are paired, and the block's trials are stacked, so every
    column comes from one search."""
    u_true = math.sin(math.radians(scen.theta_deg))
    x = synthesize_snapshot_rows(cfg, scen, streams)[:, 0]
    unquantized = root_music_rows(signal_vectors(x), cfg.spacing)
    norm = normalise(x)
    del x  # the normalised parts take its place
    u = [root_music_rows(signal_vectors(quantize(norm, b)), cfg.spacing)
         for b in bits]
    return np.column_stack((*u, unquantized)) - u_true


def run_loss_bits(config: ExperimentConfig):
    """AQNM loss formula versus bits, with an empirical Root-MUSIC column."""
    bits_grid = config.value("quant.bits")
    cfg = ArrayConfig.fully_digital(config.value("quant.n_antennas"))
    l_snap = config.value("quant.n_snapshots")
    emp_trials = config.value("quant.empirical_trials")
    snrs = config.value("quant.snr_db_list")
    points = [(cfg, _emitter(config, snr_db, l_snap), bits_grid)
              for snr_db in snrs]
    with _pool(config.workers) as pool:
        curve = _monte_carlo(_quant_block, points, emp_trials, config.seed,
                             pool, cfg.n_total * l_snap)
    rows = []
    for snr_db, errors in zip(snrs, curve):
        rmse_u = _rms(errors[:, -1])
        for bits, column in zip(bits_grid, errors.T):
            rmse_q = _rms(column)
            empirical_db = (20.0 * math.log10(rmse_q / rmse_u) if rmse_u > 0
                            else 0.0)
            rows.append((bits, snr_db, performance_loss_db(bits, snr_db),
                         empirical_db, emp_trials, config.seed, config.digest))
        # the unquantized reference loses nothing by either measure
        rows.append(("inf", snr_db, 0.0, 0.0, emp_trials, config.seed,
                     config.digest))
    path = os.path.join(config.out_dir, "loss_bits.csv")
    _write_csv(path, ["bits", "snr_db", "loss_db_formula", "loss_db_empirical",
                      "trials", "seed", "digest"], rows)
    return path, rows


# --- mlnn training ---------------------------------------------------------

def run_train_mlnn(config: ExperimentConfig):
    """Architecture selection, final training, and threshold calibration."""
    with _pool(config.workers) as pool:
        model, report = train_mlnn_model(config, pool)
        # threshold calibration on fresh H0 scores
        e0 = detection_eigs(config.value("array.n_total"),
                            config.value("scenario.n_snapshots"),
                            config.value("scenario.snr_db"), 0, config.trials,
                            config.seed, pool, offset=CALIBRATION_STREAMS)
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
    """Dispatch one experiment; returns the primary output path.  The
    output directory is made first, so one that cannot be made is a
    ConfigError before any trial runs, and so is a ``roc`` model file
    that cannot load."""
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory "
                          f"{config.out_dir}: {exc}") from None
    if config.experiment == "roc":
        try:
            model = load_model(model_path) if model_path else None
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot load model {model_path}: {exc}") from None
        return run_roc(config, model)[0]
    # run_* are looked up per call, so wrappers set on this module apply
    runs = {"rmse-snr": run_rmse_snr, "rmse-eta": run_rmse_eta,
            "loss-bits": run_loss_bits, "train-mlnn": run_train_mlnn}
    return runs[config.experiment](config)[0]
