"""Classical eigenvalue-based emitter detection: statistics, Monte Carlo
threshold calibration, and ROC curves.

Both statistics are scale-invariant, so the detectors are blind to the
absolute noise power.  Thresholds are calibrated empirically under H0
rather than taken from closed forms.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, EmitterScenario, synthesize_snapshots
from .rng import trial_rng

# trials per batched eigendecomposition
BATCH = 128

GLRT_MAX_OVER_MEAN = "max-over-mean"
GLRT_SPHERICITY = "sphericity"


@dataclass(frozen=True)
class DetectionResult:
    statistic: float
    threshold: float
    decision: bool  # True = H1
    detector: str

    def __post_init__(self):
        if self.decision != (self.statistic > self.threshold):
            raise ValueError("decision must equal statistic > threshold")


def decide(statistic: float, threshold: float, detector: str) -> DetectionResult:
    return DetectionResult(statistic, threshold, statistic > threshold, detector)


def maxmin_statistic(eigs: np.ndarray) -> float:
    """Ratio of the largest to the smallest eigenvalue (R-MaxEV-MinEV)."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size < 2:
        raise ValueError("need at least two eigenvalues")
    if eigs[-1] <= 0.0:
        return np.inf  # degenerate covariance
    return float(eigs[0] / eigs[-1])


def glrt_statistic(eigs: np.ndarray, form: str = GLRT_MAX_OVER_MEAN) -> float:
    """GLRT detection statistic over sorted eigenvalues.

    Default form is the blind rank-one test lambda_1 / mean(lambda); the
    arithmetic-to-geometric-mean sphericity test is available behind
    ``form="sphericity"``.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size < 2:
        raise ValueError("need at least two eigenvalues")
    mean = eigs.mean()
    if mean <= 0.0:
        return np.inf
    if form == GLRT_MAX_OVER_MEAN:
        return float(eigs[0] / mean)
    if form == GLRT_SPHERICITY:
        if np.any(eigs <= 0.0):
            return np.inf
        return float(mean / np.exp(np.mean(np.log(eigs))))
    raise ValueError(f"unknown GLRT form {form!r}")


def trial_eigs(cfg: ArrayConfig, scen_for, seed: int, start: int,
               stop: int) -> np.ndarray:
    """Descending sample-covariance eigenvalues of trials [start, stop), one
    row per trial, decomposed ``BATCH`` trials at a time.

    ``scen_for(rng)`` builds a trial's scenario from that trial's own
    stream, so it may draw (say) a random direction before synthesis.
    """
    out = np.empty((stop - start, cfg.n_total))
    for lo in range(start, stop, BATCH):
        hi = min(lo + BATCH, stop)
        xs = []
        for i in range(lo, hi):
            rng = trial_rng(seed, i)
            xs.append(synthesize_snapshots(cfg, scen_for(rng), rng).samples)
        xs = np.stack(xs)
        covs = xs @ xs.conj().transpose(0, 2, 1) / xs.shape[2]
        out[lo - start:hi - start] = np.linalg.eigvalsh(covs)[:, ::-1]
    return out


def h0_statistics(statistic_fn, cfg: ArrayConfig, noise_power: float,
                  n_snapshots: int, n_trials: int, master_seed: int) -> np.ndarray:
    """Statistic values over noise-only Monte Carlo trials (one stream each)."""
    scen = EmitterScenario.noise_only(n_snapshots, noise_power)
    eigs = trial_eigs(cfg, lambda rng: scen, master_seed, 0, n_trials)
    return np.array([statistic_fn(e) for e in eigs])


def calibrate_threshold(statistic_fn, cfg: ArrayConfig, noise_power: float,
                        n_snapshots: int, target_fap: float, n_trials: int,
                        master_seed: int) -> float:
    """Empirical (1 - target_fap) quantile of the statistic under H0."""
    if not 0.0 < target_fap < 1.0:
        raise ValueError("target_fap must lie in (0, 1)")
    if n_trials < 100.0 / target_fap:
        raise ValueError(
            f"{n_trials} trials cannot resolve a {target_fap} tail; "
            f"need at least {int(np.ceil(100.0 / target_fap))}")
    scores = h0_statistics(statistic_fn, cfg, noise_power, n_snapshots,
                           n_trials, master_seed)
    return float(np.quantile(scores, 1.0 - target_fap, method="higher"))


def roc_points(h0_scores: np.ndarray, h1_scores: np.ndarray) -> np.ndarray:
    """Monotone ROC staircase from pooled-score threshold sweep.

    Returns an array of (fap, pd) rows from (0, 0) to (1, 1), one point per
    distinct observed score plus both endpoints.
    """
    h0 = np.sort(np.asarray(h0_scores, dtype=float))
    h1 = np.sort(np.asarray(h1_scores, dtype=float))
    thresholds = np.unique(np.concatenate([h0, h1]))[::-1]
    # P(score > tau) via right-tail counts
    fap = 1.0 - np.searchsorted(h0, thresholds, side="right") / len(h0)
    pd = 1.0 - np.searchsorted(h1, thresholds, side="right") / len(h1)
    pts = np.column_stack([fap, pd])
    pts = np.vstack([[0.0, 0.0], pts, [1.0, 1.0]])
    return np.unique(pts, axis=0)


def roc_curve(score_fn, scenario_h1: EmitterScenario, cfg: ArrayConfig,
              n_trials: int, master_seed: int) -> np.ndarray:
    """ROC of ``score_fn`` (eigenvalues -> score) for H0 vs ``scenario_h1``.

    H0 and H1 trials use disjoint trial streams from the same master seed.
    """
    if n_trials < 1000:
        raise ValueError("need at least 1000 trials per hypothesis")
    s0 = h0_statistics(score_fn, cfg, scenario_h1.noise_power,
                       scenario_h1.n_snapshots, n_trials, master_seed)
    e1 = trial_eigs(cfg, lambda rng: scenario_h1, master_seed, n_trials,
                    2 * n_trials)
    return roc_points(s0, [score_fn(e) for e in e1])


def auc(points: np.ndarray) -> float:
    """Area under a (fap, pd) staircase by trapezoid rule."""
    pts = np.asarray(points, dtype=float)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def pd_at_fap(points: np.ndarray, fap: float) -> float:
    """Detection probability at (the largest achieved FAP <=) ``fap``."""
    pts = np.asarray(points, dtype=float)
    ok = pts[:, 0] <= fap + 1e-12
    return float(pts[ok, 1].max()) if np.any(ok) else 0.0
