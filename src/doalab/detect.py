"""Eigenvalue-based emitter detection: detection-trial eigenvalues, the
classical statistics, the H0 threshold rule and ROC staircases.

Both statistics are scale-invariant, so the detectors are blind to the
absolute noise power.  Every detector, the neural one included, takes its
threshold from ``decision_threshold`` on its own H0 scores rather than
from a closed form.
"""

import numpy as np

from .arrays import CONSTANT_MODULUS, ArrayConfig
from .errors import EstimationError
from .rng import trial_rng

# detection trials per Monte Carlo block
BATCH = 128

GLRT_MAX_OVER_MEAN = "max-over-mean"
GLRT_SPHERICITY = "sphericity"

# H0 scores a threshold needs above it, on average
TAIL_SCORES = 10


def maxmin_statistic(eigs: np.ndarray):
    """Ratio of the largest to the smallest eigenvalue (R-MaxEV-MinEV).

    Acts along the last axis of descending eigenvalues: a 1-D input gives a
    ``float``, a trials x eigenvalues matrix one value per row.  A row whose
    smallest eigenvalue is not positive (a degenerate covariance) gives inf.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim == 0 or eigs.shape[-1] < 2:
        raise ValueError("need at least two eigenvalues")
    low = eigs[..., -1]
    ok = low > 0.0
    out = np.where(ok, eigs[..., 0] / np.where(ok, low, 1.0), np.inf)
    return float(out) if out.ndim == 0 else out


def glrt_statistic(eigs: np.ndarray, form: str = GLRT_MAX_OVER_MEAN):
    """GLRT detection statistic over sorted eigenvalues.

    Default form is the blind rank-one test lambda_1 / mean(lambda); the
    arithmetic-to-geometric-mean sphericity test is available behind
    ``form="sphericity"``.  Acts along the last axis like
    ``maxmin_statistic``; degenerate rows give inf.
    """
    if form not in (GLRT_MAX_OVER_MEAN, GLRT_SPHERICITY):
        raise ValueError(f"unknown GLRT form {form!r}")
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim == 0 or eigs.shape[-1] < 2:
        raise ValueError("need at least two eigenvalues")
    mean = eigs.mean(axis=-1)
    if form == GLRT_MAX_OVER_MEAN:
        ok = mean > 0.0
        out = eigs[..., 0] / np.where(ok, mean, 1.0)
    else:
        ok = np.all(eigs > 0.0, axis=-1)
        logs = np.log(np.where(ok[..., None], eigs, 1.0))
        out = mean / np.exp(logs.mean(axis=-1))
    out = np.where(ok, out, np.inf)
    return float(out) if out.ndim == 0 else out


def trial_eigs(cfg: ArrayConfig, scen_for, seed: int, start: int,
               stop: int) -> np.ndarray:
    """Descending sample-covariance eigenvalues of trials [start, stop), one
    row per trial, drawn from their exact distribution without synthesising
    snapshots.

    ``scen_for(rng)`` builds a trial's scenario from that trial's own
    stream, so it may draw (say) a random SNR before the eigenvalues.
    The array must be fully digital and the scenario hold at most one
    emitter.

    Why this is exact.  Write the N x L snapshots in noise units as
    ``X = a g^T + Z``, with ``Z`` i.i.d. CN(0, 1) and ``E = |g|^2`` the
    signal energy (``L p`` for constant-modulus signals, ``p Gamma(L)``
    for Gaussian ones, p the SNR).  On a fully digital ULA ``|a|^2 = N``
    for every direction.  Take a unitary U with ``U a = sqrt(N) e_1`` and
    a unitary V whose first column is ``conj(g) / |g|``; then
    ``U X V = sqrt(N E) e_1 e_1^T + Z'`` with ``Z'`` again i.i.d.
    CN(0, 1), so the signal sits in entry (1, 1) alone.  Golub-Kahan
    bidiagonalisation that starts from the right reflects row 1 onto
    e_1: that reflector depends on row 1 only, so rows 2..N stay i.i.d.,
    and the next (left) reflector leaves row 1 alone.  Each later step
    meets a fresh i.i.d. block, which is the complex (beta = 2)
    Laguerre bidiagonal of Dumitriu and Edelman (J. Math. Phys. 43,
    2002): a lower-bidiagonal B with squared entries
    ``B_kk^2 ~ Gamma(L - k + 1)`` for k <= min(N, L) and
    ``B_{k+1,k}^2 ~ Gamma(N - k)`` for k <= min(L, N - 1), except
    ``B_11^2 = |sqrt(N E) + c|^2 + Gamma(L - 1)`` under a signal, with
    ``c ~ CN(0, 1)``.  The nonzero eigenvalues of ``X X^H`` are those of
    the min(N, L)-square tridiagonal ``B^T B``; the other ``N - L`` (when
    L < N) are exactly 0.  Eigenvalues come from LAPACK ``dsterf`` and are
    scaled by ``noise_power / L``.
    """
    # scipy.linalg costs tens of milliseconds to import; keep it off
    # ``import doalab``
    from scipy.linalg.lapack import dsterf

    n = cfg.n_total
    if cfg.n_fd != n:
        raise ValueError("detection trials need a fully digital array")
    shapes_for = {}  # snapshots -> Gamma shapes of B_kk^2, then B_{k+1,k}^2
    out = np.zeros((stop - start, n))
    for row, i in enumerate(range(start, stop)):
        rng = trial_rng(seed, i)
        scen = scen_for(rng)
        if scen.n_emitters > 1:
            raise ValueError("detection trials hold at most one emitter")
        l = scen.n_snapshots
        m, n_sub = min(n, l), min(l, n - 1)
        if l not in shapes_for:
            shapes_for[l] = np.concatenate(
                [l - np.arange(m), n - 1 - np.arange(n_sub)]).astype(float)
        shapes = shapes_for[l]
        if scen.n_emitters:
            p = scen.powers[0] / scen.noise_power
            energy = p * (l if scen.signal_model == CONSTANT_MODULUS
                          else rng.standard_gamma(l))
            c = np.sqrt(0.5) * rng.standard_normal(2)
            shapes = shapes.copy()
            shapes[0] -= 1.0
        sq = rng.standard_gamma(shapes)
        if scen.n_emitters:
            sq[0] += (np.sqrt(n * energy) + c[0]) ** 2 + c[1] ** 2
        d2, e2 = sq[:m], np.zeros(m)
        e2[:n_sub] = sq[m:]
        # f2py wants one off-diagonal slot even for a 1 x 1 matrix
        off = np.sqrt(e2[:-1] * d2[1:]) if m > 1 else np.zeros(1)
        vals, info = dsterf(d2 + e2, off, overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise EstimationError(
                f"dsterf failed on detection trial {i} (info={info})")
        out[row, :m] = vals[::-1] * (scen.noise_power / l)
    return out


def decision_threshold(h0_scores, target_fap: float) -> float:
    """Threshold with false-alarm probability ``target_fap``: the
    (1 - target_fap) quantile of a detector's H0 scores, taken at an
    observed score.  Needs at least ``TAIL_SCORES / target_fap`` scores."""
    if not 0.0 < target_fap < 1.0:
        raise ValueError("target_fap must lie in (0, 1)")
    if len(h0_scores) < TAIL_SCORES / target_fap:
        raise ValueError(
            f"{len(h0_scores)} H0 scores cannot resolve a {target_fap} tail")
    return float(np.quantile(h0_scores, 1.0 - target_fap, method="higher"))


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


def auc(points: np.ndarray) -> float:
    """Area under a (fap, pd) staircase by trapezoid rule."""
    pts = np.asarray(points, dtype=float)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def pd_at_fap(points: np.ndarray, fap: float) -> float:
    """Detection probability at (the largest achieved FAP <=) ``fap``."""
    pts = np.asarray(points, dtype=float)
    ok = pts[:, 0] <= fap + 1e-12
    return float(pts[ok, 1].max()) if np.any(ok) else 0.0
