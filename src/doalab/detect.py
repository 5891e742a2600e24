"""Eigenvalue-based emitter detection: detection-trial eigenvalues, the
classical statistics, the H0 threshold rule and ROC staircases.

Both statistics are scale-invariant, so the detectors are blind to the
absolute noise power.  Every detector, the neural one included, takes its
threshold from ``decision_threshold`` on its own H0 scores rather than
from a closed form.
"""

import numpy as np

from .arrays import CONSTANT_MODULUS, ArrayConfig, EmitterScenario
from .errors import EstimationError

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


def glrt_statistic(eigs: np.ndarray):
    """Sphericity GLRT statistic over sorted eigenvalues: the
    arithmetic-to-geometric-mean ratio, the GLRT form that reproduces the
    published detector ordering.  Acts along the last axis like
    ``maxmin_statistic``; rows with an eigenvalue that is not positive
    (degenerate) give inf.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim == 0 or eigs.shape[-1] < 2:
        raise ValueError("need at least two eigenvalues")
    ok = np.all(eigs > 0.0, axis=-1)
    logs = np.log(np.where(ok[..., None], eigs, 1.0))
    out = eigs.mean(axis=-1) / np.exp(logs.mean(axis=-1))
    out = np.where(ok, out, np.inf)
    return float(out) if out.ndim == 0 else out


def trial_eigs(cfg: ArrayConfig, scen: EmitterScenario, rngs) -> np.ndarray:
    """Descending sample-covariance eigenvalues of a stack of trials, one
    generator and one row each, drawn from their exact distribution without
    synthesising snapshots.

    The array must be fully digital.

    Why this is exact.  Write the N x L snapshots as
    ``X = a g^T + Z``, with ``Z`` i.i.d. CN(0, 1) and ``E = |g|^2`` the
    signal energy (``L p`` for constant-modulus signals, ``p Gamma(L)``
    for Gaussian ones, p = ``scen.power``).  On a fully digital ULA
    ``|a|^2 = N`` for every direction.  Take a unitary U with
    ``U a = sqrt(N) e_1`` and a unitary V whose first column is
    ``conj(g) / |g|``; then
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
    scaled by ``1 / L``, the unit noise power over the snapshots.
    """
    # scipy.linalg costs tens of milliseconds to import; keep it off
    # ``import doalab``
    from scipy.linalg.lapack import dsterf

    n, l = cfg.n_total, scen.n_snapshots
    if cfg.n_fd != n:
        raise ValueError("detection trials need a fully digital array")
    m, n_sub = min(n, l), min(l, n - 1)
    # Gamma shapes of B_kk^2, then B_{k+1,k}^2; a signal takes one degree
    # of freedom from B_11^2
    shapes = np.concatenate([l - np.arange(m), n - 1 - np.arange(n_sub)])
    shapes = shapes.astype(float)
    if scen.n_emitters:
        shapes[0] -= 1.0
    # row b holds trial b's squared entries: B_kk^2 in columns [0, m),
    # B_{k+1,k}^2 from column m on, then zeros up to 2m
    sq = np.zeros((len(rngs), 2 * m))
    for row, rng in enumerate(rngs):
        if scen.n_emitters:
            energy = scen.power * (l if scen.signal_model == CONSTANT_MODULUS
                                   else rng.standard_gamma(l))
            c = np.sqrt(0.5) * rng.standard_normal(2)
        rng.standard_gamma(shapes, out=sq[row, :len(shapes)])
        if scen.n_emitters:
            # a scalar expression per trial: the square of a numpy scalar
            # goes through pow(), which an array square does not match
            sq[row, 0] += (np.sqrt(n * energy) + c[0]) ** 2 + c[1] ** 2
    # the tridiagonal B^T B of every trial, written over its draws: the
    # diagonal d2 + e2 and the off-diagonal sqrt(e2 d2[1:])
    d2, e2 = sq[:, :m], sq[:, m:]
    # f2py wants one off-diagonal slot even for a 1 x 1 matrix
    off = e2[:, :-1] * d2[:, 1:] if m > 1 else np.zeros((len(sq), 1))
    np.sqrt(off, out=off)
    d2 += e2
    for row in range(len(sq)):
        vals, info = dsterf(d2[row], off[row], overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise EstimationError(
                f"dsterf failed on detection block row {row} (info={info})")
        d2[row] = vals
    out = np.zeros((len(sq), n))
    out[:, :m] = d2[:, ::-1] * (1.0 / l)
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

