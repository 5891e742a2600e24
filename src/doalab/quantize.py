"""Low-resolution ADC model: Lloyd-Max quantization and AQNM loss factors.

The Lloyd-Max codebook for a unit-variance Gaussian is computed once per
bit depth by Newton's method on the centroid/boundary conditions and
cached; the additive quantization noise model (AQNM) linearizes the
quantizer as gain ``alpha = 1 - rho_b`` plus uncorrelated noise.
"""

import math

import numpy as np
from scipy.special import ndtr

_codebook_cache: dict = {}
# Newton stops once no level is more than _TOL from its centroid, and
# gives up after _MAX_ITER steps; the cache is keyed by bits alone
_TOL = 1e-10
_MAX_ITER = 100


def _phi(x):
    return np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)


def _centroids(c: np.ndarray):
    """Gaussian cell centroids for levels ``c`` with midpoint boundaries.

    Returns (centroids, d_lo, d_hi, prob): the derivatives of each centroid
    by the lower and upper edge of its cell, and the cell masses.
    """
    t = (c[:-1] + c[1:]) / 2.0
    lo = np.concatenate(([-np.inf], t))
    hi = np.concatenate((t, [np.inf]))
    # upper-tail differences keep the masses of the positive cells accurate
    prob = np.where(lo >= 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    p_lo, p_hi = _phi(lo), _phi(hi)
    m = (p_lo - p_hi) / prob
    with np.errstate(invalid="ignore"):
        d_lo = np.where(np.isfinite(lo), p_lo * (m - lo) / prob, 0.0)
        d_hi = np.where(np.isfinite(hi), p_hi * (hi - m) / prob, 0.0)
    return m, d_lo, d_hi, prob


def lloyd_max_codebook(bits: int):
    """Optimal levels and distortion for a b-bit scalar Gaussian quantizer.

    Returns (levels, thresholds, rho) where ``levels`` are the 2^b
    reproduction points, ``thresholds`` the 2^b - 1 decision boundaries,
    and ``rho`` the mean-square distortion for unit input variance.

    Solves the Lloyd-Max conditions (every level the centroid of its cell,
    every threshold the midpoint of its levels) by Newton's method on
    c - centroid(c), from the Gaussian quantile lattice.  Each centroid
    depends only on its own level and its two neighbours, so the Jacobian
    is tridiagonal.
    """
    if not (float(bits).is_integer() and bits >= 1):
        raise ValueError(f"bits must be a whole number >= 1, got {bits}")
    bits = int(bits)
    if bits in _codebook_cache:
        return _codebook_cache[bits]
    from scipy.linalg import solve_banded
    from scipy.special import erfinv

    n = 1 << bits
    c = np.sqrt(2.0) * erfinv(2.0 * (np.arange(n) + 0.5) / n - 1.0)
    jac = np.zeros((3, n))  # banded: super-, main and subdiagonal
    for _ in range(_MAX_ITER):
        c = (c - c[::-1]) / 2.0  # the exact codebook is odd-symmetric
        m, d_lo, d_hi, prob = _centroids(c)
        resid = c - m
        if np.max(np.abs(resid)) < _TOL:
            break
        jac[0, 1:] = -d_hi[:-1] / 2.0
        jac[1] = 1.0 - (d_lo + d_hi) / 2.0
        jac[2, :-1] = -d_lo[1:] / 2.0
        c = c - solve_banded((1, 1), jac, resid)
    else:
        raise ArithmeticError(f"{bits}-bit Lloyd-Max solve did not converge")
    t = (c[:-1] + c[1:]) / 2.0
    # centroid codebooks satisfy E[q^2] = E[qx], so rho = 1 - E[q^2]
    rho = float(1.0 - np.sum(prob * c * c))
    _codebook_cache[bits] = (c, t, rho)
    return _codebook_cache[bits]


def distortion_factor(bits) -> float:
    """Minimum MSE of a b-bit Lloyd-Max quantizer for unit-variance Gaussian input."""
    if bits == math.inf:
        return 0.0
    return lloyd_max_codebook(bits)[2]


def _quantize_real(x: np.ndarray, levels: np.ndarray, thresholds: np.ndarray):
    return levels[np.digitize(x, thresholds)]


def quantize(samples: np.ndarray, bits,
             scale: np.ndarray | None = None) -> np.ndarray:
    """Quantize real and imaginary parts with the b-bit Lloyd-Max codebook.

    ``samples`` is a channels x snapshots array, or a stack of them
    (..., channels, snapshots).  The codebook is scaled per channel by the
    RMS of the samples (per real dimension), an automatic gain control
    matching the AQNM assumption; pass ``scale`` to reuse a fixed codebook
    scaling.  Channels whose scale is zero come out as zeros.
    ``bits = math.inf`` returns an unquantized copy.
    """
    if bits == math.inf:
        return samples.copy()
    levels, thresholds, _ = lloyd_max_codebook(bits)
    if scale is None:
        scale = np.sqrt(np.mean(np.abs(samples) ** 2, axis=-1) / 2.0)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), samples.shape[:-1])
    safe = np.where(scale > 0.0, scale, 1.0)[..., None]
    out = safe * (_quantize_real(samples.real / safe, levels, thresholds)
                  + 1j * _quantize_real(samples.imag / safe, levels, thresholds))
    out[scale <= 0.0] = 0.0
    return out


def effective_snr(snr_linear: float, alpha: float) -> float:
    """Post-quantization SNR under the AQNM: signal gains alpha^2, plus
    alpha(1-alpha) (signal + noise) quantization noise."""
    if not snr_linear > 0:
        raise ValueError("snr_linear must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return alpha * snr_linear / (alpha + (1.0 - alpha) * (1.0 + snr_linear))


def performance_loss_db(bits, snr_db: float) -> float:
    """CRLB/SNR loss in dB from b-bit quantization at the given SNR."""
    if bits == math.inf:
        return 0.0
    alpha = 1.0 - distortion_factor(bits)
    snr = 10.0 ** (snr_db / 10.0)
    return 10.0 * np.log10(snr / effective_snr(snr, alpha))
