"""Low-resolution ADC model: Lloyd-Max quantization and AQNM loss factors.

The Lloyd-Max codebook for a unit-variance Gaussian is computed once per
bit depth by Newton's method on the centroid/boundary conditions and
cached; the additive quantization noise model (AQNM) linearizes the
quantizer as gain ``alpha = 1 - rho_b`` plus uncorrelated noise.
"""

import functools
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

# samples put through ``_cells`` at once: a chunk's temporaries, 256 KiB
# each, are reused from the heap, where temporaries the size of a
# loss-bits block were faulted in afresh at every bit depth (quantize
# took 1.4 s with 273k minor faults of a default loss-bits run
# unchunked, 0.9 s with 140k in chunks)
_CHUNK = 1 << 15
# Newton stops once no level is more than _TOL from its centroid, and
# gives up after _MAX_ITER steps
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


@functools.cache
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
    if not (isinstance(bits, (int, np.integer)) and bits >= 1):
        raise ValueError(f"bits must be an integer >= 1, got {bits!r}")
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
    return c, t, rho


def distortion_factor(bits: int) -> float:
    """Minimum MSE of a b-bit Lloyd-Max quantizer for unit-variance Gaussian input."""
    return lloyd_max_codebook(bits)[2]


@functools.cache
def _cell_table(bits: int):
    """The index of ``_cells`` for the b-bit codebook, built once: (grid,
    counts, inner).

    A sample's bucket is ``_buckets(x, *grid)``: x clipped to one step
    beyond the outer thresholds, over a step of half the smallest
    threshold gap, so no two thresholds share a bucket.  ``counts[k]`` is
    the number of thresholds in buckets below k, and ``inner[k]`` the
    threshold in bucket k, or +inf.
    """
    thresholds = lloyd_max_codebook(bits)[1]
    gaps = np.diff(thresholds)
    step = gaps.min() / 2.0 if gaps.size else 1.0
    grid = (thresholds[0] - step, thresholds[-1] + step, 1.0 / step,
            1.0 - thresholds[0] / step)
    own = _buckets(thresholds, *grid)
    if not np.all(np.diff(own) > 0):
        raise ArithmeticError(f"two {bits}-bit thresholds share a bucket")
    size = _buckets(np.array([grid[1]]), *grid)[0] + 1
    counts = np.searchsorted(own, np.arange(size))
    inner = np.full(size, np.inf)
    inner[own] = thresholds
    counts.flags.writeable = inner.flags.writeable = False
    return grid, counts, inner


def _buckets(x: np.ndarray, lo: float, hi: float, scale: float, shift: float):
    """The bucket of each x: clip(x, lo, hi) * scale + shift, truncated.
    Each step is monotone in x, rounding included, so the bucket is; and
    ``lo`` maps to 0 up to a rounding, above -1, so no bucket is
    negative."""
    k = np.clip(x, lo, hi)
    k *= scale
    k += shift
    return k.astype(np.intp)


def _cells(x: np.ndarray, bits: int) -> np.ndarray:
    """The cell of the b-bit codebook that each finite ``x`` falls in: the
    count of thresholds at or below it, as ``np.digitize`` gives it.

    ``_buckets`` is monotone in x, rounding included, so a threshold in a
    lower bucket than x lies below it and one in a higher bucket above
    it; only the threshold in x's own bucket, if any, is compared.  The
    thresholds went through the same ``_buckets``, so the index is exact
    whatever the rounding.
    """
    grid, counts, inner = _cell_table(bits)
    k = _buckets(x, *grid)
    idx = counts[k]
    idx += x >= inner[k]
    return idx


class Normalised(NamedTuple):
    """A stack put on the codebook's scale once (``normalise``), to
    quantize at several bit depths."""

    parts: np.ndarray  # its real and imaginary parts, interleaved, / safe
    safe: np.ndarray  # (..., channels, 1): each channel's scale, 1 if 0
    silent: np.ndarray  # (..., channels): the channels whose scale is 0


def normalise(samples: np.ndarray):
    """Divide each channel of a stack by its codebook scale, once for any
    number of bit depths; ``quantize`` takes the result.

    ``samples`` is a channels x snapshots array, or a stack of them
    (..., channels, snapshots).  The codebook is scaled per channel by the
    RMS of the samples (per real dimension), an automatic gain control
    matching the AQNM assumption.  Raises ValueError on a sample that is
    not finite or a scale that overflows (samples past about 1e154): a NaN
    turns its channel's gain control off, and an infinity turns the
    channel into infinities.
    """
    x = np.ascontiguousarray(samples, dtype=np.complex128)
    if not np.isfinite(x).all():
        raise ValueError("samples to quantize must be finite")
    with np.errstate(over="ignore"):  # an overflow is refused below
        scale = np.sqrt(np.mean(np.abs(x) ** 2, axis=-1) / 2.0)
    if not np.isfinite(scale).all():
        raise ValueError("the scale of every channel must be finite")
    safe = np.where(scale > 0.0, scale, 1.0)[..., None]
    return Normalised(x.view(np.float64) / safe, safe, scale <= 0.0)


def quantize(norm: Normalised, bits: int) -> np.ndarray:
    """Quantize real and imaginary parts of a ``normalise``d stack with the
    b-bit Lloyd-Max codebook, at the stack's scale.

    Channels whose scale is zero come out as zeros.  Raises ValueError
    unless ``bits`` is an integer of at least 1.
    """
    levels = lloyd_max_codebook(bits)[0]
    # real and imaginary parts at once, chunk by chunk
    parts = norm.parts.reshape(-1)
    out = np.empty_like(norm.parts)
    flat = out.reshape(-1)
    for i in range(0, parts.size, _CHUNK):
        np.take(levels, _cells(parts[i:i + _CHUNK], bits),
                out=flat[i:i + _CHUNK])
    # scaling both parts in the float view gives the bits of
    # safe * (a + 1j b), since no level is 0
    out *= norm.safe
    out = out.view(np.complex128)
    out[norm.silent] = 0.0
    return out


def effective_snr(snr_linear: float, alpha: float) -> float:
    """Post-quantization SNR under the AQNM: signal gains alpha^2, plus
    alpha(1-alpha) (signal + noise) quantization noise."""
    if not snr_linear > 0:
        raise ValueError("snr_linear must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return alpha * snr_linear / (alpha + (1.0 - alpha) * (1.0 + snr_linear))


def performance_loss_db(bits: int, snr_db: float) -> float:
    """CRLB/SNR loss in dB from b-bit quantization at the given SNR."""
    alpha = 1.0 - distortion_factor(bits)
    snr = 10.0 ** (snr_db / 10.0)
    return 10.0 * np.log10(snr / effective_snr(snr, alpha))
