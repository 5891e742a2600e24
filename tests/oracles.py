"""Reference implementations that only the tests call.

Each is the independent check of a faster or more general path in
``doalab``: the grid-sampled null spectrum against ``root_music``, the
textbook FD bound against ``crlb.crlb_fd``, and the area and detection
probability of an ROC staircase from ``detect.roc_points``.  The exact
bound for Lloyd-Max quantized FD snapshots is the floor the quantized
Root-MUSIC column of ``loss-bits`` is held to, and the reference the AQNM
loss formula is compared with.
"""

import math

import numpy as np
from scipy.special import ndtr

from doalab.quantize import lloyd_max_codebook
from doalab.spectral import CovarianceEstimate, root_music_polynomial


def music_spectrum_grid(cov: CovarianceEstimate, *, spacing: float = 0.5,
                        n_grid: int = 1 << 20):
    """Grid evaluation of the one-source MUSIC null spectrum a^H C a via FFT.

    Returns (u_grid, d) where d[j] = a(u_j)^H C a(u_j) >= 0; its minimum
    marks the source direction.  Serves as the independent oracle for
    root_music.
    """
    p = cov.dim
    a = np.zeros(n_grid, dtype=np.complex128)
    np.add.at(a, np.arange(p - 1, -p, -1) % n_grid,
              root_music_polynomial(cov))
    # d_j = sum_l c_l exp(i l 2 pi j / n) = n * ifft(a)[j]
    d = np.real(n_grid * np.fft.ifft(a))
    omega = 2.0 * np.pi * np.arange(n_grid) / n_grid
    omega[omega >= np.pi] -= 2.0 * np.pi
    u = omega / (2.0 * np.pi * spacing)
    order = np.argsort(u)
    return u[order], d[order]


def crlb_fd_closed_form(n_antennas: int, theta_deg: float, snr_db: float,
                        t_snapshots: int, spacing: float = 0.5) -> float:
    """Textbook FD ULA bound: 6 / (T snr (2 pi d cos theta)^2 N (N^2 - 1))."""
    snr = 10.0 ** (snr_db / 10.0)
    c = 2.0 * np.pi * spacing * math.cos(math.radians(theta_deg))
    denom = t_snapshots * snr * c * c * n_antennas * (n_antennas ** 2 - 1)
    return 6.0 / denom if denom > 0 else math.inf


def quantized_sample_information(mu, sigma, thresholds):
    """Fisher information about its mean ``mu`` of one real Gaussian sample
    of standard deviation ``sigma`` seen only through the cell of
    ``thresholds`` it falls in, elementwise over ``mu``:
    sigma^-2 sum_i (phi(z_i) - phi(z_{i+1}))^2 / (Phi(z_{i+1}) - Phi(z_i)),
    z_i = (t_i - mu) / sigma, with t_0 = -inf and t_L = +inf (Stoica, Shang
    & Cheng, IEEE Signal Process. Mag. 39(1), 2022).  ``thresholds=None``
    is the unquantized sample, 1 / sigma^2.
    """
    mu = np.asarray(mu, dtype=float)
    if thresholds is None:
        return np.full(mu.shape, 1.0 / sigma ** 2)
    z = (np.asarray(thresholds) - mu[..., None]) / sigma
    edge = np.full(mu.shape + (1,), np.inf)
    lo = np.concatenate((-edge, z), axis=-1)
    hi = np.concatenate((z, edge), axis=-1)
    # upper-tail differences keep the masses of the upper cells accurate
    mass = np.where(lo >= 0.0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    slope = (np.exp(-lo * lo / 2.0) - np.exp(-hi * hi / 2.0)) / math.sqrt(2.0 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mass > 0.0, slope * slope / mass, 0.0)
    return terms.sum(axis=-1) / sigma ** 2


def crlb_quantized_u(n_antennas: int, theta_deg: float, snr_db: float,
                     t_snapshots: int, bits=None, spacing: float = 0.5,
                     n_phase: int = 64) -> float:
    """CRLB on u = sin(theta) of an N-antenna half-wavelength FD ULA whose
    I and Q parts pass the b-bit Lloyd-Max quantizer (``bits=None``:
    unquantized), for a constant-modulus emitter in unit noise.

    Each real sample is Gaussian with standard deviation sqrt(1/2), seen
    through the thresholds scaled by the expected automatic gain
    sqrt((1 + p) / 2), the RMS of one real part.  Its information
    ``quantized_sample_information`` depends on its mean, so on the
    snapshot's phase psi: per phase, the information on u is summed over
    the I and Q parts of every antenna with each snapshot's complex
    amplitude projected out, as ``crlb.py`` does, and the bound is
    1 / (T E_psi[j(psi)]), the mean taken by the midpoint rule over
    ``n_phase`` phases.
    """
    p = 10.0 ** (snr_db / 10.0)
    u = math.sin(math.radians(theta_deg))
    sigma = math.sqrt(0.5)
    thresholds = None
    if bits is not None:
        thresholds = math.sqrt((1.0 + p) / 2.0) * lloyd_max_codebook(bits)[1]
    psi = 2.0 * math.pi * (np.arange(n_phase) + 0.5) / n_phase
    steer = np.exp(2j * math.pi * spacing * u * np.arange(n_antennas))
    mean = math.sqrt(p) * np.exp(1j * psi)[:, None] * steer
    # the mean's derivatives by u, Re s and Im s, per phase and antenna
    grad = np.stack([2j * math.pi * spacing * np.arange(n_antennas) * mean,
                     np.broadcast_to(steer, mean.shape),
                     np.broadcast_to(1j * steer, mean.shape)], axis=-1)
    fim = sum(np.einsum("qn,qni,qnj->qij",
                        quantized_sample_information(part(mean), sigma, thresholds),
                        part(grad), part(grad))
              for part in (np.real, np.imag))
    j = fim[:, 0, 0] - np.einsum("qi,qi->q", fim[:, 0, 1:], np.linalg.solve(
        fim[:, 1:, 1:], fim[:, 1:, 0:1])[..., 0])
    return 1.0 / (t_snapshots * float(np.mean(j)))


def auc(points: np.ndarray) -> float:
    """Area under a (fap, pd) staircase by trapezoid rule."""
    pts = np.asarray(points, dtype=float)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def pd_at_fap(points: np.ndarray, fap: float) -> float:
    """Detection probability at (the largest achieved FAP <=) ``fap``."""
    pts = np.asarray(points, dtype=float)
    ok = pts[:, 0] <= fap + 1e-12
    return float(pts[ok, 1].max()) if np.any(ok) else 0.0
