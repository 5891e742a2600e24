"""Reference implementations that only the tests call.

Each is the independent check of a faster or more general path in
``doalab``: the grid-sampled null spectrum against ``root_music``, the
textbook FD bound against ``crlb.crlb_fd``, and the area and detection
probability of an ROC staircase from ``detect.roc_points``.
"""

import math

import numpy as np

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


def auc(points: np.ndarray) -> float:
    """Area under a (fap, pd) staircase by trapezoid rule."""
    pts = np.asarray(points, dtype=float)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def pd_at_fap(points: np.ndarray, fap: float) -> float:
    """Detection probability at (the largest achieved FAP <=) ``fap``."""
    pts = np.asarray(points, dtype=float)
    ok = pts[:, 0] <= fap + 1e-12
    return float(pts[ok, 1].max()) if np.any(ok) else 0.0
