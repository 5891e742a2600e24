"""Fisher information and Cramer-Rao lower bounds for FD, HAD, and
two-layer architectures.

All bounds use the conditional (deterministic-signal) FIM in projection
form; the closed-form FD ULA expression serves as the test oracle.  Angles
enter in degrees at the API boundary; bounds are returned in rad^2.
"""

import math

import numpy as np

from .arrays import ArrayConfig

RAD2_TO_DEG2 = (180.0 / np.pi) ** 2


def fim_single_source(a_eff: np.ndarray, da_eff: np.ndarray,
                      t_snapshots: int, snr_linear: float) -> float:
    """Single-source Fisher information, nuisance complex gain projected out.

    J = 2 T snr Re{ da^H (I - a a^H / (a^H a)) da } with ``snr_linear`` the
    per-channel SNR referenced to a unit-modulus signal; steering-vector
    magnitudes carry any combining gains.
    """
    a = np.asarray(a_eff, dtype=np.complex128)
    da = np.asarray(da_eff, dtype=np.complex128)
    if a.shape != da.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("a_eff and da_eff must be matching vectors, length >= 2")
    norm2 = np.real(a.conj() @ a)
    if not norm2 > 0:
        return 0.0
    proj = da - a * (a.conj() @ da) / norm2
    return float(2.0 * t_snapshots * snr_linear * np.real(proj.conj() @ proj))


def _crlb_from_fim(j: float) -> float:
    return 1.0 / j if j > 1e-300 else math.inf


def _fd_vectors(n: int, theta_rad: float, spacing: float):
    u = math.sin(theta_rad)
    p = np.arange(n)
    a = np.exp(2j * np.pi * spacing * p * u)
    da = 2j * np.pi * spacing * p * math.cos(theta_rad) * a
    return a, da


def _had_vectors(cfg: ArrayConfig, theta_rad: float, analog_steer_u: float):
    """Effective K-channel steering vector g(u) b(u) and its theta-derivative."""
    u = math.sin(theta_rad)
    d, m, k = cfg.spacing, cfg.m_sub, cfg.k_sub
    mm = np.arange(m)
    phase = np.exp(2j * np.pi * d * mm * (u - analog_steer_u))
    g = np.sum(phase) / math.sqrt(m)
    dg_du = np.sum(2j * np.pi * d * mm * phase) / math.sqrt(m)
    kk = np.arange(k)
    b = np.exp(2j * np.pi * d * m * kk * u)
    db_du = 2j * np.pi * d * m * kk * b
    a = g * b
    da = math.cos(theta_rad) * (dg_du * b + g * db_du)
    return a, da, g


def crlb_fd(n_antennas: int, theta_deg: float, snr_db: float,
            t_snapshots: int, spacing: float = 0.5) -> float:
    """CRLB (rad^2) for an N-element fully-digital ULA."""
    a, da = _fd_vectors(n_antennas, math.radians(theta_deg), spacing)
    return _crlb_from_fim(
        fim_single_source(a, da, t_snapshots, 10.0 ** (snr_db / 10.0)))


def crlb_fd_closed_form(n_antennas: int, theta_deg: float, snr_db: float,
                        t_snapshots: int, spacing: float = 0.5) -> float:
    """Textbook FD ULA bound: 6 / (T snr (2 pi d cos theta)^2 N (N^2 - 1))."""
    snr = 10.0 ** (snr_db / 10.0)
    c = 2.0 * np.pi * spacing * math.cos(math.radians(theta_deg))
    denom = t_snapshots * snr * c * c * n_antennas * (n_antennas ** 2 - 1)
    return 6.0 / denom if denom > 0 else math.inf


def crlb_had(cfg: ArrayConfig, theta_deg: float, snr_db: float,
             t_snapshots: int, analog_steer_u: float = 0.0) -> float:
    """CRLB (rad^2) for the K-channel HAD part of ``cfg``.

    ``analog_steer_u`` is the common subarray steering direction-sine
    (broadside by default; ``sin(theta)`` gives the matched, best-case
    bound).  An analog null (|g| = 0) yields an infinite bound.
    """
    if cfg.k_sub < 2:
        raise ValueError("HAD CRLB needs at least two subarray channels")
    a, da, g = _had_vectors(cfg, math.radians(theta_deg), analog_steer_u)
    if abs(g) < 1e-12:
        return math.inf
    return _crlb_from_fim(
        fim_single_source(a, da, t_snapshots, 10.0 ** (snr_db / 10.0)))


def _crlb_from_fim_rows(j: np.ndarray) -> np.ndarray:
    """``_crlb_from_fim`` of each entry of ``j``."""
    with np.errstate(divide="ignore"):
        return np.where(j > 1e-300, 1.0 / j, math.inf)


def crlb_fd_rows(n_antennas: int, theta_deg, snr_db: float,
                 t_snapshots: int, spacing: float = 0.5) -> np.ndarray:
    """``crlb_fd`` at each direction of the array ``theta_deg``.

    The derivative of the steering vector carries theta only through the
    factor cos(theta), so J(theta) = cos^2(theta) J(0).
    """
    a, da = _fd_vectors(n_antennas, 0.0, spacing)
    j0 = fim_single_source(a, da, t_snapshots, 10.0 ** (snr_db / 10.0))
    cos = np.cos(np.radians(theta_deg))
    return _crlb_from_fim_rows(cos * cos * j0)


def crlb_had_rows(cfg: ArrayConfig, theta_deg, snr_db: float,
                  t_snapshots: int) -> np.ndarray:
    """``crlb_had`` with broadside steering at each direction of the array
    ``theta_deg``.

    The effective steering vector is g(u) b(u).  The dg/du term of its
    derivative is parallel to it, so the gain nuisance projects it out, and
    the projected b'(u) has a norm that does not depend on u.  That leaves
    J(theta) = cos^2(theta) |g(u)|^2 J_b, with J_b the information of b
    alone.  An analog null (|g| < 1e-12) yields an infinite bound.
    """
    if cfg.k_sub < 2:
        raise ValueError("HAD CRLB needs at least two subarray channels")
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    u = np.sin(theta)
    d, m, k = cfg.spacing, cfg.m_sub, cfg.k_sub
    mm = np.arange(m)
    g = np.sum(np.exp(2j * np.pi * d * mm * u[..., None]), axis=-1) / math.sqrt(m)
    kk = np.arange(k)
    j_b = fim_single_source(np.ones(k), 2j * np.pi * d * m * kk, t_snapshots,
                            10.0 ** (snr_db / 10.0))
    cos = np.cos(theta)
    gain = np.abs(g)
    return _crlb_from_fim_rows(
        np.where(gain < 1e-12, 0.0, cos * cos * gain * gain * j_b))


def crlb_tlhad(cfg: ArrayConfig, theta_deg: float, snr_db: float,
               t_snapshots: int, analog_steer_u: float = 0.0) -> float:
    """CRLB (rad^2) of the two-layer receiver: J_total = J_HAD + J_FD.

    Each part keeps its own complex-gain nuisance, matching a receiver that
    estimates on the two parts independently and combines.  The analog
    steering defaults to broadside, which is what a one-snapshot receiver
    can actually arrange before knowing the angle.
    """
    theta = math.radians(theta_deg)
    snr = 10.0 ** (snr_db / 10.0)
    j_total = 0.0
    if cfg.k_sub >= 2:
        a, da, g = _had_vectors(cfg, theta, analog_steer_u)
        if abs(g) >= 1e-12:
            j_total += fim_single_source(a, da, t_snapshots, snr)
    if cfg.n_fd >= 2:
        a, da = _fd_vectors(cfg.n_fd, theta, cfg.spacing)
        j_total += fim_single_source(a, da, t_snapshots, snr)
    return _crlb_from_fim(j_total)

