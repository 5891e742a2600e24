"""Fisher information and Cramer-Rao lower bounds for FD, HAD, and
two-layer architectures.

All bounds use the conditional (deterministic-signal) FIM, with the complex
gain projected out.  One closed form gives them all: K subarrays of M
antennas carry J(theta) = cos^2(theta) |g(u)|^2 J_b, the information J_b of
the K-channel array at broadside scaled by the analog beam's power gain.  A
fully digital block is the case M = 1, where g is exactly 1.
``fim_single_source`` on explicit steering vectors and the textbook
``crlb_fd_closed_form`` of ``tests/oracles.py`` serve as the test oracles.
Each bound takes what the estimators hold: a direction-sine u = sin(theta)
in [-1, 1] or an array of them, and the linear per-antenna SNR (a
scenario's ``power``).  It returns rad^2 of theta, a float for a scalar u
and an array of its shape otherwise.  The analog beams sit at broadside,
the one steering a one-snapshot receiver can arrange before knowing the
angle.
"""

import math

import numpy as np

from .arrays import ArrayConfig, subarray_gain

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


def _bound(j):
    """1 / J, infinite where J carries no information; a float for a
    scalar J."""
    with np.errstate(divide="ignore"):
        crlb = np.where(j > 1e-300, 1.0 / j, math.inf)
    return float(crlb) if crlb.ndim == 0 else crlb


def _had_fim(cfg: ArrayConfig, u, snr, t_snapshots):
    """The effective steering vector is g(u) b(u).  The dg/du term of its
    derivative is parallel to it, so the gain nuisance projects it out, and
    the projected b'(u) has a norm that does not depend on u.  That leaves
    J(theta) = cos^2(theta) |g(u)|^2 J_b, with J_b the information of b at
    broadside and cos^2(theta) = (1 - u)(1 + u), which does not cancel near
    endfire; an analog null (|g| < 1e-12) or endfire (|u| = 1) carries
    none.  An FD block is the case M = 1, where g is exactly 1."""
    u = np.asarray(u, dtype=float)
    gain = np.abs(subarray_gain(cfg.m_sub, cfg.spacing, u))
    j_b = fim_single_source(np.ones(cfg.k_sub),
                            2j * np.pi * cfg.spacing * cfg.m_sub * np.arange(cfg.k_sub),
                            t_snapshots, snr)
    return np.where(gain < 1e-12, 0.0, (1.0 - u) * (1.0 + u) * gain * gain * j_b)


def crlb_fd(n_antennas: int, u, snr: float, t_snapshots: int,
            spacing: float = 0.5):
    """CRLB (rad^2) for an N-element fully-digital ULA: N one-antenna
    subarrays."""
    return _bound(_had_fim(ArrayConfig.pure_had(n_antennas, 1, spacing),
                           u, snr, t_snapshots))


def crlb_had(cfg: ArrayConfig, u, snr: float, t_snapshots: int):
    """CRLB (rad^2) for the K-channel HAD part of ``cfg``, its subarrays
    steered at broadside.  An analog null yields an infinite bound."""
    if cfg.k_sub < 2:
        raise ValueError("HAD CRLB needs at least two subarray channels")
    return _bound(_had_fim(cfg, u, snr, t_snapshots))


def crlb_tlhad(cfg: ArrayConfig, u, snr: float, t_snapshots: int):
    """CRLB (rad^2) of the two-layer receiver: J_total = J_HAD + J_FD.

    Each part keeps its own complex-gain nuisance, matching a receiver that
    estimates on the two parts independently and combines.  A part with
    fewer than two channels adds no information.
    """
    j_total = np.zeros(np.shape(u))
    for part in (cfg, ArrayConfig.pure_had(cfg.n_fd, 1, cfg.spacing)):
        if part.k_sub >= 2:
            j_total = j_total + _had_fim(part, u, snr, t_snapshots)
    return _bound(j_total)
