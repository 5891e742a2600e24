"""Single-source DOA estimators for hybrid arrays.

Covers ambiguity candidate generation, the classic steered-power
eliminator (one broadside snapshot plus one snapshot per candidate), the
two-snapshot subgroup eliminator, the one-snapshot two-layer estimator
with CRLB-weighted combining, and the combiner itself.

All estimators consume a scenario with exactly one emitter and draw their
snapshots from the provided generator, so trials parallelize with split
streams.
"""

from dataclasses import dataclass, replace

import numpy as np

from .arrays import (
    ArrayConfig,
    EmitterScenario,
    analog_combine,
    synthesize_snapshots,
)
from .crlb import crlb_fd, crlb_had
from .errors import ConfigError
from .spectral import root_music, sample_covariance

METHOD_CLASSIC = "had-root-music"
METHOD_FHAD = "fhad-root-music"
METHOD_TLHAD = "tlhad"


@dataclass(frozen=True)
class CandidateSet:
    """Directions consistent with an ambiguous inter-subarray estimate."""

    base_u: float
    candidates: np.ndarray
    period: float

    def __len__(self):
        return len(self.candidates)


@dataclass(frozen=True)
class DoaEstimate:
    u: float
    method: str
    snapshots_used: int
    crlb_rad2: float | None = None
    candidates: CandidateSet | None = None
    flags: tuple = ()

    @property
    def angle_deg(self) -> float:
        return float(np.degrees(np.arcsin(self.u)))


def candidate_set(u_hat: float, m_sub: int, spacing: float) -> CandidateSet:
    """All direction-sines in [-1, 1) congruent to ``u_hat`` modulo 1/(M d)."""
    if m_sub * spacing < 1.0:
        # virtual spacing below half-wavelength: no ambiguity to expand
        return CandidateSet(u_hat, np.array([u_hat]), 1.0 / (m_sub * spacing))
    period = 1.0 / (m_sub * spacing)
    k_lo = int(np.ceil((-1.0 - u_hat) / period - 1e-12))
    k_hi = int(np.floor((1.0 - u_hat) / period - 1e-12))
    cands = u_hat + period * np.arange(k_lo, k_hi + 1)
    cands = cands[(cands >= -1.0 - 1e-12) & (cands < 1.0 - 1e-12)]
    return CandidateSet(u_hat, np.sort(cands), period)


def _require_single_emitter(scen: EmitterScenario):
    if scen.n_emitters != 1:
        raise ConfigError("estimators handle exactly one emitter")


def _snapshot(cfg, scen1, rng, u_steer=0.0):
    """One element-level snapshot of the one-snapshot scenario ``scen1``
    pushed through the analog front end steered at ``u_steer``."""
    return analog_combine(synthesize_snapshots(cfg, scen1, rng).samples, cfg,
                          u_steer)


def _had_candidates(cfg, scen1, rng):
    """Broadside snapshot -> Root-MUSIC on the subarray channels -> candidates."""
    had = _snapshot(cfg, scen1, rng)[: cfg.k_sub]
    u_hat = root_music(sample_covariance(had), 1, cfg.m_sub * cfg.spacing)[0]
    return candidate_set(u_hat, cfg.m_sub, cfg.spacing)


def had_root_music_classic(cfg: ArrayConfig, scen: EmitterScenario,
                           rng: np.random.Generator) -> DoaEstimate:
    """Classic eliminator: one steered trial snapshot per candidate.

    Consumes 1 + |candidates| snapshots (M + 1 when the candidate lattice
    is full); the estimate is the candidate whose steered snapshot shows
    maximum average combined power.  It carries no bound (``crlb_rad2`` is
    None); ``crlb.crlb_had`` with ``analog_steer_u=0`` gives the broadside
    one.
    """
    if cfg.n_fd != 0:
        raise ConfigError("classic eliminator needs a pure HAD array")
    _require_single_emitter(scen)
    scen1 = replace(scen, n_snapshots=1)
    cands = _had_candidates(cfg, scen1, rng)
    powers = []
    for u_k in cands.candidates:
        had = _snapshot(cfg, scen1, rng, u_k)[: cfg.k_sub]
        powers.append(float(np.mean(np.abs(had) ** 2)))
    best = int(np.argmax(powers))
    return DoaEstimate(float(cands.candidates[best]), METHOD_CLASSIC,
                       1 + len(cands), candidates=cands)


def _subgroups(k_sub: int, n_groups: int):
    """Contiguous subgroups; remainder subarrays spread round-robin."""
    sizes = np.full(n_groups, k_sub // n_groups)
    sizes[: k_sub % n_groups] += 1
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return [range(bounds[j], bounds[j + 1]) for j in range(n_groups)]


def fhad_root_music(cfg: ArrayConfig, scen: EmitterScenario,
                    rng: np.random.Generator) -> DoaEstimate:
    """Two-snapshot eliminator: subarray subgroups steer at distinct
    candidates.  Like the classic one, it carries no bound."""
    if cfg.n_fd != 0:
        raise ConfigError("fast eliminator needs a pure HAD array")
    _require_single_emitter(scen)
    scen1 = replace(scen, n_snapshots=1)
    cands = _had_candidates(cfg, scen1, rng)
    if cfg.k_sub < len(cands):
        raise ConfigError(
            f"{cfg.k_sub} subarrays cannot host {len(cands)} candidate subgroups")
    groups = _subgroups(cfg.k_sub, len(cands))
    steer = np.empty(cfg.k_sub)
    for j, grp in enumerate(groups):
        steer[list(grp)] = cands.candidates[j]
    sub_power = np.abs(_snapshot(cfg, scen1, rng, steer)[: cfg.k_sub, 0]) ** 2
    group_power = [float(np.mean(sub_power[list(grp)])) for grp in groups]
    best = int(np.argmax(group_power))
    return DoaEstimate(float(cands.candidates[best]), METHOD_FHAD, 2,
                       candidates=cands)


def combine_estimates(u_a: float, crlb_a: float, u_b: float, crlb_b: float):
    """Inverse-variance (minimum-variance) combination of two estimates.

    Returns (u_combined, variance_combined).  Weighting is by inverse CRLB;
    weighting directly by the CRLBs would favor the worse estimator.
    """
    if not (crlb_a > 0 and crlb_b > 0):
        raise ValueError("CRLBs must be positive")
    ja = 0.0 if np.isinf(crlb_a) else 1.0 / crlb_a
    jb = 0.0 if np.isinf(crlb_b) else 1.0 / crlb_b
    if ja + jb == 0.0:
        raise ValueError("both estimators carry no information")
    w_a = ja / (ja + jb)
    return w_a * u_a + (1.0 - w_a) * u_b, 1.0 / (ja + jb)


def tlhad_estimate(cfg: ArrayConfig, scen: EmitterScenario,
                   rng: np.random.Generator) -> DoaEstimate:
    """One-snapshot two-layer estimate: HAD candidates disambiguated by the
    FD block, then CRLB-weighted combining.

    Both sub-estimates come from the same T snapshots (T = scenario count,
    works for T = 1).  The candidate nearest the FD estimate wins; an exact
    midpoint tie breaks toward the candidate with smaller |u|.
    """
    _require_single_emitter(scen)
    if cfg.n_fd < 2:
        raise ConfigError("two-layer estimator needs at least two FD channels")
    t = scen.n_snapshots
    x = analog_combine(synthesize_snapshots(cfg, scen, rng).samples, cfg)
    flags = []
    fd = x[cfg.k_sub:]
    u_fd = float(root_music(sample_covariance(fd), 1, cfg.spacing)[0])
    if abs(u_fd) > 1.0:
        u_fd = float(np.clip(u_fd, -1.0, 1.0))
        flags.append("fd-clamped")
    theta_fd = np.degrees(np.arcsin(u_fd))
    crlb_f = crlb_fd(cfg.n_fd, theta_fd, scen.snr_db, t, cfg.spacing)

    if cfg.k_sub < 2:
        # degenerate two-layer array: FD block only
        return DoaEstimate(u_fd, METHOD_TLHAD, t, crlb_f, None,
                           ("fd-only", *flags))

    had = x[: cfg.k_sub]
    u_had = root_music(sample_covariance(had), 1, cfg.m_sub * cfg.spacing)[0]
    cands = candidate_set(u_had, cfg.m_sub, cfg.spacing)
    dist = np.abs(cands.candidates - u_fd)
    near = np.flatnonzero(np.isclose(dist, dist.min(), rtol=0.0, atol=1e-12))
    u_star = float(cands.candidates[near[np.argmin(np.abs(cands.candidates[near]))]])

    crlb_h = crlb_had(cfg, np.degrees(np.arcsin(np.clip(u_star, -1, 1))),
                      scen.snr_db, t, analog_steer_u=0.0)
    if np.isinf(crlb_h):
        u, var = u_fd, crlb_f
        flags.append("analog-null")
    else:
        u, var = combine_estimates(u_star, crlb_h, u_fd, crlb_f)
    if abs(u) > 1.0:
        u = float(np.clip(u, -1.0, 1.0))
        flags.append("clamped")
    return DoaEstimate(float(u), METHOD_TLHAD, t, var, cands, tuple(flags))


def broadside_gain_ok(cfg: ArrayConfig, u: float, floor: float = 0.1) -> bool:
    """True when the broadside analog beam keeps at least ``floor * sqrt(M)``
    gain at ``u``; the harness excludes scenario angles that fail this."""
    from .arrays import subarray_gain

    return abs(subarray_gain(cfg.m_sub, cfg.spacing, u, 0.0)) >= floor * np.sqrt(cfg.m_sub)
