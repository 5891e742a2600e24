"""Single-source DOA estimators for hybrid arrays.

Covers ambiguity candidate generation, the classic steered-power
eliminator (one broadside snapshot plus one snapshot per candidate), the
two-snapshot subgroup eliminator, the one-snapshot two-layer estimator
with CRLB-weighted combining, and the combiner itself.

All estimators consume a scenario with exactly one emitter and draw their
snapshots from the provided generator, so trials parallelize with split
streams.  Each of the three estimators also runs over a stack of trials,
one generator per trial: ``had_eliminator_rows`` gives both eliminators
from shared draws and ``tlhad_estimate_rows`` the two-layer estimate.
They draw the same values in the same order as the per-trial forms, as
one stacked array (``synthesize_snapshot_rows``), and root all trials'
Root-MUSIC polynomials of a channel block in one search; the per-trial
forms stay as their oracles.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrays import (
    ArrayConfig,
    EmitterScenario,
    analog_combine,
    subarray_gain,
    synthesize_snapshot_rows,
    synthesize_snapshots,
)
from .crlb import crlb_fd, crlb_had
from .errors import ConfigError
from .spectral import (
    root_music,
    root_music_rows,
    sample_covariance,
    signal_vectors,
)

METHOD_CLASSIC = "had-root-music"
METHOD_FHAD = "fhad-root-music"
METHOD_TLHAD = "tlhad"

# the flags a two-layer estimate can carry, in the order it lists them;
# the columns of the flag rows of ``tlhad_estimate_rows``
TLHAD_FLAGS = ("fd-only", "fd-clamped", "analog-null", "clamped")

# the least broadside subarray gain, as a fraction of its peak sqrt(M),
# at which the harness accepts a scenario angle
BROADSIDE_GAIN_FLOOR = 0.1


@dataclass(frozen=True)
class CandidateSet:
    """Directions consistent with an ambiguous inter-subarray estimate."""

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


def candidate_set(u_hat: float, m_sub: int, spacing: float) -> CandidateSet:
    """All direction-sines in [-1, 1) congruent to ``u_hat`` modulo 1/(M d).

    The inter-subarray phase wraps only once M d exceeds 1/2; up to there
    ``u_hat``, clipped to [-1, 1], is the one candidate.
    """
    period = 1.0 / (m_sub * spacing)
    if 2.0 * m_sub * spacing <= 1.0:
        return CandidateSet(np.array([np.clip(u_hat, -1.0, 1.0)]), period)
    k_lo = int(np.ceil((-1.0 - u_hat) / period - 1e-12))
    k_hi = int(np.floor((1.0 - u_hat) / period - 1e-12))
    cands = u_hat + period * np.arange(k_lo, k_hi + 1)
    cands = cands[(cands >= -1.0 - 1e-12) & (cands < 1.0 - 1e-12)]
    return CandidateSet(np.sort(cands), period)


def _require_single_emitter(scen: EmitterScenario):
    if scen.n_emitters != 1:
        raise ConfigError("estimators need an emitter, not noise alone")


def _snapshot(cfg, scen1, rng, u_steer=0.0):
    """One element-level snapshot of the one-snapshot scenario ``scen1``
    pushed through the analog front end steered at ``u_steer``."""
    return analog_combine(synthesize_snapshots(cfg, scen1, rng).samples, cfg,
                          u_steer)


def _had_candidates(cfg, scen, rng):
    """The HAD eliminators' first step on the pure HAD ``cfg``: ``scen``
    at one snapshot, and the candidates of its broadside snapshot, from
    Root-MUSIC on the subarray channels."""
    if cfg.n_fd != 0:
        raise ConfigError("HAD eliminators need a pure HAD array")
    _require_single_emitter(scen)
    scen1 = replace(scen, n_snapshots=1)
    had = _snapshot(cfg, scen1, rng)[: cfg.k_sub]
    u_hat = root_music(sample_covariance(had), spacing=cfg.m_sub * cfg.spacing)
    return scen1, candidate_set(u_hat, cfg.m_sub, cfg.spacing)


def had_root_music_classic(cfg: ArrayConfig, scen: EmitterScenario,
                           rng: np.random.Generator) -> DoaEstimate:
    """Classic eliminator: one steered trial snapshot per candidate.

    Consumes 1 + |candidates| snapshots (M + 1 when the candidate lattice
    is full); the estimate is the candidate whose steered snapshot shows
    maximum average combined power.  It carries no bound (``crlb_rad2`` is
    None); ``crlb.crlb_had`` gives the broadside one.
    """
    scen1, cands = _had_candidates(cfg, scen, rng)
    powers = []
    for u_k in cands.candidates:
        had = _snapshot(cfg, scen1, rng, u_k)[: cfg.k_sub]
        powers.append(float(np.mean(np.abs(had) ** 2)))
    best = int(np.argmax(powers))
    return DoaEstimate(float(cands.candidates[best]), METHOD_CLASSIC,
                       1 + len(cands), candidates=cands)


def _subgroups(k_sub: int, n_groups: int) -> np.ndarray:
    """The subgroup of each subarray: contiguous subgroups, the first
    ``k_sub % n_groups`` of them one subarray larger."""
    sizes = np.full(n_groups, k_sub // n_groups)
    sizes[: k_sub % n_groups] += 1
    return np.repeat(np.arange(n_groups), sizes)


def fhad_root_music(cfg: ArrayConfig, scen: EmitterScenario,
                    rng: np.random.Generator) -> DoaEstimate:
    """Two-snapshot eliminator: subarray subgroups steer at distinct
    candidates.  Like the classic one, it carries no bound."""
    scen1, cands = _had_candidates(cfg, scen, rng)
    if cfg.k_sub < len(cands):
        raise ConfigError(
            f"{cfg.k_sub} subarrays cannot host {len(cands)} candidate subgroups")
    group = _subgroups(cfg.k_sub, len(cands))
    steer = cands.candidates[group]
    sub_power = np.abs(_snapshot(cfg, scen1, rng, steer)[: cfg.k_sub, 0]) ** 2
    group_power = [np.mean(sub_power[group == j]) for j in range(len(cands))]
    best = int(np.argmax(group_power))
    return DoaEstimate(float(cands.candidates[best]), METHOD_FHAD, 2,
                       candidates=cands)


def max_candidates(m_sub: int, spacing: float) -> int:
    """The most candidates ``candidate_set`` can return: every
    congruence class modulo 1/(M d) meets [-1, 1) at most ceil(2 M d)
    times."""
    if 2.0 * m_sub * spacing <= 1.0:
        return 1
    return math.ceil(2.0 * m_sub * spacing - 1e-9)


def eliminator_sets(cfg: ArrayConfig) -> int:
    """The snapshot sets the HAD eliminators draw per trial on the HAD part
    of ``cfg``: a broadside one, then one per candidate for as many as a
    trial can have (``max_candidates``).

    Raises ConfigError when that part has fewer subarrays than those
    candidates, since the fast eliminator steers a subgroup of subarrays
    at each, or than the 2 a Root-MUSIC estimate needs.
    """
    n_cands = max_candidates(cfg.m_sub, cfg.spacing)
    if cfg.k_sub < max(2, n_cands):
        raise ConfigError(f"the HAD eliminators need {max(2, n_cands)} subarrays "
                          f"(one per candidate, at least 2), got {cfg.k_sub}")
    return 1 + n_cands


def _candidate_rows(u_hat, m_sub, spacing):
    """``candidate_set`` of each entry of ``u_hat``, as rows padded with NaN.

    Evaluates the float expressions of ``candidate_set`` on arrays, so each
    row holds the same bits.
    """
    u = np.asarray(u_hat, dtype=float)[:, None]
    if 2.0 * m_sub * spacing <= 1.0:
        return np.clip(u, -1.0, 1.0)
    period = 1.0 / (m_sub * spacing)
    k_lo = np.ceil((-1.0 - u) / period - 1e-12)
    k_hi = np.floor((1.0 - u) / period - 1e-12)
    k = k_lo + np.arange(int(np.max(k_hi - k_lo, initial=0)) + 1)
    cands = u + period * k
    keep = (k <= k_hi) & (cands >= -1.0 - 1e-12) & (cands < 1.0 - 1e-12)
    # a row keeps a contiguous run of its lattice points; move it to the front
    order = np.argsort(~keep, axis=1, kind="stable")
    rows = np.take_along_axis(np.where(keep, cands, np.nan), order, axis=1)
    return rows[:, : np.max(keep.sum(axis=1), initial=0)]


def _pick(cands, power):
    """The candidate of largest power per row; padding never wins."""
    power = np.where(np.isnan(cands), -np.inf, power)
    chosen = np.argmax(power, axis=1)
    return cands[np.arange(len(cands)), chosen], chosen, cands


def had_eliminator_rows(cfg: ArrayConfig, scen: EmitterScenario, rngs):
    """The classic and the fast eliminator for a stack of trials, one
    generator each.

    Returns (classic, fast), each (u, chosen, candidates): per trial the
    estimate, the index of the chosen candidate, and the candidates as a
    row padded with NaN.  Each trial draws what ``had_root_music_classic``
    draws: a broadside snapshot, searched once for all trials, then one
    snapshot per candidate.  ``fhad_root_music`` on a generator of the same
    stream draws the same broadside snapshot and, as its steered one, the
    classic eliminator's first candidate snapshot, so both eliminators
    share every draw.  Every trial's stream is read in one pass, for as
    many snapshots as the most candidates need (``eliminator_sets``, which
    refuses an array with too few subarrays before the draw); a trial with
    fewer candidates leaves its last ones unused.
    """
    if cfg.n_fd != 0:
        raise ConfigError("HAD eliminators need a pure HAD array")
    _require_single_emitter(scen)
    n_sets = eliminator_sets(cfg)
    scen1 = replace(scen, n_snapshots=1)
    x = synthesize_snapshot_rows(cfg, scen1, rngs, n_sets)
    had = analog_combine(x[:, 0], cfg)[:, : cfg.k_sub]
    u_hat = root_music_rows(signal_vectors(had), cfg.m_sub * cfg.spacing)
    cands = _candidate_rows(u_hat, cfg.m_sub, cfg.spacing)
    counts = np.count_nonzero(~np.isnan(cands), axis=1)
    x = x[:, 1: 1 + cands.shape[1]]

    steer = np.repeat(np.nan_to_num(cands)[..., None], cfg.k_sub, axis=-1)
    had = analog_combine(x, cfg, steer)[..., : cfg.k_sub, 0]
    classic = _pick(cands, np.mean(np.abs(had) ** 2, axis=-1))

    group = np.stack([_subgroups(cfg.k_sub, k)
                      for k in range(1, cands.shape[1] + 1)])[counts - 1]
    steer = np.take_along_axis(cands, group, axis=1)
    sub_power = np.abs(analog_combine(x[:, 0], cfg, steer)[:, : cfg.k_sub, 0]) ** 2
    # each subgroup's mean power, its members summed in column order as
    # np.mean sums fewer than 8 values; a padding column has no members
    cell = (group + cands.shape[1] * np.arange(len(cands))[:, None]).ravel()
    group_power = (np.bincount(cell, sub_power.ravel(), cands.size)
                   / np.maximum(np.bincount(cell, minlength=cands.size), 1))
    return classic, _pick(cands, group_power.reshape(cands.shape))


def combine_estimates(u_a, crlb_a, u_b, crlb_b):
    """Inverse-variance (minimum-variance) combination of two estimates,
    elementwise over arrays.

    Returns (u_combined, variance_combined).  Weighting is by inverse CRLB;
    weighting directly by the CRLBs would favor the worse estimator.  An
    infinite CRLB gives its estimate weight 0.
    """
    crlb_a = np.asarray(crlb_a, dtype=float)
    crlb_b = np.asarray(crlb_b, dtype=float)
    if not (np.all(crlb_a > 0) and np.all(crlb_b > 0)):
        raise ValueError("CRLBs must be positive")
    ja, jb = 1.0 / crlb_a, 1.0 / crlb_b
    if np.any(ja + jb == 0.0):
        raise ValueError("both estimators carry no information")
    w_a = ja / (ja + jb)
    return w_a * u_a + (1.0 - w_a) * u_b, 1.0 / (ja + jb)


def tlhad_estimate(cfg: ArrayConfig, scen: EmitterScenario,
                   rng: np.random.Generator) -> DoaEstimate:
    """One-snapshot two-layer estimate: HAD candidates disambiguated by the
    FD block, then CRLB-weighted combining.

    Both sub-estimates come from the same T snapshots (T = scenario count,
    works for T = 1).  The candidate nearest the FD estimate wins.
    """
    _require_single_emitter(scen)
    if cfg.n_fd < 2:
        raise ConfigError("two-layer estimator needs at least two FD channels")
    t = scen.n_snapshots
    x = analog_combine(synthesize_snapshots(cfg, scen, rng).samples, cfg)
    flags = []
    fd = x[cfg.k_sub:]
    u_fd = root_music(sample_covariance(fd), spacing=cfg.spacing)
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
    u_had = root_music(sample_covariance(had), spacing=cfg.m_sub * cfg.spacing)
    cands = candidate_set(u_had, cfg.m_sub, cfg.spacing)
    u_star = float(cands.candidates[np.argmin(np.abs(cands.candidates - u_fd))])

    crlb_h = crlb_had(cfg, np.degrees(np.arcsin(np.clip(u_star, -1, 1))),
                      scen.snr_db, t)
    if np.isinf(crlb_h):
        u, var = u_fd, crlb_f
        flags.append("analog-null")
    else:
        u, var = combine_estimates(u_star, crlb_h, u_fd, crlb_f)
    if abs(u) > 1.0:
        u = float(np.clip(u, -1.0, 1.0))
        flags.append("clamped")
    return DoaEstimate(float(u), METHOD_TLHAD, t, var, cands, tuple(flags))


def tlhad_estimate_rows(cfg: ArrayConfig, scen: EmitterScenario, rngs):
    """``tlhad_estimate`` for a stack of trials, one generator each.

    Returns (u, chosen, candidates, flags): per trial the estimate, the
    index of the HAD candidate nearest the FD estimate, the candidates as a
    row padded with NaN, and a boolean row marking which of
    ``TLHAD_FLAGS`` the per-trial form attaches.  Without a HAD estimate
    (fewer than two subarrays) every trial is "fd-only", ``candidates`` has
    no columns and ``chosen`` is -1.
    """
    _require_single_emitter(scen)
    if cfg.n_fd < 2:
        raise ConfigError("two-layer estimator needs at least two FD channels")
    t = scen.n_snapshots
    x = analog_combine(synthesize_snapshot_rows(cfg, scen, rngs)[:, 0], cfg)
    flags = np.zeros((len(x), len(TLHAD_FLAGS)), dtype=bool)
    fd_only, fd_clamped, analog_null, clamped = flags.T
    u_fd = root_music_rows(signal_vectors(x[:, cfg.k_sub:]), cfg.spacing)
    fd_clamped[:] = np.abs(u_fd) > 1.0
    u_fd = np.clip(u_fd, -1.0, 1.0)
    if cfg.k_sub < 2:
        fd_only[:] = True
        return u_fd, np.full(len(x), -1), np.empty((len(x), 0)), flags
    crlb_f = crlb_fd(cfg.n_fd, np.degrees(np.arcsin(u_fd)), scen.snr_db, t,
                     cfg.spacing)

    u_had = root_music_rows(signal_vectors(x[:, : cfg.k_sub]),
                            cfg.m_sub * cfg.spacing)
    cands = _candidate_rows(u_had, cfg.m_sub, cfg.spacing)
    chosen = np.nanargmin(np.abs(cands - u_fd[:, None]), axis=1)
    u_star = cands[np.arange(len(cands)), chosen]

    crlb_h = crlb_had(cfg, np.degrees(np.arcsin(np.clip(u_star, -1, 1))),
                      scen.snr_db, t)
    analog_null[:] = np.isinf(crlb_h)
    u = u_fd.copy()
    live = ~analog_null
    u[live] = combine_estimates(u_star[live], crlb_h[live], u_fd[live],
                                crlb_f[live])[0]
    clamped[:] = np.abs(u) > 1.0
    return np.clip(u, -1.0, 1.0), chosen, cands, flags


def broadside_gain_ok(cfg: ArrayConfig, u: float) -> bool:
    """True when the broadside analog beam keeps at least
    ``BROADSIDE_GAIN_FLOOR * sqrt(M)`` gain at ``u``; the harness excludes
    scenario angles that fail this."""
    return (abs(subarray_gain(cfg.m_sub, cfg.spacing, u))
            >= BROADSIDE_GAIN_FLOOR * np.sqrt(cfg.m_sub))
