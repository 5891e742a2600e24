"""Array geometry, steering vectors, analog combining, and snapshot synthesis.

The receive array is a single uniform linear grid of ``n_total`` antennas
with spacing ``spacing`` wavelengths.  The first ``k_sub * m_sub`` antennas
form the hybrid analog/digital (HAD) part, grouped into ``k_sub`` subarrays
of ``m_sub`` antennas each; the last ``n_fd`` antennas are wired
fully-digitally.  Directions are handled internally as direction-sines
``u = sin(theta)``; degrees appear only at I/O boundaries.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import TrialStreams

CONSTANT_MODULUS = "constant-modulus"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class ArrayConfig:
    """Receive-array geometry: subarray partition plus fully-digital block.

    ``n_total = k_sub * m_sub + n_fd`` must hold; ``fd_proportion`` is the
    fraction of antennas with their own RF chain (0 = pure HAD, 1 = FD).
    """

    n_total: int
    m_sub: int
    k_sub: int
    n_fd: int = 0
    spacing: float = 0.5

    def __post_init__(self):
        if min(self.n_total, self.m_sub, self.k_sub, self.n_fd) < 0:
            raise ValueError("antenna counts must be nonnegative")
        if self.k_sub > 0 and self.m_sub < 1:
            raise ValueError("subarrays need at least one antenna each")
        if self.n_total != self.k_sub * self.m_sub + self.n_fd:
            raise ValueError(
                f"n_total={self.n_total} != k_sub*m_sub + n_fd = "
                f"{self.k_sub * self.m_sub + self.n_fd}"
            )
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")

    @property
    def fd_proportion(self) -> float:
        return self.n_fd / self.n_total if self.n_total else 0.0

    @property
    def n_had(self) -> int:
        """Antennas in the HAD part."""
        return self.k_sub * self.m_sub

    @classmethod
    def pure_had(cls, n_total, m_sub, spacing=0.5):
        if n_total % m_sub:
            raise ValueError("n_total must be a multiple of m_sub")
        return cls(n_total, m_sub, n_total // m_sub, 0, spacing)

    @classmethod
    def fully_digital(cls, n_total, spacing=0.5):
        return cls(n_total, 1, 0, n_total, spacing)

    @classmethod
    def two_layer(cls, n_total, m_sub, fd_proportion, spacing=0.5):
        """Largest FD block with at most ``fd_proportion * n_total`` antennas
        that leaves the HAD part a whole number of subarrays."""
        if not 0.0 <= fd_proportion <= 1.0:
            raise ValueError("fd_proportion must lie in [0, 1]")
        n_fd = int(np.floor(fd_proportion * n_total + 1e-9))
        while n_fd > 0 and (n_total - n_fd) % m_sub:
            n_fd -= 1
        return cls(n_total, m_sub, (n_total - n_fd) // m_sub, n_fd, spacing)


@dataclass(frozen=True)
class EmitterScenario:
    """One emitter, or none, and the snapshot budget of one simulation.

    ``theta_deg`` is the emitter's direction, or None for noise alone.
    The noise is circular complex Gaussian with unit variance per entry,
    and ``power`` is the emitter's power in units of it, so ``power`` is
    the per-antenna SNR; noise alone has power 0.  Every estimator and
    detector is scale-invariant, so unit noise loses no generality.
    """

    theta_deg: float | None
    power: float = 0.0
    n_snapshots: int = 1
    signal_model: str = CONSTANT_MODULUS

    def __post_init__(self):
        if self.theta_deg is None:
            if self.power != 0.0:
                raise ValueError("noise alone has no emitter power")
        else:
            object.__setattr__(self, "theta_deg", float(self.theta_deg))
            object.__setattr__(self, "power", float(self.power))
            if not -90.0 < self.theta_deg < 90.0:
                raise ValueError("directions must lie strictly inside (-90, 90) degrees")
            if not 0 < self.power < math.inf:
                raise ValueError("emitter power must be positive and finite")
        if self.n_snapshots < 1:
            raise ValueError("need at least one snapshot")
        if self.signal_model not in (CONSTANT_MODULUS, GAUSSIAN):
            raise ValueError(f"unknown signal model {self.signal_model!r}")

    @property
    def n_emitters(self) -> int:
        return 0 if self.theta_deg is None else 1

    @property
    def direction_sines(self) -> np.ndarray:
        """The emitter's direction-sine, as an array of ``n_emitters``."""
        return np.sin(np.deg2rad(np.array([self.theta_deg] * self.n_emitters,
                                          dtype=float)))

    @classmethod
    def single_emitter(cls, theta_deg, snr_db, n_snapshots,
                       signal_model=CONSTANT_MODULUS):
        return cls(theta_deg, 10.0 ** (snr_db / 10.0), n_snapshots, signal_model)

    @classmethod
    def noise_only(cls, n_snapshots):
        """H0 scenario carrier: no emitter, just noise."""
        return cls(None, 0.0, n_snapshots)


@dataclass
class SnapshotBatch:
    """Element-level complex baseband samples, channels x snapshots, as
    ``synthesize_snapshots`` draws and checks them."""

    samples: np.ndarray


def steering_vector(n_elements: int, u: float, spacing: float = 0.5) -> np.ndarray:
    """ULA steering vector: element p equals exp(i 2 pi spacing p u)."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    if abs(u) > 1.0:
        raise ValueError(f"direction-sine |u|={abs(u)} exceeds 1")
    return np.exp(2j * np.pi * spacing * u * np.arange(n_elements))


def subarray_gain(m_sub: int, spacing: float, u):
    """Complex gain at direction-sine ``u`` of one analog subarray steered at
    broadside: a complex for a scalar ``u``, else an array of its shape."""
    if m_sub < 1:
        raise ValueError("m_sub must be at least 1")
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) > 1.0):
        raise ValueError("direction-sines must lie in [-1, 1]")
    m = np.arange(m_sub)
    g = np.sum(np.exp(2j * np.pi * spacing * m * u[..., None]), axis=-1) / np.sqrt(m_sub)
    return complex(g) if g.ndim == 0 else g


def _snapshot_draws(rngs, shape):
    """The waveform and noise draws of ``synthesize_snapshot_rows`` of the
    draw shape (channels, snapshots, emitters, Gaussian signal, sets), in
    one pass over ``rngs``."""
    n, t, q, gaussian, sets = shape
    wave = np.empty((len(rngs), sets, q, 2 if gaussian else 1, t))
    noise = np.empty((len(rngs), sets, 2, n, t))
    for b, rng in enumerate(rngs):
        for r in range(sets):
            if q:  # the emitter's waveform draws come before the noise
                (rng.standard_normal if gaussian else rng.random)(out=wave[b, r])
            rng.standard_normal(out=noise[b, r])
    return wave, noise


def synthesize_snapshot_rows(cfg: ArrayConfig, scen: EmitterScenario, rngs,
                             sets=1) -> np.ndarray:
    """Element-level snapshot sets of a stack of trials, one generator each.

    Returns a complex (trials, sets, n_total, n_snapshots) array.  Each
    trial draws its ``sets`` sets from its generator, in one pass over
    ``rngs``, each set in the order of one ``synthesize_snapshots`` call:
    the emitter's waveform, if there is one (uniform phases, or a
    Gaussian real/imaginary pair), then the real and the imaginary noise.
    The draws fill preallocated buffers and the arithmetic runs once on
    the stack with the per-trial float expressions, so set r of trial b
    holds the bits of the (r+1)-th of successive per-trial calls on its
    stream.

    The draws depend only on the draw shape: the channel, snapshot and
    emitter counts, the signal model and ``sets``.  When ``rngs`` is a
    ``TrialStreams`` they are kept per draw shape (``TrialStreams.kept``),
    so a later call of the same shape, at another SNR, direction or
    partition of the array, reads no stream.
    """
    n, t, q = cfg.n_total, scen.n_snapshots, scen.n_emitters
    gaussian = scen.signal_model == GAUSSIAN
    shape = (n, t, q, gaussian, sets)
    if isinstance(rngs, TrialStreams):
        wave, noise = rngs.kept(shape, lambda: _snapshot_draws(rngs, shape))
    else:
        wave, noise = _snapshot_draws(rngs, shape)
    x = np.zeros((len(rngs), sets, n, t), dtype=np.complex128)
    if q:
        if gaussian:
            s = np.sqrt(scen.power / 2.0) * (wave[:, :, 0, 0] + 1j * wave[:, :, 0, 1])
        else:
            s = np.sqrt(scen.power) * np.exp(2j * np.pi * wave[:, :, 0, 0])
        a = steering_vector(n, scen.direction_sines[0], cfg.spacing)
        x += a[:, None] * s[..., None, :]
    x += np.sqrt(1.0 / 2.0) * (noise[:, :, 0] + 1j * noise[:, :, 1])
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ValueError("samples must be finite")
    return x


def synthesize_snapshots(cfg: ArrayConfig, scen: EmitterScenario,
                         rng: np.random.Generator) -> SnapshotBatch:
    """Element-level snapshots of one trial: the steered emitter signal,
    if any, plus noise.

    Noise is circular complex Gaussian with unit per-entry variance; the
    emitter waveform is unit-modulus with uniform random phase (default)
    or complex Gaussian, scaled to ``scen.power``.  Deterministic given rng;
    the one-set case of ``synthesize_snapshot_rows``.
    """
    return SnapshotBatch(synthesize_snapshot_rows(cfg, scen, [rng])[0, 0])


def analog_combine(samples: np.ndarray, cfg: ArrayConfig,
                   u_steer=0.0) -> np.ndarray:
    """Apply per-subarray analog combining; FD antennas pass through.

    ``samples`` is the element-level channels x snapshots array, or a
    stack of them (..., channels, snapshots).  Every subarray is steered
    at direction-sine ``u_steer``: a scalar (all subarrays of every array
    alike, broadside by default), one value per subarray, or one value per
    subarray of each array in the stack.  Subarray k's output is
    ``w_k^H x_k`` with unit-modulus phases ``w_k = exp(i 2 pi d m u_k) /
    sqrt(M)``.  The phases are local to each subarray, so the
    inter-subarray phase of the combined channels stays on the virtual M*d
    grid, and the 1/sqrt(M) normalization keeps combined noise power equal
    to the element-level noise power.

    Output channels: k_sub combined subarray channels followed by the n_fd
    fully-digital element channels.
    """
    if samples.ndim < 2 or samples.shape[-2] != cfg.n_total:
        raise ValueError("sample row count does not match array config")
    lead, t = samples.shape[:-2], samples.shape[-1]
    u = np.asarray(u_steer, dtype=float)
    if u.ndim == 0:
        u = np.full(cfg.k_sub, u)
    elif u.shape not in ((cfg.k_sub,), lead + (cfg.k_sub,)):
        raise ValueError("u_steer must be scalar or one entry per subarray")
    m = np.arange(cfg.m_sub)
    w = np.exp(2j * np.pi * cfg.spacing * u[..., None] * m) / np.sqrt(cfg.m_sub)
    had = samples[..., : cfg.n_had, :].reshape(lead + (cfg.k_sub, cfg.m_sub, t))
    combined = np.einsum("...km,...kmt->...kt", w.conj(), had)
    return np.concatenate([combined, samples[..., cfg.n_had:, :]], axis=-2)
