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
    """Emitters, noise power, and snapshot budget for one simulation."""

    directions_deg: tuple
    powers: tuple
    noise_power: float = 1.0
    n_snapshots: int = 1
    signal_model: str = CONSTANT_MODULUS

    def __post_init__(self):
        object.__setattr__(self, "directions_deg", tuple(float(d) for d in self.directions_deg))
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))
        if len(self.directions_deg) != len(self.powers):
            raise ValueError("one power per direction required")
        for d in self.directions_deg:
            if not -90.0 < d < 90.0:
                raise ValueError("directions must lie strictly inside (-90, 90) degrees")
        for p in self.powers:
            if not 0 < p < math.inf:
                raise ValueError("emitter powers must be positive and finite")
        if not 0 < self.noise_power < math.inf:
            raise ValueError("noise_power must be positive and finite")
        if self.n_snapshots < 1:
            raise ValueError("need at least one snapshot")
        if self.signal_model not in (CONSTANT_MODULUS, GAUSSIAN):
            raise ValueError(f"unknown signal model {self.signal_model!r}")

    @property
    def n_emitters(self) -> int:
        return len(self.directions_deg)

    @property
    def direction_sines(self) -> np.ndarray:
        return np.sin(np.deg2rad(np.asarray(self.directions_deg)))

    @property
    def snr_linear(self) -> float:
        return sum(self.powers) / self.noise_power

    @property
    def snr_db(self) -> float:
        return 10.0 * np.log10(self.snr_linear)

    @classmethod
    def single_emitter(cls, theta_deg, snr_db, n_snapshots, noise_power=1.0,
                       signal_model=CONSTANT_MODULUS):
        power = noise_power * 10.0 ** (snr_db / 10.0)
        return cls((theta_deg,), (power,), noise_power, n_snapshots, signal_model)

    @classmethod
    def noise_only(cls, n_snapshots, noise_power=1.0):
        """H0 scenario carrier: no emitters, just noise."""
        return cls((), (), noise_power, n_snapshots)


@dataclass
class SnapshotBatch:
    """Element-level complex baseband samples, channels x snapshots."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 2:
            raise ValueError("samples must be channels x snapshots")
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise ValueError("samples must be finite")


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
            if q:  # every emitter's waveform draws come before the noise
                (rng.standard_normal if gaussian else rng.random)(out=wave[b, r])
            rng.standard_normal(out=noise[b, r])
    return wave, noise


def synthesize_snapshot_rows(cfg: ArrayConfig, scen: EmitterScenario, rngs,
                             sets=1) -> np.ndarray:
    """Element-level snapshot sets of a stack of trials, one generator each.

    Returns a complex (trials, sets, n_total, n_snapshots) array.  Each
    trial draws its ``sets`` sets from its generator, in one pass over
    ``rngs``, each set in the order of one ``synthesize_snapshots`` call:
    the waveform of every emitter (uniform phases, or a Gaussian
    real/imaginary pair), then the real and the imaginary noise.  The
    draws fill preallocated buffers and the arithmetic runs once on the
    stack with the per-trial float expressions, so set r of trial b holds
    the bits of the (r+1)-th of successive per-trial calls on its stream.

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
    for j, (u_q, p_q) in enumerate(zip(scen.direction_sines, scen.powers)):
        if gaussian:
            s = np.sqrt(p_q / 2.0) * (wave[:, :, j, 0] + 1j * wave[:, :, j, 1])
        else:
            s = np.sqrt(p_q) * np.exp(2j * np.pi * wave[:, :, j, 0])
        x += steering_vector(n, u_q, cfg.spacing)[:, None] * s[..., None, :]
    sigma = np.sqrt(scen.noise_power / 2.0)
    x += sigma * (noise[:, :, 0] + 1j * noise[:, :, 1])
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ValueError("samples must be finite")
    return x


def synthesize_snapshots(cfg: ArrayConfig, scen: EmitterScenario,
                         rng: np.random.Generator) -> SnapshotBatch:
    """Element-level snapshots of one trial: sum of steered emitter signals
    plus noise.

    Noise is circular complex Gaussian with per-entry variance
    ``scen.noise_power``; emitter waveforms are unit-modulus with uniform
    random phase (default) or complex Gaussian.  Deterministic given rng;
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
