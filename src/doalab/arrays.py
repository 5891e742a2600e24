"""Array geometry, steering vectors, analog combining, and snapshot synthesis.

The receive array is a single uniform linear grid of ``n_total`` antennas
with spacing ``spacing`` wavelengths.  The first ``k_sub * m_sub`` antennas
form the hybrid analog/digital (HAD) part, grouped into ``k_sub`` subarrays
of ``m_sub`` antennas each; the last ``n_fd`` antennas are wired
fully-digitally.  Directions are handled internally as direction-sines
``u = sin(theta)``; degrees appear only at I/O boundaries.
"""

from dataclasses import dataclass, field

import numpy as np

ELEMENT = "element"
ANALOG_COMBINED = "analog-combined"
QUANTIZED = "quantized"

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

    @property
    def n_channels(self) -> int:
        """Digital channels after analog combining."""
        return self.k_sub + self.n_fd

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
            if not p > 0:
                raise ValueError("emitter powers must be positive")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")
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
    """Complex baseband samples, channels x snapshots, tagged by stage."""

    samples: np.ndarray
    stage: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 2:
            raise ValueError("samples must be channels x snapshots")
        if self.stage not in (ELEMENT, ANALOG_COMBINED, QUANTIZED):
            raise ValueError(f"unknown stage {self.stage!r}")
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise ValueError("samples must be finite")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.samples.shape[1]


@dataclass
class AnalogWeights:
    """Per-subarray unit-modulus phase weights, normalized by 1/sqrt(M).

    ``weights`` has shape (k_sub, m_sub); subarray k's digital output is
    ``w_k^H x_k``.  The 1/sqrt(M) normalization keeps combined noise power
    equal to the element-level noise power.
    """

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.complex128)
        if self.weights.ndim != 2:
            raise ValueError("weights must be k_sub x m_sub")
        m = self.weights.shape[1]
        if not np.allclose(np.abs(self.weights), 1.0 / np.sqrt(m), atol=1e-12):
            raise ValueError("every weight must have modulus 1/sqrt(m_sub)")

    @property
    def k_sub(self) -> int:
        return self.weights.shape[0]

    @property
    def m_sub(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def steered(cls, cfg: ArrayConfig, u_steer) -> "AnalogWeights":
        """Weights pointing every subarray at direction-sine(s) ``u_steer``.

        ``u_steer`` may be a scalar (all subarrays alike) or one value per
        subarray.  Phases are local to each subarray, so the inter-subarray
        phase of the combined channels stays on the virtual M*d grid.
        """
        u = np.broadcast_to(np.atleast_1d(np.asarray(u_steer, dtype=float)),
                            (cfg.k_sub,)) if np.ndim(u_steer) == 0 else \
            np.asarray(u_steer, dtype=float)
        if u.shape != (cfg.k_sub,):
            raise ValueError("u_steer must be scalar or one entry per subarray")
        m = np.arange(cfg.m_sub)
        w = np.exp(2j * np.pi * cfg.spacing * np.outer(u, m)) / np.sqrt(cfg.m_sub)
        return cls(w)

    @classmethod
    def broadside(cls, cfg: ArrayConfig) -> "AnalogWeights":
        return cls.steered(cfg, 0.0)


def steering_vector(n_elements: int, u: float, spacing: float = 0.5) -> np.ndarray:
    """ULA steering vector: element p equals exp(i 2 pi spacing p u)."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    if abs(u) > 1.0:
        raise ValueError(f"direction-sine |u|={abs(u)} exceeds 1")
    return np.exp(2j * np.pi * spacing * u * np.arange(n_elements))


def subarray_gain(m_sub: int, spacing: float, u: float, u_steer: float) -> complex:
    """Complex gain of one analog subarray steered at ``u_steer`` seen from ``u``."""
    if m_sub < 1:
        raise ValueError("m_sub must be at least 1")
    for v in (u, u_steer):
        if abs(v) > 1.0:
            raise ValueError("direction-sines must lie in [-1, 1]")
    m = np.arange(m_sub)
    return complex(np.sum(np.exp(2j * np.pi * spacing * m * (u - u_steer))) / np.sqrt(m_sub))


def synthesize_snapshots(cfg: ArrayConfig, scen: EmitterScenario,
                         rng: np.random.Generator) -> SnapshotBatch:
    """Element-level snapshots: sum of steered emitter signals plus noise.

    Noise is circular complex Gaussian with per-entry variance
    ``scen.noise_power``; emitter waveforms are unit-modulus with uniform
    random phase (default) or complex Gaussian.  Deterministic given rng.
    """
    n, t = cfg.n_total, scen.n_snapshots
    x = np.zeros((n, t), dtype=np.complex128)
    for u_q, p_q in zip(scen.direction_sines, scen.powers):
        if scen.signal_model == CONSTANT_MODULUS:
            s = np.sqrt(p_q) * np.exp(2j * np.pi * rng.random(t))
        else:
            s = np.sqrt(p_q / 2.0) * (rng.standard_normal(t) + 1j * rng.standard_normal(t))
        x += np.outer(steering_vector(n, u_q, cfg.spacing), s)
    sigma = np.sqrt(scen.noise_power / 2.0)
    x += sigma * (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t)))
    return SnapshotBatch(x, ELEMENT)


def analog_combine(batch: SnapshotBatch, cfg: ArrayConfig,
                   weights: AnalogWeights) -> SnapshotBatch:
    """Apply per-subarray analog combining; FD antennas pass through.

    Output channels: k_sub combined subarray channels followed by the n_fd
    fully-digital element channels.
    """
    if batch.stage != ELEMENT:
        raise ValueError(f"analog_combine needs element-stage input, got {batch.stage!r}")
    if batch.n_channels != cfg.n_total:
        raise ValueError("batch channel count does not match array config")
    if weights.k_sub != cfg.k_sub or weights.m_sub != cfg.m_sub:
        raise ValueError("weights shape does not match subarray partition")
    had = batch.samples[: cfg.n_had].reshape(cfg.k_sub, cfg.m_sub,
                                             batch.n_snapshots)
    combined = np.einsum("km,kmt->kt", weights.weights.conj(), had)
    out = np.concatenate([combined, batch.samples[cfg.n_had:]], axis=0)
    return SnapshotBatch(out, ANALOG_COMBINED)
