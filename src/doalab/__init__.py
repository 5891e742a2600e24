"""Desk-scale simulator for massive hybrid analog/digital MIMO DOA systems.

Subpackages cover array modeling and snapshot synthesis, covariance /
Root-MUSIC numerics, eigenvalue-based emitter detection (classical and
neural), ambiguity-resolving DOA estimators, Cramer-Rao bounds, and
low-resolution ADC quantization, plus a seeded Monte Carlo experiment
harness with a CLI entry point (``doa-lab``).
"""

from .arrays import (
    ArrayConfig,
    EmitterScenario,
    SnapshotBatch,
    analog_combine,
    steering_vector,
    subarray_gain,
    synthesize_snapshots,
)
from .crlb import (
    crlb_fd,
    crlb_had,
    crlb_tlhad,
    fim_single_source,
)
from .detect import (
    decision_threshold,
    glrt_statistic,
    maxmin_statistic,
)
from .doa import (
    CandidateSet,
    DoaEstimate,
    candidate_set,
    combine_estimates,
    fhad_root_music,
    had_root_music_classic,
    tlhad_estimate,
)
from .errors import ConfigError, EstimationError, TrainingError
from .mlnn import (
    MlnnModel,
    TrainingSet,
    eig_features,
    select_architecture,
    train,
)
from .quantize import (
    distortion_factor,
    effective_snr,
    lloyd_max_codebook,
    performance_loss_db,
)
from .rng import trial_rng
from .spectral import CovarianceEstimate, root_music, sample_covariance

__version__ = "0.1.0"
