"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment or array configuration."""


class EstimationError(RuntimeError):
    """A DOA estimate or a detection trial's eigenvalues could not be computed."""


class TrainingError(RuntimeError):
    """Neural-network training diverged or failed a contract."""

    def __init__(self, message, loss_history=None):
        super().__init__(message)
        self.loss_history = loss_history
