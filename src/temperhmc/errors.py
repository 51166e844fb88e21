"""Exception hierarchy shared across the package."""


class TemperHmcError(Exception):
    """Base class for all package errors."""


class ConfigError(TemperHmcError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class NumericalError(TemperHmcError):
    """Numerical failure during a computation (CLI exit code 3)."""


class BudgetError(TemperHmcError):
    """A restart/iteration budget was exhausted (CLI exit code 4)."""


class ShapeMismatch(ConfigError):
    """Parameter vector or input does not match the network architecture."""


class BadMagic(ConfigError):
    """Byte stream is not an IDX image/label file."""


class TruncatedPayload(ConfigError):
    """IDX payload shorter than the header promises, or counts disagree."""


class IndivisibleSize(ConfigError):
    """Requested stratified subset size is not a multiple of the class count."""


class InsufficientClassCount(ConfigError):
    """A class has fewer examples than the stratified subset requires."""


class FailedToTune(NumericalError):
    """Step-size tuning hit its round cap, or dt left the positive floats."""

    def __init__(self, dt, rate):
        self.dt = dt
        self.rate = rate
        super().__init__(f"step-size tuning failed: dt={dt:.3g}, acceptance={rate:.3f}")


class NonFiniteEnergy(NumericalError):
    """Energy or gradient evaluated to NaN/inf where finiteness is required."""


class InsufficientSamples(NumericalError):
    """Not enough post-burn-in samples to form the requested estimate."""


class GridMismatch(ConfigError):
    """Quadrature grid does not meet the integrator's requirements."""


class DegenerateDirection(NumericalError):
    """A sampled coordinate variance fell below the stiffness floor."""


class DatasetMismatch(ConfigError):
    """Two runs being compared were not evaluated on the same dataset."""
