"""Exception taxonomy shared by all rotwave modules."""


class Error(Exception):
    """Base class for all rotwave errors."""


class NonConvergence(Error):
    """An iterative scheme exhausted its budget before reaching tolerance."""


class NoSignChange(Error):
    """Root bracketing requires f(lo) and f(hi) of opposite sign."""


class EigenFailure(Error):
    """The secular iteration of a mesh level or Pruefer shooting failed."""


class OutOfDomain(Error):
    """Argument outside [-1, 0], the scaled vertical domain."""


class NonAdmissibleLambda(Error):
    """lambda + Gamma(p) must stay positive on [-1, 0]."""


class BracketFailure(Error):
    """Geometric expansion found no sign change within its caps."""


class NoSolution(Error):
    """A scalar constraint has no root in the searched range."""


class DegenerateConstraint(Error):
    """The mass-flux constraint does not depend on p0 (gamma == 0).

    Raised only when the constraint holds identically: every p0 < 0 is
    then an equally valid calibration.
    """


class ZeroDenominator(Error):
    """Rayleigh quotient denominator vanished."""


class StagnationAtAmplitude(Error):
    """min(h_p + 1) <= 0: the requested amplitude reaches stagnation.

    ``critical_s`` is a necessary upper bound on admissible amplitudes.
    """

    def __init__(self, message, critical_s=None):
        super().__init__(message)
        self.critical_s = critical_s


class InvalidWavelength(Error):
    """Wavelength must be a positive finite number."""


class InvalidParameter(ValueError):
    """A flow or vorticity value breaks its rule; ``field`` names the value."""

    def __init__(self, message, field):
        super().__init__(message)
        self.field = field


class ConfigError(Error):
    """Configuration rejected; ``path`` is a JSON pointer to the bad field."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
