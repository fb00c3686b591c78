"""Exception types shared across the package.

Each concrete type is one exit code of the command line: ConfigError exits
2, every other PdmPolarError (DomainError) exits 3, and NoRoot, which the
scan command reports with its curve, exits 5.
"""


class PdmPolarError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PdmPolarError):
    """The run is misconfigured: a malformed command line or model file, an
    unknown key or token, an ordering whose exponents do not sum to -1, an
    out-of-bounds run option, or an output file that cannot be written."""


class DomainError(PdmPolarError, ValueError):
    """Well-formed input the mathematics or the solver refuses: a value outside
    a closed form's range, a zero of the angular mass factor on an
    evaluation point or path, a tabulated profile that cannot be used, a
    potential too large to discretize, a grid, an index or an order the
    solver or the Bessel and Laguerre kernels refuse, or a LAPACK failure;
    it is a ValueError too."""


class NoRoot(PdmPolarError):
    """Eigenvalue-versus-lambda curve does not cross the requested energy.

    The scanned curve is attached as ``curve``: a list of (lambda, energy)
    pairs usable for diagnosis.
    """

    def __init__(self, message: str, curve=None):
        super().__init__(message)
        self.curve = list(curve) if curve is not None else []
