"""Exception types shared across the package."""


class PdmPolarError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PdmPolarError):
    """Malformed model file, unknown key, or out-of-bounds run option."""


class ConstraintViolation(PdmPolarError):
    """Ordering exponents do not sum to -1 within tolerance."""


class MassVanishes(PdmPolarError):
    """Evaluation requested at (or across) a zero of the angular mass factor."""


class UnsupportedProfile(PdmPolarError):
    """A tabulated mass profile cannot be used for the requested construction."""


class PotentialSingular(PdmPolarError):
    """A grid point hit a potential value too large to discretize meaningfully."""


class ConvergenceFailure(PdmPolarError):
    """An eigensolve did not converge: LAPACK's bisection or inverse iteration
    returned ``info != 0``, which usually signals a tight degenerate cluster."""


class DomainError(PdmPolarError, ValueError):
    """Input outside a closed form's range, or refused by the solver or the Bessel
    and Laguerre kernels (a grid, an index, an order); it is a ValueError too."""


class NoRoot(PdmPolarError):
    """Eigenvalue-versus-lambda curve does not cross the requested energy.

    The scanned curve is attached as ``curve``: a list of (lambda, energy)
    pairs usable for diagnosis.
    """

    def __init__(self, message: str, curve=None):
        super().__init__(message)
        self.curve = list(curve) if curve is not None else []
