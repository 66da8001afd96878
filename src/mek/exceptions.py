"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shape or factor index inconsistent with the requested operation."""


class TailMassError(ValueError):
    """Truncated occupation basis is too small for the requested tail tolerance."""

    def __init__(self, message, required_n_max=None, measured=None):
        super().__init__(message)
        self.required_n_max = required_n_max
        self.measured = measured


class MemoryBudgetError(RuntimeError):
    """Oracle over MEK_MEM_BUDGET: dim^2 or 2 dim^n state entries, or dim^4 pair-squeeze work."""


class NumericalError(RuntimeError):
    """An iterative kernel failed to converge; carries the residual estimate."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ContractError(ValueError):
    """Input violates a documented numerical contract (hermiticity, normalization, ...)."""
