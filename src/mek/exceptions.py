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
    """An oracle point, or the dense read of a Schmidt-form state, passes MEK_MEM_BUDGET bytes."""


class ContractError(ValueError):
    """Input violates a documented numerical contract (hermiticity, normalization, ...)."""
