"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shape or factor index inconsistent with the requested operation."""


class TailMassError(ValueError):
    """A truncation drops more probability than its tolerance allows.

    The dropped probability, ``measured``, is an occupation tail (geometric or
    Poisson), the boundary leak of a displacement, or the mass a state puts
    outside its box. ``required_n_max`` is the cutoff rule's answer for the
    tails, and None for the leak and the out-of-box mass, which have no rule.
    """

    def __init__(self, message, required_n_max=None, measured=None):
        super().__init__(message)
        self.required_n_max = required_n_max
        self.measured = measured


class MemoryBudgetError(RuntimeError):
    """An oracle point, or the dense read of a Schmidt-form state, passes MEK_MEM_BUDGET bytes."""


class ContractError(ValueError):
    """Input violates a documented numerical contract (hermiticity, normalization, ...)."""
