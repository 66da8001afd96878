"""Log-domain scalar helpers that stay finite for extreme parameter values."""

import math


def log_cosh(x: float) -> float:
    """ln(cosh x) to relative precision, safe against overflow for large |x|."""
    x = abs(x)
    if x < 1.0:
        # cosh x = 1 + 2 sinh^2(x/2) keeps the x^2/2 that cosh x rounds away
        return math.log1p(2.0 * math.sinh(0.5 * x) ** 2)
    # cosh x = e^x (1 + e^{-2x}) / 2
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def log_tanh(x: float) -> float:
    """ln(tanh x) for x > 0, to relative precision both as x -> 0 and where tanh x rounds to 1."""
    if x <= 0.0:
        raise ValueError("log_tanh requires x > 0")
    if x < 1.0:
        return math.log(math.tanh(x))
    t = math.exp(-2.0 * x)
    return math.log1p(-2.0 * t / (1.0 + t))


def expm1mx(x: float) -> float:
    """e^x - 1 - x, >= 0, to relative precision: the Taylor series from x^2/2 below |x| = 1/2."""
    if abs(x) >= 0.5:
        return math.expm1(x) - x
    term = total = 0.5 * x * x
    for k in range(3, 17):  # the first term left out, x^17 / 17!, is below 2^-60 of x^2 / 2
        term *= x / k
        total += term
    return total


def log1mexp(x: float) -> float:
    """ln(1 - e^x) for x < 0, stable near both ends."""
    if x >= 0.0:
        raise ValueError("log1mexp requires x < 0")
    if x > -math.log(2.0):
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))

