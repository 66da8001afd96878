"""Renyi entropies of the closed-form families in stdlib ``decimal``: the tests' reference.

Each function reads its float arguments at their exact binary values
(``Decimal(float)``) and evaluates the textbook formula, S_mu = ln(sum p^mu) /
(1 - mu) and S_1 = -sum p ln p, with no cancellation-avoiding rewrite. The
precision pays for every cancellation instead: 1 - tanh^{2 mu} r loses about
2 r / ln 10 digits, a small parameter x about |log10 x| digits per power of x
that the sum's distance from 1 carries, and an order near 1 the digits of
|mu - 1|; 30 digits stay above all of them.
"""

import math
from decimal import Decimal, localcontext


def _lost_digits(x: float) -> int:
    """Decimal digits lost to a cancellation of relative size x < 1 (0 for x >= 1)."""
    return max(0, math.ceil(-math.log10(x))) if x > 0.0 else 0


def renyi_squeezed(r: float, mu: float) -> float:
    """S_mu of one mode of the pair-squeezed vacuum, for r > 0 and a finite order mu > 0.

    Sums the geometric spectrum p_n = (1 - q) q^n, q = tanh^2 r, in closed form:
    sum p^mu = (1 - q)^mu / (1 - q^mu) and -sum p ln p = cosh^2 r ln cosh^2 r -
    sinh^2 r ln sinh^2 r.
    """
    digits = 30 + math.ceil(2.0 * r / math.log(10.0)) + 2 * _lost_digits(r)
    digits += _lost_digits(abs(mu - 1.0))
    with localcontext() as ctx:
        ctx.prec = digits
        r, mu = Decimal(r), Decimal(mu)
        e = (2 * r).exp()
        sinh2 = (e - 2 + 1 / e) / 4
        cosh2 = sinh2 + 1
        if mu == 1:
            return float(cosh2 * cosh2.ln() - sinh2 * sinh2.ln())
        q = sinh2 / cosh2
        power_sum = (-mu * cosh2.ln()).exp() / (1 - (mu * q.ln()).exp())
        return float(power_sum.ln() / (1 - mu))


def renyi_sh(f_dot_f: float, mu: float) -> float:
    """S_mu of the two-level spectrum p-+ = (1 -+ e^{-2 f.f}) / 2, for f.f > 0 and finite mu > 0."""
    digits = 30 + 3 * _lost_digits(f_dot_f) + _lost_digits(abs(mu - 1.0))
    with localcontext() as ctx:
        ctx.prec = digits
        overlap = (-2 * Decimal(f_dot_f)).exp()
        probs, mu = ((1 + overlap) / 2, (1 - overlap) / 2), Decimal(mu)
        if mu == 1:
            return float(-sum(p * p.ln() for p in probs))
        return float(sum((mu * p.ln()).exp() for p in probs).ln() / (1 - mu))
