"""Closed-form entanglement spectra and Renyi-family entropies.

Every formula here has an independent truncated-basis counterpart built from
:mod:`mek.fockspace` + :mod:`mek.spectra`; the two routes are compared in the
test suite and by ``mek verify``.

The one spectrum-driven kernel, ``renyi_orders``, reads the oracle's explicit
spectra. The -ln p_n are the Boltzmann energies of the effective thermal
theory, so every order comes from one set of levels: the checks, the kept
entries and their logs are shared by all orders.

Renyi orders are plain floats with three distinguished limits: 0 (log of the
Schmidt rank), 1 (von Neumann), and ``math.inf`` (single-copy entanglement,
-ln p_max). For the pair-squeezed family the Schmidt rank is countably
infinite, so the order-0 entropy returns ``inf`` rather than a
truncation-dependent number.

Orders near 1 take the first-order expansion about the von Neumann entropy,
S_mu ~ S_1 - (mu - 1) Var(-ln p) / 2 (Yao & Qi, PRL 105 (2010) 080501),
whenever |mu - 1| < 1e-5. There the direct power sum cancels 1 - (mu - 1) S_1
against 1 and loses about 1e-16 / |mu - 1| relative (1e-3 at mu = 1 + 1e-13),
while the expansion drops the next term, (mu - 1)^2 kappa_3 / 6 with kappa_3
the third cumulant of -ln p. The crossover 1e-5 balances the two for r and
f.f of order 1: both are near 1e-11 relative there (2e-11 at r = 1). At small
parameters kappa_3 / S_1 grows as ln^2 of the smallest probability, and the
expansion's error with it: 3e-10 relative at r = 0.1 and 2e-8 at r = 1e-8 for
|mu - 1| just below 1e-5. Inside the window every entropy is linear in mu with
slope -Var / 2 <= 0, so it is monotone.
"""

import math
import sys

import numpy as np

from ._stable import log1mexp, log_cosh, log_tanh
from .exceptions import ContractError
from .fockspace import SHParams
from .spectra import EntanglementSpectrum


_NEAR_ONE = 1e-5  # orders with |mu - 1| below this take the first-order expansion
# |ln p| <= 745 for every positive double p, so mu ln p can overflow only past this
# order; there mu / (mu - 1) is 1 and S_mu is S_inf to double precision
_HUGE_ORDER = sys.float_info.max / 745.0


def _check_order(mu: float) -> float:
    mu = float(mu)
    if math.isnan(mu) or mu < 0.0:
        raise ValueError(f"Renyi order must be >= 0, got {mu}")
    return mu


def parse_renyi_order(text: str) -> float:
    """Parse a Renyi order from CLI text; accepts 'inf' for the max-entropy limit."""
    return _check_order(math.inf if text.strip().lower() in ("inf", "infinity") else float(text))


# ---------------------------------------------------------------------------
# pair-squeezed family
# ---------------------------------------------------------------------------

def squeezed_spectrum(r: float, n) -> float:
    """Reduced-state eigenvalue tanh^{2n} r / cosh^2 r, evaluated in log domain.

    ``n`` may be a non-negative integer or an integer array; the log-domain
    evaluation keeps the result finite for extreme r and n.
    """
    if r < 0.0:
        raise ValueError(f"squeezing magnitude must be non-negative, got {r}")
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise ValueError("occupation numbers must be non-negative")
    if r == 0.0:
        result = np.where(n_arr == 0, 1.0, 0.0)
        return float(result) if np.isscalar(n) or n_arr.ndim == 0 else result
    log_p = 2.0 * n_arr * log_tanh(r) - 2.0 * log_cosh(r)
    result = np.exp(log_p)
    return float(result) if np.isscalar(n) or n_arr.ndim == 0 else result


def squeezed_entanglement_spectrum(r: float, count: int) -> EntanglementSpectrum:
    """First ``count`` closed-form eigenvalues as a spectrum object."""
    if count < 1:
        raise ValueError("count must be positive")
    return EntanglementSpectrum(squeezed_spectrum(r, np.arange(count)))


def renyi_squeezed(r: float, mu: float) -> float:
    """Renyi entropy of one mode of a pair-squeezed vacuum state.

    General orders use [ln(1 - tanh^{2 mu} r) + 2 mu ln cosh r] / (mu - 1)
    in a ln(1 - e^x) form that survives large r and large mu; the 0 and inf
    orders dispatch to their closed-form limits, as does an order past
    ``_HUGE_ORDER`` or one whose 2 mu ln cosh r overflows (S_mu is S_inf to an
    ulp there), and orders near 1 take the expansion about S_1 (module docstring).
    """
    if r < 0.0:
        raise ValueError(f"squeezing magnitude must be non-negative, got {r}")
    mu = _check_order(mu)
    if r == 0.0:
        return 0.0
    if mu == 0.0:
        return math.inf  # countably infinite Schmidt rank
    lc = log_cosh(r)
    lt = log_tanh(r)
    if mu > _HUGE_ORDER or math.isinf(2.0 * mu * lc):  # inf, or 2 mu ln cosh r overflows
        return 2.0 * lc
    if abs(mu - 1.0) < _NEAR_ONE:
        # -ln p_n = 2 ln cosh r - 2 n ln tanh r, and n is geometric with
        # variance sinh^2 r cosh^2 r, so Var(-ln p) = (ln tanh r sinh 2r)^2
        if r > 20.0:
            # sinh^2 r * (-ln tanh r) -> 1/2 - e^{-2r} and -ln tanh r sinh 2r
            # -> 1 - 2 e^{-4r} / 3, already 1/2 and 1 to double precision
            s_1, var = 2.0 * lc + 1.0, 1.0
        else:
            s_1 = 2.0 * lc - 2.0 * math.sinh(r) ** 2 * lt
            var = (lt * math.sinh(2.0 * r)) ** 2
        return s_1 - (mu - 1.0) * var / 2.0
    if r > 300.0:
        # 1 - tanh^{2 mu} r -> 4 mu e^{-2r}, below the underflow threshold of
        # the direct evaluation but trivial in log form
        return (math.log(4.0 * mu) - 2.0 * r + 2.0 * mu * lc) / (mu - 1.0)
    return (log1mexp(2.0 * mu * lt) + 2.0 * mu * lc) / (mu - 1.0)


# ---------------------------------------------------------------------------
# qubit-boson superposition family
# ---------------------------------------------------------------------------

def _sh_minor_weight(params: SHParams) -> float:
    """Smaller reduced-state eigenvalue (1 - c)/2 = -expm1(-2 f.f)/2, exact as f.f -> 0."""
    return -math.expm1(-2.0 * params.f_dot_f) / 2.0


def sh_spectrum(params: SHParams) -> EntanglementSpectrum:
    """Two-level spectrum {(1 + c)/2, (1 - c)/2} with c the branch overlap."""
    p_minus = _sh_minor_weight(params)
    return EntanglementSpectrum(np.array([1.0 - p_minus, p_minus]))


def renyi_sh(params: SHParams, mu: float) -> float:
    """Renyi entropy of the qubit reduction of the qubit-boson superposition.

    The weights come as p- = -expm1(-2 f.f)/2 and ln p+ = log1p(-p-), so the
    entropies keep relative precision down to the smallest f.f > 0. Orders
    near 1 take the expansion about S_1 (module docstring).
    """
    mu = _check_order(mu)
    if params.f_dot_f == 0.0:
        return 0.0  # rank 1: separable, entropy vanishes at every order
    p_minus = _sh_minor_weight(params)
    log_plus = math.log1p(-p_minus)
    if mu == 0.0:
        return math.log(2.0)
    if math.isinf(mu):
        return -log_plus
    if abs(mu - 1.0) < _NEAR_ONE:
        log_minus = math.log(p_minus)  # f.f > 0 keeps p- > 0
        s_1 = -(1.0 - p_minus) * log_plus - p_minus * log_minus
        var = (1.0 - p_minus) * p_minus * (log_plus - log_minus) ** 2
        return s_1 - (mu - 1.0) * var / 2.0
    log_hi = mu * log_plus  # p+ >= 1/2 >= p-, so this term leads
    log_lo = mu * math.log(p_minus)
    return (log_hi + math.log1p(math.exp(log_lo - log_hi))) / (1.0 - mu)


# ---------------------------------------------------------------------------
# spectrum-driven entropies (the oracle-facing route)
# ---------------------------------------------------------------------------

def renyi_orders(spectrum: EntanglementSpectrum, mu_list) -> list:
    """Renyi entropies of an explicit spectrum at each order of ``mu_list``.

    The orders are checked, then the normalization; entries below the rank
    tolerance are skipped, and the logs of the kept ones and their maximum serve
    every order. The power sum is a log-sum-exp with max subtraction, so deep
    geometric tails neither underflow nor lose the head term. Orders near 1 take
    the expansion about S_1 (module docstring) with the variance of -ln p over the
    kept entries; outside it a spectrum summing to 1 - delta shifts S_mu by about
    delta / |mu - 1|. Past ``_HUGE_ORDER`` the power sum with p_max^mu factored
    out counts the entries tied at p_max, and its log over mu - 1 is below an ulp
    of -ln p_max: S_mu reads S_inf.
    """
    mu_list = [_check_order(mu) for mu in mu_list]
    probs = spectrum.probabilities
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-8:  # NaN fails too
        raise ContractError(f"spectrum sums to {total!r}, not normalized")
    kept = probs[probs > spectrum.rank_tolerance]
    if kept.size == 0:
        raise ContractError("no spectrum entries above the rank tolerance")
    logs = np.log(kept)
    log_max = float(logs.max())

    def entropy(mu):
        if mu == 0.0:
            return math.log(kept.size)
        if mu > _HUGE_ORDER:  # inf too
            return -math.log(float(kept.max()))
        if abs(mu - 1.0) < _NEAR_ONE:
            s_1 = float(-(kept * logs).sum())
            var = float((kept * (logs + s_1) ** 2).sum())
            return s_1 - (mu - 1.0) * var / 2.0
        peak = mu * log_max  # fl(mu x) is monotone in x, so this is max(mu * logs)
        powers = mu * logs
        powers -= peak
        return (peak + math.log(float(np.exp(powers, out=powers).sum()))) / (1.0 - mu)

    return [entropy(mu) for mu in mu_list]
