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

Orders with |eps| < 1/4, eps = mu - 1, are exact too. There ln sum p^mu is read
as log1p(sum p expm1(eps ln p)), whose terms share one sign, instead of cancelling
sum p^mu ~ 1 - eps S_1 against 1. The closed forms take S_1 minus a gap summed
from e^x - 1 - x >= 0, monotone in mu through mu = 1, where they return S_1.
"""

import math
import sys

import numpy as np

from ._stable import expm1mx, log1mexp, log_cosh, log_tanh
from .exceptions import ContractError
from .fockspace import SHParams
from .spectra import EntanglementSpectrum


_NEAR_ONE = 0.25  # orders with |mu - 1| below this take the exact forms about S_1
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
    ulp there). Within |mu - 1| < 1/4, S_mu = S_1 - gap with
    gap = [sinh^2 r expm1mx(y) + expm1mx(log1p(x))] / (mu - 1), where
    y = 2 (mu - 1) ln tanh r and x = -sinh^2 r expm1(y).
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
    eps = mu - 1.0
    if r > 300.0:
        # 1 - tanh^{2 mu} r -> 4 mu e^{-2r} below the underflow threshold, so
        # S_mu = 2 ln cosh r + ln(mu) / (mu - 1), whose limit at mu = 1 is 2 ln cosh r + 1
        return 2.0 * lc + (math.log(mu) / eps if eps else 1.0)
    if abs(eps) >= _NEAR_ONE:
        return (log1mexp(2.0 * mu * lt) + 2.0 * mu * lc) / eps
    sinh = math.sinh(r)
    s_1 = 2.0 * lc - 2.0 * sinh ** 2 * lt
    if eps == 0.0:
        return s_1
    # one sinh factor at a time, so that only the gap itself can be subnormal
    y = 2.0 * eps * lt
    x = -sinh * (sinh * math.expm1(y))
    return s_1 - (sinh * (sinh * (expm1mx(y) / eps)) + expm1mx(math.log1p(x)) / eps)


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
    entropies keep relative precision down to the smallest f.f > 0. Within
    |mu - 1| < 1/4, S_mu = S_1 - log1p(sum p expm1mx(eps (ln p + S_1))) / eps with
    eps = mu - 1, ln p+ + S_1 = p- (ln p+ - ln p-) and ln p- + S_1 = -p+ (ln p+ - ln p-).
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
    log_minus = math.log(p_minus)  # f.f > 0 keeps p- > 0
    eps = mu - 1.0
    if abs(eps) < _NEAR_ONE:
        s_1 = -(1.0 - p_minus) * log_plus - p_minus * log_minus
        if eps == 0.0:
            return s_1
        spread = eps * (log_plus - log_minus)
        return s_1 - math.log1p((1.0 - p_minus) * expm1mx(p_minus * spread)
                                + p_minus * expm1mx(-(1.0 - p_minus) * spread)) / eps
    log_hi = mu * log_plus  # p+ >= 1/2 >= p-, so this term leads
    log_lo = mu * log_minus
    return (log_hi + math.log1p(math.exp(log_lo - log_hi))) / (1.0 - mu)


# ---------------------------------------------------------------------------
# spectrum-driven entropies (the oracle-facing route)
# ---------------------------------------------------------------------------

def renyi_orders(spectrum: EntanglementSpectrum, mu_list) -> list:
    """Renyi entropies of an explicit spectrum at each order of ``mu_list``.

    The orders are checked, then the normalization; entries below the rank
    tolerance are skipped, and the logs of the kept ones and their maximum serve
    every order. The power sum is a log-sum-exp with max subtraction, so deep
    geometric tails neither underflow nor lose the head term. Within |mu - 1| <
    1/4, S_mu = -log1p(sum p expm1((mu - 1) ln p)) / (mu - 1) instead: a spectrum
    summing to 1 - delta moves it, as it moves S_1, by about delta ln(1 / p) of
    the missing entries, where outside the window it shifts S_mu by about
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
        if mu == 1.0:
            return float(-(kept * logs).sum())
        if abs(mu - 1.0) < _NEAR_ONE:
            return -math.log1p(float((kept * np.expm1((mu - 1.0) * logs)).sum())) / (mu - 1.0)
        peak = mu * log_max  # fl(mu x) is monotone in x, so this is max(mu * logs)
        powers = mu * logs
        powers -= peak
        return (peak + math.log(float(np.exp(powers, out=powers).sum()))) / (1.0 - mu)

    return [entropy(mu) for mu in mu_list]
