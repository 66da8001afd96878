import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mek.analytic import (
    parse_renyi_order,
    renyi_orders,
    renyi_sh,
    renyi_squeezed,
    sh_spectrum,
    squeezed_spectrum,
)
from mek._stable import log_cosh, log_tanh
from mek.exceptions import ContractError
from mek.fockspace import SHParams
from mek.spectra import EntanglementSpectrum

import renyi_reference

# frozen with 30-digit arithmetic
LN_COSH_2 = 1.3250027473578644          # S_2 at r = 1
TWO_LN_COSH_1 = 0.8675616609660544      # S_inf at r = 1
S_VN_R1 = 1.6198220928977023            # cosh^2(1) ln cosh^2(1) - sinh^2(1) ln sinh^2(1)
S_VN_SH_DOT1 = 0.6839611990567597       # binary entropy of (1 + e^-2)/2
S_INF_SH_DOT1 = 0.5662191695169728      # ln(2 / (1 + e^-2))


def brute_renyi(probs, mu):
    """Direct power-sum evaluation, no log stabilization; the test-side oracle."""
    probs = [p for p in probs if p > 0.0]
    if mu == 1.0:
        return -sum(p * math.log(p) for p in probs)
    if math.isinf(mu):
        return -math.log(max(probs))
    return math.log(sum(p ** mu for p in probs)) / (1.0 - mu)


class TestSqueezedSpectrum:
    def test_vacuum_limit(self):
        assert squeezed_spectrum(0.0, 0) == 1.0
        assert squeezed_spectrum(0.0, 3) == 0.0

    def test_unit_squeezing_head(self):
        assert squeezed_spectrum(1.0, 0) == pytest.approx(
            1.0 / math.cosh(1.0) ** 2, rel=1e-14
        )

    def test_extreme_parameters_stay_finite(self):
        value = squeezed_spectrum(20.0, 10 ** 6)
        assert math.isfinite(value)
        assert value > 0.0
        # the exponent matches the direct formula where that one still works
        direct = math.tanh(20.0) ** 20 / math.cosh(20.0) ** 2
        assert squeezed_spectrum(20.0, 10) == pytest.approx(direct, rel=1e-10)

    def test_array_input_normalizes(self):
        probs = squeezed_spectrum(0.9, np.arange(400))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError):
            squeezed_spectrum(-1.0, 0)


class TestRenyiSqueezed:
    def test_separable_limit(self):
        for mu in (0.0, 0.5, 1.0, 2.0, math.inf):
            assert renyi_squeezed(0.0, mu) == 0.0

    def test_order_two_is_log_cosh(self):
        assert renyi_squeezed(1.0, 2.0) == pytest.approx(LN_COSH_2, abs=1e-14)
        for r in (0.2, 0.9, 3.0, 6.0):
            assert renyi_squeezed(r, 2.0) == pytest.approx(
                math.log(math.cosh(2.0 * r)), abs=1e-12
            )

    def test_single_copy_limit(self):
        assert renyi_squeezed(1.0, math.inf) == pytest.approx(TWO_LN_COSH_1, abs=1e-14)

    def test_von_neumann_value(self):
        assert renyi_squeezed(1.0, 1.0) == pytest.approx(S_VN_R1, abs=1e-13)

    def test_half_order_closed_form(self):
        # (1 - tanh r) cosh r = e^{-r}, so the order-1/2 entropy is exactly 2r
        for r in (0.3, 1.0, 4.0, 30.0):
            assert renyi_squeezed(r, 0.5) == pytest.approx(2.0 * r, rel=1e-12)

    def test_order_zero_sentinel(self):
        assert renyi_squeezed(1.0, 0.0) == math.inf
        assert renyi_squeezed(0.0, 0.0) == 0.0

    def test_matches_brute_force_sum(self):
        for r in (0.2, 0.8, 1.5):
            probs = squeezed_spectrum(r, np.arange(600))
            for mu in (0.5, 1.0, 1.7, 3.0, 8.0, math.inf):
                assert renyi_squeezed(r, mu) == pytest.approx(
                    brute_renyi(probs, mu), abs=1e-10
                )

    def test_large_r_linear_in_r(self):
        # every order grows with asymptotic slope 2 (checked against the sum)
        for mu in (0.5, 1.0, 2.0, 5.0):
            slope = (renyi_squeezed(40.0, mu) - renyi_squeezed(30.0, mu)) / 10.0
            assert slope == pytest.approx(2.0, abs=1e-9)

    def test_extreme_squeezing_no_overflow(self):
        for mu in (0.5, 1.0, 2.0, math.inf):
            value = renyi_squeezed(400.0, mu)
            assert math.isfinite(value)
            assert value > 700.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            renyi_squeezed(1.0, -0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(min_value=0.01, max_value=5.0),
        mu_lo=st.floats(min_value=0.1, max_value=20.0),
        mu_hi=st.floats(min_value=0.1, max_value=20.0),
    )
    def test_non_increasing_in_order(self, r, mu_lo, mu_hi):
        # orders straddling 1 too closely hit the removable 0/0; the limit
        # itself is exercised by the von Neumann tests
        assume(abs(mu_lo - 1.0) > 1e-4 and abs(mu_hi - 1.0) > 1e-4)
        lo, hi = sorted((mu_lo, mu_hi))
        assert renyi_squeezed(r, lo) >= renyi_squeezed(r, hi) - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(min_value=0.1, max_value=30.0),
        r_lo=st.floats(min_value=0.01, max_value=5.0),
        r_hi=st.floats(min_value=0.01, max_value=5.0),
    )
    def test_strictly_increasing_in_squeezing(self, mu, r_lo, r_hi):
        lo, hi = sorted((r_lo, r_hi))
        if hi - lo < 1e-6:
            return
        assert renyi_squeezed(hi, mu) > renyi_squeezed(lo, mu)


def _limit_gap(r, eps):
    """|S_{1+eps} - S_1| of the squeezed family, which shrinks linearly with eps."""
    return abs(renyi_squeezed(r, 1.0 + eps) - renyi_squeezed(r, 1.0))


class TestVonNeumannLimit:
    def test_difference_shrinks_linearly(self):
        ratio = _limit_gap(1.0, 1e-3) / _limit_gap(1.0, 1e-4)
        assert ratio == pytest.approx(10.0, rel=0.2)

    def test_small_epsilon_is_close(self):
        assert _limit_gap(0.5, 1e-6) < 1e-5

    def test_monotone_in_epsilon(self):
        diffs = [_limit_gap(2.0, eps) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))


class TestShOverlap:
    """The branch overlap c = exp(-2 f.f) is the gap p+ - p- of the qubit spectrum."""

    @staticmethod
    def overlap(params):
        plus, minus = sh_spectrum(params).probabilities
        return plus - minus

    def test_zero_displacement(self):
        assert self.overlap(SHParams((0.0, 0.0))) == 1.0

    def test_two_mode_value(self):
        assert self.overlap(SHParams((0.5, 0.5))) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_depends_only_on_dot_product(self):
        assert self.overlap(SHParams((0.3, 0.4, 0.5))) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )


class TestShSpectrum:
    def test_separable(self):
        spectrum = sh_spectrum(SHParams((0.0,)))
        np.testing.assert_array_equal(spectrum.probabilities, [1.0, 0.0])

    def test_unit_dot_product(self):
        spectrum = sh_spectrum(SHParams((1.0,)))
        c = math.exp(-2.0)
        np.testing.assert_allclose(
            spectrum.probabilities, [(1 + c) / 2, (1 - c) / 2], atol=1e-16
        )

    def test_saturates_to_maximally_mixed(self):
        spectrum = sh_spectrum(SHParams((math.sqrt(20.0),)))
        assert np.max(np.abs(spectrum.probabilities - 0.5)) < 1e-10


class TestRenyiSh:
    def test_separable(self):
        for mu in (0.0, 0.5, 1.0, 2.0, math.inf):
            assert renyi_sh(SHParams((0.0, 0.0)), mu) == 0.0

    def test_von_neumann_at_unit_dot(self):
        assert renyi_sh(SHParams((1.0,)), 1.0) == pytest.approx(S_VN_SH_DOT1, abs=1e-14)

    def test_single_copy_at_unit_dot(self):
        assert renyi_sh(SHParams((1.0,)), math.inf) == pytest.approx(
            S_INF_SH_DOT1, abs=1e-14
        )

    def test_order_zero_is_log_rank(self):
        assert renyi_sh(SHParams((0.3,)), 0.0) == pytest.approx(math.log(2.0))
        assert renyi_sh(SHParams((0.0,)), 0.0) == 0.0

    def test_matches_spectrum_route(self):
        params = SHParams((0.4, 0.7))
        mu_list = (0.5, 1.0, 2.0, 3.5, math.inf)
        for mu, value in zip(mu_list, renyi_orders(sh_spectrum(params), mu_list)):
            assert renyi_sh(params, mu) == pytest.approx(value, abs=1e-13)

    def test_saturation_is_exponential(self):
        for dot in (2.0, 2.5, 3.0, 4.0):
            gap = math.log(2.0) - renyi_sh(SHParams((math.sqrt(dot),)), 1.0)
            assert 0.0 < gap < 2.0 * math.exp(-2.0 * dot)

    @settings(max_examples=150, deadline=None)
    @given(
        dot=st.floats(min_value=1e-3, max_value=30.0),
        mu_lo=st.floats(min_value=0.1, max_value=15.0),
        mu_hi=st.floats(min_value=0.1, max_value=15.0),
    )
    def test_non_increasing_in_order(self, dot, mu_lo, mu_hi):
        assume(abs(mu_lo - 1.0) > 1e-4 and abs(mu_hi - 1.0) > 1e-4)
        lo, hi = sorted((mu_lo, mu_hi))
        params = SHParams((math.sqrt(dot),))
        assert renyi_sh(params, lo) >= renyi_sh(params, hi) - 1e-12


def rel_close(value, reference, rel=1e-13):
    """Relative agreement; below the normal range only the spacing of subnormals is resolved."""
    return math.isclose(value, reference, rel_tol=rel, abs_tol=sys.float_info.min)


def log_uniform(low_exp, high_exp):
    return st.floats(min_value=low_exp, max_value=high_exp).map(lambda e: 10.0 ** e)


class TestSmallParameters:
    """The closed forms keep relative precision as r and f.f approach 0."""

    def test_log_tanh_and_log_cosh(self):
        for x in (1e-300, 1e-12, 1e-8, 0.3, 0.999):
            assert rel_close(log_tanh(x), math.log(math.tanh(x)), 1e-15)
            # ln cosh x = log1p(2 sinh^2(x/2)), the x^2/2 head resolved
            assert rel_close(log_cosh(x), math.log1p(math.expm1(x) * -math.expm1(-x) / 2.0))
        assert log_cosh(1e-8) == pytest.approx(5e-17, rel=1e-15)

    def test_squeezed_order_two_at_tiny_r(self):
        # exp(-2 r) and cosh r both round to 1 here; S_2 = ln cosh 2r ~ 2 r^2
        assert rel_close(renyi_squeezed(1e-8, 2.0), 2e-16)
        assert renyi_squeezed(1e-300, 2.0) == 0.0  # 2e-600 is below the double range

    def test_sh_von_neumann_at_tiny_overlap_defect(self):
        params = SHParams((math.sqrt(1e-15),))
        p_lo = -math.expm1(-2.0 * params.f_dot_f) / 2.0
        reference = -(1.0 - p_lo) * math.log1p(-p_lo) - p_lo * math.log(p_lo)
        assert rel_close(renyi_sh(params, 1.0), reference)

    @settings(max_examples=300, deadline=None)
    @given(r=log_uniform(-300.0, 0.0), dot=log_uniform(-300.0, 0.0))
    def test_non_negative_monotone_and_s2_exact(self, r, dot):
        # orders near 1 take the exact forms about S_1 (TestOrdersNearOne)
        orders = (0.5, 2.0, 5.0, math.inf)
        params = SHParams((math.sqrt(dot),))
        for entropy in (lambda mu: renyi_squeezed(r, mu), lambda mu: renyi_sh(params, mu)):
            values = [entropy(mu) for mu in orders]
            assert all(v >= 0.0 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))
        assert rel_close(renyi_squeezed(r, 2.0), math.log1p(2.0 * math.sinh(r) ** 2))
        # sum p^2 = 1 - 2 p+ p-, and p+ p- = (1 - c^2) / 4 = -expm1(-4 f.f) / 4
        reference = -math.log1p(math.expm1(-4.0 * params.f_dot_f) / 2.0)
        assert rel_close(renyi_sh(params, 2.0), reference)


# 1, both edges of the window |mu - 1| < 1/4 and 1 +- 10^-k
_WINDOW_ORDERS = (1.0, 0.75, 1.25, math.nextafter(0.75, 1.0), math.nextafter(1.25, 1.0),
                  *(1.0 + sign * 10.0 ** -k for k in range(1, 16) for sign in (1.0, -1.0)))


class TestOrdersNearOne:
    """Within |mu - 1| < 1/4 the entropies take exact forms about S_1."""

    @settings(max_examples=300, deadline=None)
    @given(
        r=log_uniform(-300.0, 1.5),
        dot=log_uniform(-300.0, 1.5),
        orders=st.lists(st.floats(min_value=1.0 - 1e-6, max_value=1.0 + 1e-6),
                        min_size=2, max_size=2),
    )
    def test_monotone_in_the_order(self, r, dot, orders):
        lo, hi = sorted(orders)
        params = SHParams((math.sqrt(dot),))
        assert renyi_squeezed(r, lo) >= renyi_squeezed(r, hi)
        assert renyi_sh(params, lo) >= renyi_sh(params, hi)

    @settings(max_examples=300, deadline=None)
    @given(r=log_uniform(-8.0, 3.0), dot=log_uniform(-12.0, math.log10(18.0)),
           mu=st.sampled_from(_WINDOW_ORDERS))
    def test_exact_against_the_decimal_reference(self, r, dot, mu):
        # S_mu is a normal float at every r and f.f drawn here, so rel_close
        # compares all its digits
        assert rel_close(renyi_squeezed(r, mu), renyi_reference.renyi_squeezed(r, mu), 1e-14)
        params = SHParams((math.sqrt(dot),))
        assert rel_close(renyi_sh(params, mu), renyi_reference.renyi_sh(params.f_dot_f, mu), 1e-14)

    @pytest.mark.parametrize("eps", [1e-13, -1e-13, 1e-7, -4e-6])
    def test_slope_is_half_the_variance(self, eps):
        # d S_mu / d mu at mu = 1 is -Var(-ln p) / 2; the closed form holds the
        # reference's digits, and the kernel on the truncated spectrum of r = 1
        # agrees with it
        r = 1.0
        probs = squeezed_spectrum(r, np.arange(400))
        logs = np.log(probs)
        s1 = -float(np.sum(probs * logs))
        var = float(np.sum(probs * (logs + s1) ** 2))
        value = renyi_squeezed(r, 1.0 + eps)
        assert rel_close(value, renyi_reference.renyi_squeezed(r, 1.0 + eps), 1e-14)
        assert (value - S_VN_R1) / eps == pytest.approx(-var / 2.0, rel=1e-2)
        spectrum = EntanglementSpectrum(probs, 0.0)
        assert renyi_orders(spectrum, [1.0 + eps])[0] == pytest.approx(value, abs=1e-13)
        params = SHParams((0.5, 0.3))
        p_minus = -math.expm1(-2.0 * params.f_dot_f) / 2.0
        two = EntanglementSpectrum(np.array([1.0 - p_minus, p_minus]), 0.0)
        assert renyi_sh(params, 1.0 + eps) == pytest.approx(renyi_orders(two, [1.0 + eps])[0],
                                                            abs=1e-15)


class TestRenyiGeneral:
    """``renyi_orders`` on explicit spectra of any shape."""

    def test_pure_reduction(self):
        spectrum = EntanglementSpectrum(np.array([1.0, 0.0, 0.0]))
        assert renyi_orders(spectrum, (0.0, 0.5, 1.0, 2.0, math.inf)) == [0.0] * 5

    def test_maximally_entangled_qubit(self):
        spectrum = EntanglementSpectrum(np.array([0.5, 0.5]))
        for value in renyi_orders(spectrum, (0.0, 0.5, 1.0, 2.0, math.inf)):
            assert value == pytest.approx(math.log(2.0), abs=1e-15)

    def test_matches_closed_form_on_squeezed_spectrum(self):
        for r, count, mu, tol in [
            (0.7, 200, 3.0, 1e-12),
            (0.8, 300, 1.0, 1e-10),
            (0.8, 300, 2.0, 1e-12),
            (0.8, 300, math.inf, 1e-12),
        ]:
            spectrum = EntanglementSpectrum(squeezed_spectrum(r, np.arange(count)), 0.0)
            assert renyi_orders(spectrum, [mu])[0] == pytest.approx(renyi_squeezed(r, mu), abs=tol)

    def test_matches_brute_force_on_random_spectra(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            raw = rng.dirichlet(np.ones(12))
            probs = np.sort(raw)[::-1]
            spectrum = EntanglementSpectrum(probs, rank_tolerance=0.0)
            mu_list = (0.3, 1.0, 2.0, 7.0, math.inf)
            for mu, value in zip(mu_list, renyi_orders(spectrum, mu_list)):
                assert value == pytest.approx(brute_renyi(probs, mu), abs=1e-12)

    def test_rank_tolerance_masks_noise(self):
        spectrum = EntanglementSpectrum(np.array([1.0, 1e-15, 1e-16]), 1e-10)
        assert renyi_orders(spectrum, [0.5]) == [0.0]

    def test_unnormalized_rejected(self):
        spectrum = EntanglementSpectrum(np.array([0.5, 0.4]))
        with pytest.raises(ContractError):
            renyi_orders(spectrum, [2.0])

    def test_nan_spectrum_rejected(self):
        spectrum = EntanglementSpectrum(np.array([math.nan, 1.0]), 0.0)
        with pytest.raises(ContractError, match="not normalized"):
            renyi_orders(spectrum, (0.5, 1.0, 2.0, math.inf))


def _per_order_renyi(spectrum: EntanglementSpectrum, mu: float) -> float:
    """S_mu of ``spectrum`` as it was computed when every order made its own pass over it."""
    mu = float(mu)
    if math.isnan(mu) or mu < 0.0:
        raise ValueError(f"Renyi order must be >= 0, got {mu}")
    probs = spectrum.probabilities
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= 1e-8:  # NaN fails too
        raise ContractError(f"spectrum sums to {total!r}, not normalized")
    kept = probs[probs > spectrum.rank_tolerance]
    if kept.size == 0:
        raise ContractError("no spectrum entries above the rank tolerance")
    if mu == 0.0:
        return math.log(int(np.count_nonzero(probs > spectrum.rank_tolerance)))
    if mu > sys.float_info.max / 745.0:
        return -math.log(float(np.max(probs)))
    logs = np.log(kept)
    if mu == 1.0:
        return float(-np.sum(kept * logs))
    if abs(mu - 1.0) < 0.25:
        return -math.log1p(float(np.sum(kept * np.expm1((mu - 1.0) * logs)))) / (mu - 1.0)
    scaled = mu * logs
    peak = float(np.max(scaled))
    log_power_sum = peak + math.log(float(np.sum(np.exp(scaled - peak))))
    return log_power_sum / (1.0 - mu)


_EDGE_ORDERS = (0.0, 0.5, 0.75, 1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-4, 1.0 + 1e-4, 1.25, 2.0, 5.0,
                2.5e305, math.inf)


@st.composite
def _spectra(draw):
    """Normalized spectra: random weights, or a geometric tail down to the subnormals."""
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(
            st.floats(0.0, 1.0) | st.sampled_from([0.0, 1e-300, 5e-324, 1e-12]),
            min_size=1, max_size=40,
        )))
        assume(weights.sum() > 0.0)
        probs = weights / weights.sum()
    else:
        ratio = draw(st.floats(1e-3, 0.999))
        probs = (1.0 - ratio) * ratio ** np.arange(draw(st.integers(1, 3000)))
        probs /= probs.sum()
    assume(abs(float(np.sum(probs)) - 1.0) <= 1e-8)
    return EntanglementSpectrum(probs, draw(st.sampled_from([0.0, 1e-10])))


def _outcome(call):
    try:
        return call()
    except (ValueError, ContractError) as exc:
        return type(exc), str(exc)


class TestRenyiOrders:
    """``renyi_orders`` gives every order the bytes of its own per-order pass."""

    @settings(max_examples=300, deadline=None)
    @given(_spectra(), st.lists(st.sampled_from(_EDGE_ORDERS) | st.floats(0.0, 50.0),
                                min_size=1, max_size=8))
    def test_same_bytes_as_one_pass_per_order(self, spectrum, mu_list):
        values = renyi_orders(spectrum, mu_list)
        expected = [_per_order_renyi(spectrum, mu) for mu in mu_list]
        assert values == expected
        assert [v.hex() for v in values] == [v.hex() for v in expected]  # -0.0 too
        assert [renyi_orders(spectrum, [mu])[0] for mu in mu_list] == expected

    @settings(max_examples=100, deadline=None)
    @given(_spectra(), st.lists(st.sampled_from(_EDGE_ORDERS), min_size=1, max_size=4),
           st.sampled_from(["unnormalized", "nan", "empty", "negative order", "nan order"]))
    def test_same_errors_as_one_pass_per_order(self, spectrum, mu_list, fault):
        if fault == "unnormalized":
            spectrum = EntanglementSpectrum(spectrum.probabilities * 0.9, spectrum.rank_tolerance)
        elif fault == "nan":
            spectrum = EntanglementSpectrum(np.append(spectrum.probabilities, math.nan), 0.0)
        elif fault == "empty":
            spectrum = EntanglementSpectrum(spectrum.probabilities, 1.0)
        else:
            mu_list = [-1.0 if fault == "negative order" else math.nan, *mu_list]
        expected = _outcome(lambda: [_per_order_renyi(spectrum, mu) for mu in mu_list])
        assert isinstance(expected, tuple)
        assert _outcome(lambda: renyi_orders(spectrum, mu_list)) == expected
        assert _outcome(lambda: [renyi_orders(spectrum, [mu])[0] for mu in mu_list]) == expected

    def test_orders_in_any_sequence(self):
        spectrum = EntanglementSpectrum(squeezed_spectrum(1.0, np.arange(400)), 0.0)
        forward = renyi_orders(spectrum, [0.5, 1.0, 2.0, math.inf])
        assert renyi_orders(spectrum, [math.inf, 2.0, 0.5, 1.0, 0.5]) == [
            forward[3], forward[2], forward[0], forward[1], forward[0]
        ]
        assert renyi_orders(spectrum, []) == []


class TestHugeOrders:
    """Orders past ~2.4e305, where mu ln p can overflow a double for some p > 0."""

    @pytest.mark.parametrize("r, mu, expected", [
        (1.0, 1e308, TWO_LN_COSH_1),
        (1.0, 9e307, TWO_LN_COSH_1),
        (300.5, 1e306, 601.0 - 2.0 * math.log(2.0)),  # 2 ln cosh r, e^{-2r} below an ulp
        (300.5, 1.7e308, 601.0 - 2.0 * math.log(2.0)),
        (5.0, sys.float_info.max, 2.0 * log_cosh(5.0)),
        (1e5, 1e305, 2e5 - 2.0 * math.log(2.0)),  # 2 mu ln cosh r overflows below 2.4e305
    ])
    def test_squeezed_closed_form_is_the_single_copy_entropy(self, r, mu, expected):
        # mu / (mu - 1) rounds to 1, and S_mu - S_inf is below an ulp of S_inf
        assert renyi_squeezed(r, mu) == pytest.approx(expected, rel=1e-15)
        assert renyi_squeezed(r, mu) == pytest.approx(renyi_squeezed(r, 1e300), rel=1e-15)

    @pytest.mark.parametrize("mu", [2.5e305, 1e306, 9e307, 1e308, sys.float_info.max])
    def test_general_power_sum_does_not_overflow(self, mu):
        # the geometric tail runs down to the smallest subnormal, ln p ~ -744
        spectrum = EntanglementSpectrum(squeezed_spectrum(1.0, np.arange(1500)), 0.0)
        probs = spectrum.probabilities
        assert 0.0 < probs[probs > 0.0].min() < sys.float_info.min
        value, single_copy = renyi_orders(spectrum, [mu, math.inf])
        assert value == pytest.approx(single_copy, rel=1e-15)
        assert value == pytest.approx(renyi_squeezed(1.0, mu), rel=1e-14)


@pytest.mark.parametrize("entropy", [
    lambda mu: renyi_squeezed(1.2, mu),
    lambda mu: renyi_sh(SHParams((0.6, 0.3)), mu),
], ids=["squeezed", "silbey-harris"])
def test_non_increasing_through_the_limit_orders(entropy):
    # the hypothesis tests above keep clear of order 1 and never reach inf
    values = [entropy(mu) for mu in (0.5, 1.0, 2.0, 5.0, 10.0, math.inf)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_parse_renyi_order():
    assert parse_renyi_order("2.5") == 2.5
    assert parse_renyi_order("inf") == math.inf
    assert parse_renyi_order(" Infinity ") == math.inf
    with pytest.raises(ValueError):
        parse_renyi_order("-1")


def test_purity_identity_across_grid():
    for r in np.linspace(0.0, 5.0, 21):
        gamma = math.exp(-renyi_squeezed(float(r), 2.0))
        assert abs(gamma - 1.0 / math.cosh(2.0 * r)) < 1e-12
