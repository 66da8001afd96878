"""Acceptance gate: one test per criterion, each at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` and in
failure captures). The slope sub-checks of criterion 6 compare the fitted
large-squeezing slope of the exact closed form (which criterion 1 pins to the
independent truncated-basis oracle) against the universal slope 2: since
ln(1 - tanh^{2 mu} r) -> ln(4 mu) - 2r, every order grows as S_mu = 2r + O(1).
The target is derived by hand, not computed from the closed form; see the
README.
"""

import math
import time

import numpy as np
import pytest

from mek import analytic, cli, fockspace, spectra, thermo
from mek.fockspace import (
    DisplacementParams,
    FockCutoff,
    SHParams,
    SqueezedStateParams,
    build_squeezed_coherent,
    build_squeezed_vacuum,
    apply_two_mode_displacement,
    coherent_cutoff,
    reordered_displacement,
)

R_GRID_C1 = (0.1, 0.5, 1.0, 2.0)
MU_GRID_C1 = (0.5, 1.0, 2.0, 5.0, math.inf)


def fitted_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def asymptotic_slope_target(mu: float) -> float:
    """Large-r slope dS_mu/dr of the two-mode squeezed entropy: 2 for every order mu > 0.

    With t = tanh r, S_mu = [ln(1 - t^{2 mu}) + 2 mu ln cosh r] / (mu - 1).
    As r -> inf, 1 - t^{2 mu} ~ 2 mu (1 - t) ~ 4 mu e^{-2r} and ln cosh r ~ r - ln 2,
    so S_mu ~ [ln 4 mu - 2r + 2 mu r - 2 mu ln 2] / (mu - 1) = 2r + O(1). The
    coefficient 2 mu / (mu - 1) of the ln cosh term alone is not the slope. The
    von Neumann limit (mu = 1), the order-2 value ln cosh 2r and the single-copy
    value S_inf = 2 ln cosh r all grow with slope 2 as well. The order-0 entropy
    is +inf for every r > 0 and has no slope, so mu must be positive.

    The value is derived by hand, not computed from a closed form, so it can
    serve as an independent target for a fitted slope.
    """
    if not mu > 0.0:
        raise ValueError(f"Renyi order must be positive, got {mu}")
    return 2.0


def _report(name: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_c1_oracle_equivalence_squeezed():
    start = time.perf_counter()
    worst = 0.0
    for r in R_GRID_C1:
        spectrum = cli.oracle_squeezed_spectrum(r, tail_tol=1e-12, mu_list=MU_GRID_C1)
        for mu, value in zip(MU_GRID_C1, analytic.renyi_orders(spectrum, MU_GRID_C1)):
            worst = max(worst, abs(value - analytic.renyi_squeezed(r, mu)))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-9 and elapsed < 10.0
    _report("C1 oracle equivalence", passed, f"max_dev={worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_c2_displacement_invariance_and_reordering():
    start = time.perf_counter()
    r = 0.8
    disp = DisplacementParams(0.5, 0.3)
    cutoff = FockCutoff(60)

    plain = build_squeezed_vacuum(SqueezedStateParams(r), cutoff, 1e-12)
    displaced = apply_two_mode_displacement(plain, disp)
    combined = build_squeezed_coherent(SqueezedStateParams(r), disp, cutoff)

    spectra_three = [
        spectra.hermitian_eigenvalues(spectra.partial_trace(state, 0), rank_tolerance=0.0)
        for state in (plain, displaced, combined)
    ]
    spec_dev = max(
        float(np.max(np.abs(a.probabilities - b.probabilities)))
        for i, a in enumerate(spectra_three)
        for b in spectra_three[i + 1 :]
    )

    # reordering identity: squeeze-then-displace equals displace-then-squeeze
    # with hyperbolically mixed displacement arguments
    moved = reordered_displacement(SqueezedStateParams(r), disp)
    padded = FockCutoff(cutoff.n_max + 14)
    right = apply_two_mode_displacement(
        build_squeezed_vacuum(SqueezedStateParams(r), padded, 1e-12), moved
    )
    bch_dev = float(
        np.max(np.abs(combined.amplitudes - right.amplitudes[: cutoff.dim, : cutoff.dim]))
    )
    elapsed = time.perf_counter() - start
    passed = spec_dev < 1e-9 and bch_dev < 1e-9 and elapsed < 30.0
    _report(
        "C2 displacement invariance",
        passed,
        f"spectra_dev={spec_dev:.3e}, reorder_dev={bch_dev:.3e}, {elapsed:.1f}s",
    )
    assert spec_dev < 1e-9
    assert bch_dev < 1e-9
    assert elapsed < 30.0


def test_c3_coherent_separability():
    rng = np.random.default_rng(42)
    worst_sigma = 0.0
    worst_entropy = 0.0
    for _ in range(5):
        re_parts = rng.uniform(-1.2, 1.2, 2)
        im_parts = rng.uniform(-1.2, 1.2, 2)
        disp = DisplacementParams(
            complex(re_parts[0], im_parts[0]), complex(re_parts[1], im_parts[1])
        )
        spectrum = cli.oracle_coherent_spectrum(disp)
        n_max = max(
            coherent_cutoff(disp.alpha, 5e-13).n_max,
            coherent_cutoff(disp.beta_b, 5e-13).n_max,
        )
        state = fockspace.build_coherent_two_mode(disp, FockCutoff(n_max))
        worst_sigma = max(worst_sigma, float(spectra.schmidt_coefficients(state)[1]))
        assert spectra.schmidt_rank(spectrum) == 1
        values = analytic.renyi_orders(spectrum, (0.5, 1.0, 2.0, 5.0, math.inf))
        worst_entropy = max(worst_entropy, *map(abs, values))
    passed = worst_sigma < 1e-10 and worst_entropy < 1e-9
    _report(
        "C3 coherent separability",
        passed,
        f"sigma2={worst_sigma:.3e}, max_entropy={worst_entropy:.3e}",
    )
    assert worst_sigma < 1e-10
    assert worst_entropy < 1e-9


def test_c4_sh_spectrum_and_permutation_invariance():
    rng = np.random.default_rng(7)
    worst_spec = 0.0
    for n_modes in (1, 2, 3):
        params = SHParams(tuple(rng.uniform(0.1, 0.7, n_modes)))
        oracle = cli.oracle_sh_spectrum(params)
        closed = analytic.sh_spectrum(params)
        worst_spec = max(
            worst_spec, cli._padded_max_diff(oracle.probabilities, closed.probabilities)
        )

    base = SHParams((0.3, 0.4, 0.5))
    permuted = SHParams((0.5, 0.3, 0.4))
    perm_dev = abs(analytic.renyi_sh(base, 1.0) - analytic.renyi_sh(permuted, 1.0))
    oracle_base = cli.oracle_sh_spectrum(base)
    oracle_perm = cli.oracle_sh_spectrum(permuted)
    perm_dev = max(
        perm_dev,
        cli._padded_max_diff(oracle_base.probabilities, oracle_perm.probabilities),
    )
    passed = worst_spec < 1e-9 and perm_dev < 1e-14
    _report(
        "C4 qubit-boson spectrum",
        passed,
        f"spec_dev={worst_spec:.3e}, perm_dev={perm_dev:.3e}",
    )
    assert worst_spec < 1e-9
    assert perm_dev < 1e-14


def test_c5_thermal_consistency():
    worst_lnz = 0.0
    worst_weight = 0.0
    for r in np.linspace(0.1, 2.0, 20):
        model = thermo.oscillator_model_from_squeezing(float(r))
        count = fockspace.squeezed_cutoff(float(r), 1e-12).n_max + 1
        spectrum = analytic.squeezed_entanglement_spectrum(float(r), count)
        report = thermo.verify_thermal_consistency(model, spectrum)
        worst_lnz = max(worst_lnz, report.log_partition_deviation)
        worst_weight = max(worst_weight, report.max_weight_deviation)
    for dot in np.linspace(0.1, 3.0, 20):
        params = SHParams((math.sqrt(dot / 2.0),) * 2)
        model = thermo.two_level_model_from_sh(params)
        report = thermo.verify_thermal_consistency(model, analytic.sh_spectrum(params))
        worst_lnz = max(worst_lnz, report.log_partition_deviation)
        worst_weight = max(worst_weight, report.max_weight_deviation)
    passed = worst_lnz < 1e-12 and worst_weight < 1e-12
    _report(
        "C5 thermal consistency",
        passed,
        f"lnZ_dev={worst_lnz:.3e}, weight_dev={worst_weight:.3e}",
    )
    assert worst_lnz < 1e-12
    assert worst_weight < 1e-12


def test_c6_entropy_strictly_increasing():
    grid = np.linspace(0.25, 6.0, 24)
    worst = -math.inf
    for mu in (2.0, 5.0, math.inf):
        values = [analytic.renyi_squeezed(float(r), mu) for r in grid]
        worst = max(worst, max(a - b for a, b in zip(values, values[1:])))
    passed = worst < 0.0
    _report("C6 monotone growth", passed, f"max_decrease={worst:.3e}")
    assert worst < 0.0


def test_c6_slope_target_is_universal():
    # S_mu = 2r + O(1) at large r for every order, below and at mu = 1 included
    for mu in (0.5, 1.0, 2.0, 5.0, math.inf):
        assert asymptotic_slope_target(mu) == 2.0
    for mu in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            asymptotic_slope_target(mu)


@pytest.mark.parametrize("mu", [2.0, 5.0, math.inf], ids=["mu2", "mu5", "muinf"])
def test_c6_asymptotic_slope(mu):
    grid = np.linspace(4.0, 6.0, 21)
    slope = fitted_slope(grid, [analytic.renyi_squeezed(float(r), mu) for r in grid])
    target = asymptotic_slope_target(mu)
    rel = abs(slope - target) / target
    passed = rel < 0.01
    _report(
        f"C6 slope mu={mu}",
        passed,
        f"fitted={slope:.6f}, target={target:.4f}, rel_err={rel:.2%}",
    )
    assert rel < 0.01, (
        f"fitted slope {slope:.6f} vs asymptote {target:.4f}; the exact entropy grows "
        "with slope 2 for every order, since ln(1 - tanh^(2 mu) r) -> ln(4 mu) - 2r "
        "(see README)"
    )


def test_c7_sh_entropy_saturates_exponentially():
    grid = np.linspace(0.0, 4.0, 33)
    values = [analytic.renyi_sh(SHParams((math.sqrt(s),)), 1.0) if s > 0 else 0.0 for s in grid]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    worst_gap = 0.0
    saturated = True
    for dot in np.linspace(2.0, 6.0, 17):
        gap = abs(analytic.renyi_sh(SHParams((math.sqrt(dot),)), 1.0) - math.log(2.0))
        bound = 2.0 * math.exp(-2.0 * dot)
        worst_gap = max(worst_gap, gap / bound)
        saturated = saturated and gap < bound
    passed = monotone and saturated
    _report(
        "C7 saturation",
        passed,
        f"monotone={monotone}, max gap/bound={worst_gap:.3f}",
    )
    assert monotone
    assert saturated


def test_c8_purity_identity():
    worst = 0.0
    for r in np.linspace(0.0, 6.0, 25):
        gamma = math.exp(-analytic.renyi_squeezed(float(r), 2.0))
        worst = max(worst, abs(gamma - 1.0 / math.cosh(2.0 * float(r))))
    passed = worst < 1e-12
    _report("C8 purity identity", passed, f"max_dev={worst:.3e}")
    assert worst < 1e-12


def test_c9_von_neumann_limit_continuity():
    def gap(r, eps):
        return abs(analytic.renyi_squeezed(r, 1.0 + eps) - analytic.renyi_squeezed(r, 1.0))

    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for eps in (1e-3, 1e-4):
            ratio = gap(r, eps) / gap(r, eps / 10.0)
            worst = max(worst, abs(ratio - 10.0) / 10.0)
    passed = worst < 0.2
    _report("C9 von Neumann limit", passed, f"max ratio error={worst:.2%}")
    assert worst < 0.2
