import math

import numpy as np
import pytest

from mek import analytic
from mek.exceptions import DimensionError
from mek.fockspace import FockCutoff, SHParams, SqueezedStateParams, build_squeezed_vacuum, squeezed_cutoff
from mek.spectra import EntanglementSpectrum, hermitian_eigenvalues, partial_trace
from mek.thermo import (
    boltzmann_weights,
    oscillator_model_from_squeezing,
    two_level_model_from_sh,
    verify_thermal_consistency,
)

# frozen with 30-digit arithmetic
BETA_R1 = 0.5446829378236631        # -2 ln tanh(1)
Z_R1 = 2.3810978455418157           # cosh^2(1)
BETA_DELTA_DOT1 = 0.2723414689118316  # -ln tanh(1)
Z_DOT1 = 1.7615941559557649         # 1 + tanh(1)


def assert_model_invariants(model, tol=1e-12):
    # Z >= 1 and F <= 0 with the ground level at 0; F = -ln Z / beta; top weight 1/Z
    assert model.partition_function >= 1.0 - tol
    assert model.free_energy <= tol
    if not math.isinf(model.beta_eff):
        log_z = math.log(model.partition_function)
        assert abs(model.free_energy + log_z / model.beta_eff) <= tol
    assert abs(boltzmann_weights(model, 1)[0] - 1.0 / model.partition_function) <= tol


class TestOscillatorModel:
    def test_unit_squeezing_values(self):
        model = oscillator_model_from_squeezing(1.0, 1.0)
        assert model.beta_eff == pytest.approx(BETA_R1, abs=1e-15)
        assert model.partition_function == pytest.approx(Z_R1, abs=1e-14)
        assert math.log(model.partition_function) == pytest.approx(
            analytic.renyi_squeezed(1.0, math.inf), abs=1e-12
        )
        assert_model_invariants(model)

    def test_zero_squeezing_sentinel(self):
        model = oscillator_model_from_squeezing(0.0)
        assert math.isinf(model.beta_eff)
        assert model.partition_function == 1.0
        assert model.free_energy == 0.0
        np.testing.assert_array_equal(boltzmann_weights(model, 4), [1.0, 0.0, 0.0, 0.0])
        assert_model_invariants(model)

    def test_weights_reproduce_spectrum(self):
        r = 0.5
        model = oscillator_model_from_squeezing(r)
        weights = boltzmann_weights(model, 21)
        expected = analytic.squeezed_spectrum(r, np.arange(21))
        assert np.max(np.abs(weights - expected)) < 1e-15

    def test_partition_function_is_geometric_sum(self):
        model = oscillator_model_from_squeezing(0.8, 2.0)
        closed = 1.0 / (1.0 - math.exp(-model.beta_eff * 2.0))
        assert model.partition_function == pytest.approx(closed, rel=1e-14)

    def test_alternative_beta_expression(self):
        # -ln(tanh^2 r) and -2 ln(tanh r) are the same quantity
        for r in (0.1, 0.5, 1.0, 2.5):
            model = oscillator_model_from_squeezing(r, 1.0)
            alt = -math.log(math.tanh(r) ** 2)
            assert abs(model.beta_eff - alt) <= 1e-15 * max(1.0, abs(alt))

    def test_energy_scale_only_rescales_beta(self):
        a = oscillator_model_from_squeezing(0.7, 1.0)
        b = oscillator_model_from_squeezing(0.7, 3.0)
        assert b.beta_eff == pytest.approx(a.beta_eff / 3.0, rel=1e-15)
        assert b.partition_function == pytest.approx(a.partition_function, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oscillator_model_from_squeezing(-0.1)
        with pytest.raises(ValueError):
            oscillator_model_from_squeezing(1.0, 0.0)

    def test_overflowing_beta_names_the_spacing(self):
        # beta = -2 ln tanh r / hbar_omega overflows; inf would read as separable
        with pytest.raises(ValueError, match="level spacing 1e-320"):
            oscillator_model_from_squeezing(0.5, 1e-320)
        assert oscillator_model_from_squeezing(0.5, 1e-300).beta_eff < math.inf
        assert oscillator_model_from_squeezing(0.0, 1e-320).beta_eff == math.inf


class TestTwoLevelModel:
    def test_unit_dot_values(self):
        model = two_level_model_from_sh(SHParams((1.0,)), 1.0)
        assert model.beta_eff == pytest.approx(BETA_DELTA_DOT1, abs=1e-15)
        assert model.partition_function == pytest.approx(Z_DOT1, abs=1e-15)
        assert math.log(model.partition_function) == pytest.approx(
            analytic.renyi_sh(SHParams((1.0,)), math.inf), abs=1e-14
        )
        assert_model_invariants(model)

    def test_weights_match_spectrum(self):
        params = SHParams((0.6, 0.8))
        model = two_level_model_from_sh(params)
        weights = boltzmann_weights(model, 2)
        spectrum = analytic.sh_spectrum(params)
        assert np.max(np.abs(weights - spectrum.probabilities)) < 1e-14

    def test_saturation_limit(self):
        model = two_level_model_from_sh(SHParams((10.0,)), 1.0)
        assert model.beta_eff < 1e-15
        assert model.partition_function == pytest.approx(2.0, abs=1e-12)
        weights = boltzmann_weights(model, 2)
        assert np.max(np.abs(weights - 0.5)) < 1e-12

    def test_zero_displacement_sentinel(self):
        model = two_level_model_from_sh(SHParams((0.0, 0.0)))
        assert math.isinf(model.beta_eff)
        np.testing.assert_array_equal(boltzmann_weights(model, 2), [1.0, 0.0])
        assert_model_invariants(model)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            two_level_model_from_sh(SHParams((0.5,)), 0.0)

    def test_overflowing_beta_names_the_gap(self):
        # beta = -ln tanh(f.f) / delta overflows; inf would read as separable
        with pytest.raises(ValueError, match="energy gap 1e-320"):
            two_level_model_from_sh(SHParams((0.5,)), 1e-320)
        assert two_level_model_from_sh(SHParams((0.5,)), 1e-300).beta_eff < math.inf
        assert two_level_model_from_sh(SHParams((0.0,)), 1e-320).beta_eff == math.inf

    def test_free_energy_keeps_relative_precision_at_tiny_dot(self):
        # ln Z = ln(1 + tanh s) = s - ln cosh s and beta = -ln tanh s; a Z
        # rounded to 1 would give F = 0 here
        for dot in (1e-300, 1e-20, 1e-8):
            params = SHParams((math.sqrt(dot),))
            s = params.f_dot_f
            reference = (s - s * s / 2.0) / math.log(s)  # dropped terms are O(s^2) relative
            model = two_level_model_from_sh(params)
            assert math.isclose(model.free_energy, reference, rel_tol=1e-14)


class TestBoltzmannWeights:
    def test_harmonic_ladder_extends(self):
        model = oscillator_model_from_squeezing(0.5, 2.0)
        levels = np.array([0, 2, 4, 6, 8])
        expected = np.exp(-model.beta_eff * levels) / model.partition_function
        np.testing.assert_array_equal(boltzmann_weights(model, 5), expected)

    def test_two_level_cannot_extend(self):
        model = two_level_model_from_sh(SHParams((0.5,)), 3.0)
        expected = np.exp(-model.beta_eff * np.array([0.0, 3.0])) / model.partition_function
        np.testing.assert_array_equal(boltzmann_weights(model, 2), expected)
        with pytest.raises(DimensionError):
            boltzmann_weights(model, 3)


class TestThermalConsistency:
    def test_oscillator_against_closed_form_spectrum(self):
        r = 0.5
        count = squeezed_cutoff(r, 1e-12).n_max + 1
        spectrum = analytic.squeezed_entanglement_spectrum(r, count)
        report = verify_thermal_consistency(oscillator_model_from_squeezing(r), spectrum)
        assert report.max_weight_deviation < 1e-12
        assert report.log_partition_deviation < 1e-12
        assert report.free_energy_deviation < 1e-12

    def test_two_level_against_closed_form_spectrum(self):
        params = SHParams((math.sqrt(2.0),))
        report = verify_thermal_consistency(
            two_level_model_from_sh(params), analytic.sh_spectrum(params)
        )
        assert report.max_weight_deviation < 1e-14
        assert report.log_partition_deviation < 1e-14
        assert report.free_energy_deviation < 1e-14

    def test_oscillator_against_truncated_basis_spectrum(self):
        r = 1.0
        state = build_squeezed_vacuum(SqueezedStateParams(r), FockCutoff(60))
        spectrum = hermitian_eigenvalues(partial_trace(state, 0), rank_tolerance=0.0)
        report = verify_thermal_consistency(oscillator_model_from_squeezing(r), spectrum)
        assert report.max_weight_deviation < 1e-9
        assert report.log_partition_deviation < 1e-12

    def test_two_level_rejects_larger_spectrum(self):
        model = two_level_model_from_sh(SHParams((0.5,)))
        spectrum = EntanglementSpectrum(np.array([0.6, 0.3, 0.1]))
        with pytest.raises(DimensionError):
            verify_thermal_consistency(model, spectrum)

    def test_zero_temperature_sentinel_consistent(self):
        spectrum = EntanglementSpectrum(np.array([1.0, 0.0]))
        report = verify_thermal_consistency(oscillator_model_from_squeezing(0.0), spectrum)
        assert report.max_weight_deviation == 0.0
        assert report.log_partition_deviation == 0.0
        assert report.free_energy_deviation == 0.0


def test_effective_temperature_increases_with_parameters():
    betas = [oscillator_model_from_squeezing(r).beta_eff for r in np.linspace(0.05, 3.0, 25)]
    assert all(a > b for a, b in zip(betas, betas[1:]))
    betas = [
        two_level_model_from_sh(SHParams((math.sqrt(s),))).beta_eff
        for s in np.linspace(0.05, 3.0, 25)
    ]
    assert all(a > b for a, b in zip(betas, betas[1:]))


def test_free_energy_identity():
    for r in (0.2, 1.0, 2.0):
        model = oscillator_model_from_squeezing(r)
        s_inf = analytic.renyi_squeezed(r, math.inf)
        assert abs(model.free_energy + s_inf / model.beta_eff) < 1e-12
    for dot in (0.3, 1.0, 2.5):
        model = two_level_model_from_sh(SHParams((math.sqrt(dot),)))
        s_inf = analytic.renyi_sh(SHParams((math.sqrt(dot),)), math.inf)
        assert abs(model.free_energy + s_inf / model.beta_eff) < 1e-12
