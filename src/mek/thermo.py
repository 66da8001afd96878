"""Effective thermodynamic models behind the entanglement spectra.

A reduced state with spectrum {p_n} reads as a canonical ensemble
p_n = e^{-beta E_n} / Z once a reciprocal temperature is matched to the
physical parameters: e^{-beta hw / 2} = tanh r for the squeezed family
(harmonic-ladder levels E_n = n hw) and e^{-beta Delta} = tanh(f.f) for the
qubit-boson family (two levels 0, Delta). With the ground level at zero the
largest spectrum entry is 1/Z, so the single-copy entanglement equals ln Z
and the free energy is -ln Z / beta.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._stable import log_cosh, log_tanh
from .exceptions import DimensionError
from .fockspace import SHParams
from .spectra import EntanglementSpectrum


@dataclass(frozen=True)
class EffectiveThermalModel:
    """Reciprocal temperature, partition function, and free energy of a level ladder.

    The levels are E_n = n * energy_scale with the ground at 0: two of them
    (0, energy_scale) for the qubit-boson family, and a conceptually infinite
    harmonic ladder, flagged by ``infinite_ladder``, for the squeezed family.
    A separable state maps to the zero-temperature sentinel beta = inf with
    weights {1, 0, ...}.
    """

    beta_eff: float
    energy_scale: float
    partition_function: float
    free_energy: float
    infinite_ladder: bool = False


def _reciprocal_temperature(log_ratio: float, spacing: float, name: str) -> float:
    """beta = -log_ratio / spacing; ValueError naming the spacing if that overflows.

    An overflowed beta of an entangled state would read as the separable
    sentinel beta = inf.
    """
    beta = -log_ratio / spacing
    if math.isinf(beta):
        raise ValueError(
            f"{name} {spacing!r} is too small: beta_eff = {-log_ratio:g} / {spacing!r} "
            "overflows float64"
        )
    return beta


def oscillator_model_from_squeezing(r: float, hbar_omega: float = 1.0) -> EffectiveThermalModel:
    """Harmonic-oscillator model of one mode of a pair-squeezed state.

    beta = -2 ln(tanh r) / hbar_omega, Z = 1 / (1 - e^{-beta hbar_omega})
    = cosh^2 r, F = -ln Z / beta. r = 0 yields the zero-temperature sentinel.
    """
    if r < 0.0:
        raise ValueError(f"squeezing magnitude must be non-negative, got {r}")
    if hbar_omega <= 0.0:
        raise ValueError(f"level spacing must be positive, got {hbar_omega}")
    if r == 0.0:
        return EffectiveThermalModel(math.inf, hbar_omega, 1.0, 0.0, True)
    beta = _reciprocal_temperature(2.0 * log_tanh(r), hbar_omega, "level spacing")
    z = math.cosh(r) ** 2
    free_energy = -2.0 * log_cosh(r) / beta
    return EffectiveThermalModel(beta, hbar_omega, z, free_energy, True)


def two_level_model_from_sh(params: SHParams, delta: float = 1.0) -> EffectiveThermalModel:
    """Two-level model of the qubit reduction, gap ``delta`` above a zero ground level.

    beta = -ln(tanh f.f) / delta and Z = 1 + tanh(f.f), so the Boltzmann
    weights {1/Z, tanh(f.f)/Z} reproduce {(1 + c)/2, (1 - c)/2} exactly.
    """
    if delta <= 0.0:
        raise ValueError(f"energy gap must be positive, got {delta}")
    s = params.f_dot_f
    if s == 0.0:
        return EffectiveThermalModel(math.inf, delta, 1.0, 0.0, False)
    beta = _reciprocal_temperature(log_tanh(s), delta, "energy gap")
    z = 1.0 + math.tanh(s)
    free_energy = -math.log1p(math.tanh(s)) / beta
    return EffectiveThermalModel(beta, delta, z, free_energy, False)


def boltzmann_weights(model: EffectiveThermalModel, count: int) -> np.ndarray:
    """Normalized weights e^{-beta E_n} / Z for the first ``count`` levels E_n = n * energy_scale.

    A two-level model has only two levels: DimensionError for more.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count > 2 and not model.infinite_ladder:
        raise DimensionError(f"model has only 2 levels but {count} were requested")
    levels = model.energy_scale * np.arange(count, dtype=float)
    if math.isinf(model.beta_eff):
        weights = np.zeros(count)
        weights[0] = 1.0
        return weights
    return np.exp(-model.beta_eff * levels) / model.partition_function


@dataclass
class ThermalConsistencyReport:
    """Deviations between a thermal model and an entanglement spectrum."""

    max_weight_deviation: float
    log_partition_deviation: float  # |ln Z - S_inf|
    free_energy_deviation: float    # |F + S_inf / beta|


def verify_thermal_consistency(
    model: EffectiveThermalModel, spectrum: EntanglementSpectrum
) -> ThermalConsistencyReport:
    """Compare Boltzmann weights, ln Z, and F against an explicit spectrum.

    The model must supply at least as many levels as the spectrum has
    entries; harmonic ladders are extended on demand, a two-level model
    against a larger spectrum raises ``DimensionError``.
    """
    probs = np.asarray(spectrum.probabilities, dtype=float)
    weights = boltzmann_weights(model, len(probs))
    max_weight_dev = float(np.max(np.abs(weights - probs)))

    single_copy = -math.log(float(np.max(probs)))
    log_z = math.log(model.partition_function)
    log_partition_dev = abs(log_z - single_copy)

    entropy_over_beta = 0.0 if math.isinf(model.beta_eff) else single_copy / model.beta_eff
    free_energy_dev = abs(model.free_energy + entropy_over_beta)
    return ThermalConsistencyReport(max_weight_dev, log_partition_dev, free_energy_dev)
