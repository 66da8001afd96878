"""Mode-entanglement measures and effective thermodynamics.

Two routes to every quantity: closed forms (:mod:`mek.analytic`,
:mod:`mek.thermo`) and a truncated-Fock-space construction
(:mod:`mek.fockspace`, :mod:`mek.spectra`) that serves as an independent
numerical cross-check. The ``mek`` command line exposes sweeps, thermal
tables, and the verification battery.
"""

from .analytic import (
    renyi_orders,
    renyi_sh,
    renyi_squeezed,
    sh_spectrum,
    squeezed_entanglement_spectrum,
    squeezed_spectrum,
)
from .exceptions import (
    ContractError,
    DimensionError,
    MemoryBudgetError,
    TailMassError,
)
from .fockspace import (
    ComplexAmplitudeTensor,
    DisplacementParams,
    FockCutoff,
    SHParams,
    SqueezedStateParams,
    annihilation_matrix,
    apply_two_mode_displacement,
    build_coherent_two_mode,
    build_silbey_harris,
    build_squeezed_coherent,
    build_squeezed_vacuum,
    coherent_amplitudes,
    coherent_cutoff,
    operator_exponential,
    squeezed_cutoff,
)
from .spectra import (
    EntanglementSpectrum,
    ReducedDensityMatrix,
    hermitian_eigenvalues,
    partial_trace,
    schmidt_coefficients,
    schmidt_rank,
)
from .thermo import (
    EffectiveThermalModel,
    ThermalConsistencyReport,
    boltzmann_weights,
    oscillator_model_from_squeezing,
    two_level_model_from_sh,
    verify_thermal_consistency,
)

__version__ = "0.1.0"
