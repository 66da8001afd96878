"""Partial traces, Hermitian eigenvalues, and entanglement-spectrum extraction.

Eigenvalues and singular values come from LAPACK through numpy
(``eigvalsh`` and ``svd``); this module adds the contract checks around them:
squareness, Hermiticity, and the round-off window for negative eigenvalues.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DimensionError
from .fockspace import ComplexAmplitudeTensor

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
NEGATIVE_CLAMP = -1e-10
DEFAULT_RANK_TOL = 1e-10


@dataclass
class ReducedDensityMatrix:
    """Hermitian reduced density operator of one tensor factor."""

    entries: np.ndarray


@dataclass
class EntanglementSpectrum:
    """Descending eigenvalues of a reduced density operator.

    ``rank_tolerance`` is the threshold below which entries are deemed zero;
    it controls the Schmidt rank and which entries enter entropy sums.
    """

    probabilities: np.ndarray
    rank_tolerance: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)


def partial_trace(state: ComplexAmplitudeTensor, keep_factor: int) -> ReducedDensityMatrix:
    """Trace out every tensor factor except ``keep_factor``.

    Returns rho with entries sum_j psi(kept=i, j) psi^*(kept=i', j), where j
    runs over the joint index of all traced factors.
    """
    n_factors = len(state.mode_dims)
    if not 0 <= keep_factor < n_factors:
        raise DimensionError(
            f"keep_factor {keep_factor} out of range for {n_factors} tensor factors"
        )
    kept_dim = state.mode_dims[keep_factor]
    unfolded = np.moveaxis(state.amplitudes, keep_factor, 0).reshape(kept_dim, -1)
    unfolded = np.ascontiguousarray(unfolded)
    rho = unfolded @ unfolded.conj().T

    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_defect >= HERMITICITY_TOL:
        raise ContractError(f"reduced matrix is not Hermitian: defect {herm_defect:.3e}")
    trace_defect = abs(1.0 - float(np.trace(rho).real))
    if trace_defect >= TRACE_TOL:
        raise ContractError(
            f"reduced matrix trace deviates from 1 by {trace_defect:.3e}; "
            "was the input state normalized?"
        )
    return ReducedDensityMatrix(rho)


def hermitian_eigenvalues(
    rho: ReducedDensityMatrix,
    rank_tolerance: float = DEFAULT_RANK_TOL,
) -> EntanglementSpectrum:
    """Full eigenvalue set of a Hermitian reduced matrix, sorted descending.

    Input with no nonzero off-diagonal entry returns its real diagonal,
    sorted; the squeezed-vacuum reductions are exactly diagonal, and this
    skips an O(d^3) solve on them. Any other input goes to LAPACK's Hermitian
    eigenvalue solver. Non-finite entries are an error. Negative round-off
    above -1e-10 is clamped to zero; anything below is an error.
    """
    entries = np.asarray(rho.entries, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DimensionError(f"density matrix must be square, got {entries.shape}")
    # LAPACK returns NaN or arbitrary values for non-finite input, without error
    if not np.all(np.isfinite(entries)):
        raise ContractError("density matrix has non-finite entries")
    herm_defect = float(np.max(np.abs(entries - entries.conj().T)))
    if herm_defect >= HERMITICITY_TOL:
        raise ContractError(f"matrix is not Hermitian: defect {herm_defect:.3e}")

    diagonal = entries.diagonal()
    if np.count_nonzero(entries) == np.count_nonzero(diagonal):
        eigenvalues = np.sort(diagonal.real)[::-1].copy()
    else:
        eigenvalues = np.linalg.eigvalsh(entries)[::-1].copy()

    worst = float(eigenvalues.min(initial=0.0))
    if worst < NEGATIVE_CLAMP:
        raise ContractError(
            f"eigenvalue {worst:.3e} below the round-off clamp window {NEGATIVE_CLAMP:.1e}"
        )
    np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    return EntanglementSpectrum(eigenvalues, rank_tolerance=rank_tolerance)


def schmidt_rank(spectrum: EntanglementSpectrum) -> int:
    """Number of spectrum entries above the rank tolerance (1 iff separable)."""
    return int(np.count_nonzero(spectrum.probabilities > spectrum.rank_tolerance))


def schmidt_coefficients(state: ComplexAmplitudeTensor, keep_factor: int = 0) -> np.ndarray:
    """Descending singular values of the (kept factor | rest) unfolding.

    LAPACK's SVD works on the amplitudes directly, so tiny coefficients are
    resolved far below what squaring through the density matrix would allow
    and rank-1 checks can be asserted at the 1e-10 level.
    """
    n_factors = len(state.mode_dims)
    if not 0 <= keep_factor < n_factors:
        raise DimensionError(
            f"keep_factor {keep_factor} out of range for {n_factors} tensor factors"
        )
    kept_dim = state.mode_dims[keep_factor]
    mat = np.moveaxis(state.amplitudes, keep_factor, 0).reshape(kept_dim, -1)
    return np.linalg.svd(mat, compute_uv=False)
