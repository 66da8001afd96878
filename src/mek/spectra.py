"""Partial traces, Hermitian eigenvalues, and entanglement-spectrum extraction.

Eigenvalues and singular values come from LAPACK through numpy
(``eigvalsh`` and ``svd``); this module adds the contract checks around them,
each in one place. ``partial_trace`` checks the trace (a normalized state);
``hermitian_eigenvalues`` checks squareness, finite entries and Hermiticity
before LAPACK, and the round-off window for negative eigenvalues after it.
A state stored in Schmidt form (the two-mode squeezed vacuum, see
``ComplexAmplitudeTensor``) is reduced from its Schmidt vector in
``partial_trace`` and carried as its real diagonal alone: it is checked and
read off in O(d), with no d x d matrix, no scan, no O(d^3) product, no solve.

Real amplitudes give a real symmetric rho (float64), which goes through the
same calls to LAPACK's real kernels; complex amplitudes give a complex
Hermitian rho. Nothing is cast between the two.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DimensionError
from .fockspace import ComplexAmplitudeTensor

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
NEGATIVE_CLAMP = -1e-10
DEFAULT_RANK_TOL = 1e-10


class ReducedDensityMatrix:
    """Hermitian reduced density operator of one tensor factor.

    A diagonal reduction (``partial_trace`` of a state in Schmidt form) holds
    only its real diagonal; ``entries`` builds the dense float64 matrix from
    it on first access.
    """

    def __init__(self, entries: np.ndarray):
        self._entries = entries
        self._diagonal = None

    @classmethod
    def _from_diagonal(cls, diagonal: np.ndarray) -> "ReducedDensityMatrix":
        rho = cls(None)
        rho._diagonal = diagonal
        return rho

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = np.diag(self._diagonal)
        return self._entries


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


def _unfold(state: ComplexAmplitudeTensor, keep_factor: int) -> np.ndarray:
    """The (kept factor | rest) unfolding of the amplitudes, a view where numpy allows."""
    n_factors = len(state.mode_dims)
    if not 0 <= keep_factor < n_factors:
        raise DimensionError(
            f"keep_factor {keep_factor} out of range for {n_factors} tensor factors"
        )
    kept_dim = state.mode_dims[keep_factor]
    return np.moveaxis(state.amplitudes, keep_factor, 0).reshape(kept_dim, -1)


def partial_trace(state: ComplexAmplitudeTensor, keep_factor: int) -> ReducedDensityMatrix:
    """Trace out every tensor factor except ``keep_factor``.

    Returns rho with entries sum_j psi(kept=i, j) psi^*(kept=i', j), where j
    runs over the joint index of all traced factors. A state stored in
    Schmidt form (``state.schmidt``, such as the two-mode squeezed vacuum)
    gives, for either factor, the diagonal rho_nn = |psi_nn|^2 from that
    vector alone, kept as a float64 vector of d entries: no d x d matrix, no
    scan and no O(d^3) product. Any other state, a diagonal one built by hand
    included, takes the product, in the amplitudes' dtype: Hermitian by
    construction, and checked as such by ``hermitian_eigenvalues``. The trace
    is checked here: ContractError unless it is 1 to ``TRACE_TOL`` (NaN fails).
    """
    schmidt = state.schmidt
    if schmidt is not None and keep_factor in (0, 1):
        diagonal = schmidt.real**2 + schmidt.imag**2
        trace = float(np.sum(diagonal))
        rho = ReducedDensityMatrix._from_diagonal(diagonal)
    else:  # an out-of-range factor raises in _unfold, before any amplitude is read
        unfolded = np.ascontiguousarray(_unfold(state, keep_factor))
        entries = unfolded @ unfolded.conj().T
        trace = float(np.trace(entries).real)
        rho = ReducedDensityMatrix(entries)

    trace_defect = abs(1.0 - trace)
    if not trace_defect < TRACE_TOL:  # a NaN trace fails too
        raise ContractError(
            f"reduced matrix trace deviates from 1 by {trace_defect:.3e}; "
            "was the input state normalized?"
        )
    return rho


def hermitian_eigenvalues(
    rho: ReducedDensityMatrix,
    rank_tolerance: float = DEFAULT_RANK_TOL,
) -> EntanglementSpectrum:
    """Full eigenvalue set of a Hermitian reduced matrix, sorted descending.

    A diagonal reduction from ``partial_trace`` (of a state in Schmidt form)
    returns its real diagonal, sorted, in O(d log d), with no d x d matrix
    and no O(d^3) solve. Any other input goes to LAPACK's Hermitian
    eigenvalue solver in its own dtype: the real symmetric solver for real
    input, the complex Hermitian one for complex input. Non-finite entries
    are an error. Negative round-off above -1e-10 is clamped to zero;
    anything below is an error.
    """
    if rho._diagonal is not None:
        # LAPACK is not reached, but a NaN would still sort as a probability
        if not np.all(np.isfinite(rho._diagonal)):
            raise ContractError("density matrix has non-finite entries")
        eigenvalues = np.sort(rho._diagonal)[::-1].copy()
    else:
        entries = np.asarray(rho.entries)
        entries = entries.astype(np.result_type(entries, np.float64), copy=False)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError(f"density matrix must be square, got {entries.shape}")
        # LAPACK returns NaN or arbitrary values for non-finite input, without error
        if not np.all(np.isfinite(entries)):
            raise ContractError("density matrix has non-finite entries")
        herm_defect = float(np.max(np.abs(entries - entries.conj().T)))
        if herm_defect >= HERMITICITY_TOL:
            raise ContractError(f"matrix is not Hermitian: defect {herm_defect:.3e}")
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
    return np.linalg.svd(_unfold(state, keep_factor), compute_uv=False)
