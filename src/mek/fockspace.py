"""Exact construction of composite bosonic states in truncated occupation bases.

States are dense coefficient arrays built from raw ladder matrices and matrix
exponentials, with analytic tail bounds guarding every truncation. The point
of this module is to be dumb and obviously correct: it is the independent
numerical route against which the closed forms in :mod:`mek.analytic` are
checked, so it must not share any formula with them.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from ._stable import log_tanh
from .exceptions import DimensionError, MemoryBudgetError, NumericalError, TailMassError

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_MEM_BUDGET = 2 ** 28  # state entries or pair-squeeze work, not bytes
_SERIES_MAX_ORDER = 40


def memory_budget() -> int:
    """Cap on dim^2 two-mode entries, 2 dim^n qubit-boson entries and dim^4 pair-squeeze work.

    MEK_MEM_BUDGET overrides the default 2^28; it counts entries and work, not bytes.
    """
    raw = os.environ.get("MEK_MEM_BUDGET", "")
    return int(raw) if raw else DEFAULT_MEM_BUDGET


def _check_budget(need: int, what: str):
    """Raise MemoryBudgetError if ``need``, described by ``what``, exceeds memory_budget()."""
    budget = memory_budget()
    if need > budget:
        raise MemoryBudgetError(
            f"{what} is {need}, over the budget {budget}; reduce n_max or raise MEK_MEM_BUDGET"
        )


@dataclass(frozen=True)
class FockCutoff:
    """Highest occupation number retained per mode; basis dimension is n_max + 1."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be non-negative, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class SqueezedStateParams:
    """Pair-squeezing magnitude r >= 0 and angle theta (wrapped into [0, 2pi))."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.r < math.inf and math.isfinite(self.theta)):
            raise ValueError(f"need finite r >= 0 and finite theta, got {self.r}, {self.theta}")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))


@dataclass(frozen=True)
class DisplacementParams:
    """Displacement amplitudes for the two modes (beta_b displaces mode B)."""

    alpha: complex = 0.0
    beta_b: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta_b", complex(self.beta_b))
        if not (math.isfinite(abs(self.alpha)) and math.isfinite(abs(self.beta_b))):
            raise ValueError("displacement amplitudes must be finite")


@dataclass(frozen=True)
class SHParams:
    """Real per-mode displacements of a qubit-boson superposition state."""

    f: tuple

    def __post_init__(self):
        values = tuple(float(x) for x in self.f)
        if len(values) < 1:
            raise ValueError("at least one boson mode is required")
        if not all(math.isfinite(x) for x in values):
            raise ValueError(f"displacements must be finite, got {values}")
        object.__setattr__(self, "f", values)

    @property
    def n_modes(self) -> int:
        return len(self.f)

    @property
    def f_dot_f(self) -> float:
        return math.fsum(x * x for x in self.f)


@dataclass
class ComplexAmplitudeTensor:
    """Dense coefficient array of a pure state over truncated occupation bases.

    ``amplitudes`` is indexed by per-factor occupation numbers and has shape
    ``mode_dims``. ``tail_mass`` records the probability weight the truncation
    neglects (1 - <psi|psi>, or the measured boundary contamination after an
    operator was applied in the truncated space).
    """

    amplitudes: np.ndarray
    mode_dims: tuple
    tail_mass: float

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.mode_dims = tuple(int(d) for d in self.mode_dims)
        if self.amplitudes.shape != self.mode_dims:
            raise DimensionError(
                f"amplitude shape {self.amplitudes.shape} does not match mode_dims {self.mode_dims}"
            )

    def norm(self) -> float:
        """Euclidean norm sqrt(<psi|psi>)."""
        return float(np.linalg.norm(self.amplitudes.ravel()))


def validate_state(state: ComplexAmplitudeTensor, tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Check |1 - <psi|psi>| against the tail tolerance; returns the defect."""
    defect = abs(1.0 - state.norm() ** 2)
    if defect >= tail_tol:
        raise TailMassError(
            f"state norm defect {defect:.3e} exceeds tail tolerance {tail_tol:.3e}",
            measured=defect,
        )
    return defect


# ---------------------------------------------------------------------------
# ladder operators and matrix exponential
# ---------------------------------------------------------------------------

def annihilation_matrix(n_max: int) -> np.ndarray:
    """Annihilation operator in the number basis: entry (n-1, n) = sqrt(n)."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    dim = n_max + 1
    mat = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    mat[ns - 1, ns] = np.sqrt(ns)
    return mat


def creation_matrix(n_max: int) -> np.ndarray:
    """Creation operator, the conjugate transpose of the annihilation matrix."""
    return annihilation_matrix(n_max).conj().T


def operator_exponential(generator: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling and squaring a truncated series.

    The generator is scaled so its 1-norm drops below 1, the series order is
    chosen so the first neglected term (the residual, i.e. the difference to
    the next-order partial sum) is below 5e-18, and the polynomial is
    evaluated blockwise (Paterson-Stockmeyer) to keep the matmul count small.
    Callers pass single-mode displacement generators and the tridiagonal
    pair-squeeze chains, both at most one mode dimension wide. Anti-Hermitian
    generators map to matrices that are unitary at the 1e-12 level.

    Raises
    ------
    DimensionError
        If the generator is not a square matrix.
    NumericalError
        If no series order within the cap meets the residual target; the
        exception carries the residual estimate.
    """
    gen = np.asarray(generator)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise DimensionError(f"generator must be square, got shape {gen.shape}")
    if not np.all(np.isfinite(gen.real)) or (np.iscomplexobj(gen) and not np.all(np.isfinite(gen.imag))):
        raise ValueError("generator has non-finite entries")
    # real-valued generators stay in real arithmetic; promoted on return
    work = gen.real.copy() if np.iscomplexobj(gen) and not gen.imag.any() else gen.copy()

    norm = float(np.linalg.norm(work, 1))
    squarings = int(max(0, math.ceil(math.log2(norm)))) if norm > 1.0 else 0
    scaled = work / (2.0 ** squarings)
    scaled_norm = norm / (2.0 ** squarings)

    # smallest degree whose next term a^(m+1)/(m+1)! is negligible
    degree = 1
    residual = scaled_norm * scaled_norm / 2.0
    while residual > 5e-18 and degree < _SERIES_MAX_ORDER:
        degree += 1
        residual *= scaled_norm / (degree + 1)
    if residual > 5e-18:
        raise NumericalError(
            f"exponential series residual {residual:.3e} at the order cap "
            f"{_SERIES_MAX_ORDER}",
            residual=residual,
        )

    dim = scaled.shape[0]
    block = max(1, math.isqrt(degree + 1))
    n_blocks = degree // block + 1
    coeffs = [1.0] * (n_blocks * block)
    for i in range(1, len(coeffs)):
        coeffs[i] = coeffs[i - 1] / i
    powers = [None, scaled]  # powers[i] = scaled^i for i = 1 .. block
    for i in range(2, block + 1):
        powers.append(powers[-1] @ scaled)

    def block_sum(j: int) -> np.ndarray:
        out = coeffs[j * block + 1] * powers[1] if block > 1 else np.zeros_like(scaled)
        for i in range(2, block):
            out += coeffs[j * block + i] * powers[i]
        out.flat[:: dim + 1] += coeffs[j * block]
        return out

    total = block_sum(n_blocks - 1)
    for j in range(n_blocks - 2, -1, -1):
        total = total @ powers[block]
        total += block_sum(j)
    for _ in range(squarings):
        total = total @ total
    return total.astype(complex, copy=False)


# ---------------------------------------------------------------------------
# truncation tail bounds
# ---------------------------------------------------------------------------

def coherent_tail_mass(alpha: complex, n_max: int) -> float:
    """Poisson occupation tail sum_{n > n_max} e^{-lam} lam^n / n!, lam = |alpha|^2."""
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    start = n_max + 1
    log_term = -lam + start * math.log(lam) - math.lgamma(start + 1)
    term = math.exp(log_term)
    total = 0.0
    n = start
    while n < start + 100_000:
        total += term
        n += 1
        term *= lam / n
        if n > lam and term < total * 1e-18:
            break
    return min(total, 1.0)


def squeezed_tail_mass(r: float, n_max: int) -> float:
    """Geometric occupation tail tanh^{2(n_max + 1)} r of a pair-squeezed state."""
    if r < 0.0:
        raise ValueError("squeezing magnitude must be non-negative")
    if r == 0.0:
        return 0.0
    return math.exp(2.0 * (n_max + 1) * log_tanh(r))


def coherent_cutoff(alpha: complex, tail_tol: float = DEFAULT_TAIL_TOL) -> FockCutoff:
    """Smallest cutoff whose Poisson occupation tail is below tail_tol."""
    _check_tol(tail_tol)
    lam = abs(alpha) ** 2
    n_max = int(lam + 10.0 * math.sqrt(lam + 1.0) + 10.0)
    while n_max > 0 and coherent_tail_mass(alpha, n_max - 1) <= tail_tol:
        n_max -= 1
    while coherent_tail_mass(alpha, n_max) > tail_tol:
        n_max += 1
    return FockCutoff(n_max)


def squeezed_cutoff(r: float, tail_tol: float = DEFAULT_TAIL_TOL) -> FockCutoff:
    """Smallest cutoff whose geometric occupation tail is below tail_tol."""
    _check_tol(tail_tol)
    if r < 0.0:
        raise ValueError("squeezing magnitude must be non-negative")
    if r == 0.0:
        return FockCutoff(0)
    log_q = 2.0 * log_tanh(r)
    n_max = max(0, math.ceil(math.log(tail_tol) / log_q) - 1)
    while squeezed_tail_mass(r, n_max) > tail_tol:
        n_max += 1
    return FockCutoff(n_max)


def coherent_product_cutoff(amplitudes, tail_tol: float = DEFAULT_TAIL_TOL) -> FockCutoff:
    """Smallest common cutoff holding every mode's Poisson tail below tail_tol / len(amplitudes).

    That equal split is the coherent builders' tail rule; it keeps the product's norm
    defect below ``tail_tol``.
    """
    per_mode = tail_tol / len(amplitudes)
    return FockCutoff(max(coherent_cutoff(amp, per_mode).n_max for amp in amplitudes))


def _check_tol(tail_tol: float):
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail tolerance must lie in (0, 1), got {tail_tol}")


def _check_squeezed_tail(r: float, cutoff: FockCutoff, tail_tol: float):
    """Raise TailMassError if the geometric tail beyond the cutoff exceeds tail_tol."""
    tail = squeezed_tail_mass(r, cutoff.n_max)
    if tail > tail_tol:
        needed = squeezed_cutoff(r, tail_tol).n_max
        raise TailMassError(
            f"geometric tail {tail:.3e} exceeds {tail_tol:.3e} at n_max={cutoff.n_max}; "
            f"need n_max >= {needed}",
            required_n_max=needed,
            measured=tail,
        )


# ---------------------------------------------------------------------------
# state builders
# ---------------------------------------------------------------------------

def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients e^{-|alpha|^2 / 2} alpha^n / sqrt(n!)."""
    out = np.empty(n_max + 1, dtype=complex)
    out[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def _coherent_product(amplitudes, cutoff: FockCutoff, tail_tol: float) -> np.ndarray:
    """Outer product of the modes' coherent amplitudes, one tensor axis per mode.

    TailMassError if a mode's tail exceeds the ``coherent_product_cutoff`` rule.
    """
    per_mode = tail_tol / len(amplitudes)
    tail = max(coherent_tail_mass(amp, cutoff.n_max) for amp in amplitudes)
    if tail > per_mode:
        needed = coherent_product_cutoff(amplitudes, tail_tol).n_max
        raise TailMassError(
            f"coherent tail {tail:.3e} exceeds its share {per_mode:.3e} of the tail budget "
            f"at n_max={cutoff.n_max}; need n_max >= {needed}",
            required_n_max=needed,
            measured=tail,
        )
    out = coherent_amplitudes(amplitudes[0], cutoff.n_max)
    for amp in amplitudes[1:]:
        out = np.multiply.outer(out, coherent_amplitudes(amp, cutoff.n_max))
    return out


def build_coherent_two_mode(
    params: DisplacementParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ComplexAmplitudeTensor:
    """Product coherent state |alpha>|beta_b> as a dense two-mode tensor.

    Each mode gets half the tail budget so the total norm defect stays below
    ``tail_tol``.
    """
    _check_tol(tail_tol)
    _check_budget(cutoff.dim ** 2, "two-mode state entries dim^2")
    amps = _coherent_product((params.alpha, params.beta_b), cutoff, tail_tol)
    tail_mass = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    return ComplexAmplitudeTensor(amps, (cutoff.dim, cutoff.dim), tail_mass)


def build_squeezed_vacuum(
    params: SqueezedStateParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ComplexAmplitudeTensor:
    """Pair-squeezed vacuum: diagonal tensor e^{i n theta} tanh^n r / cosh r."""
    _check_tol(tail_tol)
    _check_budget(cutoff.dim ** 2, "two-mode state entries dim^2")
    _check_squeezed_tail(params.r, cutoff, tail_tol)
    amps = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    if params.r == 0.0:
        amps[0, 0] = 1.0
    else:
        ns = np.arange(cutoff.dim)
        log_mag = ns * log_tanh(params.r) - math.log(math.cosh(params.r))
        amps[ns, ns] = np.exp(log_mag + 1j * ns * params.theta)
    tail_mass = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    return ComplexAmplitudeTensor(amps, (cutoff.dim, cutoff.dim), tail_mass)


def displacement_generator(alpha: complex, n_max: int) -> np.ndarray:
    """Single-mode anti-Hermitian generator alpha a^dag - alpha^* a."""
    a = annihilation_matrix(n_max)
    return alpha * a.conj().T - np.conj(alpha) * a


def _boundary_mass(amps: np.ndarray) -> float:
    """Occupation probability sitting on any top-level index of the tensor."""
    total = 0.0
    for axis in range(amps.ndim):
        edge = np.take(amps, amps.shape[axis] - 1, axis=axis)
        total += float(np.vdot(edge, edge).real)
    return total


def _check_boundary_leak(amps: np.ndarray, tail_tol: float, operation: str) -> float:
    """Boundary mass of ``amps``; TailMassError if ``operation`` leaked more than tail_tol."""
    leak = _boundary_mass(amps)
    if leak > tail_tol:
        raise TailMassError(
            f"{operation} pushed {leak:.3e} probability onto the truncation boundary "
            f"(tolerance {tail_tol:.3e}); increase n_max",
            measured=leak,
        )
    return leak


def apply_two_mode_displacement(
    state: ComplexAmplitudeTensor,
    params: DisplacementParams,
    tail_tol: float = 1e-10,
) -> ComplexAmplitudeTensor:
    """Displace each mode of a two-mode state by exponentiated ladder generators.

    The truncated generators are exactly anti-Hermitian, so the norm is
    preserved; contamination from the truncation wall is detected instead as
    probability accumulating on the top occupation level of either mode.
    """
    if len(state.mode_dims) != 2:
        raise DimensionError(f"expected a two-mode state, got factors {state.mode_dims}")
    dim_a, dim_b = state.mode_dims
    op_a = operator_exponential(displacement_generator(params.alpha, dim_a - 1))
    op_b = operator_exponential(displacement_generator(params.beta_b, dim_b - 1))
    amps = op_a @ state.amplitudes @ op_b.T
    leak = _check_boundary_leak(amps, tail_tol, "displacement")
    tail_mass = max(state.tail_mass, leak, 1.0 - float(np.vdot(amps, amps).real))
    return ComplexAmplitudeTensor(amps, state.mode_dims, tail_mass)


def reordered_displacement(
    params_s: SqueezedStateParams, params_d: DisplacementParams
) -> DisplacementParams:
    """Displacement that turns squeeze-then-displace into displace-then-squeeze.

    Conjugating a two-mode displacement through the pair squeeze mixes the
    modes with hyperbolic weights:

        S(z) D(alpha, beta) = D(alpha', beta') S(z),
        alpha' = alpha cosh r + conj(beta) e^{i theta} sinh r,
        beta'  = beta cosh r + conj(alpha) e^{i theta} sinh r.

    The small-r approximation alpha + z conj(beta) is not exact; the
    hyperbolic factors matter at finite squeezing (see the tests).
    """
    ch = math.cosh(params_s.r)
    sh = math.sinh(params_s.r)
    phase = complex(math.cos(params_s.theta), math.sin(params_s.theta))
    return DisplacementParams(
        params_d.alpha * ch + np.conj(params_d.beta_b) * phase * sh,
        params_d.beta_b * ch + np.conj(params_d.alpha) * phase * sh,
    )


def _squeeze_sectors(amplitudes: np.ndarray, params: SqueezedStateParams) -> np.ndarray:
    """Apply exp(z a^dag b^dag - z^* a b) to a square two-mode array, sector by sector.

    The pair generator couples |n, m> only to |n +- 1, m +- 1>, so it conserves
    k = n - m. In the truncated basis it splits into 2 dim - 1 chains
    |n, n - k>, each of length dim - |k|, on which it is tridiagonal: z sqrt(n m)
    below the diagonal and -z^* sqrt(n m) above it, at the upper state (n, m)
    of each link. Each chain is exponentiated on its own and applied to its
    sector; every entry of the result belongs to exactly one chain.
    """
    z = params.r * complex(math.cos(params.theta), math.sin(params.theta))
    dim = amplitudes.shape[0]
    out = np.empty_like(amplitudes)
    for k in range(1 - dim, dim):
        n = np.arange(max(k, 0), dim - max(-k, 0))
        m = n - k
        link = np.sqrt(n[1:] * m[1:])
        generator = np.diag(z * link, -1) - np.diag(np.conj(z) * link, 1)
        out[n, m] = operator_exponential(generator) @ amplitudes[n, m]
    return out


def build_squeezed_coherent(
    params_s: SqueezedStateParams,
    params_d: DisplacementParams,
    cutoff: FockCutoff,
    tail_tol: float = 1e-10,
) -> ComplexAmplitudeTensor:
    """Squeeze an already-displaced two-mode state, one conserved n_a - n_b sector at a time.

    The pair squeeze acts on the coherent product state chain by chain (see
    ``_squeeze_sectors``). Its work, the sum of the cubed chain lengths (about
    dim^4 / 2), is capped by requiring dim^4 <= the memory budget.
    """
    _check_tol(tail_tol)
    _check_budget(cutoff.dim ** 4, "pair-squeeze chain work dim^4")
    _check_squeezed_tail(params_s.r, cutoff, tail_tol)
    base = build_coherent_two_mode(params_d, cutoff, tail_tol=tail_tol)
    if params_s.r == 0.0:
        return base
    amps = _squeeze_sectors(base.amplitudes, params_s)
    leak = _check_boundary_leak(amps, tail_tol, "pair squeezing")
    tail_mass = max(base.tail_mass, leak, 1.0 - float(np.vdot(amps, amps).real))
    return ComplexAmplitudeTensor(amps, base.mode_dims, tail_mass)


def build_silbey_harris(
    params: SHParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ComplexAmplitudeTensor:
    """Qubit-boson superposition (|up>|f> - |down>|-f>) / sqrt(2) as a dense tensor.

    The qubit is the first tensor factor (dimension 2) so the qubit reduction
    is a single reshape-and-contract. The two coherent branches are each
    normalized, hence the overall 1/sqrt(2) normalizes the state regardless of
    the branch overlap.
    """
    _check_tol(tail_tol)
    dims = (2,) + (cutoff.dim,) * params.n_modes
    _check_budget(math.prod(dims), "qubit-boson state entries 2 dim^n_modes")
    amps = np.empty(dims, dtype=complex)
    amps[0] = _coherent_product(params.f, cutoff, tail_tol)
    amps[1] = -_coherent_product(tuple(-f_k for f_k in params.f), cutoff, tail_tol)
    amps /= math.sqrt(2.0)
    tail_mass = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    return ComplexAmplitudeTensor(amps, dims, tail_mass)
