"""Exact construction of composite bosonic states in truncated occupation bases.

States are dense coefficient arrays built from raw ladder matrices and matrix
exponentials, with analytic tail bounds guarding every truncation. The
generators the builders exponentiate (displacements and pair-squeeze chains)
couple only indices of opposite parity, and ``operator_exponential`` turns
such a generator into its exponential through one half-size SVD. Every
displacement generator alpha a^dag - alpha^* a is the real a^dag - a scaled
by |alpha| and rotated by the phase of alpha, so a two-mode displacement
decomposes a^dag - a once and applies the phases entrywise. The point
of this module is to be dumb and obviously correct: it is the independent
numerical route against which the closed forms in :mod:`mek.analytic` are
checked, so it must not share any formula with them.

The dtype follows the data: a build whose parameters are all real (squeezing
angle 0, real displacements, every qubit-boson state) gives float64 arrays
from the ladder matrices through the exponentials to the amplitudes, and any
complex parameter gives complex128. The choice is made where a parameter
enters an array, and nothing is promoted afterwards.
"""

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._stable import log_tanh
from .exceptions import ContractError, DimensionError, MemoryBudgetError, TailMassError

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_LEAK_TOL = 1e-10  # probability an applied operator may push onto the truncation boundary
DEFAULT_MEM_BUDGET = 2 ** 28  # state entries or pair-squeeze work, not bytes
_CHAIN_GROUP = 8  # pair-squeeze chains per operator_exponential call


def memory_budget() -> int:
    """Cap on dim^2 two-mode entries, 2 dim^n qubit-boson entries and the pair-squeeze work.

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
    ``mode_dims``. It is stored as float64 when the input is real (or
    integer) and as complex128 when it is complex; real amplitudes are a
    complex state whose imaginary parts are all exactly zero. ``tail_mass``
    records the probability weight the truncation neglects (1 - <psi|psi>, or
    the measured boundary contamination after an operator was applied in the
    truncated space).
    """

    amplitudes: np.ndarray
    mode_dims: tuple
    tail_mass: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        self.amplitudes = amps.astype(np.result_type(amps, np.float64), copy=False)
        self.mode_dims = tuple(int(d) for d in self.mode_dims)
        if self.amplitudes.shape != self.mode_dims:
            raise DimensionError(
                f"amplitude shape {self.amplitudes.shape} does not match mode_dims {self.mode_dims}"
            )

    def norm(self) -> float:
        """Euclidean norm sqrt(<psi|psi>)."""
        return float(np.linalg.norm(self.amplitudes.ravel()))


# ---------------------------------------------------------------------------
# ladder operators and matrix exponential
# ---------------------------------------------------------------------------

def _is_diagonal_only(matrix: np.ndarray) -> bool:
    """True for a square matrix with no nonzero off-diagonal entry.

    NaN and inf count as nonzero, so a non-finite off-diagonal entry fails.
    """
    rows, cols = matrix.shape
    return rows == cols and np.count_nonzero(matrix) == np.count_nonzero(matrix.diagonal())


def _real_if_exact(value: complex):
    """``value`` as a float when its imaginary part is exactly 0, else as a complex.

    The arrays a parameter enters take its type, so real parameters keep a
    build in float64.
    """
    value = complex(value)
    return value.real if value.imag == 0.0 else value


def annihilation_matrix(n_max: int) -> np.ndarray:
    """Annihilation operator in the number basis: entry (n-1, n) = sqrt(n), float64."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    dim = n_max + 1
    mat = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    mat[ns - 1, ns] = np.sqrt(ns)
    return mat


def operator_exponential(generator: np.ndarray, scales=None) -> np.ndarray:
    """Dense exponential of a CS-form generator, in closed form from one half-size SVD.

    The generator must have the CS form: in even/odd index order it reads
    G = [[0, A], [-A^H, 0]], so the even-even and odd-odd blocks are exactly
    zero and ``gen[..., 1::2, ::2]`` equals -A^H exactly, with
    A = ``gen[..., ::2, 1::2]``. Such a G is anti-Hermitian and couples only
    indices of opposite parity, as the displacement generator
    alpha a^dag - alpha^* a and the pair-squeeze chains do. One SVD
    A = U S W^H then gives exp G = [[U cos S U^H, U sin S W^H],
    [-W sin S U^H, W cos S W^H]] exactly, with cos S padded with 1 on the
    longer (even) side; the result is unitary at the 1e-14 level.

    The result has the generator's dtype (integers give float64), so a real
    generator runs in real arithmetic throughout. A stack of shape
    ``(..., n, n)`` is exponentiated matrix by matrix, as in ``np.linalg``; a
    single ``(n, n)`` matrix is the stack of one.

    ``scales``, a 1-D sequence of real finite numbers t, asks for the stack
    exp(t G), one per t, of shape ``(len(scales), n, n)`` for a single
    ``(n, n)`` generator. A real t keeps the CS form, and t S are the
    singular values of t A, so one SVD of A serves every t and only the
    cosines and sines are per t. Without ``scales`` the result is exp G.

    Raises
    ------
    DimensionError
        If the generator is not a square matrix or a stack of them.
    ContractError
        If the generator, or any member of a stack, is not in CS form; the
        message names the block that breaks it.
    ValueError
        If the generator has non-finite entries, or ``scales`` is given and
        is not a 1-D sequence of real finite numbers, comes with a stack of
        generators, or scales the generator's entries past the float range.
    """
    gen = np.asarray(generator)
    if gen.ndim < 2 or gen.shape[-1] != gen.shape[-2]:
        raise DimensionError(f"generator must be square or a stack of squares, got {gen.shape}")
    if not np.all(np.isfinite(gen)):
        raise ValueError("generator has non-finite entries")
    if gen.dtype.kind in "biu":
        gen = gen.astype(np.float64)
    if scales is not None:
        scales = _check_scales(scales, gen)
    upper = gen[..., ::2, 1::2]
    for block, broken in (
        ("even-even block is nonzero", np.any(gen[..., ::2, ::2])),
        ("odd-odd block is nonzero", np.any(gen[..., 1::2, 1::2])),
        (
            "odd-even block is not minus the conjugate transpose of the even-odd block",
            not np.array_equal(gen[..., 1::2, ::2], -np.conj(upper).swapaxes(-1, -2)),
        ),
    ):
        if broken:
            raise ContractError(f"generator is not in CS form [[0, A], [-A^H, 0]]: its {block}")

    u, sing, wh = np.linalg.svd(upper)  # u: even x even, wh: odd x odd
    if scales is not None:
        sing = np.multiply.outer(scales, sing)  # one row of angles per t
    n_odd = sing.shape[-1]
    cos = np.ones(sing.shape[:-1] + u.shape[-1:])
    cos[..., :n_odd] = np.cos(sing)
    u_odd = u[..., :n_odd]
    out = np.empty(sing.shape[:-1] + gen.shape[-2:], dtype=gen.dtype)
    out[..., ::2, ::2] = (u * cos[..., None, :]) @ np.conj(u).swapaxes(-1, -2)
    out[..., ::2, 1::2] = (u_odd * np.sin(sing)[..., None, :]) @ wh
    out[..., 1::2, ::2] = -np.conj(out[..., ::2, 1::2]).swapaxes(-1, -2)
    out[..., 1::2, 1::2] = (np.conj(wh).swapaxes(-1, -2) * cos[..., None, :n_odd]) @ wh
    return out


def _check_scales(scales, gen: np.ndarray) -> np.ndarray:
    """``scales`` as a float64 vector; ValueError unless ``operator_exponential`` can take it."""
    values = np.asarray(scales)
    if values.ndim != 1 or values.dtype.kind not in "biuf":
        raise ValueError(f"scales must be a 1-D sequence of real numbers, got {scales!r}")
    values = values.astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"scales must be finite, got {scales!r}")
    if gen.ndim != 2:
        raise ValueError(f"scales need a single generator, got a stack of shape {gen.shape}")
    largest = float(np.abs(values).max(initial=0.0)) * float(np.abs(gen).max(initial=0.0))
    if not math.isfinite(largest):
        raise ValueError("scales times the generator's entries overflow")
    return values


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
    defect below ``tail_tol``. An amplitude the builders cannot represent (see
    ``coherent_amplitudes``) is a ValueError before any search, which would
    otherwise take a step per occupation number near |alpha|^2.
    """
    for amp in amplitudes:
        _vacuum_coefficient(amp)
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

def _vacuum_coefficient(alpha: complex) -> float:
    """e^{-|alpha|^2 / 2}; ValueError above |alpha| ~ 37.64, where it is subnormal.

    The recurrence of ``coherent_amplitudes`` would start from it and lose the
    state's norm, all of it once it is 0 (from |alpha| ~ 38.6).
    """
    vacuum = math.exp(-0.5 * abs(alpha) ** 2)
    if vacuum < sys.float_info.min:
        limit = math.sqrt(-2.0 * math.log(sys.float_info.min))
        raise ValueError(
            f"coherent amplitude |alpha| = {abs(alpha):g} is above {limit:.4g}, where "
            "e^(-|alpha|^2/2) underflows float64"
        )
    return vacuum


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients e^{-|alpha|^2 / 2} alpha^n / sqrt(n!); float64 for real alpha.

    ValueError for |alpha| above ~37.64, where e^{-|alpha|^2 / 2} underflows.
    """
    alpha = _real_if_exact(alpha)
    out = np.empty(n_max + 1, dtype=type(alpha))
    out[0] = _vacuum_coefficient(alpha)
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
    """Pair-squeezed vacuum: diagonal tensor e^{i n theta} tanh^n r / cosh r; real at theta = 0."""
    _check_tol(tail_tol)
    _check_budget(cutoff.dim ** 2, "two-mode state entries dim^2")
    _check_squeezed_tail(params.r, cutoff, tail_tol)
    if params.r == 0.0:
        schmidt = np.zeros(cutoff.dim, dtype=float if params.theta == 0.0 else complex)
        schmidt[0] = 1.0
    else:
        ns = np.arange(cutoff.dim)
        exponent = ns * log_tanh(params.r) - math.log(math.cosh(params.r))
        if params.theta != 0.0:
            exponent = exponent + 1j * ns * params.theta
        schmidt = np.exp(exponent)
    tail_mass = max(0.0, 1.0 - float(np.vdot(schmidt, schmidt).real))
    return ComplexAmplitudeTensor(np.diag(schmidt), (cutoff.dim, cutoff.dim), tail_mass)


def displacement_generator(alpha: complex, n_max: int) -> np.ndarray:
    """Single-mode anti-Hermitian generator alpha a^dag - alpha^* a; float64 for real alpha."""
    alpha = _real_if_exact(alpha)
    a = annihilation_matrix(n_max)
    return alpha * a.T - np.conj(alpha) * a


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


def _phased(op: np.ndarray, amplitude: complex) -> np.ndarray:
    """exp(alpha a^dag - alpha^* a) from op = exp(|alpha| (a^dag - a)), alpha = ``amplitude``.

    With alpha = |alpha| e^{i phi} the generator is D |alpha| (a^dag - a) D^*,
    D = diag(e^{i n phi}), so entry (m, n) of the exponential is
    e^{i (m - n) phi} op[m, n]. The pattern is read from one table over
    m - n, so an entry's phase error grows with its distance from the
    diagonal, where the entries are small. A real alpha has phases +-1 and
    keeps ``op``'s dtype; alpha >= 0 returns ``op`` itself.
    """
    amplitude = _real_if_exact(amplitude)
    if isinstance(amplitude, float) and amplitude >= 0.0:
        return op
    dim = op.shape[-1]
    lags = np.arange(1 - dim, dim)  # m - n, rising
    if isinstance(amplitude, float):
        table = np.where(lags % 2, -1.0, 1.0)
    else:
        table = np.exp(1j * math.atan2(amplitude.imag, amplitude.real) * lags)
    # pattern[m, n] = table[dim - 1 + m - n], a Toeplitz view of the table
    pattern = np.lib.stride_tricks.sliding_window_view(table[::-1], dim)[::-1]
    return op * pattern


def apply_two_mode_displacement(
    state: ComplexAmplitudeTensor,
    params: DisplacementParams,
    tail_tol: float = DEFAULT_LEAK_TOL,
) -> ComplexAmplitudeTensor:
    """Displace each mode of a two-mode state by exponentiated ladder generators.

    Both modes share the real generator a^dag - a of their dimension, so a
    square state takes one ``operator_exponential`` call, one real SVD, for
    the stack exp(|alpha| (a^dag - a)), exp(|beta| (a^dag - a)); each mode's
    phase then enters entrywise (``_phased``). A state whose modes differ in
    dimension takes one call per mode. Real amplitudes give float64
    operators, complex ones complex128.

    The truncated generators are exactly anti-Hermitian, so the norm is
    preserved; contamination from the truncation wall is detected instead as
    probability accumulating on the top occupation level of either mode.
    """
    if len(state.mode_dims) != 2:
        raise DimensionError(f"expected a two-mode state, got factors {state.mode_dims}")
    dim_a, dim_b = state.mode_dims
    amplitudes = (params.alpha, params.beta_b)
    if dim_a == dim_b:
        unphased = operator_exponential(
            displacement_generator(1.0, dim_a - 1), scales=[abs(amp) for amp in amplitudes]
        )
    else:
        unphased = [
            operator_exponential(displacement_generator(1.0, dim - 1), scales=[abs(amp)])[0]
            for dim, amp in zip(state.mode_dims, amplitudes)
        ]
    op_a, op_b = (_phased(op, amp) for op, amp in zip(unphased, amplitudes))
    if _is_diagonal_only(state.amplitudes):  # op_a diag(s) = op_a * s, bit for bit
        amps = (op_a * state.amplitudes.diagonal()) @ op_b.T
    else:
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


def pair_chain_stack(z: complex, dim: int, k0: int) -> np.ndarray:
    """Pair-squeeze generators of the chain group k = k0, k0 + 1, ... of a dim x dim state.

    Chain k holds the states |k + j, j>, j = 0 .. dim - k - 1, and its
    generator is tridiagonal: z sqrt((k + j) j) at (j, j - 1) and the negated
    conjugate at (j - 1, j). The group's ``_CHAIN_GROUP`` chains (fewer at
    the end) are zero-padded to the longest, chain k0, of length dim - k0. A
    real z gives float64.
    """
    size = dim - k0
    k = np.arange(k0, min(k0 + _CHAIN_GROUP, dim))[:, None]
    j = np.arange(size)
    link = np.where(j < dim - k, np.sqrt((k + j) * j), 0.0)[:, 1:]
    generator = np.zeros((len(k), size, size), dtype=type(z))
    generator[:, j[1:], j[:-1]] = z * link
    generator[:, j[:-1], j[1:]] = -np.conj(z) * link
    return generator


def _squeeze_sectors(amplitudes: np.ndarray, params: SqueezedStateParams) -> np.ndarray:
    """Apply exp(z a^dag b^dag - z^* a b) to a square two-mode array, sector by sector.

    The pair generator couples |n, m> only to |n +- 1, m +- 1>, so it conserves
    k = n - m. In the truncated basis it splits into 2 dim - 1 chains, each of
    length dim - |k|, on which it is tridiagonal: z sqrt(n m) below the diagonal
    and -z^* sqrt(n m) above it, at the upper state (n, m) of each link. The
    chains |k + j, j> and |j, k + j> of sectors +k and -k carry the same links
    in the same order, so only the dim chains k >= 0 are exponentiated, each
    applied to both sectors as two columns. ``_CHAIN_GROUP`` consecutive chains
    go to ``operator_exponential`` as one stack (``pair_chain_stack``),
    zero-padded to the longest of them. The padding is harmless: the padded
    entries of the columns are zero, and the padded rows of the product are
    never scattered back. Every entry of the result belongs to exactly one
    chain.

    At theta = 0 the chains are real, so they are exponentiated in float64;
    the result is float64 when the input is too, and complex128 otherwise.
    """
    z = _real_if_exact(params.r * complex(math.cos(params.theta), math.sin(params.theta)))
    dim = amplitudes.shape[0]
    out = np.empty(amplitudes.shape, dtype=np.result_type(amplitudes, type(z)))
    for k0 in range(0, dim, _CHAIN_GROUP):
        generator = pair_chain_stack(z, dim, k0)
        size = dim - k0  # length of chain k0, the longest in its group
        k = np.arange(k0, k0 + len(generator))[:, None]
        inside = np.arange(size) < dim - k  # chain k holds the states j = 0 .. dim - k - 1
        chain, m = np.nonzero(inside)
        n = k0 + chain + m
        columns = np.zeros((len(k), size, 2), dtype=amplitudes.dtype)
        columns[chain, m, 0] = amplitudes[n, m]
        columns[chain, m, 1] = amplitudes[m, n]
        moved = operator_exponential(generator) @ columns
        out[n, m] = moved[chain, m, 0]
        out[m, n] = moved[chain, m, 1]
    return out


def _pair_squeeze_work(dim: int) -> int:
    """Sum of g L^3 over the stacked chain groups of ``_squeeze_sectors``: about dim^4 / 4.

    A group of g chains is padded to its longest chain, of length L.
    """
    return sum(
        min(_CHAIN_GROUP, dim - k0) * (dim - k0) ** 3 for k0 in range(0, dim, _CHAIN_GROUP)
    )


def build_squeezed_coherent(
    params_s: SqueezedStateParams,
    params_d: DisplacementParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_LEAK_TOL,
) -> ComplexAmplitudeTensor:
    """Squeeze an already-displaced two-mode state, one conserved n_a - n_b sector at a time.

    The pair squeeze acts on the coherent product state chain by chain (see
    ``_squeeze_sectors``). Its work, g L^3 for each stacked group of g chains
    padded to length L, summed over the groups (about dim^4 / 4), must not
    exceed the memory budget.
    """
    _check_tol(tail_tol)
    _check_budget(_pair_squeeze_work(cutoff.dim), "pair-squeeze chain work sum g L^3")
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
    amps = np.stack((
        _coherent_product(params.f, cutoff, tail_tol),
        -_coherent_product(tuple(-f_k for f_k in params.f), cutoff, tail_tol),
    ))
    amps /= math.sqrt(2.0)
    tail_mass = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    return ComplexAmplitudeTensor(amps, dims, tail_mass)
