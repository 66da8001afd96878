"""Exact construction of composite bosonic states in truncated occupation bases.

States are coefficient arrays built from raw ladder matrices, matrix
exponentials and exact recurrences, with analytic tail bounds guarding every
truncation. The pair-squeezed vacuum, born in Schmidt form, is kept as its d
Schmidt coefficients. The squeezed coherent state S(z) D(alpha, beta)|0, 0>
comes from the su(1,1) disentangled form of S(z) as a row recurrence that is
exact on every kept entry. The displacement generators couple only indices of
opposite parity, and ``operator_exponential`` turns such a generator into its
exponential through one half-size SVD. Every displacement generator
alpha a^dag - alpha^* a is the real a^dag - a scaled by |alpha| and rotated by
the phase of alpha, so a two-mode displacement decomposes a^dag - a once and
applies the phases entrywise. The point of this module is to be dumb and
obviously correct: it is the independent numerical route against which the
closed forms in :mod:`mek.analytic` are checked, so it must not share any
formula with them.

Every truncation check goes through ``_check_tail``: the geometric tail of
a pair squeeze, each coherent mode's share of the Poisson tail, the
probability a displacement pushes onto the boundary, and the mass a squeezed
coherent state puts outside its box. Each state records its own norm defect.

The dtype follows the data: a build whose parameters are all real (squeezing
angle 0, real displacements, every qubit-boson state) gives float64 arrays
from the ladder matrices through the exponentials to the amplitudes, and any
complex parameter gives complex128. The choice is made where a parameter
enters an array, and nothing is promoted afterwards.
"""

import math
import os
import sys
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from ._stable import log_tanh
from .exceptions import ContractError, DimensionError, MemoryBudgetError, TailMassError

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_LEAK_TOL = 1e-10  # probability an applied operator may push onto the truncation boundary
DEFAULT_MEM_BUDGET = 2 ** 32  # bytes
_MAX_EXACT_COUNT = 2 ** 53  # from here a float64 no longer tells n_max from n_max + 1


def check_budget(need: int, what: str):
    """MemoryBudgetError if ``what`` needs more than MEK_MEM_BUDGET bytes (default 2^32).

    ValueError unless MEK_MEM_BUDGET, when set, is a finite positive number.
    """
    raw = os.environ.get("MEK_MEM_BUDGET", "")
    try:
        budget = float(raw) if raw else DEFAULT_MEM_BUDGET
    except ValueError:
        budget = math.nan
    if not 0.0 < budget < math.inf:
        raise ValueError(f"MEK_MEM_BUDGET must be a positive number of bytes, got {raw!r}")
    if need > budget:
        raise MemoryBudgetError(
            f"{what} needs {need} bytes, over the budget of {int(budget)} bytes; "
            "raise MEK_MEM_BUDGET"
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
    f_dot_f: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(float(x) for x in self.f)
        if len(values) < 1:
            raise ValueError("at least one boson mode is required")
        if not all(math.isfinite(x) for x in values):
            raise ValueError(f"displacements must be finite, got {values}")
        object.__setattr__(self, "f", values)
        object.__setattr__(self, "f_dot_f", math.fsum(x * x for x in values))


class ComplexAmplitudeTensor:
    """Coefficient array of a pure state over truncated occupation bases.

    ``amplitudes`` has one axis per factor's occupation number, and its shape
    is ``mode_dims``: float64 for real or integer input, complex128 for complex.
    ``tail_mass`` is the probability the truncation neglects: the given bound
    (the boundary leak after an operator acted), floored at the norm defect
    1 - <psi|psi> that the state records itself. A state
    built in Schmidt form (``build_squeezed_vacuum``) stores only ``schmidt``,
    its diagonal amplitudes psi_nn, and ``amplitudes`` builds diag(schmidt) on
    first read, d^2 entries checked against ``check_budget`` (MemoryBudgetError
    past it); for every other state ``schmidt`` is None.
    """

    def __init__(self, amplitudes: np.ndarray, tail_mass: float = 0.0):
        amps = np.asarray(amplitudes)
        self._amplitudes = amps.astype(np.result_type(amps, np.float64), copy=False)
        self.mode_dims = self._amplitudes.shape
        self.tail_mass, self.schmidt = _floored(tail_mass, self._amplitudes), None

    @classmethod
    def _from_schmidt(cls, schmidt: np.ndarray) -> "ComplexAmplitudeTensor":
        state = cls.__new__(cls)
        state._amplitudes, state.schmidt = None, schmidt
        state.mode_dims, state.tail_mass = (schmidt.size,) * 2, _floored(0.0, schmidt)
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        if self._amplitudes is None:
            d = self.schmidt.size
            check_budget(self.schmidt.itemsize * d * d, f"the dense Schmidt-form state at d = {d}")
            self._amplitudes = np.diag(self.schmidt)
        return self._amplitudes

    def norm(self) -> float:
        """Euclidean norm sqrt(<psi|psi>)."""
        return float(np.linalg.norm(self.amplitudes.ravel()))


def _floored(tail_mass: float, amplitudes: np.ndarray) -> float:
    """``tail_mass``, or the norm defect 1 - <psi|psi> of ``amplitudes`` if larger."""
    return max(tail_mass, 0.0, 1.0 - float(np.vdot(amplitudes, amplitudes).real))


# ---------------------------------------------------------------------------
# ladder operators and matrix exponential
# ---------------------------------------------------------------------------

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

    The generator must be an (n, n) matrix of the CS form: in even/odd index
    order it reads G = [[0, A], [-A^H, 0]], so the even-even and odd-odd
    blocks are exactly zero and ``gen[1::2, ::2]`` equals -A^H exactly, with
    A = ``gen[::2, 1::2]``. Such a G is anti-Hermitian and couples only
    indices of opposite parity, as the displacement generator
    alpha a^dag - alpha^* a does. One SVD A = U S W^H then gives
    exp G = [[U cos S U^H, U sin S W^H], [-W sin S U^H, W cos S W^H]] exactly,
    with cos S padded with 1 on the longer (even) side; the result is unitary
    at the 1e-14 level.

    The result has the generator's dtype (integers give float64), so a real
    generator runs in real arithmetic throughout.

    ``scales``, a 1-D sequence of real finite numbers t, asks for the stack
    exp(t G), one per t, of shape ``(len(scales), n, n)``. A real t keeps the
    CS form, and t S are the singular values of t A, so one SVD of A serves
    every t and only the cosines and sines are per t. Without ``scales`` the
    result is exp G.

    Raises
    ------
    DimensionError
        If the generator is not a square matrix; a stack of them is refused too.
    ContractError
        If the generator is not in CS form; the message names the block that
        breaks it.
    ValueError
        If the generator has non-finite entries, or ``scales`` is given and
        is not a 1-D sequence of real finite numbers, or scales the
        generator's entries past the float range.
    """
    gen = np.asarray(generator)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise DimensionError(f"generator must be a square matrix, got shape {gen.shape}")
    if not np.all(np.isfinite(gen)):
        raise ValueError("generator has non-finite entries")
    if gen.dtype.kind in "biu":
        gen = gen.astype(np.float64)
    if scales is not None:
        scales = _check_scales(scales, gen)
    upper = gen[::2, 1::2]
    for block, broken in (
        ("even-even block is nonzero", np.any(gen[::2, ::2])),
        ("odd-odd block is nonzero", np.any(gen[1::2, 1::2])),
        (
            "odd-even block is not minus the conjugate transpose of the even-odd block",
            not np.array_equal(gen[1::2, ::2], -np.conj(upper).T),
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
    u_odd = u[:, :n_odd]
    out = np.empty(sing.shape[:-1] + gen.shape, dtype=gen.dtype)
    out[..., ::2, ::2] = (u * cos[..., None, :]) @ np.conj(u).T
    out[..., ::2, 1::2] = (u_odd * np.sin(sing)[..., None, :]) @ wh
    out[..., 1::2, ::2] = -np.conj(out[..., ::2, 1::2]).swapaxes(-1, -2)
    out[..., 1::2, 1::2] = (np.conj(wh).T * cos[..., None, :n_odd]) @ wh
    return out


def _check_scales(scales, gen: np.ndarray) -> np.ndarray:
    """``scales`` as a float64 vector; ValueError unless ``operator_exponential`` can take it."""
    values = np.asarray(scales)
    if values.ndim != 1 or values.dtype.kind not in "biuf":
        raise ValueError(f"scales must be a 1-D sequence of real numbers, got {scales!r}")
    values = values.astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"scales must be finite, got {scales!r}")
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
    """Smallest cutoff whose Poisson occupation tail is below tail_tol.

    An amplitude the builders cannot represent (see ``coherent_amplitudes``)
    is a ValueError before any search, which would otherwise take a step per
    occupation number near |alpha|^2.
    """
    _check_tol(tail_tol)
    _vacuum_coefficient(alpha)
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
    estimate = math.log(tail_tol) / log_q if log_q < 0.0 else math.inf
    if estimate >= _MAX_EXACT_COUNT:
        raise ValueError(
            f"squeezing r = {r:g} needs n_max ~ {estimate:.3g} for the tail {tail_tol:g}, "
            "past 2^53, where float64 stops counting occupation numbers"
        )
    n_max = max(0, math.ceil(estimate) - 1)
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


def _check_tail(what: str, tail: float, tol: float, n_max: int, rule=None):
    """TailMassError if ``tail``, the probability a truncation at ``n_max`` drops, exceeds ``tol``.

    ``rule``, for a truncation with a cutoff rule, returns the smallest
    FockCutoff that keeps the tail within ``tol``; it runs only on failure,
    and the error names its n_max.
    """
    if tail > tol:
        needed = rule().n_max if rule else None
        hint = "increase n_max" if needed is None else f"need n_max >= {needed}"
        raise TailMassError(
            f"{what} {tail:.3e} exceeds {tol:.3e} at n_max={n_max}; {hint}",
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


def _coherent_products(branches, cutoff: FockCutoff, tail_tol: float) -> list:
    """Outer product of each branch's coherent amplitudes, one tensor axis per mode.

    The branches agree in modulus mode by mode, so one check of the first
    branch's Poisson tails against the ``coherent_product_cutoff`` rule covers all.
    """
    first = branches[0]
    tail = max(coherent_tail_mass(amp, cutoff.n_max) for amp in first)
    _check_tail("per-mode coherent tail", tail, tail_tol / len(first), cutoff.n_max,
                lambda: coherent_product_cutoff(first, tail_tol))
    return [reduce(np.multiply.outer, [coherent_amplitudes(amp, cutoff.n_max) for amp in branch])
            for branch in branches]


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
    (amps,) = _coherent_products([(params.alpha, params.beta_b)], cutoff, tail_tol)
    return ComplexAmplitudeTensor(amps)


def build_squeezed_vacuum(
    params: SqueezedStateParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ComplexAmplitudeTensor:
    """Pair-squeezed vacuum in Schmidt form, stored as psi_nn = e^{i n theta} tanh^n r / cosh r."""
    _check_tol(tail_tol)
    _check_tail("geometric tail", squeezed_tail_mass(params.r, cutoff.n_max), tail_tol,
                cutoff.n_max, lambda: squeezed_cutoff(params.r, tail_tol))
    if params.r == 0.0:
        schmidt = np.zeros(cutoff.dim, dtype=float if params.theta == 0.0 else complex)
        schmidt[0] = 1.0
    else:
        ns = np.arange(cutoff.dim)
        exponent = ns * log_tanh(params.r) - math.log(math.cosh(params.r))
        if params.theta != 0.0:
            exponent = exponent + 1j * ns * params.theta
        schmidt = np.exp(exponent)
    return ComplexAmplitudeTensor._from_schmidt(schmidt)


def displacement_generator(alpha: complex, n_max: int) -> np.ndarray:
    """Single-mode anti-Hermitian generator alpha a^dag - alpha^* a; float64 for real alpha."""
    alpha = _real_if_exact(alpha)
    a = annihilation_matrix(n_max)
    return alpha * a.T - np.conj(alpha) * a


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
    """Displace each mode of a square two-mode state by exponentiated ladder generators.

    Both modes share the real generator a^dag - a of their dimension, so one
    ``operator_exponential`` call, one real SVD, gives the stack
    exp(|alpha| (a^dag - a)), exp(|beta| (a^dag - a)); each mode's phase then
    enters entrywise (``_phased``). Real amplitudes give float64 operators,
    complex ones complex128. Every builder makes square states; any other
    state is a DimensionError naming its factors.

    The truncated generators are exactly anti-Hermitian, so the norm is
    preserved; contamination from the truncation wall is detected instead as
    probability accumulating on the top occupation level of either mode.
    """
    if len(state.mode_dims) != 2 or state.mode_dims[0] != state.mode_dims[1]:
        raise DimensionError(f"expected a square two-mode state, got factors {state.mode_dims}")
    dim = state.mode_dims[0]
    amplitudes = (params.alpha, params.beta_b)
    unphased = operator_exponential(
        displacement_generator(1.0, dim - 1), scales=[abs(amp) for amp in amplitudes]
    )
    op_a, op_b = (_phased(op, amp) for op, amp in zip(unphased, amplitudes))
    # op_a diag(s) = op_a * s, bit for bit, with no d x d state
    left = op_a @ state.amplitudes if state.schmidt is None else op_a * state.schmidt
    amps = left @ op_b.T
    edges = (np.take(amps, dim - 1, axis=axis) for axis, dim in enumerate(amps.shape))
    leak = sum(float(np.vdot(edge, edge).real) for edge in edges)
    _check_tail("boundary leak", leak, tail_tol, dim - 1)
    return ComplexAmplitudeTensor(amps, max(state.tail_mass, leak))


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


def build_squeezed_coherent(
    params_s: SqueezedStateParams,
    params_d: DisplacementParams,
    cutoff: FockCutoff,
    tail_tol: float = DEFAULT_LEAK_TOL,
) -> ComplexAmplitudeTensor:
    """S(z) D(alpha, beta)|0, 0>, exact on the kept block, from the su(1,1) disentangled form.

    S(z) = e^{tau a^dag b^dag} cosh r^{-(n_a + n_b + 1)} e^{-tau^* a b} with
    tau = e^{i theta} tanh r (Truax, Phys. Rev. D 31 (1985) 1988). The right
    factor is the scalar e^{-tau^* alpha beta} on the coherent product, and
    a e^{tau a^dag b^dag} = e^{tau a^dag b^dag} (a + tau b^dag), so each row
    follows from the one above:

        psi[0, m] = K (beta / cosh r)^m / sqrt(m!),
        psi[n, m] = alpha / (cosh r sqrt(n)) psi[n-1, m] + tau sqrt(m / n) psi[n-1, m-1],
        K = e^{-tau^* alpha beta - |alpha|^2 / 2 - |beta|^2 / 2} / cosh r.

    No kept entry depends on one past the cutoff, so the norm defect is the
    mass the state puts outside the box; TailMassError if it, or the
    geometric tail, exceeds ``tail_tol``. Opposed squeezing and displacement
    phases cancel digits: 5.6e-8 at alpha = beta = 4, r = 1.2, theta = pi
    (n_max = 100), against 1e-15 at alpha = beta = 2. r = 0 is
    ``build_coherent_two_mode``.
    """
    _check_tol(tail_tol)
    _check_tail("geometric tail", squeezed_tail_mass(params_s.r, cutoff.n_max), tail_tol,
                cutoff.n_max, lambda: squeezed_cutoff(params_s.r, tail_tol))
    if params_s.r == 0.0:
        return build_coherent_two_mode(params_d, cutoff, tail_tol=tail_tol)
    cosh_r = math.cosh(params_s.r)
    phase = complex(math.cos(params_s.theta), math.sin(params_s.theta))
    tau = _real_if_exact(math.tanh(params_s.r) * phase)
    alpha, beta = _real_if_exact(params_d.alpha), _real_if_exact(params_d.beta_b)
    k = np.exp(-tau.conjugate() * alpha * beta - 0.5 * (abs(alpha) ** 2 + abs(beta) ** 2)) / cosh_r
    if abs(k) < sys.float_info.min:  # a subnormal start would scale every entry's error
        raise ValueError(f"squeezed coherent vacuum amplitude {abs(k):.3g} underflows float64")
    root_m = np.sqrt(np.arange(cutoff.dim))
    psi = np.empty((cutoff.dim,) * 2, dtype=np.result_type(type(tau), type(alpha), type(beta)))
    psi[0, 0] = k
    psi[0, 1:] = k * np.cumprod(beta / (cosh_r * root_m[1:]))
    raise_b = tau * root_m[1:]
    for n in range(1, cutoff.dim):
        psi[n] = (alpha / (cosh_r * root_m[n])) * psi[n - 1]
        psi[n, 1:] += (raise_b / root_m[n]) * psi[n - 1, :-1]
    state = ComplexAmplitudeTensor(psi)
    _check_tail("mass outside the box", state.tail_mass, tail_tol, cutoff.n_max)
    return state


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
    amps = np.stack(_coherent_products([params.f, [-f_k for f_k in params.f]], cutoff, tail_tol))
    amps[1] *= -1.0
    amps /= math.sqrt(2.0)
    return ComplexAmplitudeTensor(amps)
