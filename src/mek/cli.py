"""Command-line front end: entropy sweeps, an invariant battery, thermal tables.

Output is deterministic: identical configuration gives byte-identical files
(``verify`` draws its parameters from ``--seed``), and the CSV column order
never changes between runs. The configuration of the oracle columns includes
the BLAS thread count, which sets the eigensolver's summation order.

Every oracle point, in ``sweep --oracle`` and in ``verify``, first fixes an
``OraclePlan``: the Fock cutoff, the builders' tail and boundary-leak
tolerances and the spectrum's rank tolerance, from one rule per kind of state
(squeezed, displaced, coherent product). Builders and reductions take every
tolerance from the plan, and the rule refuses a point whose peak bytes pass
MEK_MEM_BUDGET before anything is built.
"""

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import analytic, fockspace, spectra, thermo
from .exceptions import MemoryBudgetError, TailMassError
from .fockspace import DisplacementParams, FockCutoff, SHParams, SqueezedStateParams

SWEEP_HEADER = ("param", "mu", "S_mu", "S_vn", "S_2", "purity", "S_inf", "beta_eff", "Z", "F")
SWEEP_ORACLE_HEADER = SWEEP_HEADER + ("oracle_S_mu", "abs_dev")
THERMO_HEADER = ("param", "beta_eff", "Z", "ln_Z", "S_inf", "F", "p_max", "lnZ_matches_Sinf")
ORACLE_DEV_LIMIT = 1e-8

# displacements (alpha, beta) of the displaced state families; the entropy
# columns do not depend on them, the oracle columns exercise that invariance
SWEEP_DISPLACEMENT = DisplacementParams(0.5, 0.3)
SH_SWEEP_MODES = 2


@dataclass
class SweepConfig:
    """Validated description of one sweep run."""

    state_family: str
    parameter_grid: list
    mu_list: list
    oracle: bool = False
    tail_tolerance: float = fockspace.DEFAULT_TAIL_TOL
    hbar_omega: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if self.state_family not in FAMILIES:
            raise ValueError(f"unknown state family {self.state_family!r}")
        if not self.parameter_grid or not self.mu_list:
            raise ValueError("parameter and mu grids must be non-empty")
        if not all(0.0 <= p < math.inf for p in self.parameter_grid):
            raise ValueError("grid parameters must be finite and non-negative")
        if not (0.0 < self.hbar_omega < math.inf and 0.0 < self.delta < math.inf):
            raise ValueError("level spacing and gap must be finite and positive")
        # the builders leave a norm defect up to the tail tolerance, and
        # partial_trace rejects a trace defect from spectra.TRACE_TOL on
        if not 0.0 < self.tail_tolerance <= spectra.TRACE_TOL:
            raise ValueError(f"tail tolerance must lie in (0, {spectra.TRACE_TOL:g}]")


def parse_grid(text: str) -> list:
    """Parse 'start:stop:count' (inclusive linspace) or a comma list of values."""
    if ":" in text:
        try:
            start, stop, count = text.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:  # a field missing, or one that is not a number
            count = 0
        if count < 1:
            raise ValueError(f"grid {text!r} must read 'start:stop:count' with a count >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"empty grid specification {text!r}")
    return values


def parse_mu_list(text: str) -> list:
    return [analytic.parse_renyi_order(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# oracle pipelines (plan -> truncated basis -> partial trace -> LAPACK spectrum)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OraclePlan:
    """Every truncation decision of one oracle point, made by one rule per kind of state.

    ``cutoff`` is each mode's Fock cutoff, ``tail_tol`` the occupation tail the
    builders may drop, ``leak_tol`` the probability an applied operator may push
    onto the truncation boundary, ``rank_tol`` the reduced spectrum's rank
    tolerance. The squeezed families keep every eigenvalue (0.0): the low-order
    entropies need the whole geometric tail. The coherent and qubit-boson
    reductions have rank 1 or 2, so they drop entries below
    spectra.DEFAULT_RANK_TOL as round-off. Each rule checks its route's peak
    bytes against MEK_MEM_BUDGET (``_fitted``).
    """

    cutoff: FockCutoff
    tail_tol: float
    leak_tol: float = fockspace.DEFAULT_LEAK_TOL
    rank_tol: float = 0.0

    @classmethod
    def squeezed(cls, r: float, tail_tol: float, mu_list=()) -> "OraclePlan":
        """Pair-squeezed vacuum in Schmidt form, on ``_order_tail_tol``'s occupation tail."""
        tol = _order_tail_tol(tail_tol, mu_list)
        return cls(_fitted(fockspace.squeezed_cutoff(r, tol), 1), tol)

    @classmethod
    def displaced(cls, r: float, disp: DisplacementParams, tail_tol: float) -> "OraclePlan":
        """Displaced pair-squeezed state: the squeezed cutoff plus displacement headroom.

        The headroom keeps each displacement's own coherent tail below
        ``tail_tol``; a guard band of 4 levels sits on top. It is sized first, so an
        amplitude past the coherent limit is reported before a squeezing past 2^53 levels.
        """
        pad = max(fockspace.coherent_cutoff(a, tail_tol).n_max for a in (disp.alpha, disp.beta_b))
        base = fockspace.squeezed_cutoff(r, tail_tol).n_max
        return cls(_fitted(FockCutoff(base + pad + 4), 2, (disp.alpha, disp.beta_b)), tail_tol)

    @classmethod
    def coherent_product(cls, amplitudes, tail_tol: float) -> "OraclePlan":
        """Product of coherent states, one per amplitude: the coherent builders' tail rule."""
        cutoff = fockspace.coherent_product_cutoff(amplitudes, tail_tol)
        _fitted(cutoff, len(amplitudes), amplitudes)
        return cls(cutoff, tail_tol, rank_tol=spectra.DEFAULT_RANK_TOL)


def _order_tail_tol(tail_tol: float, mu_list) -> float:
    """The occupation tail of a squeezed state whose orders ``mu_list`` keep ``tail_tol``.

    The mu-th powers of a geometric spectrum are again geometric; for orders
    below 1 the power series decays more slowly than the probabilities, so
    bounding its tail at ``tail_tol`` requires an occupation tail of
    tail_tol^(1/mu). ValueError if that tail underflows to 0 in float64.
    """
    mu = min((mu for mu in mu_list if 0.0 < mu < 1.0), default=1.0)
    tol = tail_tol ** (1.0 / mu)
    if tol == 0.0:
        exponent = math.log10(tail_tol) / mu  # -inf for a subnormal order
        if exponent > -1e6:
            size = f"1e{exponent:.0f}"
        else:  # %.3g of the exponent, from its log10 so that it stays finite
            digits = math.log10(-math.log10(tail_tol)) - math.log10(mu)
            # 10^(frac + 3) lies in [1e3, 1e4): %.3g writes it with a power, carrying a round-up
            mantissa, power = f"{-10 ** (digits % 1 + 3):.3g}".split("e")
            size = f"10^({mantissa}e+{int(digits) + int(power) - 3:02d})"
        raise ValueError(
            f"Renyi order {mu:g} needs an occupation tail of {tail_tol:g}^(1/{mu:g}) ~ "
            f"{size}, which underflows float64; use a larger order"
        )
    return tol


def _fitted(cutoff: FockCutoff, modes: int, amplitudes=()) -> FockCutoff:
    """``cutoff``, once 5.5 arrays of d^modes entries fit in MEK_MEM_BUDGET bytes.

    An entry is 16 bytes if an amplitude is complex, else 8. tracemalloc puts every
    oracle route's peak at 4 to 5 such arrays (d-vectors on the Schmidt route), so
    peak <= estimate holds only from d of a few hundred up: below that, fixed costs
    lead. The squeezed rule cannot see theta, and a complex Schmidt vector (theta = 1)
    peaks at about 20 kB against 12,232 bytes at d = 278, but at 12.18 MB against
    13.39 MB at d = 304,307.
    """
    itemsize = 16 if any(complex(a).imag for a in amplitudes) else 8
    fockspace.check_budget(11 * itemsize * cutoff.dim**modes // 2, f"the point at d = {cutoff.dim}")
    return cutoff


def _reduced_spectrum(
    state: fockspace.ComplexAmplitudeTensor, plan: OraclePlan, keep_factor: int = 0
) -> spectra.EntanglementSpectrum:
    """Entanglement spectrum of the reduced state of factor ``keep_factor``."""
    rho = spectra.partial_trace(state, keep_factor)
    return spectra.hermitian_eigenvalues(rho, rank_tolerance=plan.rank_tol)


def oracle_squeezed_spectrum(
    r: float,
    theta: float = 0.0,
    tail_tol: float = fockspace.DEFAULT_TAIL_TOL,
    mu_list=(),
) -> spectra.EntanglementSpectrum:
    """Spectrum of one mode of the pair-squeezed vacuum via the truncated basis."""
    plan = OraclePlan.squeezed(r, tail_tol, mu_list)
    params = SqueezedStateParams(r, theta)
    state = fockspace.build_squeezed_vacuum(params, plan.cutoff, plan.tail_tol)
    return _reduced_spectrum(state, plan)


def build_displaced_squeezed(
    r: float, disp: DisplacementParams, plan: OraclePlan
) -> fockspace.ComplexAmplitudeTensor:
    """Displace a pair-squeezed vacuum (displacement applied after squeezing)."""
    state = fockspace.build_squeezed_vacuum(SqueezedStateParams(r), plan.cutoff, plan.tail_tol)
    return fockspace.apply_two_mode_displacement(state, disp, plan.leak_tol)


def oracle_displaced_squeezed_spectrum(
    r, disp, tail_tol=fockspace.DEFAULT_TAIL_TOL
) -> spectra.EntanglementSpectrum:
    plan = OraclePlan.displaced(r, disp, tail_tol)
    return _reduced_spectrum(build_displaced_squeezed(r, disp, plan), plan)


def oracle_squeezed_coherent_spectrum(
    r, disp, tail_tol=fockspace.DEFAULT_TAIL_TOL, mu_list=()
) -> spectra.EntanglementSpectrum:
    # S D(alpha, beta)|0> = D(alpha', beta') S|0>: pad for the reordered
    # displacement, on the squeezed rule's tail for orders below 1 (_order_tail_tol)
    params = SqueezedStateParams(r)
    reordered = fockspace.reordered_displacement(params, disp)
    order_tail_tol = _order_tail_tol(tail_tol, mu_list)  # its errors name the order alone
    try:
        plan = OraclePlan.displaced(r, reordered, order_tail_tol)
    except ValueError as exc:  # a reordered amplitude past the coherent limit
        given = ", ".join(f"{a.real:g}" if a.imag == 0.0 else f"{a:g}"
                          for a in (disp.alpha, disp.beta_b))
        raise ValueError(
            f"squeezing r = {r:g} moves the displacement (alpha, beta) = ({given}) to "
            f"|alpha'| = {abs(reordered.alpha):.2f}, |beta'| = {abs(reordered.beta_b):.2f} "
            f"by the reordering S D(alpha, beta) = D(alpha', beta') S: {exc}"
        ) from exc
    # the pad bounds no mass outside the box, which the builder holds to the
    # leak tolerance: the box grows by 1% until the measured mass is within it
    while True:
        try:
            state = fockspace.build_squeezed_coherent(params, disp, plan.cutoff, plan.leak_tol)
        except TailMassError as exc:
            if exc.required_n_max is not None:  # the geometric tail has its own rule
                raise
            grown = FockCutoff(plan.cutoff.n_max + max(1, plan.cutoff.n_max // 100))
            plan = replace(plan, cutoff=_fitted(grown, 2, (reordered.alpha, reordered.beta_b)))
        else:
            return _reduced_spectrum(state, plan)


def oracle_coherent_spectrum(
    disp: DisplacementParams, tail_tol: float = fockspace.DEFAULT_TAIL_TOL
) -> spectra.EntanglementSpectrum:
    plan = OraclePlan.coherent_product((disp.alpha, disp.beta_b), tail_tol)
    state = fockspace.build_coherent_two_mode(disp, plan.cutoff, plan.tail_tol)
    return _reduced_spectrum(state, plan)


def oracle_sh_spectrum(
    params: SHParams, tail_tol: float = fockspace.DEFAULT_TAIL_TOL
) -> spectra.EntanglementSpectrum:
    plan = OraclePlan.coherent_product(params.f, tail_tol)
    state = fockspace.build_silbey_harris(params, plan.cutoff, plan.tail_tol)
    return _reduced_spectrum(state, plan)


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def _sh_params_for(dot: float) -> SHParams:
    component = math.sqrt(dot / SH_SWEEP_MODES)
    return SHParams((component,) * SH_SWEEP_MODES)


@dataclass(frozen=True)
class Family:
    """Every per-family decision of the sweep and thermo-table commands.

    ``params`` maps a grid value to the family's parameters, once per point;
    ``entropy(params, mu)`` is the closed-form Renyi entropy,
    ``model(params, config)`` the effective thermal row (beta_eff, Z, F) and
    ``oracle(params, config)`` the truncated-basis spectrum. Entries look up
    ``analytic``, ``thermo`` and ``oracle_*`` as module attributes at call
    time, so a patched or traced function is the one that runs.
    """

    params: Callable
    entropy: Callable
    model: Callable
    oracle: Callable


def _thermal_row(model: thermo.EffectiveThermalModel) -> tuple:
    return model.beta_eff, model.partition_function, model.free_energy


def _squeezed_family(oracle: Callable) -> Family:
    """Grid is r: the pair-squeezed closed forms, with the family's own oracle."""
    return Family(
        params=lambda r: r,
        entropy=lambda r, mu: analytic.renyi_squeezed(r, mu),
        model=lambda r, config: _thermal_row(
            thermo.oscillator_model_from_squeezing(r, config.hbar_omega)
        ),
        oracle=oracle,
    )


FAMILY_TABLE = {
    "squeezed": _squeezed_family(
        lambda r, config: oracle_squeezed_spectrum(
            r, tail_tol=config.tail_tolerance, mu_list=config.mu_list
        )
    ),
    "displaced-squeezed": _squeezed_family(
        lambda r, config: oracle_displaced_squeezed_spectrum(
            r, SWEEP_DISPLACEMENT, config.tail_tolerance
        )
    ),
    "squeezed-coherent": _squeezed_family(
        lambda r, config: oracle_squeezed_coherent_spectrum(
            r, SWEEP_DISPLACEMENT, config.tail_tolerance, config.mu_list
        )
    ),
    # grid is |alpha|; a product state, so every entropy vanishes and the
    # thermal row is the zero-temperature sentinel
    "coherent": Family(
        params=lambda a: DisplacementParams(a, a / 2.0),
        entropy=lambda disp, mu: 0.0,
        model=lambda disp, config: (math.inf, 1.0, 0.0),
        oracle=lambda disp, config: oracle_coherent_spectrum(disp, config.tail_tolerance),
    ),
    # grid is f.f, realized as SH_SWEEP_MODES equal displacements
    "silbey-harris": Family(
        params=_sh_params_for,
        entropy=lambda params, mu: analytic.renyi_sh(params, mu),
        model=lambda params, config: _thermal_row(
            thermo.two_level_model_from_sh(params, config.delta)
        ),
        oracle=lambda params, config: oracle_sh_spectrum(params, config.tail_tolerance),
    ),
}
FAMILIES = tuple(FAMILY_TABLE)


def run_sweep(config: SweepConfig):
    """Compute all sweep rows; returns (header, rows, exit_code).

    The exit code is nonzero when any oracle deviation exceeds 1e-8 or is NaN.
    Rows whose analytic value is infinite (order-0 entropy of the squeezed
    family, whose Schmidt rank is not finite) report an infinite deviation but
    are not counted as failures, since no truncated check can converge there.
    """
    family = FAMILY_TABLE[config.state_family]
    header = SWEEP_ORACLE_HEADER if config.oracle else SWEEP_HEADER
    rows = []
    failed = False
    for param in config.parameter_grid:
        params = family.params(param)
        beta, z, free_energy = family.model(params, config)
        closed = {mu: family.entropy(params, mu) for mu in (1.0, 2.0, math.inf)}
        s_vn, s_2, s_inf = closed.values()
        purity = math.exp(-s_2)
        spectrum = family.oracle(params, config) if config.oracle else None
        oracle = analytic.renyi_orders(spectrum, config.mu_list) if config.oracle else ()
        for index, mu in enumerate(config.mu_list):
            s_mu = closed[mu] if mu in closed else family.entropy(params, mu)
            row = [param, mu, s_mu, s_vn, s_2, purity, s_inf, beta, z, free_energy]
            if config.oracle:
                deviation = abs(s_mu - oracle[index])
                row.extend([oracle[index], deviation])
                if not (math.isinf(s_mu) or deviation <= ORACLE_DEV_LIMIT):
                    failed = True
            rows.append(row)
    return header, rows, (1 if failed else 0)


# ---------------------------------------------------------------------------
# thermo-table command
# ---------------------------------------------------------------------------

def run_thermo_table(config: SweepConfig):
    """Effective-model table rows; returns (header, rows, exit_code)."""
    family = FAMILY_TABLE[config.state_family]
    rows = []
    failed = False
    for param in config.parameter_grid:
        params = family.params(param)
        beta, z, free_energy = family.model(params, config)
        s_inf = family.entropy(params, math.inf)
        ln_z = math.log(z)
        p_max = 1.0 / z
        matches = abs(ln_z - s_inf) < 1e-12
        if not matches:
            failed = True
        rows.append([param, beta, z, ln_z, s_inf, free_energy, p_max, matches])
    return THERMO_HEADER, rows, (1 if failed else 0)


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

# every check of the battery and its tolerance on the worst deviation, in output order
VERIFY_CHECKS = {
    "spectrum-normalization": 1e-10,
    "builder-norm": fockspace.DEFAULT_TAIL_TOL,
    "exponential-unitarity": 1e-12,
    "coherent-rank-one": 1e-10,
    "coherent-zero-entropy": 1e-9,
    "squeezed-oracle-equivalence": 1e-9,
    "theta-independence": 1e-12,
    "displacement-invariance": 1e-9,
    "squeeze-displace-reorder": 1e-9,
    "partition-symmetry": 1e-10,
    "sh-oracle-equivalence": 1e-9,
    "sh-dot-product-invariance": 1e-14,
    "oscillator-thermal-consistency": 1e-12,
    "two-level-thermal-consistency": 1e-12,
    "purity-identity": 1e-12,
    "renyi-monotonicity": 1e-14,
    "von-neumann-limit": 1e-2,
}


@dataclass
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _padded_max_diff(a, b) -> float:
    """The largest entry of |a - b|, the shorter of the two padded with zeros."""
    n = max(len(a), len(b))
    a, b = (np.pad(np.asarray(x, dtype=float), (0, n - len(x))) for x in (a, b))
    return float(np.max(np.abs(a - b)))


def _coherent_draw(rng, tail_tol):
    """A two-mode coherent state of complex amplitudes drawn from the unit square, and its plan."""
    disp = DisplacementParams(*(rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)))
    plan = OraclePlan.coherent_product((disp.alpha, disp.beta_b), tail_tol)
    return fockspace.build_coherent_two_mode(disp, plan.cutoff, plan.tail_tol), plan


def _norm_draws(rng, tail_tol):
    # spectrum normalization on oracle-derived spectra
    for r in rng.uniform(0.2, 1.2, size=3):
        spectrum = oracle_squeezed_spectrum(r, tail_tol=tail_tol)
        yield "spectrum-normalization", abs(float(np.sum(spectrum.probabilities)) - 1.0)

    # builder norms stay within the tail tolerance
    coherent, _ = _coherent_draw(rng, tail_tol)
    r = float(rng.uniform(0.1, 1.2))
    plan = OraclePlan.squeezed(r, tail_tol)
    squeezed = fockspace.build_squeezed_vacuum(SqueezedStateParams(r), plan.cutoff, plan.tail_tol)
    sh_params = SHParams(tuple(rng.uniform(0.1, 0.8, 2)))
    plan = OraclePlan.coherent_product(sh_params.f, tail_tol)
    qubit_boson = fockspace.build_silbey_harris(sh_params, plan.cutoff, plan.tail_tol)
    for state in (coherent, squeezed, qubit_boson):
        yield "builder-norm", abs(1.0 - state.norm() ** 2)


def _unitarity_draws(rng, tail_tol):
    # exponentials of CS-form generators [[0, A], [-A^H, 0]] (even/odd order)
    # are unitary: three random ones, and the ones the oracles build (a complex
    # displacement, and the scaled real displacement stack of a two-mode
    # displacement)
    gens = []
    for _ in range(3):
        raw = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        gen = np.zeros((24, 24), dtype=complex)
        gen[::2, 1::2] = raw[::2, 1::2]
        gen[1::2, ::2] = -np.conj(raw[::2, 1::2]).T
        gens.append(gen)
    gens.append(fockspace.displacement_generator(1.2 - 0.7j, 199))
    unitaries = [fockspace.operator_exponential(gen) for gen in gens]
    unitaries.append(fockspace.operator_exponential(
        fockspace.displacement_generator(1.0, 199), scales=(0.5, 1.4)
    ))
    for unitary in unitaries:
        gram = np.conj(unitary).swapaxes(-1, -2) @ unitary
        yield "exponential-unitarity", np.abs(gram - np.eye(unitary.shape[-1]))


def _coherent_draws(rng, tail_tol):
    # coherent states are rank one with vanishing entropies
    for _ in range(5):
        state, plan = _coherent_draw(rng, tail_tol)
        yield "coherent-rank-one", spectra.schmidt_coefficients(state)[1]
        values = analytic.renyi_orders(_reduced_spectrum(state, plan), (0.5, 1.0, 2.0, math.inf))
        yield "coherent-zero-entropy", np.abs(values)


def _squeezed_oracle_draws(rng, tail_tol):
    # truncated-basis route matches the closed forms for the squeezed family
    mu_probe = (0.5, 2.0, 5.0, math.inf)
    for r in rng.uniform(0.1, 1.2, size=3):
        spectrum = oracle_squeezed_spectrum(r, tail_tol=tail_tol, mu_list=mu_probe)
        values = analytic.renyi_orders(spectrum, mu_probe)
        closed = [analytic.renyi_squeezed(r, mu) for mu in mu_probe]
        yield "squeezed-oracle-equivalence", np.abs(np.subtract(values, closed))

    # spectrum does not depend on the squeezing angle
    r_theta = 0.9
    reference = oracle_squeezed_spectrum(r_theta, 0.0, tail_tol)
    for theta in (math.pi / 4.0, math.pi / 2.0, math.pi, float(rng.uniform(0.0, 2.0 * math.pi))):
        other = oracle_squeezed_spectrum(r_theta, theta, tail_tol)
        yield "theta-independence", _padded_max_diff(reference.probabilities, other.probabilities)


def _displacement_draws(rng, tail_tol):
    # mode-local displacements leave the spectrum alone, in either operator order
    r_inv = 0.5
    params = SqueezedStateParams(r_inv)
    disp = DisplacementParams(complex(rng.uniform(0.2, 0.5)), complex(rng.uniform(0.2, 0.5)))
    plain = oracle_squeezed_spectrum(r_inv, tail_tol=tail_tol)
    displaced_plan = OraclePlan.displaced(r_inv, disp, tail_tol)
    displaced_state = build_displaced_squeezed(r_inv, disp, displaced_plan)
    displaced = _reduced_spectrum(displaced_state, displaced_plan)
    # 6 levels beyond the plan: the reordering check compares amplitudes up to this cutoff
    reordered = fockspace.reordered_displacement(params, disp)
    plan = OraclePlan.displaced(r_inv, reordered, tail_tol)
    cutoff = FockCutoff(plan.cutoff.n_max + 6)
    squeezed_coherent = fockspace.build_squeezed_coherent(params, disp, cutoff, plan.leak_tol)
    for other in (displaced, _reduced_spectrum(squeezed_coherent, plan)):
        yield "displacement-invariance", _padded_max_diff(plain.probabilities, other.probabilities)
    # interchanging squeeze and displacement via the reordering identity
    padded = FockCutoff(cutoff.n_max + 14)
    vacuum_squeezed = fockspace.build_squeezed_vacuum(params, padded, tail_tol)
    right = fockspace.apply_two_mode_displacement(vacuum_squeezed, reordered, plan.leak_tol)
    block = right.amplitudes[: cutoff.dim, : cutoff.dim]
    yield "squeeze-displace-reorder", np.abs(squeezed_coherent.amplitudes - block)
    # both partitions carry the same spectrum
    other_side = _reduced_spectrum(displaced_state, displaced_plan, keep_factor=1)
    yield "partition-symmetry", _padded_max_diff(displaced.probabilities, other_side.probabilities)


def _sh_draws(rng, tail_tol):
    # qubit reduction of the qubit-boson state matches {(1 +/- c) / 2}
    for n_modes in (1, 2, 3):
        params = SHParams(tuple(rng.uniform(0.1, 0.7, n_modes)))
        oracle = oracle_sh_spectrum(params, tail_tol=tail_tol).probabilities
        closed = analytic.sh_spectrum(params).probabilities
        yield "sh-oracle-equivalence", _padded_max_diff(oracle, closed)

    # the entropy depends on the displacements only through their dot product
    base = SHParams(tuple(rng.uniform(0.2, 0.6, 3)))
    s_base = analytic.renyi_sh(base, 1.0)
    for other in (SHParams(base.f[::-1]), SHParams((math.sqrt(base.f_dot_f / 2.0),) * 2)):
        yield "sh-dot-product-invariance", abs(s_base - analytic.renyi_sh(other, 1.0))


def _thermal_draws(rng, tail_tol):
    # thermal models reproduce the spectra, ln Z = S_inf, F = -S_inf / beta
    oscillators = (
        (thermo.oscillator_model_from_squeezing(r),
         analytic.squeezed_entanglement_spectrum(r, OraclePlan.squeezed(r, tail_tol).cutoff.dim))
        for r in map(float, np.linspace(0.05, 2.0, 20))
    )
    two_levels = (
        (thermo.two_level_model_from_sh(params), analytic.sh_spectrum(params))
        for params in map(_sh_params_for, map(float, np.linspace(0.05, 3.0, 20)))
    )
    for name, cases in (("oscillator-thermal-consistency", oscillators),
                        ("two-level-thermal-consistency", two_levels)):
        for model, spectrum in cases:
            yield name, astuple(thermo.verify_thermal_consistency(model, spectrum))


def _closed_form_draws(rng, tail_tol):
    # purity identity e^{-S_2} = sech 2r
    for r in map(float, np.linspace(0.0, 4.0, 17)):
        purity = math.exp(-analytic.renyi_squeezed(r, 2.0))
        yield "purity-identity", abs(purity - 1.0 / math.cosh(2.0 * r))

    # monotonicity: non-increasing in the order, increasing in the squeezing
    mu_grid = (0.5, 1.0, 2.0, 5.0, 10.0, math.inf)
    table = np.array([[analytic.renyi_squeezed(r, mu) for mu in mu_grid]
                      for r in map(float, np.linspace(0.1, 3.0, 12))])
    yield "renyi-monotonicity", np.diff(table, axis=1)
    yield "renyi-monotonicity", -np.diff(table, axis=0)

    # S_mu leaves S_1 on both sides with slope -Var(-ln p) / 2, where for the
    # squeezed spectrum Var(-ln p) = (ln tanh r sinh 2r)^2
    r_lim = float(rng.uniform(0.5, 2.0))
    s_1 = analytic.renyi_squeezed(r_lim, 1.0)
    half_var = (math.log(math.tanh(r_lim)) * math.sinh(2.0 * r_lim)) ** 2 / 2.0
    for eps in (sign * 10.0 ** -k for k in range(3, 14) for sign in (1.0, -1.0)):
        slope = (analytic.renyi_squeezed(r_lim, 1.0 - eps) - s_1) / (eps * half_var)
        yield "von-neumann-limit", abs(slope - 1.0)


def run_verification(seed: int = 0):
    """Run the ``VERIFY_CHECKS`` battery on parameters drawn from ``seed``.

    Each draw yields (name, deviation), a number or an array, on states built at
    ``fockspace.DEFAULT_TAIL_TOL``. Returns a CheckResult per check in table order:
    its worst deviation over the draws, at least 0; a NaN among them fails it.
    """
    draws = (_norm_draws, _unitarity_draws, _coherent_draws, _squeezed_oracle_draws,
             _displacement_draws, _sh_draws, _thermal_draws, _closed_form_draws)
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(VERIFY_CHECKS, 0.0)
    for draw in draws:
        for name, deviation in draw(rng, fockspace.DEFAULT_TAIL_TOL):
            largest = float(np.asarray(deviation).max())  # NaN if any entry is NaN
            if largest > worst[name] or math.isnan(largest):
                worst[name] = largest
    return [CheckResult(name, worst[name], tol) for name, tol in VERIFY_CHECKS.items()]


def print_verification(results) -> int:
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name:32s} max_dev={check.deviation:.3e} tol={check.tolerance:.1e}")
    n_pass = sum(1 for check in results if check.passed)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"  # -0.0 + 0.0 is 0.0; any other float is unchanged
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_scalar(value) -> str:
    # json.dumps writes a finite float as float.__repr__; a non-finite one
    # becomes the string "inf", "-inf" or "nan"
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else f'"{_fmt(value)}"'
    return json.dumps(value)


def _encoded_rows(rows, encode):
    """The rows as tuples of ``encode``-d values, encoded column by column.

    A float column at most half of whose values are new to the memo (a sweep
    repeats 8 of its 10 columns on every order row of a point, and S_mu
    repeats S_vn, S_2 and S_inf) formats each of its distinct nonzero values
    once, in a memo shared by the columns of this call; the most repetitive
    columns go first. Any other column is encoded value by value, so tables
    that repeat little pay nothing for the memo. Only floats reach the memo,
    and never zeros: 0.0 == -0.0 and True == 1 == 1.0, yet they render
    differently.
    """
    columns = list(zip(*rows))
    distinct = [set(column) for column in columns]
    memo = {}
    encoded = [None] * len(columns)
    for j in sorted(range(len(columns)), key=lambda j: len(distinct[j])):
        column, new = columns[j], distinct[j].difference(memo)
        if 2 * len(new) > len(column) or set(map(type, column)) != {float}:
            encoded[j] = map(encode, column)
            continue
        memo.update({v: encode(v) for v in new if v})
        if 0.0 in distinct[j]:
            encoded[j] = [memo[v] if v else encode(v) for v in column]
        else:
            encoded[j] = map(memo.__getitem__, column)
    return zip(*encoded) if encoded else [()] * len(rows)


def render_output(header, rows, fmt: str) -> str:
    """The table as CSV or JSON text; same header and rows, same bytes.

    ``header`` names the columns (distinct strings) and each row holds one
    scalar per column. CSV is the header line, then one line per row, each
    value written ``%.12g`` for floats (-0 as ``0``, inf as ``inf``),
    ``true``/``false`` for bools and ``str`` otherwise. JSON is exactly
    ``json.dumps({"columns": [...], "rows": [{column: value, ...}, ...]},
    indent=2)`` plus a newline: floats in their shortest round-trip form
    (``float.__repr__``), non-finite ones as the strings ``"inf"``,
    ``"-inf"`` and ``"nan"``. ValueError for any other format, a repeated
    column name or a row of the wrong width.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    if len(set(header)) < len(header) or set(map(len, rows)) - {len(header)}:
        raise ValueError("output needs distinct column names and one value per column in every row")
    if fmt == "csv":
        lines = map(",".join, _encoded_rows(rows, _fmt))
        return "\n".join([",".join(header), *lines]) + "\n"
    # the indent=2 layout, one %-template per row; json.dumps escapes the keys
    keys = [json.dumps(key) for key in header]
    fields = ",\n".join(f"      {key.replace('%', '%%')}: %s" for key in keys)
    template = "    {\n" + fields + "\n    }" if keys else "    {}"
    columns = "[\n    " + ",\n    ".join(keys) + "\n  ]" if keys else "[]"
    objects = map(template.__mod__, _encoded_rows(rows, _json_scalar))
    body = "[\n" + ",\n".join(objects) + "\n  ]" if rows else "[]"
    return '{\n  "columns": ' + columns + ',\n  "rows": ' + body + "\n}\n"


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser, default_grid):
    parser.add_argument("--family", default=FAMILIES[0], choices=FAMILIES,
                        help="state family to sweep (default: %(default)s)")
    parser.add_argument("--grid", default=default_grid,
                        help="parameter grid, 'start:stop:count' or comma list; r for the "
                             "squeezed families, |alpha| for coherent, f.f for silbey-harris")
    parser.add_argument("--hbar-omega", type=float, default=1.0,
                        help="oscillator level spacing of the effective model (default 1.0)")
    parser.add_argument("--delta", type=float, default=1.0,
                        help="two-level gap of the effective model (default 1.0)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", default="csv", choices=("csv", "json"),
                        help="output format (default csv)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mek",
        description="Mode-entanglement measures and effective thermodynamics for "
                    "squeezed, coherent, and qubit-boson states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="entropy sweep over a parameter grid")
    _add_common(sweep, "0:3:13")
    sweep.add_argument("--mu", default="1,2,inf",
                       help="comma list of Renyi orders; accepts 'inf' (default 1,2,inf)")
    sweep.add_argument("--oracle", action="store_true",
                       help="add truncated-basis cross-check columns; the displaced "
                            f"families use alpha={SWEEP_DISPLACEMENT.alpha.real}, "
                            f"beta={SWEEP_DISPLACEMENT.beta_b.real}; "
                            "exit is nonzero if any finite deviation exceeds 1e-8 "
                            "(order 0 on the squeezed family has no finite reference); "
                            "a point whose peak memory passes MEK_MEM_BUDGET bytes "
                            "(default 2^32) exits 2")
    sweep.add_argument("--tail-tol", type=float, default=fockspace.DEFAULT_TAIL_TOL,
                       help="occupation tail tolerance of the --oracle states, in "
                            f"(0, {spectra.TRACE_TOL:g}] (default %(default)g)")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="run the full invariant battery")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    table = sub.add_parser("thermo-table", help="effective thermal model table")
    _add_common(table, "0:2:9")
    table.set_defaults(func=_cmd_thermo_table)
    return parser


def _config_from_args(args, mu_list) -> SweepConfig:
    return SweepConfig(
        state_family=args.family,
        parameter_grid=parse_grid(args.grid),
        mu_list=mu_list,
        oracle=getattr(args, "oracle", False),
        tail_tolerance=getattr(args, "tail_tol", fockspace.DEFAULT_TAIL_TOL),
        hbar_omega=args.hbar_omega,
        delta=args.delta,
    )


def _cmd_sweep(args) -> int:
    config = _config_from_args(args, parse_mu_list(args.mu))
    header, rows, code = run_sweep(config)
    _write(render_output(header, rows, args.format), args.out)
    return code


def _cmd_thermo_table(args) -> int:
    config = _config_from_args(args, [1.0])
    header, rows, code = run_thermo_table(config)
    _write(render_output(header, rows, args.format), args.out)
    return code


def _cmd_verify(args) -> int:
    return print_verification(run_verification(seed=args.seed))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # numpy's generator takes no negative seed
        parser.error(f"argument --seed: must be a non-negative integer, got {args.seed}")
    try:
        return args.func(args)
    except (MemoryBudgetError, ValueError) as exc:  # TailMassError and ContractError too
        print(f"mek: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # the thermal models overflow at large r and f.f
        print(f"mek: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mek: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid too large to allocate, say
        print(f"mek: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
