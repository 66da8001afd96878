"""Command-line front end: entropy sweeps, an invariant battery, thermal tables.

Output is deterministic: identical configuration gives byte-identical files
(``verify`` draws its parameters from ``--seed``), and the CSV column order
never changes between runs.

Every oracle point, in ``sweep --oracle`` and in ``verify``, first fixes an
``OraclePlan``: the Fock cutoff, the builders' tail and boundary-leak
tolerances and the spectrum's rank tolerance, from one rule per kind of state
(squeezed, displaced, coherent product). Builders and reductions take every
tolerance from the plan.
"""

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import analytic, fockspace, spectra, thermo
from .exceptions import ContractError, MemoryBudgetError, TailMassError
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
    output_path: str | None = None
    format: str = "csv"
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
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")


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
    spectra.DEFAULT_RANK_TOL as round-off.
    """

    cutoff: FockCutoff
    tail_tol: float
    leak_tol: float = fockspace.DEFAULT_LEAK_TOL
    rank_tol: float = 0.0

    @classmethod
    def squeezed(cls, r: float, tail_tol: float, mu_list=()) -> "OraclePlan":
        """Pair-squeezed vacuum, its occupation tail tightened for the orders below 1.

        The mu-th powers of a geometric spectrum are again geometric; for orders
        below 1 the power series decays more slowly than the probabilities, so
        bounding its tail at ``tail_tol`` requires an occupation tail of
        tail_tol^(1/mu). ValueError if that tail underflows to 0 in float64.
        """
        mu = min((mu for mu in mu_list if 0.0 < mu < 1.0), default=1.0)
        tol = tail_tol ** (1.0 / mu)
        if tol == 0.0:
            raise ValueError(
                f"Renyi order {mu:g} needs an occupation tail of {tail_tol:g}^(1/{mu:g}) ~ "
                f"1e{math.log10(tail_tol) / mu:.0f}, which underflows float64; use a larger order"
            )
        return cls(fockspace.squeezed_cutoff(r, tol), tol)

    @classmethod
    def displaced(cls, r: float, disp: DisplacementParams, tail_tol: float) -> "OraclePlan":
        """Displaced pair-squeezed state: the squeezed cutoff plus displacement headroom.

        The headroom keeps each displacement's own coherent tail below
        ``tail_tol``; a guard band of 4 levels sits on top.
        """
        base = fockspace.squeezed_cutoff(r, tail_tol).n_max
        pad = max(fockspace.coherent_cutoff(a, tail_tol).n_max for a in (disp.alpha, disp.beta_b))
        return cls(FockCutoff(base + pad + 4), tail_tol)

    @classmethod
    def coherent_product(cls, amplitudes, tail_tol: float) -> "OraclePlan":
        """Product of coherent states, one per amplitude: the coherent builders' tail rule."""
        cutoff = fockspace.coherent_product_cutoff(amplitudes, tail_tol)
        return cls(cutoff, tail_tol, rank_tol=spectra.DEFAULT_RANK_TOL)


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
    r, disp, tail_tol=fockspace.DEFAULT_TAIL_TOL
) -> spectra.EntanglementSpectrum:
    plan = OraclePlan.displaced(r, disp, tail_tol)
    # the builder holds its tails and its boundary leak to one tolerance, and
    # the pair squeeze leaks more than tail_tol on this cutoff
    state = fockspace.build_squeezed_coherent(SqueezedStateParams(r), disp, plan.cutoff, plan.leak_tol)
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
            r, SWEEP_DISPLACEMENT, config.tail_tolerance
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

    The exit code is nonzero when any finite oracle deviation exceeds 1e-8.
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
        s_vn = family.entropy(params, 1.0)
        s_2 = family.entropy(params, 2.0)
        s_inf = family.entropy(params, math.inf)
        purity = math.exp(-s_2)
        spectrum = family.oracle(params, config) if config.oracle else None
        for mu in config.mu_list:
            s_mu = family.entropy(params, mu)
            row = [param, mu, s_mu, s_vn, s_2, purity, s_inf, beta, z, free_energy]
            if config.oracle:
                oracle_value = analytic.renyi_general(spectrum, mu)
                deviation = abs(s_mu - oracle_value)
                row.extend([oracle_value, deviation])
                if math.isfinite(deviation) and deviation > ORACLE_DEV_LIMIT:
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

@dataclass
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _padded_max_diff(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = max(len(a), len(b))
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: len(a)] = a
    pb[: len(b)] = b
    return float(np.max(np.abs(pa - pb)))


def run_verification(seed: int = 0, _corrupt: str | None = None):
    """Run the full cross-check battery on seeded pseudo-random parameters.

    Every truncated state is built at ``fockspace.DEFAULT_TAIL_TOL``. Returns
    a list of CheckResult in a fixed order. ``_corrupt`` is a test hook:
    "normalization" tampers with one spectrum so the battery must report the
    spectrum-normalization check as failed.
    """
    tail_tol = fockspace.DEFAULT_TAIL_TOL
    rng = np.random.default_rng(seed)
    results = []

    def record(name, deviation, tolerance):
        results.append(CheckResult(name, float(deviation), tolerance))

    # spectrum normalization on oracle-derived spectra
    dev = 0.0
    for r in rng.uniform(0.2, 1.2, size=3):
        spectrum = oracle_squeezed_spectrum(r, tail_tol=tail_tol)
        probs = spectrum.probabilities
        if _corrupt == "normalization":
            probs = probs * 0.9
            _corrupt = None
        dev = max(dev, abs(float(np.sum(probs)) - 1.0))
    record("spectrum-normalization", dev, 1e-10)

    # builder norms stay within the tail tolerance
    dev = 0.0
    disp = DisplacementParams(*(rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)))
    plan = OraclePlan.coherent_product((disp.alpha, disp.beta_b), tail_tol)
    state = fockspace.build_coherent_two_mode(disp, plan.cutoff, plan.tail_tol)
    dev = max(dev, abs(1.0 - state.norm() ** 2))
    r_draw = float(rng.uniform(0.1, 1.2))
    plan = OraclePlan.squeezed(r_draw, tail_tol)
    state = fockspace.build_squeezed_vacuum(SqueezedStateParams(r_draw), plan.cutoff, plan.tail_tol)
    dev = max(dev, abs(1.0 - state.norm() ** 2))
    sh_params = SHParams(tuple(rng.uniform(0.1, 0.8, 2)))
    plan = OraclePlan.coherent_product(sh_params.f, tail_tol)
    state = fockspace.build_silbey_harris(sh_params, plan.cutoff, plan.tail_tol)
    dev = max(dev, abs(1.0 - state.norm() ** 2))
    record("builder-norm", dev, tail_tol)

    # exponentials of CS-form generators [[0, A], [-A^H, 0]] (even/odd order)
    # are unitary: three random ones, and the ones the oracles build (a complex
    # displacement, a complex pair-squeeze chain stack, and the scaled real
    # displacement stack of a two-mode displacement)
    gens = []
    for _ in range(3):
        raw = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        gen = np.zeros((24, 24), dtype=complex)
        gen[::2, 1::2] = raw[::2, 1::2]
        gen[1::2, ::2] = -np.conj(raw[::2, 1::2]).T
        gens.append(gen)
    gens.append(fockspace.displacement_generator(1.2 - 0.7j, 199))
    gens.append(fockspace.pair_chain_stack(0.8 * complex(math.cos(1.1), math.sin(1.1)), 60, 0))
    unitaries = [fockspace.operator_exponential(gen) for gen in gens]
    unitaries.append(fockspace.operator_exponential(
        fockspace.displacement_generator(1.0, 199), scales=(0.5, 1.4)
    ))
    dev = 0.0
    for unitary in unitaries:
        gram = np.conj(unitary).swapaxes(-1, -2) @ unitary
        dev = max(dev, float(np.max(np.abs(gram - np.eye(unitary.shape[-1])))))
    record("exponential-unitarity", dev, 1e-12)

    # coherent states are rank one with vanishing entropies
    rank_dev = 0.0
    entropy_dev = 0.0
    for _ in range(5):
        disp = DisplacementParams(*(rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)))
        plan = OraclePlan.coherent_product((disp.alpha, disp.beta_b), tail_tol)
        state = fockspace.build_coherent_two_mode(disp, plan.cutoff, plan.tail_tol)
        rank_dev = max(rank_dev, float(spectra.schmidt_coefficients(state)[1]))
        spectrum = _reduced_spectrum(state, plan)
        for mu in (0.5, 1.0, 2.0, math.inf):
            entropy_dev = max(entropy_dev, abs(analytic.renyi_general(spectrum, mu)))
    record("coherent-rank-one", rank_dev, 1e-10)
    record("coherent-zero-entropy", entropy_dev, 1e-9)

    # truncated-basis route matches the closed forms for the squeezed family
    dev = 0.0
    mu_probe = (0.5, 2.0, 5.0, math.inf)
    for r in rng.uniform(0.1, 1.2, size=3):
        spectrum = oracle_squeezed_spectrum(r, tail_tol=tail_tol, mu_list=mu_probe)
        for mu in mu_probe:
            dev = max(dev, abs(analytic.renyi_general(spectrum, mu) - analytic.renyi_squeezed(r, mu)))
    record("squeezed-oracle-equivalence", dev, 1e-9)

    # spectrum does not depend on the squeezing angle
    r_theta = 0.9
    reference = oracle_squeezed_spectrum(r_theta, 0.0, tail_tol)
    dev = 0.0
    for theta in (math.pi / 4.0, math.pi / 2.0, math.pi, float(rng.uniform(0.0, 2.0 * math.pi))):
        other = oracle_squeezed_spectrum(r_theta, theta, tail_tol)
        dev = max(dev, _padded_max_diff(reference.probabilities, other.probabilities))
    record("theta-independence", dev, 1e-12)

    # mode-local displacements leave the spectrum alone, in either operator order
    r_inv = 0.5
    disp = DisplacementParams(complex(rng.uniform(0.2, 0.5)), complex(rng.uniform(0.2, 0.5)))
    plain = oracle_squeezed_spectrum(r_inv, tail_tol=tail_tol)
    displaced_plan = OraclePlan.displaced(r_inv, disp, tail_tol)
    displaced_state = build_displaced_squeezed(r_inv, disp, displaced_plan)
    displaced = _reduced_spectrum(displaced_state, displaced_plan)
    # 6 levels beyond the plan: the reordering check compares amplitudes up to this cutoff
    reordered = fockspace.reordered_displacement(SqueezedStateParams(r_inv), disp)
    plan = OraclePlan.displaced(r_inv, reordered, tail_tol)
    cutoff = FockCutoff(plan.cutoff.n_max + 6)
    squeezed_coherent = fockspace.build_squeezed_coherent(
        SqueezedStateParams(r_inv), disp, cutoff, plan.leak_tol
    )
    reordered_spectrum = _reduced_spectrum(squeezed_coherent, plan)
    dev = max(
        _padded_max_diff(plain.probabilities, displaced.probabilities),
        _padded_max_diff(plain.probabilities, reordered_spectrum.probabilities),
    )
    record("displacement-invariance", dev, 1e-9)

    # interchanging squeeze and displacement via the reordering identity
    padded = FockCutoff(cutoff.n_max + 14)
    vacuum_squeezed = fockspace.build_squeezed_vacuum(SqueezedStateParams(r_inv), padded, tail_tol)
    right = fockspace.apply_two_mode_displacement(vacuum_squeezed, reordered, plan.leak_tol)
    dev = float(
        np.max(
            np.abs(
                squeezed_coherent.amplitudes
                - right.amplitudes[: cutoff.dim, : cutoff.dim]
            )
        )
    )
    record("squeeze-displace-reorder", dev, 1e-9)

    # both partitions carry the same spectrum
    other_side = _reduced_spectrum(displaced_state, displaced_plan, keep_factor=1)
    record(
        "partition-symmetry",
        _padded_max_diff(displaced.probabilities, other_side.probabilities),
        1e-10,
    )

    # qubit reduction of the qubit-boson state matches {(1 +/- c) / 2}
    dev = 0.0
    for n_modes in (1, 2, 3):
        params = SHParams(tuple(rng.uniform(0.1, 0.7, n_modes)))
        oracle = oracle_sh_spectrum(params, tail_tol=tail_tol)
        analytic_spec = analytic.sh_spectrum(params)
        dev = max(dev, _padded_max_diff(oracle.probabilities, analytic_spec.probabilities))
    record("sh-oracle-equivalence", dev, 1e-9)

    # the entropy depends on the displacements only through their dot product
    base = SHParams(tuple(rng.uniform(0.2, 0.6, 3)))
    permuted = SHParams(base.f[::-1])
    redistributed = SHParams((math.sqrt(base.f_dot_f / 2.0),) * 2)
    dev = max(
        abs(analytic.renyi_sh(base, 1.0) - analytic.renyi_sh(permuted, 1.0)),
        abs(analytic.renyi_sh(base, 1.0) - analytic.renyi_sh(redistributed, 1.0)),
    )
    record("sh-dot-product-invariance", dev, 1e-14)

    # thermal models reproduce the spectra, ln Z = S_inf, F = -S_inf / beta
    dev = 0.0
    for r in np.linspace(0.05, 2.0, 20):
        model = thermo.oscillator_model_from_squeezing(float(r))
        count = OraclePlan.squeezed(float(r), tail_tol).cutoff.dim
        spectrum = analytic.squeezed_entanglement_spectrum(float(r), count)
        report = thermo.verify_thermal_consistency(model, spectrum)
        dev = max(dev, report.max_weight_deviation, report.log_partition_deviation,
                  report.free_energy_deviation)
    record("oscillator-thermal-consistency", dev, 1e-12)

    dev = 0.0
    for dot in np.linspace(0.05, 3.0, 20):
        params = _sh_params_for(float(dot))
        model = thermo.two_level_model_from_sh(params)
        report = thermo.verify_thermal_consistency(model, analytic.sh_spectrum(params))
        dev = max(dev, report.max_weight_deviation, report.log_partition_deviation,
                  report.free_energy_deviation)
    record("two-level-thermal-consistency", dev, 1e-12)

    # purity identity e^{-S_2} = sech 2r
    dev = 0.0
    for r in np.linspace(0.0, 4.0, 17):
        dev = max(dev, abs(math.exp(-analytic.renyi_squeezed(float(r), 2.0)) - 1.0 / math.cosh(2.0 * r)))
    record("purity-identity", dev, 1e-12)

    # monotonicity: non-increasing in the order, increasing in the squeezing
    mu_grid = (0.5, 1.0, 2.0, 5.0, 10.0, math.inf)
    r_grid = np.linspace(0.1, 3.0, 12)
    dev = 0.0
    for r in r_grid:
        values = [analytic.renyi_squeezed(float(r), mu) for mu in mu_grid]
        dev = max(dev, max(b - a for a, b in zip(values, values[1:])))
    for mu in mu_grid:
        values = [analytic.renyi_squeezed(float(r), mu) for r in r_grid]
        dev = max(dev, max(a - b for a, b in zip(values, values[1:])))
    record("renyi-monotonicity", max(dev, 0.0), 1e-14)

    # finite-difference approach to the von Neumann limit
    r_lim = float(rng.uniform(0.5, 2.0))
    ratio = analytic.von_neumann_limit_check(r_lim, 1e-3) / analytic.von_neumann_limit_check(r_lim, 1e-4)
    record("von-neumann-limit", abs(ratio - 10.0), 2.0)

    return results


def print_verification(results, stream=None) -> int:
    stream = stream or sys.stdout
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name:32s} max_dev={check.deviation:.3e} tol={check.tolerance:.1e}",
            file=stream,
        )
    n_pass = sum(1 for check in results if check.passed)
    print(f"{n_pass}/{len(results)} checks passed", file=stream)
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value + 0.0:.12g}" if value == 0.0 else f"{value:.12g}"
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def render_output(header, rows, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload = {
        "columns": list(header),
        "rows": [{key: _json_safe(v) for key, v in zip(header, row)} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


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
                            "(order 0 on the squeezed family has no finite reference)")
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
        output_path=args.out,
        format=args.format,
        hbar_omega=args.hbar_omega,
        delta=args.delta,
    )


def _cmd_sweep(args) -> int:
    config = _config_from_args(args, parse_mu_list(args.mu))
    header, rows, code = run_sweep(config)
    _write(render_output(header, rows, config.format), config.output_path)
    return code


def _cmd_thermo_table(args) -> int:
    config = _config_from_args(args, [1.0])
    header, rows, code = run_thermo_table(config)
    _write(render_output(header, rows, config.format), config.output_path)
    return code


def _cmd_verify(args) -> int:
    results = run_verification(seed=args.seed)
    return print_verification(results)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TailMassError, MemoryBudgetError, ContractError, ValueError) as exc:
        print(f"mek: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # the thermal models overflow at large r and f.f
        print(f"mek: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mek: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
