import math

import numpy as np
import pytest

from mek import analytic, fockspace, spectra
from mek.exceptions import DimensionError, MemoryBudgetError, TailMassError
from mek.fockspace import (
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
    coherent_product_cutoff,
    coherent_tail_mass,
    creation_matrix,
    operator_exponential,
    reordered_displacement,
    squeezed_cutoff,
    squeezed_tail_mass,
    validate_state,
)

# frozen with 30-digit arithmetic: 1/cosh(1), tanh(1)/cosh(1)
SQUEEZED_R1_AMP0 = 0.6480542736638854
SQUEEZED_R1_AMP1 = 0.4935543475645731


def test_ladder_matrices():
    a = annihilation_matrix(5)
    for n in range(1, 6):
        expected = np.zeros(6)
        expected[n - 1] = math.sqrt(n)
        np.testing.assert_allclose(a[:, n].real, expected, atol=0.0)
    assert a[:, 0].max() == 0.0
    np.testing.assert_array_equal(creation_matrix(5), a.conj().T)


def test_ladder_commutator():
    # [a, a^dag] = 1 except at the truncation corner
    a = annihilation_matrix(8)
    comm = a @ a.conj().T - a.conj().T @ a
    np.testing.assert_allclose(np.diag(comm)[:-1].real, 1.0, atol=1e-14)


class TestOperatorExponential:
    def test_zero_generator(self):
        np.testing.assert_array_equal(operator_exponential(np.zeros((4, 4))), np.eye(4))

    def test_diagonal_phase(self):
        gen = 1j * math.pi * np.diag([1.0, -1.0])
        np.testing.assert_allclose(operator_exponential(gen), -np.eye(2), atol=1e-14)

    def test_matches_coherent_series(self):
        # column 0 of exp(alpha a^dag - alpha^* a) is the coherent expansion
        alpha = 0.3
        gen = fockspace.displacement_generator(alpha, 40)
        column = operator_exponential(gen)[:, 0]
        np.testing.assert_allclose(column, coherent_amplitudes(alpha, 40), atol=1e-10)

    def test_unitary_for_anti_hermitian(self):
        rng = np.random.default_rng(7)
        for dim in (2, 17, 48):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            gen = raw - raw.conj().T
            u = operator_exponential(gen)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12

    def test_real_generator_promoted(self):
        gen = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = operator_exponential(gen)
        assert out.dtype == complex
        np.testing.assert_allclose(
            out.real, [[math.cos(1), math.sin(1)], [-math.sin(1), math.cos(1)]], atol=1e-14
        )

    def test_group_property(self):
        rng = np.random.default_rng(3)
        gen = rng.normal(size=(9, 9))
        gen = gen - gen.T
        whole = operator_exponential(gen)
        half = operator_exponential(gen / 2.0)
        np.testing.assert_allclose(half @ half, whole, atol=1e-13)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            operator_exponential(np.zeros((3, 4)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = math.inf
        with pytest.raises(ValueError):
            operator_exponential(bad)


class TestTailBounds:
    def test_squeezed_tail_formula(self):
        r = 0.7
        q = math.tanh(r) ** 2
        assert squeezed_tail_mass(r, 10) == pytest.approx(q ** 11, rel=1e-12)
        assert squeezed_tail_mass(0.0, 0) == 0.0

    def test_coherent_tail_matches_direct_sum(self):
        alpha = 1.3
        lam = alpha ** 2
        kept = sum(math.exp(-lam) * lam ** n / math.factorial(n) for n in range(9))
        assert coherent_tail_mass(alpha, 8) == pytest.approx(1.0 - kept, rel=1e-9)

    @pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 2.0])
    def test_squeezed_cutoff_minimal(self, r):
        cut = squeezed_cutoff(r, 1e-12)
        assert squeezed_tail_mass(r, cut.n_max) <= 1e-12
        if cut.n_max > 0:
            assert squeezed_tail_mass(r, cut.n_max - 1) > 1e-12

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 2.5])
    def test_coherent_cutoff_minimal(self, alpha):
        cut = coherent_cutoff(alpha, 1e-12)
        assert coherent_tail_mass(alpha, cut.n_max) <= 1e-12
        if cut.n_max > 0:
            assert coherent_tail_mass(alpha, cut.n_max - 1) > 1e-12


class TestCoherentBuilder:
    def test_vacuum(self):
        state = build_coherent_two_mode(DisplacementParams(0.0, 0.0), FockCutoff(3))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(state.amplitudes, expected)

    def test_unit_displacement_column(self):
        state = build_coherent_two_mode(DisplacementParams(1.0, 0.0), FockCutoff(30))
        norm = math.exp(-0.5)
        for n in range(8):
            assert state.amplitudes[n, 0] == pytest.approx(
                norm / math.sqrt(math.factorial(n)), rel=1e-13
            )
        assert np.max(np.abs(state.amplitudes[:, 1:])) == 0.0

    def test_rank_one(self):
        state = build_coherent_two_mode(DisplacementParams(0.7 + 0.2j, -0.4), FockCutoff(30))
        singular = spectra.schmidt_coefficients(state)
        assert singular[1] < 1e-10

    def test_norm_within_tolerance(self):
        state = build_coherent_two_mode(DisplacementParams(1.1, 0.4j), FockCutoff(40))
        assert validate_state(state, 1e-12) < 1e-12
        assert state.tail_mass < 1e-12

    def test_tail_error_reports_requirement(self):
        with pytest.raises(TailMassError) as err:
            build_coherent_two_mode(DisplacementParams(2.0, 0.0), FockCutoff(4))
        assert err.value.required_n_max is not None
        assert err.value.required_n_max > 4


@pytest.mark.parametrize("amplitudes, build", [
    ((1.3, 0.4j), lambda amps, cut: build_coherent_two_mode(DisplacementParams(*amps), cut)),
    ((0.9,), lambda amps, cut: build_silbey_harris(SHParams(amps), cut)),
    ((0.7, -1.2), lambda amps, cut: build_silbey_harris(SHParams(amps), cut)),
    ((0.5, 1.1, 0.3), lambda amps, cut: build_silbey_harris(SHParams(amps), cut)),
], ids=["coherent-two-mode", "qubit-boson-1", "qubit-boson-2", "qubit-boson-3"])
def test_coherent_product_cutoff_is_smallest_accepted(amplitudes, build):
    # the builders split the tail budget evenly over the modes; the shared
    # cutoff is the smallest basis they accept and the one they ask for
    cutoff = coherent_product_cutoff(amplitudes, 1e-12)
    assert validate_state(build(amplitudes, cutoff), 1e-12) < 1e-12
    for too_small in (cutoff.n_max - 1, 0):
        with pytest.raises(TailMassError) as err:
            build(amplitudes, FockCutoff(too_small))
        assert err.value.required_n_max == cutoff.n_max


class TestSqueezedBuilder:
    def test_zero_squeezing_is_vacuum(self):
        state = build_squeezed_vacuum(SqueezedStateParams(0.0), FockCutoff(2))
        assert state.amplitudes[0, 0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_amplitudes_at_unit_squeezing(self):
        state = build_squeezed_vacuum(SqueezedStateParams(1.0), FockCutoff(60))
        assert state.amplitudes[0, 0].real == pytest.approx(SQUEEZED_R1_AMP0, abs=1e-14)
        assert state.amplitudes[1, 1].real == pytest.approx(SQUEEZED_R1_AMP1, abs=1e-14)

    def test_diagonal_matches_series_termwise(self):
        r = 0.8
        state = build_squeezed_vacuum(SqueezedStateParams(r), FockCutoff(40))
        off_diag = state.amplitudes - np.diag(np.diag(state.amplitudes))
        assert np.max(np.abs(off_diag)) == 0.0
        for n in range(41):
            expected = math.tanh(r) ** n / math.cosh(r)
            assert abs(state.amplitudes[n, n] - expected) < 1e-14

    def test_phase_only_rotates(self):
        flat = build_squeezed_vacuum(SqueezedStateParams(1.0, 0.0), FockCutoff(60))
        rotated = build_squeezed_vacuum(SqueezedStateParams(1.0, math.pi / 2), FockCutoff(60))
        np.testing.assert_allclose(
            np.abs(np.diag(rotated.amplitudes)), np.abs(np.diag(flat.amplitudes)), atol=1e-15
        )
        ns = np.arange(61)
        phases = np.exp(1j * ns * math.pi / 2)
        np.testing.assert_allclose(
            np.diag(rotated.amplitudes), phases * np.diag(flat.amplitudes), atol=1e-15
        )

    def test_tail_error(self):
        with pytest.raises(TailMassError) as err:
            build_squeezed_vacuum(SqueezedStateParams(2.0), FockCutoff(20))
        assert err.value.required_n_max == squeezed_cutoff(2.0, 1e-12).n_max

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError):
            SqueezedStateParams(-0.1)

    @pytest.mark.parametrize("r, theta", [(math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan),
                                          (0.5, math.inf)])
    def test_non_finite_parameters_rejected(self, r, theta):
        with pytest.raises(ValueError):
            SqueezedStateParams(r, theta)


class TestDisplacement:
    def test_identity_displacement(self):
        state = build_squeezed_vacuum(SqueezedStateParams(0.6), FockCutoff(30))
        out = apply_two_mode_displacement(state, DisplacementParams(0.0, 0.0))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_displaced_vacuum_is_coherent(self):
        # cutoff sized for amplitude-level agreement, not just tail mass
        cutoff = FockCutoff(45)
        vacuum = build_coherent_two_mode(DisplacementParams(0.0, 0.0), cutoff)
        displaced = apply_two_mode_displacement(vacuum, DisplacementParams(1.0, 2.0j))
        direct = build_coherent_two_mode(DisplacementParams(1.0, 2.0j), cutoff)
        np.testing.assert_allclose(displaced.amplitudes, direct.amplitudes, atol=1e-11)

    def test_norm_preserved(self):
        state = build_squeezed_vacuum(SqueezedStateParams(0.8), FockCutoff(50))
        out = apply_two_mode_displacement(state, DisplacementParams(0.5, 0.3))
        assert abs(out.norm() - state.norm()) < 1e-10

    def test_spectrum_unchanged_by_displacement(self):
        r = 0.8
        plain = build_squeezed_vacuum(SqueezedStateParams(r), FockCutoff(50))
        displaced = apply_two_mode_displacement(plain, DisplacementParams(0.5, 0.3))
        spec_plain = spectra.hermitian_eigenvalues(spectra.partial_trace(plain, 0), 0.0)
        spec_disp = spectra.hermitian_eigenvalues(spectra.partial_trace(displaced, 0), 0.0)
        assert np.max(np.abs(spec_plain.probabilities - spec_disp.probabilities)) < 1e-9

    def test_boundary_leak_detected(self):
        state = build_squeezed_vacuum(SqueezedStateParams(0.8), FockCutoff(36))
        with pytest.raises(TailMassError) as err:
            apply_two_mode_displacement(state, DisplacementParams(3.5, 0.0), tail_tol=1e-10)
        assert err.value.measured > 1e-10

    def test_requires_two_modes(self):
        sh = build_silbey_harris(SHParams((0.2, 0.1)), FockCutoff(8))
        with pytest.raises(DimensionError):
            apply_two_mode_displacement(sh, DisplacementParams(0.1, 0.0))


class TestSqueezedCoherent:
    def test_no_displacement_reduces_to_squeezed_vacuum(self):
        cutoff = FockCutoff(42)
        combined = build_squeezed_coherent(
            SqueezedStateParams(0.5), DisplacementParams(0.0, 0.0), cutoff
        )
        direct = build_squeezed_vacuum(SqueezedStateParams(0.5), cutoff, 1e-10)
        np.testing.assert_allclose(combined.amplitudes, direct.amplitudes, atol=1e-12)

    def test_reordering_identity_with_complex_parameters(self):
        params_s = SqueezedStateParams(0.3, 0.9)
        disp = DisplacementParams(0.2 + 0.1j, -0.15 + 0.05j)
        moved = reordered_displacement(params_s, disp)
        cutoff = FockCutoff(32)
        left = build_squeezed_coherent(params_s, disp, cutoff)
        squeezed = build_squeezed_vacuum(params_s, cutoff, 1e-12)
        right = apply_two_mode_displacement(squeezed, moved)
        assert np.max(np.abs(left.amplitudes - right.amplitudes)) < 1e-10

    def test_hyperbolic_factors_are_required(self):
        # the first-order form alpha + z conj(beta) visibly fails at finite r
        params_s = SqueezedStateParams(0.3)
        disp = DisplacementParams(0.2, 0.25)
        cutoff = FockCutoff(32)
        left = build_squeezed_coherent(params_s, disp, cutoff)
        squeezed = build_squeezed_vacuum(params_s, cutoff, 1e-12)
        naive = DisplacementParams(
            disp.alpha + 0.3 * np.conj(disp.beta_b),
            disp.beta_b + 0.3 * np.conj(disp.alpha),
        )
        approx = apply_two_mode_displacement(squeezed, naive)
        assert np.max(np.abs(left.amplitudes - approx.amplitudes)) > 1e-4

    def test_sector_chains_match_dense_pair_exponential(self):
        # reference: the pair generator exponentiated as one d^2 x d^2 matrix
        params_s = SqueezedStateParams(0.25, 1.1)
        disp = DisplacementParams(0.2 + 0.15j, -0.1 + 0.25j)
        cutoff = FockCutoff(11)
        z = params_s.r * complex(math.cos(params_s.theta), math.sin(params_s.theta))
        a = annihilation_matrix(cutoff.n_max)
        adag = a.conj().T
        dense = operator_exponential(z * np.kron(adag, adag) - np.conj(z) * np.kron(a, a))
        base = build_coherent_two_mode(disp, cutoff, tail_tol=1e-10)
        expected = (dense @ base.amplitudes.reshape(-1)).reshape(base.mode_dims)
        state = build_squeezed_coherent(params_s, disp, cutoff)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-13

    def test_basis_state_stays_in_its_sector(self):
        dim = 12
        amps = np.zeros((dim, dim), dtype=complex)
        amps[2, 5] = 1.0
        out = fockspace._squeeze_sectors(amps, SqueezedStateParams(0.4, 0.7))
        n, m = np.indices((dim, dim))
        sector = n - m == 2 - 5
        assert np.count_nonzero(out[~sector]) == 0
        assert np.vdot(out[sector], out[sector]).real == pytest.approx(1.0, abs=1e-13)
        assert np.count_nonzero(np.abs(out[sector]) > 1e-6) > 1

    def test_memory_budget_enforced(self, monkeypatch):
        monkeypatch.setenv("MEK_MEM_BUDGET", "1000")
        with pytest.raises(MemoryBudgetError):
            build_squeezed_coherent(
                SqueezedStateParams(0.3),
                DisplacementParams(0.1, 0.1),
                FockCutoff(30),
            )


class TestSilbeyHarris:
    def test_zero_displacement_separable(self):
        state = build_silbey_harris(SHParams((0.0, 0.0)), FockCutoff(4))
        amps = state.amplitudes
        assert amps[0, 0, 0] == pytest.approx(1.0 / math.sqrt(2.0))
        assert amps[1, 0, 0] == pytest.approx(-1.0 / math.sqrt(2.0))
        assert np.count_nonzero(amps) == 2
        assert spectra.schmidt_rank(
            spectra.hermitian_eigenvalues(spectra.partial_trace(state, 0))
        ) == 1

    def test_branch_overlap_single_mode(self):
        state = build_silbey_harris(SHParams((0.5,)), FockCutoff(25))
        up = state.amplitudes[0] * math.sqrt(2.0)
        down = -state.amplitudes[1] * math.sqrt(2.0)
        overlap = complex(np.vdot(up, down))
        assert overlap.real == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert abs(overlap.imag) < 1e-15

    def test_qubit_reduction_off_diagonal(self):
        params = SHParams((0.3, 0.4, 0.5))
        state = build_silbey_harris(params, FockCutoff(12))
        rho = spectra.partial_trace(state, 0).entries
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert rho[0, 1].real == pytest.approx(-math.exp(-1.0) / 2.0, abs=1e-10)

    def test_normalized_despite_overlap(self):
        state = build_silbey_harris(SHParams((0.4, 0.2)), FockCutoff(20))
        assert abs(1.0 - state.norm() ** 2) < 1e-12

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setenv("MEK_MEM_BUDGET", "100")
        with pytest.raises(MemoryBudgetError) as err:
            build_silbey_harris(SHParams((0.1, 0.1, 0.1)), FockCutoff(20))
        assert "n_max" in str(err.value)

    def test_env_var_overrides_budget(self, monkeypatch):
        monkeypatch.setenv("MEK_MEM_BUDGET", "50")
        with pytest.raises(MemoryBudgetError):
            build_silbey_harris(SHParams((0.1,)), FockCutoff(30))
        monkeypatch.setenv("MEK_MEM_BUDGET", "100000")
        build_silbey_harris(SHParams((0.1,)), FockCutoff(30))

    def test_requires_a_mode(self):
        with pytest.raises(ValueError):
            SHParams(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_displacement_rejected(self, bad):
        with pytest.raises(ValueError):
            SHParams((0.3, bad))


def test_displaced_number_state_stays_rank_one():
    # displacing |m>|n> keeps a one-term Schmidt decomposition
    cutoff = FockCutoff(40)
    amps = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    amps[2, 3] = 1.0
    state = ComplexAmplitudeTensor(amps, (cutoff.dim, cutoff.dim), 0.0)
    displaced = apply_two_mode_displacement(state, DisplacementParams(0.6, -0.4j))
    singular = spectra.schmidt_coefficients(displaced)
    assert singular[0] == pytest.approx(1.0, abs=1e-12)
    assert singular[1] < 1e-10


def _entropy_tail_bound(r: float, mu: float, n_max: int) -> float:
    # geometric bound on the truncation error of the series defining S_mu
    q = math.tanh(r) ** 2
    mass = q ** ((n_max + 1) * min(mu, 1.0))
    scale = 2.0 + (n_max + 2) * abs(math.log(q))
    if mu == 1.0:
        return mass * scale
    if math.isinf(mu):
        return mass
    return mass * scale / abs(1.0 - mu)


def test_doubling_cutoff_changes_entropies_within_tail_bound():
    r = 1.0
    base = squeezed_cutoff(r, 1e-10)
    for mu in (0.5, 1.0, 2.0, 5.0, math.inf):
        values = []
        for cut in (base, FockCutoff(2 * base.n_max + 1)):
            state = build_squeezed_vacuum(SqueezedStateParams(r), cut, 1e-9)
            spectrum = spectra.hermitian_eigenvalues(spectra.partial_trace(state, 0), 0.0)
            values.append(analytic.renyi_general(spectrum, mu))
        change = abs(values[1] - values[0])
        assert change <= max(10.0 * _entropy_tail_bound(r, mu, base.n_max), 1e-15)
