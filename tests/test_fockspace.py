import math

import numpy as np
import pytest

from mek import analytic, cli, fockspace, spectra
from mek.exceptions import ContractError, DimensionError, MemoryBudgetError, TailMassError
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
    operator_exponential,
    reordered_displacement,
    squeezed_cutoff,
    squeezed_tail_mass,
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


def test_ladder_commutator():
    # [a, a^dag] = 1 except at the truncation corner
    a = annihilation_matrix(8)
    comm = a @ a.conj().T - a.conj().T @ a
    np.testing.assert_allclose(np.diag(comm)[:-1].real, 1.0, atol=1e-14)


def eigh_exponential(gen):
    """Reference exp G for an anti-Hermitian G (or a stack): V e^{iw} V^H from eigh(-iG)."""
    w, v = np.linalg.eigh(-1j * gen)
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(v).swapaxes(-1, -2)


def random_cs_generator(rng, dim, complex_entries):
    """Random G = [[0, A], [-A^H, 0]] in even/odd index order, real or complex."""
    half = rng.normal(size=((dim + 1) // 2, dim // 2))
    if complex_entries:
        half = half + 1j * rng.normal(size=half.shape)
    gen = np.zeros((dim, dim), dtype=half.dtype)
    gen[::2, 1::2] = half
    gen[1::2, ::2] = -np.conj(half).T
    return gen


# odd sizes pad cos S with 1 on the even side
CS_CASES = [(dim, complex_entries) for dim in (1, 2, 17, 48) for complex_entries in (False, True)]


class TestOperatorExponential:
    def test_zero_generator(self):
        np.testing.assert_array_equal(operator_exponential(np.zeros((4, 4))), np.eye(4))

    def test_diagonal_phase(self):
        # a diagonal generator couples indices of equal parity: not CS form
        with pytest.raises(ContractError, match="even-even block"):
            operator_exponential(1j * math.pi * np.diag([1.0, -1.0]))
        with pytest.raises(ContractError, match="odd-odd block"):
            operator_exponential(1j * np.diag([0.0, 1.0]))

    def test_matches_coherent_series(self):
        # column 0 of exp(alpha a^dag - alpha^* a) is the coherent expansion
        alpha = 0.3
        gen = fockspace.displacement_generator(alpha, 40)
        column = operator_exponential(gen)[:, 0]
        np.testing.assert_allclose(column, coherent_amplitudes(alpha, 40), atol=1e-10)

    def test_unitary_for_anti_hermitian(self):
        rng = np.random.default_rng(7)
        for dim, complex_entries in CS_CASES:
            u = operator_exponential(random_cs_generator(rng, dim, complex_entries))
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12

    def test_real_generator_stays_real(self):
        gen = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = operator_exponential(gen)
        assert out.dtype == np.float64
        np.testing.assert_allclose(
            out, [[math.cos(1), math.sin(1)], [-math.sin(1), math.cos(1)]], atol=1e-14
        )

    def test_group_property(self):
        rng = np.random.default_rng(3)
        for dim, complex_entries in CS_CASES:
            gen = random_cs_generator(rng, dim, complex_entries)
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

    def test_padded_stack_matches_single_calls(self):
        # a pair-squeeze chain group is padded to its longest chain, k0
        dim = 40
        for z in (0.6, 0.6 * complex(math.cos(0.9), math.sin(0.9))):
            for k0 in (0, 8, 32, 39):
                stack = fockspace.pair_chain_stack(z, dim, k0)
                pad = dim - k0
                out = operator_exponential(stack)
                assert out.shape == stack.shape and out.dtype == stack.dtype
                for i, k in enumerate(range(k0, k0 + len(stack))):
                    size = dim - k
                    single = operator_exponential(stack[i, :size, :size])
                    assert np.max(np.abs(out[i, :size, :size] - single)) < 1e-14
                    # exp(blockdiag(G, 0)) = blockdiag(exp G, I), exactly
                    np.testing.assert_array_equal(out[i, size:, size:], np.eye(pad - size))
                    assert np.count_nonzero(out[i, :size, size:]) == 0
                    assert np.count_nonzero(out[i, size:, :size]) == 0

    def test_stack_shape_checked(self):
        np.testing.assert_array_equal(
            operator_exponential(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3))
        )
        for shape in ((2, 3, 4), (3,)):
            with pytest.raises(DimensionError):
                operator_exponential(np.zeros(shape))

    def test_rejects_non_finite_stack_member(self):
        for bad_value in (math.inf, complex(0.0, -math.inf)):
            stack = np.zeros((3, 4, 4), dtype=complex)
            stack[0, 1, 0] = 0.5
            stack[2, 3, 1] = bad_value
            with pytest.raises(ValueError, match="non-finite"):
                operator_exponential(stack)

    def test_cs_route_matches_series(self):
        # displacement generators and pair-squeeze chain stacks, against an
        # eigendecomposition of the Hermitian -iG
        gens = [
            fockspace.displacement_generator(alpha, dim - 1)
            for dim in (1, 2, 3, 64, 200)
            for alpha in (1.3, 0.8 - 1.1j)
        ]
        gens += [
            fockspace.pair_chain_stack(z, 40, k0)
            for z in (0.6, 0.6 * complex(math.cos(0.9), math.sin(0.9)))
            for k0 in (0, 8, 32)
        ]
        for gen in gens:
            out = operator_exponential(gen)
            assert out.dtype == gen.dtype
            assert np.max(np.abs(out - eigh_exponential(gen))) < 1e-13

    def test_non_cs_generators_are_rejected(self):
        rng = np.random.default_rng(13)
        raw = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        stack = fockspace.pair_chain_stack(0.4, 12, 0)
        stack[3, 2, 2] = 0.1
        for gen, block in (
            (np.array([[0.0, 1.0], [1.0, 0.0]]), "odd-even"),  # bipartite, not anti-Hermitian
            (np.array([[0, 1], [1, 0]]), "odd-even"),  # integers
            (fockspace.displacement_generator(0.4 + 0.2j, 9) + 0.3j * np.eye(10), "even-even"),
            (raw - raw.conj().T, "even-even"),  # dense anti-Hermitian
            (stack, "even-even"),  # one broken member spoils the stack
        ):
            with pytest.raises(ContractError, match=f"not in CS form.*{block} block"):
                operator_exponential(gen)
        with pytest.raises(ContractError):
            operator_exponential(raw - raw.conj().T, scales=(0.5, 1.0))

    def test_output_dtype(self):
        for gen, dtype in (
            (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.float64),
            (np.array([[0.0, 1.0j], [1.0j, 0.0]]), np.complex128),
            (np.array([[0, 1], [-1, 0]]), np.float64),  # integers, CS form
        ):
            assert operator_exponential(gen).dtype == dtype

    def test_scales_give_one_exponential_per_t(self):
        # one SVD of the half block serves every t
        rng = np.random.default_rng(5)
        gens = [
            fockspace.displacement_generator(1.0, 40),
            fockspace.displacement_generator(0.3 - 0.8j, 17),
        ]
        gens += [random_cs_generator(rng, dim, complex_entries) for dim, complex_entries in CS_CASES]
        for gen in gens:
            scales = (0.0, 0.5, -1.3, 2)
            out = operator_exponential(gen, scales=scales)
            assert out.shape == (len(scales),) + gen.shape and out.dtype == gen.dtype
            for t, member in zip(scales, out):
                assert np.max(np.abs(member - operator_exponential(t * gen))) < 1e-13

    @pytest.mark.parametrize(
        "scales",
        [(0.5, math.nan), (math.inf,), (0.5j,), (0.5 + 0j,), [[0.5]], 0.5, ("a",), (1e308,)],
    )
    def test_rejects_bad_scales(self, scales):
        with pytest.raises(ValueError):
            operator_exponential(fockspace.displacement_generator(2.0, 9), scales=scales)

    def test_rejects_scales_with_a_stack(self):
        stack = fockspace.pair_chain_stack(0.4, 12, 0)
        with pytest.raises(ValueError, match="stack"):
            operator_exponential(stack, scales=(1.0,))


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
        assert abs(1.0 - state.norm() ** 2) < 1e-12
        assert state.tail_mass < 1e-12

    @pytest.mark.parametrize("alpha", [37.65, 38.5j, 100.0])
    def test_underflowing_vacuum_coefficient_is_refused(self, alpha):
        # e^{-|alpha|^2/2} is subnormal above 37.64, and the recurrence would
        # start from it; both the builders and the cutoff rule refuse the amplitude
        with pytest.raises(ValueError, match=r"\|alpha\| = .* is above 37\.64"):
            coherent_amplitudes(alpha, 3)
        with pytest.raises(ValueError, match="underflows float64"):
            coherent_product_cutoff((0.5, alpha))

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
    assert abs(1.0 - build(amplitudes, cutoff).norm() ** 2) < 1e-12
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

    @pytest.mark.parametrize("theta, dtype", [(0.0, np.float64), (1.1, np.complex128)])
    def test_amplitudes_are_the_schmidt_diagonal(self, theta, dtype):
        # stored as its Schmidt vector; the dense diag(s) is built on first read
        state = build_squeezed_vacuum(SqueezedStateParams(0.8, theta), FockCutoff(40))
        assert state.schmidt.dtype == dtype and state.schmidt.shape == (41,)
        amps = state.amplitudes
        assert amps.dtype == dtype and amps.shape == state.mode_dims == (41, 41)
        assert amps.tobytes() == np.diag(state.schmidt).tobytes()
        assert state.amplitudes is amps
        # the norm is taken over the dense array, as for every other state
        assert state.norm() == float(np.linalg.norm(np.diag(state.schmidt).ravel()))

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


class TestDisplacementRoute:
    """One real SVD per mode dimension, then each amplitude's phase entrywise."""

    AMPLITUDES = (0.5, -0.7, 1.2 - 0.7j, 0.4j, 0.0)

    @staticmethod
    def per_mode_eigh(state, params):
        op_a, op_b = (
            eigh_exponential(fockspace.displacement_generator(amp, dim - 1))
            for amp, dim in zip((params.alpha, params.beta_b), state.mode_dims)
        )
        return op_a @ state.amplitudes @ op_b.T

    @pytest.mark.parametrize("dim", [3, 64, 200])
    def test_matches_per_mode_series(self, dim):
        # a real state whose weight reaches every level, so every entry of
        # both operators counts; the boundary-leak check is off
        rng = np.random.default_rng(dim)
        amps = rng.normal(size=(dim, dim))
        state = ComplexAmplitudeTensor(amps / np.linalg.norm(amps), (dim, dim), 0.0)
        for alpha in self.AMPLITUDES:
            for beta in self.AMPLITUDES:
                params = DisplacementParams(alpha, beta)
                out = apply_two_mode_displacement(state, params, tail_tol=math.inf)
                real = complex(alpha).imag == 0.0 and complex(beta).imag == 0.0
                assert out.amplitudes.dtype == (np.float64 if real else np.complex128)
                reference = self.per_mode_eigh(state, params)
                assert np.max(np.abs(out.amplitudes - reference)) < 1e-13

    def test_unequal_mode_dimensions(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=(17, 30)) + 1j * rng.normal(size=(17, 30))
        state = ComplexAmplitudeTensor(amps / np.linalg.norm(amps), (17, 30), 0.0)
        for params in (DisplacementParams(0.6, -0.4), DisplacementParams(0.3j, 0.9 - 0.2j)):
            out = apply_two_mode_displacement(state, params, tail_tol=math.inf)
            assert np.max(np.abs(out.amplitudes - self.per_mode_eigh(state, params))) < 1e-13

    @pytest.mark.parametrize("dim", [14, 64, 266])
    def test_diagonal_state_skips_the_dense_product(self, dim):
        # (op_a * s) @ op_b.T on a real Schmidt vector s gives the dense
        # product op_a @ diag(s) @ op_b.T of the same state built by hand bit
        # for bit, for real and complex displacements; a complex s agrees to
        # round-off
        cases = [
            (SqueezedStateParams(0.6), DisplacementParams(0.5, -0.3), True),
            (SqueezedStateParams(0.6), DisplacementParams(0.4 - 0.2j, 0.3j), True),
            (SqueezedStateParams(0.6, 1.1), DisplacementParams(0.4 - 0.2j, 0.3j), False),
        ]
        for params_s, params_d, bitwise in cases:
            state = build_squeezed_vacuum(params_s, FockCutoff(dim - 1), 1e-3)
            by_hand = ComplexAmplitudeTensor(np.diag(state.schmidt), state.mode_dims, 0.0)
            assert by_hand.schmidt is None
            diagonal = apply_two_mode_displacement(state, params_d, tail_tol=math.inf)
            dense = apply_two_mode_displacement(by_hand, params_d, tail_tol=math.inf)
            assert diagonal.amplitudes.dtype == dense.amplitudes.dtype
            if bitwise:
                np.testing.assert_array_equal(diagonal.amplitudes, dense.amplitudes)
            else:
                assert np.max(np.abs(diagonal.amplitudes - dense.amplitudes)) < 1e-15

    def test_one_exponential_per_square_state(self, monkeypatch):
        calls = []
        original = fockspace.operator_exponential

        def counting(generator, scales=None):
            calls.append((np.shape(generator), None if scales is None else len(scales)))
            return original(generator, scales=scales)

        monkeypatch.setattr(fockspace, "operator_exponential", counting)
        state = build_squeezed_vacuum(SqueezedStateParams(0.8), FockCutoff(50))
        for params in (DisplacementParams(0.5, 0.3), DisplacementParams(1.2 - 0.7j, 0.0)):
            calls.clear()
            apply_two_mode_displacement(state, params)
            assert calls == [((51, 51), 2)]
        calls.clear()
        plan = cli.OraclePlan.displaced(1.0, cli.SWEEP_DISPLACEMENT, fockspace.DEFAULT_TAIL_TOL)
        cli.build_displaced_squeezed(1.0, cli.SWEEP_DISPLACEMENT, plan)
        assert len(calls) == 1


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

    def test_mirror_sectors_share_one_chain_exactly(self):
        # sectors +k and -k run through the same exponential, so transposing
        # the input transposes the output bit for bit
        rng = np.random.default_rng(5)
        params = SqueezedStateParams(0.45, 2.3)
        for dim in (9, 20, 47):
            amps = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            out = fockspace._squeeze_sectors(amps, params)
            np.testing.assert_array_equal(fockspace._squeeze_sectors(amps.T, params), out.T)

    @pytest.mark.parametrize("corner", [(0, 20), (20, 0)])
    def test_length_one_chain_in_padded_group(self, corner):
        # |0, d-1> and |d-1, 0> are whole chains of length 1, padded in the last group
        dim = 21
        amps = np.zeros((dim, dim), dtype=complex)
        amps[corner] = 1.0
        out = fockspace._squeeze_sectors(amps, SqueezedStateParams(0.6, 0.9))
        n, m = np.indices((dim, dim))
        sector = n - m == corner[0] - corner[1]
        assert np.count_nonzero(sector) == 1
        assert np.count_nonzero(out[~sector]) == 0
        assert np.vdot(out[sector], out[sector]).real == pytest.approx(1.0, abs=1e-15)

    def test_memory_budget_enforced(self, monkeypatch):
        monkeypatch.setenv("MEK_MEM_BUDGET", "1000")
        with pytest.raises(MemoryBudgetError):
            build_squeezed_coherent(
                SqueezedStateParams(0.3),
                DisplacementParams(0.1, 0.1),
                FockCutoff(30),
            )

    def test_budget_counts_stacked_chain_work(self, monkeypatch):
        # d = 20: groups of 8, 8 and 4 chains padded to 20, 12 and 4 give
        # 8 * 20^3 + 8 * 12^3 + 4 * 4^3 = 78,080, against dim^4 = 160,000
        assert fockspace._pair_squeeze_work(20) == 78_080
        args = (SqueezedStateParams(0.3), DisplacementParams(0.1, 0.1), FockCutoff(19))
        monkeypatch.setenv("MEK_MEM_BUDGET", "100000")
        assert build_squeezed_coherent(*args).amplitudes.shape == (20, 20)
        monkeypatch.setenv("MEK_MEM_BUDGET", "78079")
        with pytest.raises(MemoryBudgetError, match="78080"):
            build_squeezed_coherent(*args)


class TestDtypeRule:
    """Amplitudes are float64 when every parameter of a build is real, else complex128."""

    def test_real_parameters_stay_float64(self):
        cutoff = FockCutoff(30)
        disp = DisplacementParams(0.5, 0.3)
        plan = cli.OraclePlan.displaced(1.0, cli.SWEEP_DISPLACEMENT, fockspace.DEFAULT_TAIL_TOL)
        builds = (
            build_squeezed_vacuum(SqueezedStateParams(0.6), cutoff),
            build_coherent_two_mode(disp, cutoff),
            build_squeezed_coherent(SqueezedStateParams(0.4), disp, cutoff),
            cli.build_displaced_squeezed(1.0, cli.SWEEP_DISPLACEMENT, plan),
            build_silbey_harris(SHParams((0.3, 0.4)), FockCutoff(12)),
        )
        for state in builds:
            assert state.amplitudes.dtype == np.float64
            assert spectra.partial_trace(state, 0).entries.dtype == np.float64

    def test_complex_parameters_give_complex128(self):
        cutoff = FockCutoff(30)
        builds = (
            build_squeezed_vacuum(SqueezedStateParams(0.6, 0.7), cutoff),
            build_coherent_two_mode(DisplacementParams(0.5 + 0.2j, 0.3), cutoff),
            build_squeezed_coherent(
                SqueezedStateParams(0.4, 1.1), DisplacementParams(0.5, 0.3), cutoff
            ),
            build_squeezed_coherent(
                SqueezedStateParams(0.4), DisplacementParams(0.5, 0.3j), cutoff
            ),
        )
        for state in builds:
            assert state.amplitudes.dtype == np.complex128
        # a diagonal reduction holds |psi_ii|^2, real whatever the phases
        rhos = [spectra.partial_trace(state, 0).entries for state in builds]
        assert [rho.dtype for rho in rhos] == [np.float64] + [np.complex128] * 3

    def test_ladder_and_generators_follow_the_parameter(self):
        assert annihilation_matrix(4).dtype == np.float64
        assert fockspace.displacement_generator(0.5, 4).dtype == np.float64
        assert fockspace.displacement_generator(0.5 + 0j, 4).dtype == np.float64
        assert fockspace.displacement_generator(0.5j, 4).dtype == np.complex128
        assert coherent_amplitudes(complex(0.5), 4).dtype == np.float64
        assert coherent_amplitudes(0.5 - 0.1j, 4).dtype == np.complex128

    def test_tensor_stores_float64_or_complex128(self):
        cases = ((int, np.float64), (np.float32, np.float64), (complex, np.complex128))
        for given, stored in cases:
            state = ComplexAmplitudeTensor(np.eye(2, dtype=given), (2, 2), 0.0)
            assert state.amplitudes.dtype == stored

    def test_real_chains_match_the_complex_route(self):
        rng = np.random.default_rng(11)
        for dim in (9, 20, 47):
            amps = rng.normal(size=(dim, dim))
            amps /= np.linalg.norm(amps)
            params = SqueezedStateParams(0.6)
            real = fockspace._squeeze_sectors(amps, params)
            assert real.dtype == np.float64
            cast = fockspace._squeeze_sectors(amps.astype(complex), params)
            assert cast.dtype == np.complex128
            assert np.max(np.abs(real - cast)) < 1e-15


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
