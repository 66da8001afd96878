import math
import tracemalloc

import numpy as np
import pytest

from mek import analytic, cli
from mek.exceptions import ContractError, DimensionError
from mek.fockspace import (
    ComplexAmplitudeTensor,
    DisplacementParams,
    FockCutoff,
    SHParams,
    SqueezedStateParams,
    apply_two_mode_displacement,
    build_coherent_two_mode,
    build_silbey_harris,
    build_squeezed_vacuum,
    squeezed_cutoff,
)
from mek.spectra import (
    ReducedDensityMatrix,
    hermitian_eigenvalues,
    partial_trace,
    schmidt_coefficients,
    schmidt_rank,
)

# frozen: sech^2(1), tanh^2(1) sech^2(1), (1 +/- 1/e) / 2
SQUEEZED_R1_P0 = 0.4199743416140261
SQUEEZED_R1_P1 = 0.2435958939998914
SH_E1_PLUS = 0.6839397205857212
SH_E1_MINUS = 0.3160602794142788


class TestPartialTrace:
    def test_product_state_projector(self):
        state = build_coherent_two_mode(DisplacementParams(0.0, 0.0), FockCutoff(3))
        rho = partial_trace(state, 0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.entries, expected, atol=1e-15)
        assert rho.entries.shape == (4, 4)

    def test_squeezed_reduction_is_geometric(self):
        state = build_squeezed_vacuum(SqueezedStateParams(1.0), FockCutoff(60))
        rho = partial_trace(state, 0)
        diag = np.diag(rho.entries).real
        assert diag[0] == pytest.approx(SQUEEZED_R1_P0, abs=1e-13)
        assert diag[1] == pytest.approx(SQUEEZED_R1_P1, abs=1e-13)
        off = rho.entries - np.diag(np.diag(rho.entries))
        assert np.max(np.abs(off)) == 0.0

    def test_sh_qubit_reduction(self):
        state = build_silbey_harris(SHParams((0.5, 0.5)), FockCutoff(20))
        rho = partial_trace(state, 0)
        c = math.exp(-1.0)
        np.testing.assert_allclose(
            rho.entries.real, [[0.5, -c / 2.0], [-c / 2.0, 0.5]], atol=1e-12
        )
        assert np.max(np.abs(rho.entries.imag)) < 1e-15

    def test_invalid_factor(self):
        dense = build_coherent_two_mode(DisplacementParams(0.1, 0.0), FockCutoff(10))
        schmidt_form = build_squeezed_vacuum(SqueezedStateParams(0.8), FockCutoff(40))
        for state in (dense, schmidt_form):
            for keep_factor in (2, -1):
                with pytest.raises(DimensionError, match="out of range for 2 tensor factors"):
                    partial_trace(state, keep_factor)

    @pytest.mark.parametrize("keep_factor", [0, 1])
    @pytest.mark.parametrize("off_diagonal", [0.0, 1e-3])
    def test_matches_amplitude_product(self, keep_factor, off_diagonal):
        # built by hand, a state takes the product whether or not its
        # unfolding is diagonal (the Schmidt route is in TestDiagonalRoute)
        amps = build_squeezed_vacuum(SqueezedStateParams(0.8, 1.1), FockCutoff(40)).amplitudes
        amps = amps.copy()
        amps[2, 5] += off_diagonal
        amps /= np.linalg.norm(amps)
        state = ComplexAmplitudeTensor(amps)
        rho = partial_trace(state, keep_factor).entries
        unfolded = np.moveaxis(amps, keep_factor, 0)
        reference = unfolded @ unfolded.conj().T
        np.testing.assert_allclose(rho, reference, rtol=0.0, atol=1e-16)
        off_nonzero = np.count_nonzero(rho) - np.count_nonzero(np.diag(rho))
        assert (off_nonzero == 0) == (off_diagonal == 0.0)

    def test_dense_reduction_allocates_rho_alone(self):
        # the product is Hermitian by construction, so no d x d temporary checks
        # it here: the displaced state at r = 1.8 (d = 266) allocates rho only
        plan = cli.OraclePlan.displaced(1.8, cli.SWEEP_DISPLACEMENT, 1e-12)
        state = cli.build_displaced_squeezed(1.8, cli.SWEEP_DISPLACEMENT, plan)
        dim, itemsize = state.mode_dims[0], state.amplitudes.itemsize
        assert dim == 266
        tracemalloc.start()
        try:
            rho = partial_trace(state, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rho.entries.shape == (dim, dim)
        assert peak <= 1.1 * dim * dim * itemsize, f"peak {peak / (dim * dim * itemsize):.2f} d^2"

    def test_unnormalized_state_rejected(self):
        # the Schmidt route checks sum |psi_nn|^2 with the same tolerance and
        # message (TestDiagonalRoute)
        amps = np.zeros((3, 3), dtype=complex)
        amps[0, 0] = 0.5
        bad = ComplexAmplitudeTensor(amps)
        message = (
            r"^reduced matrix trace deviates from 1 by 7\.500e-01; "
            r"was the input state normalized\?$"
        )
        with pytest.raises(ContractError, match=message):
            partial_trace(bad, 0)

    @pytest.mark.parametrize("diagonal_only", [False, True], ids=["dense", "diagonal-only"])
    def test_nan_state_rejected(self, diagonal_only):
        # NaN compares False with every tolerance, so the checks must fail closed
        amps = np.zeros((2, 2)) if diagonal_only else np.full((2, 2), math.nan)
        amps[0, 0] = math.nan
        with pytest.raises(ContractError):
            partial_trace(ComplexAmplitudeTensor(amps), 0)


class TestDiagonalRoute:
    """A reduction in Schmidt form carries only its real diagonal |psi_ii|^2."""

    def test_reduction_allocates_no_dense_matrix(self):
        # the state is stored as its Schmidt vector and reduced from it: no
        # d x d array is built at any step, and none is scanned
        r = 2.5
        cutoff = squeezed_cutoff(r)
        tracemalloc.start()
        try:
            state = build_squeezed_vacuum(SqueezedStateParams(r), cutoff)
            spectrum = hermitian_eigenvalues(partial_trace(state, 0), rank_tolerance=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dim = cutoff.dim
        assert spectrum.probabilities.size == dim
        assert peak < 64 * dim, f"peak {peak} bytes at d = {dim}; a dense state is {8 * dim * dim}"

    @pytest.mark.parametrize("theta", [0.0, 1.1])
    def test_entries_are_the_float64_diagonal(self, theta):
        state = build_squeezed_vacuum(SqueezedStateParams(0.8, theta), FockCutoff(40))
        psi = state.amplitudes.diagonal()
        entries = partial_trace(state, 0).entries
        expected = np.diag(psi.real**2 + psi.imag**2)
        assert entries.dtype == np.float64
        assert entries.shape == expected.shape
        assert entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("theta", [0.0, 1.1])
    def test_either_factor_matches_the_dense_product(self, theta):
        # the same state built by hand as a dense diagonal goes through the product
        state = build_squeezed_vacuum(SqueezedStateParams(0.8, theta), FockCutoff(40))
        by_hand = ComplexAmplitudeTensor(np.diag(state.schmidt))
        for keep_factor in (0, 1):
            rho = partial_trace(state, keep_factor).entries
            dense = partial_trace(by_hand, keep_factor).entries
            assert rho.dtype == np.float64
            np.testing.assert_allclose(rho, dense, rtol=0.0, atol=1e-16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_schmidt_vector_rejected(self, bad):
        # the trace check fails closed on the Schmidt route too, and so does
        # the finiteness check on a diagonal reduction
        state = build_squeezed_vacuum(SqueezedStateParams(0.8, 1.1), FockCutoff(40))
        state.schmidt[3] = bad
        with pytest.raises(ContractError, match="trace deviates from 1"):
            partial_trace(state, 0)
        diagonal = ReducedDensityMatrix._from_diagonal(np.abs(state.schmidt) ** 2)
        with pytest.raises(ContractError, match="non-finite"):
            hermitian_eigenvalues(diagonal)

    def test_unnormalized_schmidt_vector_rejected(self):
        state = build_squeezed_vacuum(SqueezedStateParams(0.8), FockCutoff(40))
        state.schmidt[0] *= 0.5
        deficit = abs(1.0 - float(np.sum(state.schmidt**2)))
        message = rf"^reduced matrix trace deviates from 1 by {deficit:.3e}; "
        with pytest.raises(ContractError, match=message):
            partial_trace(state, 0)


class TestHermitianEigenvalues:
    def test_already_diagonal(self):
        rho = ReducedDensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        spectrum = hermitian_eigenvalues(rho)
        np.testing.assert_allclose(spectrum.probabilities, [0.7, 0.3], atol=0.0)

    def test_two_level_mixture(self):
        c = math.exp(-1.0)
        rho = ReducedDensityMatrix(
            np.array([[0.5, -c / 2.0], [-c / 2.0, 0.5]], dtype=complex)
        )
        spectrum = hermitian_eigenvalues(rho)
        assert spectrum.probabilities[0] == pytest.approx(SH_E1_PLUS, abs=1e-14)
        assert spectrum.probabilities[1] == pytest.approx(SH_E1_MINUS, abs=1e-14)

    def test_squeezed_spectrum_matches_closed_form(self):
        state = build_squeezed_vacuum(SqueezedStateParams(0.5), FockCutoff(40))
        spectrum = hermitian_eigenvalues(partial_trace(state, 0), rank_tolerance=0.0)
        expected = analytic.squeezed_spectrum(0.5, np.arange(41))
        assert np.max(np.abs(spectrum.probabilities - expected)) < 1e-10

    def test_dense_hermitian_against_lapack(self):
        rng = np.random.default_rng(11)
        for dim in (3, 8, 21):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            psd = raw @ raw.conj().T
            psd /= np.trace(psd).real
            spectrum = hermitian_eigenvalues(ReducedDensityMatrix(psd))
            reference = np.linalg.eigvalsh(psd)[::-1]
            assert np.max(np.abs(spectrum.probabilities - reference)) < 1e-12

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        psd = raw @ raw.conj().T
        psd /= np.trace(psd).real
        spectrum = hermitian_eigenvalues(ReducedDensityMatrix(psd))
        assert abs(np.sum(spectrum.probabilities) - 1.0) < 1e-10

    def test_small_eigenvalues_keep_order_half_accuracy(self):
        # order 0.5 weighs the small eigenvalues of a long geometric spectrum
        # heavily, so their absolute errors show up in the entropy
        dim, q = 150, 0.8
        p = q ** np.arange(dim)
        p /= p.sum()
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary, _ = np.linalg.qr(raw)
        rho = ReducedDensityMatrix((unitary * p) @ unitary.conj().T)
        spectrum = hermitian_eigenvalues(rho, rank_tolerance=0.0)
        exact = math.log(np.sum(p ** 0.5)) / (1.0 - 0.5)
        assert abs(analytic.renyi_orders(spectrum, [0.5])[0] - exact) < 1e-9

    def test_rejects_non_hermitian(self):
        # the second input is diagonal-only and is checked on its diagonal alone
        for bad in (
            np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex),
            np.diag([0.5 + 1e-11j, 0.5]),
        ):
            with pytest.raises(ContractError):
                hermitian_eigenvalues(ReducedDensityMatrix(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        for entries in (np.diag([bad, 1.0]), np.array([[0.5, bad], [bad, 0.5]])):
            with pytest.raises(ContractError):
                hermitian_eigenvalues(ReducedDensityMatrix(entries.astype(complex)))

    def test_real_symmetric_matches_complex_cast(self):
        rng = np.random.default_rng(13)
        raws = [rng.normal(size=(dim, dim)) for dim in (5, 24, 64)]
        rhos = [raw @ raw.T / np.sum(raw * raw) for raw in raws]
        displaced = apply_two_mode_displacement(
            build_squeezed_vacuum(SqueezedStateParams(1.0), FockCutoff(63)),
            DisplacementParams(0.5, 0.3),
        )
        rhos.append(partial_trace(displaced, 0).entries)
        for rho in rhos:
            assert rho.dtype == np.float64
            np.testing.assert_array_equal(rho, rho.T)
            real = hermitian_eigenvalues(ReducedDensityMatrix(rho)).probabilities
            cast = hermitian_eigenvalues(ReducedDensityMatrix(rho.astype(complex))).probabilities
            assert np.max(np.abs(real - cast)) < 1e-15

    def test_rejects_real_asymmetric(self):
        with pytest.raises(ContractError, match="not Hermitian"):
            hermitian_eigenvalues(ReducedDensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]])))

    def test_real_nan_off_diagonal_is_not_diagonal(self):
        entries = np.diag([0.5, 0.5])
        entries[0, 1] = math.nan
        with pytest.raises(ContractError):
            hermitian_eigenvalues(ReducedDensityMatrix(entries))

    def test_rejects_genuinely_negative(self):
        rho = ReducedDensityMatrix(np.diag([1.1, -0.1]).astype(complex))
        with pytest.raises(ContractError):
            hermitian_eigenvalues(rho)

    def test_clamps_roundoff_negatives(self):
        rho = ReducedDensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        spectrum = hermitian_eigenvalues(rho)
        assert spectrum.probabilities[1] == 0.0


class TestSchmidtRank:
    def test_coherent_is_rank_one(self):
        state = build_coherent_two_mode(DisplacementParams(0.8, 0.3j), FockCutoff(25))
        spectrum = hermitian_eigenvalues(partial_trace(state, 0))
        assert schmidt_rank(spectrum) == 1

    def test_sh_is_rank_two(self):
        state = build_silbey_harris(SHParams((0.4,)), FockCutoff(16))
        spectrum = hermitian_eigenvalues(partial_trace(state, 0))
        assert schmidt_rank(spectrum) == 2

    def test_squeezed_rank_counts_geometric_terms(self):
        r = 0.1
        state = build_squeezed_vacuum(SqueezedStateParams(r), FockCutoff(8), 1e-13)
        spectrum = hermitian_eigenvalues(partial_trace(state, 0))
        expected = sum(
            1 for n in range(9) if analytic.squeezed_spectrum(r, n) > 1e-10
        )
        assert schmidt_rank(spectrum) == expected


class TestPartitionSymmetry:
    @pytest.mark.parametrize("displace", [False, True])
    def test_both_partitions_share_the_spectrum(self, displace):
        state = build_squeezed_vacuum(SqueezedStateParams(0.5), FockCutoff(35))
        if displace:
            state = apply_two_mode_displacement(state, DisplacementParams(0.3, 0.2))
        spec_a = hermitian_eigenvalues(partial_trace(state, 0), rank_tolerance=0.0)
        spec_b = hermitian_eigenvalues(partial_trace(state, 1), rank_tolerance=0.0)
        assert np.max(np.abs(spec_a.probabilities - spec_b.probabilities)) < 1e-10


def test_spectrum_independent_of_squeezing_angle():
    reference = None
    for theta in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi):
        state = build_squeezed_vacuum(SqueezedStateParams(0.9, theta), FockCutoff(45))
        spectrum = hermitian_eigenvalues(partial_trace(state, 0), rank_tolerance=0.0)
        if reference is None:
            reference = spectrum.probabilities
        else:
            assert np.max(np.abs(spectrum.probabilities - reference)) < 1e-12


class TestSchmidtCoefficients:
    def test_matches_lapack_svd(self):
        rng = np.random.default_rng(2)
        for shape in ((5, 5), (4, 12), (20, 3)):
            mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            state = ComplexAmplitudeTensor(mat / np.linalg.norm(mat))
            mine = schmidt_coefficients(state)
            reference = np.linalg.svd(state.amplitudes, compute_uv=False)
            assert np.max(np.abs(mine - reference)) < 1e-12

    def test_multi_factor_unfolding(self):
        state = build_silbey_harris(SHParams((0.5, 0.5)), FockCutoff(15))
        coeffs = schmidt_coefficients(state, keep_factor=0)
        spectrum = hermitian_eigenvalues(partial_trace(state, 0))
        np.testing.assert_allclose(coeffs[:2] ** 2, spectrum.probabilities, atol=1e-12)

    def test_invalid_factor(self):
        state = build_coherent_two_mode(DisplacementParams(0.1, 0.0), FockCutoff(5))
        with pytest.raises(DimensionError):
            schmidt_coefficients(state, keep_factor=5)

    def test_leaves_input_untouched(self):
        state = build_coherent_two_mode(DisplacementParams(0.5, 0.2), FockCutoff(15))
        before = state.amplitudes.copy()
        schmidt_coefficients(state)
        np.testing.assert_array_equal(state.amplitudes, before)


def test_spectrum_entries_validate_against_tolerances():
    # clamped entries are non-negative and descending by construction
    state = build_squeezed_vacuum(SqueezedStateParams(0.7), FockCutoff(30))
    spectrum = hermitian_eigenvalues(partial_trace(state, 0))
    probs = spectrum.probabilities
    assert np.all(probs >= 0.0)
    assert np.all(np.diff(probs) <= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-10
