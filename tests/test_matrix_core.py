import numpy as np
import pytest

from wignerkit import (
    BadRankError,
    DimensionMismatchError,
    NonFiniteError,
    NotAProjectionError,
    NotHermitianError,
    NotUnitaryError,
    conjugate,
    haar_unitary,
    phase_distance,
    random_hermitian,
    random_rank_k_projection,
    require_unitary,
    spectral_decomp,
    trace,
    transpose,
    validate_projection,
)
from wignerkit.matrix_core import NOT_A_PROJECTION, NOT_HERMITIAN, projection_ranks


class TestSpectralDecomp:
    def test_diagonal(self):
        w, v = spectral_decomp(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-14)
        # eigenvectors are e_1, e_2 up to phase
        assert abs(v[0, 0]) == pytest.approx(1.0, abs=1e-14)
        assert abs(v[1, 1]) == pytest.approx(1.0, abs=1e-14)

    def test_identity(self):
        w, v = spectral_decomp(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-13)

    def test_pauli_x(self):
        # characteristic polynomial x^2 - 1 by hand
        w, _ = spectral_decomp(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            spectral_decomp(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            spectral_decomp(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            spectral_decomp(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_reconstruction_residual(self):
        # 1000 random Hermitian matrices, n <= 8
        worst = 0.0
        for i in range(1000):
            rng = np.random.default_rng((8, i))
            n = int(rng.integers(1, 9))
            h = random_hermitian(n, (8, i, 1))
            w, v = spectral_decomp(h)
            res = np.linalg.norm(h - v @ np.diag(w) @ v.conj().T)
            worst = max(worst, res / max(1.0, np.linalg.norm(h)))
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-11
        assert worst <= 1e-11


class TestValidateProjection:
    def test_diagonal_rank_two(self):
        p = validate_projection(np.diag([1.0, 1.0, 0.0]), tol=1e-8)
        assert p.rank == 2

    def test_off_spectrum_rejected(self):
        with pytest.raises(NotAProjectionError):
            validate_projection(np.diag([0.95, 0.05, 0.0]), tol=1e-8)

    def test_rank_one_hadamard_like(self):
        # eigenvalues {1, 0} by direct computation
        p = validate_projection(0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert p.rank == 1

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            validate_projection(np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_trace_matches_rank(self):
        for i in range(20):
            rng = np.random.default_rng((11, i))
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            p = random_rank_k_projection(n, k, (11, i, 1))
            assert abs(trace(p.matrix) - p.rank) <= n * p.tol

    def test_idempotency_recheck_outlasts_spectral_test(self):
        # Every eigenvalue is 1 + 0.99 tol, within tol of 1, but at n = 120
        # ||m^2 - m||_F is about sqrt(120) 0.99 tol > 10 tol.
        m = (1.0 + 0.99e-8) * np.eye(120)
        with pytest.raises(NotAProjectionError):
            validate_projection(m, tol=1e-8)

    def test_hermiticity_recheck_outlasts_relative_test(self):
        # ||m - m*||_F = 10.5 tol passes the relative test (tol ||m||_F is
        # about 10.95 tol at rank 120) and the spectral test, not the 10 tol re-check.
        m = np.eye(120, dtype=complex)
        m[0, 1], m[1, 0] = 10.5e-8 / (2 * np.sqrt(2)), -10.5e-8 / (2 * np.sqrt(2))
        with pytest.raises(NotAProjectionError):
            validate_projection(m, tol=1e-8)

    def test_stack_matches_one_matrix_calls(self):
        ms = np.stack([np.diag([1.0, 1.0, 0.0]), np.diag([0.95, 0.05, 0.0]),
                       np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                       random_rank_k_projection(3, 1, 5).matrix])
        ranks, residuals = projection_ranks(ms, 1e-8)
        assert list(ranks) == [2, NOT_A_PROJECTION, NOT_HERMITIAN, 1]
        for m, residual in zip(ms, residuals):
            assert residual == pytest.approx(np.linalg.norm(m @ m - m), abs=1e-15)

    def test_certificate_bounds(self):
        for i in range(50):
            rng = np.random.default_rng((12, i))
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            p = random_rank_k_projection(n, k, (12, i, 1))
            m = p.matrix
            assert np.linalg.norm(m @ m - m) <= 10 * p.tol
            assert np.linalg.norm(m - m.conj().T) <= 10 * p.tol


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, seed=3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_unitarity_and_determinism(self):
        u1 = haar_unitary(4, seed=5)
        u2 = haar_unitary(4, seed=5)
        np.testing.assert_array_equal(u1, u2)
        assert np.linalg.norm(u1.conj().T @ u1 - np.eye(4)) < 1e-12

    def test_distinct_seeds_differ(self):
        assert np.linalg.norm(haar_unitary(3, 0) - haar_unitary(3, 1)) > 0.1

    def test_first_entry_moment(self):
        # Haar moment E|U_11|^2 = 1/n, Monte-Carlo with a 3-sigma band
        n, count = 4, 10_000
        vals = np.array([abs(haar_unitary(n, (7, i))[0, 0]) ** 2 for i in range(count)])
        sigma = vals.std(ddof=1) / np.sqrt(count)
        assert abs(vals.mean() - 1.0 / n) < 3.0 * sigma

    def test_require_unitary(self):
        require_unitary(haar_unitary(5, 2))
        with pytest.raises(NotUnitaryError):
            require_unitary(np.diag([1.0, 2.0]))


class TestRandomProjection:
    def test_trace_is_rank(self):
        p = random_rank_k_projection(5, 3, seed=1)
        assert abs(trace(p.matrix) - 3.0) <= 1e-12
        assert p.rank == 3

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_bad_rank(self, k):
        with pytest.raises(BadRankError):
            random_rank_k_projection(2, k, seed=0)

    def test_seeds_give_distinct_projections(self):
        a = random_rank_k_projection(4, 2, seed=0).matrix
        b = random_rank_k_projection(4, 2, seed=1).matrix
        assert np.linalg.norm(a - b) > 0.0


class TestElementwiseOps:
    def test_trace_identity(self):
        assert trace(np.eye(3)) == 3.0

    def test_transpose_example(self):
        np.testing.assert_array_equal(
            transpose(np.array([[0.0, 1.0], [0.0, 0.0]])),
            np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_trace_pap_is_corner_entry(self):
        # (a x, x) = tr(p a p) for p the projection onto x; here x = e_1
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert trace(p @ a @ p) == pytest.approx(a[0, 0])

    def test_involutions_exact(self):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_array_equal(transpose(transpose(m)), m)
        np.testing.assert_array_equal(conjugate(conjugate(m)), m)


class TestPhaseDistance:
    def test_global_phase_is_invisible(self):
        u = haar_unitary(4, 9)
        assert phase_distance(np.exp(0.7j) * u, u) < 1e-14

    def test_detects_real_difference(self):
        u = haar_unitary(4, 9)
        v = haar_unitary(4, 10)
        assert phase_distance(u, v) > 0.1
