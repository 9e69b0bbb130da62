import numpy as np
import pytest

from wignerkit import (
    BadParameterError,
    BadRankError,
    DimensionMismatchError,
    NonFiniteError,
    NotAProjectionError,
    NotHermitianError,
    NotUnitaryError,
    haar_unitary,
    phase_distance,
    random_hermitian,
    random_rank_k_projection,
    random_unit_vector,
    require_unitary,
    validate_projection,
)
from wignerkit import matrix_core
from wignerkit.matrix_core import (
    NOT_A_PROJECTION,
    NOT_HERMITIAN,
    derive_seed,
    projection_ranks,
    require_seed,
)


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
            assert abs(np.trace(p.matrix) - p.rank) <= n * p.tol

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

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-8])
    def test_bad_tolerance_rejected(self, tol):
        # Unchecked, a NaN tolerance calls the identity "not a projection".
        with pytest.raises(BadParameterError):
            validate_projection(np.eye(2), tol)
        with pytest.raises(BadParameterError):
            projection_ranks(np.eye(2)[None], tol)

    def test_stack_matches_one_matrix_calls(self):
        ms = np.stack([np.diag([1.0, 1.0, 0.0]), np.diag([0.95, 0.05, 0.0]),
                       np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                       random_rank_k_projection(3, 1, 5).matrix])
        ranks, residuals = projection_ranks(ms, 1e-8)
        assert list(ranks) == [2, NOT_A_PROJECTION, NOT_HERMITIAN, 1]
        for m, residual in zip(ms, residuals):
            assert residual == pytest.approx(np.linalg.norm(m @ m - m), abs=1e-15)

    def test_near_projection_falls_back_to_eigvalsh(self, monkeypatch):
        # diag(1 + x, 1, 0, 0) has residual x (1 + x): at x = tol/2 and 2 tol it
        # lies between tol/4 and 10 tol, so neither the residual bound nor the
        # re-check decides, and one eigvalsh of those two finds the rank or
        # the eigenvalue 2 tol off 1. The exact projection needs no eigensolve.
        calls = []
        real = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(matrix_core.np.linalg, "eigvalsh", recording)
        tol = 1e-8
        ms = np.stack([np.diag([1.0 + x, 1.0, 0.0, 0.0]) for x in (tol / 2, 0.0, 2 * tol)])
        ranks, residuals = projection_ranks(ms, tol)
        assert tol / 4 < residuals[0] < residuals[2] < 10 * tol
        assert list(ranks) == [2, 2, NOT_A_PROJECTION]
        assert calls == [(2, 4, 4)]

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
        assert abs(np.trace(p.matrix) - 3.0) <= 1e-12
        assert p.rank == 3

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_bad_rank(self, k):
        with pytest.raises(BadRankError):
            random_rank_k_projection(2, k, seed=0)

    def test_seeds_give_distinct_projections(self):
        a = random_rank_k_projection(4, 2, seed=0).matrix
        b = random_rank_k_projection(4, 2, seed=1).matrix
        assert np.linalg.norm(a - b) > 0.0

    def test_uncertifiable_draw_raises(self, monkeypatch):
        # A column sampler whose V for Ginibre sample t is the first k columns
        # of (1 + 1e-6 scale[t]) I: where scale[t] >= 1, V V* has eigenvalues
        # 1 + 2e-6, farther than DEFAULT_PROJECTION_TOL from 1. The stacked
        # draws scale sample t by t, and the one-seed draw by scale[0].
        def scaled_identity_columns(scale):
            def columns(k, g):
                n = g.shape[-1]
                return np.stack([(1.0 + 1e-6 * scale[t]) * np.eye(n, k, dtype=complex)
                                 for t in range(len(g))])
            return columns

        monkeypatch.setattr(matrix_core, "_haar_columns", scaled_identity_columns(range(2)))
        g = np.zeros((2, 2, 4, 4))
        np.testing.assert_array_equal(matrix_core._rank_k_projections(2, g[:1]),
                                      [np.diag([1.0, 1.0, 0.0, 0.0])])
        with pytest.raises(NotAProjectionError):
            matrix_core._rank_k_projections(2, g)
        monkeypatch.setattr(matrix_core, "_haar_columns", scaled_identity_columns([1]))
        with pytest.raises(NotAProjectionError):
            random_rank_k_projection(4, 2, 1)


class TestPhaseDistance:
    def test_global_phase_is_invisible(self):
        u = haar_unitary(4, 9)
        assert phase_distance(np.exp(0.7j) * u, u) < 1e-14

    def test_detects_real_difference(self):
        u = haar_unitary(4, 9)
        v = haar_unitary(4, 10)
        assert phase_distance(u, v) > 0.1


@pytest.mark.parametrize("value", [1.5, True, "2"])
@pytest.mark.parametrize("call", [
    lambda v: random_rank_k_projection(3, v),
    lambda v: random_rank_k_projection(v, 1),
    lambda v: haar_unitary(v),
    lambda v: random_unit_vector(v),
    lambda v: random_hermitian(v),
], ids=["random_rank_k_projection-k", "random_rank_k_projection-n", "haar_unitary-n",
        "random_unit_vector-n", "random_hermitian-n"])
def test_non_integer_rank_or_dimension_rejected(call, value):
    # Unchecked, 1.5 and "2" end in a bare TypeError and True runs as 1.
    with pytest.raises(BadParameterError):
        call(value)


@pytest.mark.parametrize("seed", [None, True, 1.5, -1])
@pytest.mark.parametrize("call", [
    lambda s: haar_unitary(3, s),
    lambda s: random_rank_k_projection(3, 1, s),
    lambda s: random_hermitian(3, s),
    lambda s: random_unit_vector(3, s),
], ids=["haar_unitary", "random_rank_k_projection", "random_hermitian", "random_unit_vector"])
def test_sampler_seed_rejected(call, seed):
    # Unchecked, None draws from OS entropy, True runs as 1, and 1.5 and -1
    # end in a bare TypeError or ValueError.
    with pytest.raises(BadParameterError):
        call(seed)


class TestRequireSeed:
    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), (1, 2), [0, np.uint8(4)], ()])
    def test_accepted(self, seed):
        require_seed(seed)
        assert derive_seed(seed, 5)[-1] == 5

    @pytest.mark.parametrize("seed", [1.5, None, -1, True, "1", np.float64(2.0), (1, -2),
                                      (1, 2.0), [True], ((1,),)])
    def test_rejected(self, seed):
        # Unchecked, numpy raises a bare TypeError or ValueError for most of
        # these, and takes True as 1.
        with pytest.raises(BadParameterError):
            require_seed(seed)
        with pytest.raises(BadParameterError):
            derive_seed(seed, 0)
