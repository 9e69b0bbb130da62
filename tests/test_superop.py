import tracemalloc

import numpy as np
import pytest

from wignerkit import (
    BadParameterError,
    ChoiMatrix,
    DimensionMismatchError,
    NonFiniteError,
    NotHermiticityPreservingError,
    SingularMapError,
    SuperOp,
    apply,
    choi_map,
    depolarizing,
    from_action,
    from_choi,
    haar_unitary,
    invert,
    is_hermiticity_preserving,
    is_invertible,
    is_unital,
    perturbed_wigner,
    planted_indefinite,
    positivity_certificate,
    pseudo_depolarizing,
    random_unit_vector,
    to_choi,
    transpose_superop,
    unvec,
    vec,
    wigner_map,
)
from wignerkit import superop
from wignerkit.matrix_core import MAX_DRAWS, derive_seed, hermitian_part
from wignerkit.superop import MAX_ENTRY


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


@pytest.mark.parametrize("cls", [SuperOp, ChoiMatrix])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_entries_rejected(cls, bad):
    label = "superoperator" if cls is SuperOp else "Choi matrix"
    mat = np.eye(4, dtype=complex)
    mat[1, 2] = bad
    with pytest.raises(NonFiniteError, match=label):
        cls(2, mat)
    # The shape is checked before the entries.
    with pytest.raises(DimensionMismatchError, match=label):
        cls(2, mat[:3, :3])


@pytest.mark.parametrize("cls", [SuperOp, ChoiMatrix])
@pytest.mark.parametrize("big", [1.01 * MAX_ENTRY, -1e61, 1e61j, complex(0.0, -1e300)])
def test_entries_above_the_ceiling_rejected(cls, big):
    mat = np.eye(4, dtype=complex)
    mat[1, 2] = big
    for layout in (mat, mat.T, np.asfortranarray(mat), np.kron(mat, np.ones((1, 2)))[:, ::2]):
        with pytest.raises(NonFiniteError, match="exceeds 1e\\+60"):
            cls(2, layout)
    # NaN and inf keep their own message, also beside a value above the ceiling.
    mat[0, 3] = np.nan
    with pytest.raises(NonFiniteError, match="NaN or infinite"):
        cls(2, mat)
    mat[0, 3] = 0.0
    mat[1, 2] = -MAX_ENTRY * (1 - 1j)
    assert cls(2, mat.T).mat[2, 1] == mat[1, 2]


@pytest.mark.parametrize("n", [2.0, 2.5, True, "2"])
def test_non_integer_dimension_rejected(n):
    # 2.0 and True pass a shape check (2.0 * 2.0 == 4, True * True == 1).
    for size in (1, 4):
        with pytest.raises(BadParameterError):
            SuperOp(n, np.eye(size))
        with pytest.raises(BadParameterError):
            ChoiMatrix(n, np.eye(size))
    with pytest.raises(BadParameterError):
        from_action(n, lambda a: a)


class TestVec:
    def test_column_stacking_order(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(unvec(vec(a)), a)

    def test_vec_of_product_identity(self):
        # vec(X Y Z) = (Z^T kron X) vec(Y)
        rng = np.random.default_rng(1)
        x, y, z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                   for _ in range(3))
        np.testing.assert_allclose(vec(x @ y @ z), np.kron(z.T, x) @ vec(y), atol=1e-13)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(DimensionMismatchError):
            unvec(np.arange(5.0))

    @pytest.mark.parametrize("call", [lambda: vec(np.arange(4.0)), lambda: vec(1.0),
                                      lambda: unvec(1.0)], ids=["vec-1d", "vec-0d", "unvec-0d"])
    def test_too_few_axes_rejected(self, call):
        with pytest.raises(DimensionMismatchError):
            call()

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3), (0, 3, 3)])
    def test_stack_matches_one_matrix_reshapes(self, shape):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack = a.reshape(-1, 3, 3)
        v = vec(a)
        assert v.shape == shape[:-2] + (9,)
        np.testing.assert_array_equal(
            v.reshape(-1, 9), np.reshape([m.reshape(-1, order="F") for m in stack], (-1, 9)))
        back = unvec(v)
        assert back.shape == shape
        np.testing.assert_array_equal(
            back.reshape(-1, 3, 3),
            np.reshape([w.reshape((3, 3), order="F") for w in v.reshape(-1, 9)], (-1, 3, 3)))


class TestApply:
    def test_identity_superop(self):
        s = SuperOp(3, np.eye(9))
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(apply(s, a), a)

    def test_sign_flip_conjugation(self):
        # U = diag(1, -1) sends E_12 to -E_12
        s = wigner_map(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(apply(s, _unit(2, 0, 1)), -_unit(2, 0, 1), atol=1e-15)

    def test_transpose_action(self):
        s = transpose_superop(2)
        np.testing.assert_array_equal(apply(s, _unit(2, 0, 1)), _unit(2, 1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(SuperOp(2, np.eye(4)), np.eye(3))

    def test_linearity(self):
        for i in range(50):
            rng = np.random.default_rng((3, i))
            n = int(rng.integers(2, 7))
            s = SuperOp(n, rng.standard_normal((n * n, n * n))
                        + 1j * rng.standard_normal((n * n, n * n)))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            al = complex(rng.standard_normal(), rng.standard_normal())
            be = complex(rng.standard_normal(), rng.standard_normal())
            res = np.linalg.norm(apply(s, al * a + be * b)
                                 - al * apply(s, a) - be * apply(s, b))
            assert res <= 1e-12 * (np.linalg.norm(a) + np.linalg.norm(b))

    def test_from_action_matches_direct_construction(self):
        u = haar_unitary(3, 4)
        built = from_action(3, lambda a: u @ a @ u.conj().T)
        np.testing.assert_allclose(built.mat, wigner_map(u).mat, atol=1e-14)


class TestChoi:
    def test_identity_map_choi(self):
        expected = np.zeros((4, 4))
        for r, c in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[r, c] = 1.0
        np.testing.assert_array_equal(to_choi(SuperOp(2, np.eye(4))).mat, expected)

    def test_transpose_map_choi_is_swap(self):
        c = to_choi(transpose_superop(2)).mat
        np.testing.assert_allclose(np.linalg.eigvalsh(c.real), [-1.0, 1.0, 1.0, 1.0],
                                   atol=1e-14)

    def test_round_trip_exact(self):
        for i in range(100):
            rng = np.random.default_rng((5, i))
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
            np.testing.assert_array_equal(from_choi(to_choi(SuperOp(n, m))).mat, m)
            np.testing.assert_array_equal(to_choi(from_choi(ChoiMatrix(n, m))).mat, m)

    def test_choi_against_definition_oracle(self):
        # independent loop-built sum_ij E_ij kron phi(E_ij)
        u = haar_unitary(3, 6)
        s = wigner_map(u)
        oracle = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                e = _unit(3, i, j)
                oracle += np.kron(e, u @ e @ u.conj().T)
        np.testing.assert_allclose(to_choi(s).mat, oracle, atol=1e-14)

    def test_from_choi_reproduces_map(self):
        u = haar_unitary(3, 6)
        s = wigner_map(u)
        s2 = from_choi(to_choi(s))
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(apply(s2, a), u @ a @ u.conj().T, atol=1e-13)

    def test_conjugation_choi_rank_one_psd(self):
        # discriminating invariant between the two conjugation variants
        for seed in range(5):
            u = haar_unitary(4, (9, seed))
            w = np.linalg.eigvalsh(to_choi(wigner_map(u, "direct")).mat)
            assert w[0] >= -1e-12
            assert sum(w > 1e-9) == 1
            assert abs(w[-1] - 4.0) < 1e-12
            w = np.linalg.eigvalsh(to_choi(wigner_map(u, "transpose")).mat)
            assert abs(w[0] + 1.0) <= 1e-9


class TestHypothesisChecks:
    def test_conjugation_is_unital_and_hp(self):
        s = wigner_map(haar_unitary(4, 1))
        assert is_unital(s, 1e-10)
        assert is_hermiticity_preserving(s, 1e-10)

    def test_doubled_trace_not_unital(self):
        s = SuperOp(3, 2.0 * depolarizing(3, 0.0).mat)
        assert not is_unital(s, 1e-10)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 3.0])
    def test_pseudo_depolarizing_always_unital(self, mu):
        # phi(I) = (1+mu) I - mu I = I symbolically
        assert is_unital(pseudo_depolarizing(4, mu), 1e-12)

    def test_left_multiplication_not_hp(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        s = SuperOp(2, np.kron(np.eye(2), m))  # a -> M a
        assert not is_hermiticity_preserving(s, 1e-10)

    @pytest.mark.parametrize("tol", [1e200, 1.7e308])
    def test_huge_tolerance_accepts_any_map(self, tol):
        # tol^2 is beyond the float range: the test must decide without
        # forming it, since numpy would warn of the overflow (an error under
        # this suite's warning filter) and a Python float power would raise
        # OverflowError.
        s = SuperOp(2, np.kron(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])))
        assert is_hermiticity_preserving(s, tol)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10, True])
    def test_bad_tolerance_rejected(self, tol):
        # NaN fails every comparison, so unchecked it would call a -> M a
        # Hermiticity-preserving.
        s = SuperOp(2, np.kron(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])))
        with pytest.raises(BadParameterError):
            is_hermiticity_preserving(s, tol)
        with pytest.raises(BadParameterError):
            is_unital(s, tol)


class TestPositivity:
    def test_conjugation_positive(self):
        s = wigner_map(haar_unitary(4, 12))
        cert = positivity_certificate(s, restarts=20, seed=0)
        assert cert.min_value >= -1e-9
        assert abs(np.linalg.norm(cert.witness) - 1.0) <= 1e-12

    def test_pseudo_depolarizing_min_value(self):
        # phi(xx*) = (2/3) I - xx*, eigenvalues {2/3, 2/3, -1/3}
        cert = positivity_certificate(pseudo_depolarizing(3, 1.0), seed=1)
        assert cert.min_value == pytest.approx(-1.0 / 3.0, abs=1e-6)

    def test_depolarizing_min_value(self):
        # phi(xx*) = 0.3 xx* + (0.7/3) I
        cert = positivity_certificate(depolarizing(3, 0.3), seed=1)
        assert cert.min_value == pytest.approx(0.7 / 3.0, abs=1e-6)

    def test_witness_consistency(self):
        s = pseudo_depolarizing(4, 2.0)
        cert = positivity_certificate(s, seed=2)
        out = apply(s, np.outer(cert.witness, cert.witness.conj()))
        lam = np.linalg.eigvalsh((out + out.conj().T) / 2)[0]
        assert abs(lam - cert.min_value) <= 1e-10

    def test_requires_hermiticity_preserving(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NotHermiticityPreservingError):
            positivity_certificate(SuperOp(2, np.kron(np.eye(2), m)))

    def test_hermiticity_tolerance_is_the_callers(self):
        # phi(E_00) - phi(E_00)* = 2e-9 i E_00: Hermiticity-preserving within
        # max(tol, 1e-10) for tol = 1e-8, not for the default tol = 1e-9.
        s = from_action(2, lambda a: a + 1e-9j * a[0, 0] * _unit(2, 0, 0))
        with pytest.raises(NotHermiticityPreservingError):
            positivity_certificate(s, restarts=2)
        assert positivity_certificate(s, restarts=2, tol=1e-8).min_value >= -1e-8

    def test_requires_a_restart(self):
        with pytest.raises(BadParameterError):
            positivity_certificate(depolarizing(2, 0.5), restarts=0)

    def test_restarts_above_ceiling_rejected(self):
        with pytest.raises(BadParameterError, match="restarts"):
            positivity_certificate(depolarizing(2, 0.5), restarts=MAX_DRAWS + 1)

    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": -1e-9}, {"seed": 1.5},
        {"seed": (1, -1)}, {"restarts": 2.5}, {"restarts": True},
        {"max_iters": 2.5}, {"max_iters": -1}])
    def test_bad_parameters_rejected(self, kwargs):
        # A map that is not Hermiticity-preserving: an unchecked NaN
        # tolerance would let the search run on it, and every argument is
        # checked before the map is.
        s = from_choi(ChoiMatrix(2, np.random.default_rng(3).standard_normal((4, 4))))
        with pytest.raises(BadParameterError):
            positivity_certificate(s, **kwargs)


def _choi_with_least_eigenvalue(n: int, lam: float) -> np.ndarray:
    # Omega Omega* + I/2 - (1/2 - lam) psi psi*, Omega = sum_i e_i kron e_i and
    # psi = sum_i w^i e_i kron e_i / sqrt(n) with w = exp(2 pi i / n), which
    # is orthogonal to Omega: eigenvalues n + 1/2, lam and 1/2. A product
    # vector p has |psi* p|^2 <= 1/n, so p* C p >= 1/2 - (1/2 - lam)/n > 0:
    # the map is positive. The partial transpose is SWAP + I/2 minus a term
    # of norm at most 1/n, negative on antisymmetric vectors: not co-CP.
    omega = np.eye(n).reshape(-1).astype(complex)
    psi = np.diag(np.exp(2j * np.pi * np.arange(n) / n)).reshape(-1) / np.sqrt(n)
    return (np.outer(omega, omega) + np.eye(n * n) / 2
            - (0.5 - lam) * np.outer(psi, psi.conj()))


class TestPositivityProofs:
    @pytest.mark.parametrize("make,proof", [
        (lambda: wigner_map(haar_unitary(4, 5)), "cp"),
        (lambda: wigner_map(haar_unitary(4, 5), "transpose"), "co-cp"),
        (lambda: depolarizing(4, 0.3), "cp"),
        (lambda: pseudo_depolarizing(4, 1.0 / 3.0), "co-cp"),
        (lambda: perturbed_wigner(haar_unitary(4, 6), "direct", 0.1, seed=6), "cp"),
    ], ids=["wigner", "wigner_transpose", "depolarizing", "pseudo_depolarizing_edge",
            "perturbed_direct"])
    def test_proof_skips_the_search(self, make, proof):
        s = make()
        cert = positivity_certificate(s, restarts=7, seed=3)
        x0 = random_unit_vector(4, derive_seed(3, 0))
        out = apply(s, np.outer(x0, x0.conj()))
        assert cert.proof == proof and cert.converged
        assert np.array_equal(cert.witness, x0)
        assert cert.min_value == pytest.approx(np.linalg.eigvalsh((out + out.conj().T) / 2)[0],
                                               abs=1e-15)
        assert cert.iterations.tolist() == [0] * 7 and cert.spread == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("factor,proof", [(-0.5, "cp"), (-2.0, "search")])
    def test_proof_boundary_is_tol(self, n, factor, proof):
        lam = factor * 1e-9
        c = _choi_with_least_eigenvalue(n, lam)
        assert np.linalg.eigvalsh(c)[0] == pytest.approx(lam, abs=1e-15)
        cert = positivity_certificate(from_choi(ChoiMatrix(n, c)), restarts=4, tol=1e-9)
        assert cert.proof == proof
        assert cert.min_value >= 0.5 - (0.5 - lam) / n - 1e-12

    @pytest.mark.parametrize("make", [
        choi_map, lambda: planted_indefinite(2, 0), lambda: planted_indefinite(4, 1),
        lambda: pseudo_depolarizing(3, 0.6), lambda: pseudo_depolarizing(5, 0.3)],
        ids=["choi", "planted_2", "planted_4", "pseudo_depolarizing_3", "pseudo_depolarizing_5"])
    def test_never_proven(self, make):
        cert = positivity_certificate(make(), restarts=4, max_iters=50)
        assert cert.proof == "search"
        assert cert.iterations.shape == (4,) and 1 <= cert.iterations.min()
        assert cert.iterations.max() <= 50 and cert.spread >= 0.0

    def test_proofs_factor_the_hermitian_parts_plus_tol(self, monkeypatch):
        # A transpose Wigner map with a little non-Hermitian noise: the "cp"
        # test fails and "co-cp" is tried on the partial transpose.
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        s = SuperOp(3, wigner_map(haar_unitary(3, 4), "transpose").mat + 1e-12 * noise)
        seen = []
        monkeypatch.setattr(superop, "_is_positive_definite",
                            lambda h: seen.append(h.copy()) or False)
        superop._certify_positivity(s, 2, 5, 1e-9, 0)
        h = hermitian_part(to_choi(s).mat) + 1e-9 * np.eye(9)
        partial = h.reshape(3, 3, 3, 3).swapaxes(0, 2).reshape(9, 9)
        assert len(seen) == 2
        assert np.array_equal(seen[0], h) and np.array_equal(seen[1], partial)

    @pytest.mark.parametrize("n", [1, 3])
    def test_proofs_leave_the_map_unchanged(self, n):
        # The proofs build their matrix in place, in a copy of S's entries,
        # never in a view of S (a reshape alone is one at n = 1).
        s = SuperOp(n, wigner_map(haar_unitary(n, 2)).mat + 1e-12j)
        before = s.mat.copy()
        assert superop._certify_positivity(s, 2, 5, 1e-9, 0).proof == "cp"
        assert np.array_equal(s.mat, before)

    @pytest.mark.parametrize("make,proof", [
        (lambda: depolarizing(32, 0.5), "cp"),
        (lambda: wigner_map(haar_unitary(32, 5), "transpose"), "co-cp")], ids=["cp", "co-cp"])
    def test_proof_at_n32_holds_two_copies_of_s(self, make, proof):
        # hermitian_part(C) + tol I is built in one buffer, beside one
        # temporary conjugate, and the partial transpose replaces it.
        s = make()
        tracemalloc.start()
        try:
            cert = superop._certify_positivity(s, 2, 5, 1e-9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.proof == proof
        assert peak < 2.1 * s.mat.nbytes

    def test_no_cholesky_below_minus_tol(self, monkeypatch):
        # The start's value is below -tol, so no proof can hold and none is tried.
        def refuse(_):
            raise AssertionError("Cholesky attempted")
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        cert = positivity_certificate(pseudo_depolarizing(4, 0.6), restarts=3)
        assert cert.proof == "search" and cert.min_value == pytest.approx(-0.2, abs=1e-12)


class TestInvert:
    def test_conjugation_inverse(self):
        u = haar_unitary(4, 3)
        inv = invert(wigner_map(u))
        np.testing.assert_allclose(inv.mat, wigner_map(u.conj().T).mat, atol=1e-10)

    def test_transpose_is_involution(self):
        s = transpose_superop(3)
        np.testing.assert_allclose(invert(s).mat, s.mat, atol=1e-14)

    def test_inverse_composes_to_identity(self):
        s = wigner_map(haar_unitary(3, 8), "transpose")
        t = invert(s)
        np.testing.assert_allclose(t.mat @ s.mat, np.eye(9), atol=1e-10 * 9)
        np.testing.assert_allclose(s.mat @ t.mat, np.eye(9), atol=1e-10 * 9)

    def test_trace_map_singular(self):
        with pytest.raises(SingularMapError):
            invert(depolarizing(3, 0.0))

    def test_inverse_above_the_entry_ceiling(self):
        # cond is about 3, but the inverse's entries are about 1e61.
        s = SuperOp(2, 1e-61 * depolarizing(2, 0.5).mat)
        assert is_invertible(s)
        with pytest.raises(SingularMapError, match="rescale"):
            invert(s)
        np.testing.assert_allclose(invert(SuperOp(2, 1e-59 * depolarizing(2, 0.5).mat)).mat,
                                   1e59 * invert(depolarizing(2, 0.5)).mat, rtol=1e-12)
