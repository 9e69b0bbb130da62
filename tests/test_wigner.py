import numpy as np
import pytest

from wignerkit import (
    DIRECT,
    TRANSPOSE,
    BadIndexError,
    BadParameterError,
    BadRankError,
    ClassifyConfig,
    DegenerateImageError,
    NotWignerLikeError,
    apply,
    classify,
    definite_set_check,
    depolarizing,
    extract_unitary,
    from_action,
    haar_unitary,
    lemma1_projections,
    phase_distance,
    preserves_rank_k,
    pseudo_depolarizing,
    random_hermitian,
    random_rank_k_projection,
    random_unit_vector,
    transpose_superop,
    validate_projection,
    vector_state_partner,
    wigner_map,
)
from wignerkit.superop import SuperOp


class TestLemma1:
    def test_standard_basis_n3_k2(self):
        dec = lemma1_projections(3, 2)
        np.testing.assert_array_equal(dec.p.matrix.real, np.diag([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(dec.Ps[0].matrix.real, np.diag([0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(dec.Ps[1].matrix.real, np.diag([1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(dec.Ps[2].matrix.real, np.diag([1.0, 1.0, 0.0]))
        assert dec.residual == 0.0

    def test_k1_degenerates_to_single_term(self):
        dec = lemma1_projections(2, 1)
        np.testing.assert_array_equal(dec.p.matrix, dec.Ps[1].matrix)
        assert dec.residual <= 1e-15

    def test_haar_basis_large(self):
        dec = lemma1_projections(8, 7, basis=haar_unitary(8, 13))
        assert dec.residual <= 1e-12
        assert all(q.rank == 7 for q in dec.Ps)

    def test_grid_residuals_and_commutation(self):
        for n in range(2, 7):
            for k in range(1, n):
                basis = haar_unitary(n, (14, n, k))
                dec = lemma1_projections(n, k, basis, which=k % n)
                assert dec.residual <= 1e-12
                assert dec.p.rank == 1
                for a in dec.Ps:
                    for b in dec.Ps:
                        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
                        assert np.linalg.norm(comm) <= 1e-13

    def test_bad_rank_and_index(self):
        with pytest.raises(BadRankError):
            lemma1_projections(3, 3)
        with pytest.raises(BadRankError):
            lemma1_projections(3, 0)
        with pytest.raises(BadIndexError):
            lemma1_projections(3, 2, which=5)


class TestPreservesRankK:
    def test_conjugation_passes(self):
        s = wigner_map(haar_unitary(4, 15))
        audit = preserves_rank_k(s, 2, samples=100, seed=0)
        assert audit.pass_fraction == 1.0
        assert audit.max_residual < 1e-10
        assert audit.inverse_pass

    def test_depolarizing_fails_everywhere(self):
        # phi(Q) has eigenvalues 0.95 and 0.05 for n=4, k=2, lam=0.9
        s = depolarizing(4, 0.9)
        audit = preserves_rank_k(s, 2, samples=50, seed=0)
        assert audit.pass_fraction == 0.0
        q = random_rank_k_projection(4, 2, seed=3).matrix
        w = np.linalg.eigvalsh(apply(s, q))
        np.testing.assert_allclose(sorted(set(np.round(w, 12))), [0.05, 0.95], atol=1e-12)

    def test_transpose_map_passes(self):
        audit = preserves_rank_k(transpose_superop(5), 3, samples=50, seed=1)
        assert audit.pass_fraction == 1.0
        assert audit.inverse_pass

    def test_singular_map_fails_inverse(self):
        audit = preserves_rank_k(depolarizing(3, 0.0), 1, samples=10, seed=0)
        assert not audit.inverse_pass

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            preserves_rank_k(transpose_superop(3), 3)

    def test_negative_samples_rejected(self):
        with pytest.raises(BadParameterError):
            preserves_rank_k(transpose_superop(3), 1, samples=-5)

    def test_basis_subsets_do_not_span(self):
        # a -> diag(a) fixes all 6 basis-subset projections at n=4, k=2, but
        # sends a generic rank-2 projection to a diagonal that is not one.
        s = from_action(4, lambda a: np.diag(np.diag(a)))
        subsets_only = preserves_rank_k(s, 2, samples=0, seed=0)
        assert subsets_only.samples == 6
        assert subsets_only.pass_fraction == 1.0
        with_draws = preserves_rank_k(s, 2, samples=5, seed=0)
        assert with_draws.samples == 11
        assert with_draws.pass_fraction < 1.0


class TestDefiniteSet:
    def test_identity_map_exact(self):
        q = random_rank_k_projection(3, 1, seed=5)
        assert definite_set_check(SuperOp(3, np.eye(9)), q) == 0.0

    def test_conjugation_near_zero(self):
        s = wigner_map(haar_unitary(5, 16), TRANSPOSE)
        for i in range(10):
            q = random_rank_k_projection(5, 2, (16, i))
            assert definite_set_check(s, q) < 1e-12

    def test_depolarizing_matches_spectral_oracle(self):
        # phi(Q) for rank-1 Q has spectrum {2/3, 1/6, 1/6}; the deviation
        # norm is computed here from that diagonal model, independent of
        # the superoperator evaluation path.
        model = np.diag([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])
        expected = np.linalg.norm(model - model @ model)
        s = depolarizing(3, 0.5)
        q = random_rank_k_projection(3, 1, seed=17)
        assert definite_set_check(s, q) == pytest.approx(expected, abs=1e-12)


class TestExtractUnitary:
    def test_identity_superop(self):
        form = extract_unitary(SuperOp(3, np.eye(9)))
        assert form.variant == DIRECT
        assert form.residual < 1e-12
        np.testing.assert_allclose(form.u, np.eye(3), atol=1e-12)

    def test_transpose_superop(self):
        form = extract_unitary(transpose_superop(3))
        assert form.variant == TRANSPOSE
        assert form.residual < 1e-12
        np.testing.assert_allclose(form.u, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_haar_round_trip(self, variant):
        u = haar_unitary(5, 18)
        form = extract_unitary(wigner_map(u, variant))
        assert form.variant == variant
        assert phase_distance(form.u, u) < 1e-8

    def test_phase_convention(self):
        for seed in range(10):
            form = extract_unitary(wigner_map(haar_unitary(4, (19, seed))))
            col = form.u[:, 0]
            first = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
            assert first.imag == 0.0
            assert first.real > 0.0

    def test_gauge_invariance(self):
        # e^{i a} U builds the same superoperator up to float rounding of
        # the phase products, and the phase convention pins the output
        u = haar_unitary(4, 20)
        s1 = wigner_map(u)
        s2 = wigner_map(np.exp(1.23j) * u)
        np.testing.assert_allclose(s1.mat, s2.mat, atol=1e-14)
        f1 = extract_unitary(s1)
        f2 = extract_unitary(s2)
        np.testing.assert_allclose(f1.u, f2.u, atol=1e-13)

    def test_not_wigner_like(self):
        # a conjugation map with phi(E_12) forced to zero keeps phi(E_11)
        # rank 1 but cannot fit either model
        s = wigner_map(haar_unitary(3, 99))
        s.mat[:, 3] = 0.0  # column of vec index (i=0, j=1)
        with pytest.raises(NotWignerLikeError):
            extract_unitary(s, tol=1e-6)

    def test_degenerate_image(self):
        # fully depolarizing map sends E_11 to I/n: top eigenvalue doubled
        with pytest.raises(DegenerateImageError):
            extract_unitary(depolarizing(3, 0.0))

    def test_unitarity_of_output(self):
        form = extract_unitary(wigner_map(haar_unitary(6, 21), TRANSPOSE))
        n = 6
        assert np.linalg.norm(form.u.conj().T @ form.u - np.eye(n)) <= 1e-12 * n


class TestVectorStatePartner:
    def test_identity_form(self):
        from wignerkit import WignerForm
        form = WignerForm(u=np.eye(3, dtype=complex), variant=DIRECT, residual=0.0)
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(vector_state_partner(form, e1), e1)

    def test_direct_identity_holds(self):
        u = haar_unitary(4, 22)
        form = extract_unitary(wigner_map(u))
        s = wigner_map(u)
        for i in range(20):
            a = random_hermitian(4, (22, i))
            x = random_unit_vector(4, (22, i, 1))
            y = vector_state_partner(form, x)
            lhs = np.vdot(x, apply(s, a) @ x)
            rhs = np.vdot(y, a @ y)
            assert abs(lhs - rhs) < 1e-12

    def test_transpose_identity_holds(self):
        # uses (a^t u, u) = (a conj(u), conj(u)) on 100 random pairs
        u = haar_unitary(4, 23)
        form = extract_unitary(wigner_map(u, TRANSPOSE))
        s = wigner_map(u, TRANSPOSE)
        for i in range(100):
            a = random_hermitian(4, (23, i))
            x = random_unit_vector(4, (23, i, 1))
            y = vector_state_partner(form, x)
            assert abs(np.vdot(x, apply(s, a) @ x) - np.vdot(y, a @ y)) < 1e-10


class TestClassify:
    def test_wigner_map_accepted(self):
        rep = classify(wigner_map(haar_unitary(4, 24)), 2, ClassifyConfig(seed=24))
        assert rep.verdict == "wigner"
        assert rep.form.variant == DIRECT
        assert rep.reasons == []
        assert rep.unital and rep.hermiticity_preserving
        assert rep.positivity.min_value >= -1e-9
        assert rep.rank_k_audit.pass_fraction == 1.0

    def test_depolarizing_rank_violation_only(self):
        rep = classify(depolarizing(4, 0.5), 2, ClassifyConfig(seed=25))
        assert rep.verdict == "not_wigner"
        assert rep.reasons == ["rank_k_violation"]

    def test_pseudo_depolarizing_positivity_violation(self):
        rep = classify(pseudo_depolarizing(3, 1.0), 1, ClassifyConfig(seed=26))
        assert rep.verdict == "not_wigner"
        assert "positivity_violation" in rep.reasons
        assert rep.positivity.min_value == pytest.approx(-1.0 / 3.0, abs=1e-6)

    def test_non_hp_map_skips_positivity(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        rep = classify(SuperOp(2, np.kron(np.eye(2), m)), 1, ClassifyConfig(seed=27))
        assert rep.verdict == "not_wigner"
        assert "hermiticity_violation" in rep.reasons
        assert rep.positivity is None

    def test_rank_one_recovery_through_map(self):
        # the affine combination of mapped rank-k projections recovers a
        # rank-1 projection
        u = haar_unitary(5, 28)
        s = wigner_map(u, TRANSPOSE)
        for k in (1, 2, 4):
            dec = lemma1_projections(5, k, basis=haar_unitary(5, (28, k)))
            imgs = [apply(s, q.matrix) for q in dec.Ps]
            combo = (1.0 / k) * sum(imgs[1:]) - ((k - 1.0) / k) * imgs[0]
            assert validate_projection(combo, tol=1e-10).rank == 1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_config_rejects_bad_tolerance(self, tol):
        with pytest.raises(BadParameterError):
            ClassifyConfig(projection_tol=tol)
        with pytest.raises(BadParameterError):
            ClassifyConfig().with_tolerance(tol)
