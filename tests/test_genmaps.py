import numpy as np
import pytest

from wignerkit import (
    DIRECT,
    TRANSPOSE,
    BadParameterError,
    ClassifyConfig,
    MapFamily,
    NotUnitaryError,
    WignerkitError,
    apply,
    build_map,
    classify,
    depolarizing,
    expected_flags,
    haar_unitary,
    is_hermiticity_preserving,
    is_unital,
    perturbed_wigner,
    positivity_certificate,
    preserves_rank_k,
    pseudo_depolarizing,
    random_rank_k_projection,
    random_unit_vector,
    transpose_superop,
    wigner_map,
)


class TestWignerMap:
    def test_identity_direct(self):
        np.testing.assert_array_equal(wigner_map(np.eye(2, dtype=complex)).mat, np.eye(4))

    def test_identity_transpose_is_permutation(self):
        s = wigner_map(np.eye(2, dtype=complex), TRANSPOSE)
        np.testing.assert_array_equal(s.mat, transpose_superop(2).mat)
        m = s.mat.real
        assert ((m == 0) | (m == 1)).all()
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()

    def test_transpose_superop_action_oracle(self):
        # independent elementwise check of the permutation
        for i in range(10):
            rng = np.random.default_rng((30, i))
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            np.testing.assert_array_equal(apply(transpose_superop(n), a), a.T)

    def test_maps_rank_one_projections(self):
        u = haar_unitary(4, 31)
        s = wigner_map(u)
        for i in range(10):
            x = random_unit_vector(4, (31, i))
            ux = u @ x
            np.testing.assert_allclose(apply(s, np.outer(x, x.conj())),
                                       np.outer(ux, ux.conj()), atol=1e-13)

    def test_global_phase_invisible(self):
        # phase products cancel mathematically; floats agree to rounding
        u = haar_unitary(3, 32)
        for variant in (DIRECT, TRANSPOSE):
            np.testing.assert_allclose(wigner_map(u, variant).mat,
                                       wigner_map(np.exp(0.4j) * u, variant).mat,
                                       atol=1e-14)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            wigner_map(np.diag([1.0, 2.0]))

    def test_rejects_unknown_variant(self):
        with pytest.raises(BadParameterError):
            wigner_map(np.eye(2, dtype=complex), "adjoint")


class TestDepolarizing:
    def test_lam_one_is_identity(self):
        np.testing.assert_allclose(depolarizing(3, 1.0).mat, np.eye(9), atol=1e-15)

    def test_lam_zero_flattens_projections(self):
        s = depolarizing(4, 0.0)
        q = random_rank_k_projection(4, 2, seed=33).matrix
        np.testing.assert_allclose(apply(s, q), 0.5 * np.eye(4), atol=1e-13)

    def test_half_spectrum(self):
        # lam + (1-lam)/n and (1-lam)/n
        s = depolarizing(3, 0.5)
        q = random_rank_k_projection(3, 1, seed=34).matrix
        w = np.linalg.eigvalsh(apply(s, q))
        np.testing.assert_allclose(w, [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0], atol=1e-12)

    @pytest.mark.parametrize("lam", [-0.1, 1.2])
    def test_bad_parameter(self, lam):
        with pytest.raises(BadParameterError):
            depolarizing(3, lam)


class TestPseudoDepolarizing:
    def test_mu_zero_equals_full_depolarizing(self):
        np.testing.assert_allclose(pseudo_depolarizing(3, 0.0).mat,
                                   depolarizing(3, 0.0).mat, atol=1e-15)

    def test_least_eigenvalue_closed_form(self):
        # lambda_min(phi(xx*)) = (1+mu)/n - mu, via direct eigvalsh oracle
        for n, mu in ((3, 1.0), (4, 1.0 / 3.0), (5, 2.0)):
            s = pseudo_depolarizing(n, mu)
            x = random_unit_vector(n, (35, n))
            w = np.linalg.eigvalsh(apply(s, np.outer(x, x.conj())))
            assert w[0] == pytest.approx((1.0 + mu) / n - mu, abs=1e-12)

    def test_boundary_mu_is_marginally_positive(self):
        s = pseudo_depolarizing(4, 1.0 / 3.0)
        x = random_unit_vector(4, 36)
        w = np.linalg.eigvalsh(apply(s, np.outer(x, x.conj())))
        assert abs(w[0]) <= 1e-12

    def test_bad_parameter(self):
        with pytest.raises(BadParameterError):
            pseudo_depolarizing(3, -0.5)


class TestPerturbedWigner:
    def test_eps_zero_exact(self):
        u = haar_unitary(3, 37)
        np.testing.assert_array_equal(perturbed_wigner(u, DIRECT, 0.0, seed=1).mat,
                                      wigner_map(u).mat)

    def test_noise_has_unit_norm(self):
        u = haar_unitary(3, 38)
        s = perturbed_wigner(u, TRANSPOSE, 1e-3, seed=2)
        base = wigner_map(u, TRANSPOSE)
        assert np.linalg.norm(s.mat - base.mat) == pytest.approx(1e-3, rel=1e-12)

    def test_stays_hermiticity_preserving(self):
        u = haar_unitary(4, 39)
        assert is_hermiticity_preserving(perturbed_wigner(u, DIRECT, 0.1, seed=3), 1e-9)


class TestUnitalInvariance:
    def test_trace_families_commute_with_conjugation(self):
        # both families are functions of a and tr(a) only
        v = haar_unitary(4, 40)
        rng = np.random.default_rng(41)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for s in (depolarizing(4, 0.3), pseudo_depolarizing(4, 0.8)):
            lhs = apply(s, v @ a @ v.conj().T)
            rhs = v @ apply(s, a) @ v.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-12


class TestFamilyRegistry:
    def test_consistency_enforced(self):
        with pytest.raises(BadParameterError):
            MapFamily("broken", {}, {"unital": False, "positive": True,
                                     "rank_k_preserving": True, "wigner": True})

    def test_unknown_family(self):
        with pytest.raises(BadParameterError):
            build_map("kraus", 3, {}, 0)
        with pytest.raises(BadParameterError):
            expected_flags("kraus", 3, {}, 1)

    def test_rank_outside_range(self):
        # n = 1 admits no audit rank k with 1 <= k < n, for any family.
        with pytest.raises(WignerkitError):
            expected_flags("pseudo_depolarizing", 1, {"mu": 0.5}, 1)
        with pytest.raises(WignerkitError):
            expected_flags("wigner", 3, {}, 3)

    def test_missing_parameter(self):
        with pytest.raises(BadParameterError):
            build_map("depolarizing", 3, {}, 0)

    def test_build_determinism(self):
        a = build_map("wigner", 3, {"variant": "transpose"}, 7)
        b = build_map("wigner", 3, {"variant": "transpose"}, 7)
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_special_case_pseudo_n2_is_wigner(self):
        # mu=1, n=2: a -> tr(a) I - a = U a^t U* with U = [[0,-1],[1,0]]
        s = pseudo_depolarizing(2, 1.0)
        u = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(s.mat, wigner_map(u, TRANSPOSE).mat, atol=1e-14)
        flags = expected_flags("pseudo_depolarizing", 2, {"mu": 1.0}, 1).expected
        assert flags == {"unital": True, "positive": True,
                         "rank_k_preserving": True, "wigner": True}


def _audit_flags(s, k, seed):
    light = ClassifyConfig(samples=8, restarts=6, max_iters=200, seed=seed)
    unital = is_unital(s, light.unital_tol)
    hp = is_hermiticity_preserving(s, light.unital_tol)
    positive = None
    if hp:
        cert = positivity_certificate(s, restarts=light.restarts,
                                      max_iters=light.max_iters, seed=(seed, 1))
        positive = cert.min_value >= -light.positivity_tol
    audit = preserves_rank_k(s, k, samples=light.samples,
                             tol=light.projection_tol, seed=(seed, 2))
    wigner = classify(s, k, light).verdict == "wigner"
    return {"unital": unital, "positive": bool(positive),
            "rank_k_preserving": audit.pass_fraction == 1.0 and audit.inverse_pass,
            "wigner": wigner}


class TestTruthTable:
    """Expected flags of every family member confirmed by the checkers."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_wigner_family(self, n, variant):
        for seed in range(10):
            s = build_map("wigner", n, {"variant": variant}, seed)
            k = 1 + seed % (n - 1)
            family = expected_flags("wigner", n, {"variant": variant}, k)
            assert _audit_flags(s, k, seed) == family.expected

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_depolarizing_family(self, n, lam):
        for seed in range(3):
            s = build_map("depolarizing", n, {"lambda": lam}, seed)
            k = 1 + seed % (n - 1)
            family = expected_flags("depolarizing", n, {"lambda": lam}, k)
            assert _audit_flags(s, k, seed) == family.expected

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("frac", [0.5, 1.0, 2.0])
    def test_pseudo_depolarizing_family(self, n, frac):
        mu = frac / (n - 1)
        for seed in range(3):
            s = build_map("pseudo_depolarizing", n, {"mu": mu}, seed)
            k = 1 + seed % (n - 1)
            family = expected_flags("pseudo_depolarizing", n, {"mu": mu}, k)
            assert _audit_flags(s, k, seed) == family.expected

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_perturbed_family(self, eps):
        for seed in range(3):
            n = 3
            s = build_map("perturbed_wigner", n, {"epsilon": eps}, seed)
            family = expected_flags("perturbed_wigner", n, {"epsilon": eps}, 1)
            assert _audit_flags(s, 1, seed) == family.expected
