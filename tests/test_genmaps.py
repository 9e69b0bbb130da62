import warnings

import numpy as np
import pytest

from wignerkit import (
    DIRECT,
    TRANSPOSE,
    BadParameterError,
    ClassifyConfig,
    NotUnitaryError,
    apply,
    build_map,
    choi_map,
    classify,
    depolarizing,
    haar_unitary,
    is_hermiticity_preserving,
    is_unital,
    perturbed_wigner,
    planted_indefinite,
    positivity_certificate,
    preserves_rank_k,
    pseudo_depolarizing,
    random_rank_k_projection,
    random_unit_vector,
    to_choi,
    transpose_superop,
    wigner_map,
)
from wignerkit.matrix_core import derive_seed


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


def _least_value_at(s, x):
    out = apply(s, np.outer(x, x.conj()))
    return np.linalg.eigvalsh((out + out.conj().T) / 2)[0]


class TestChoiMap:
    def test_action_and_unitality(self):
        a = np.arange(9.0).reshape(3, 3) + 1j
        d = np.diag([a[0, 0] + a[2, 2], a[0, 0] + a[1, 1], a[1, 1] + a[2, 2]])
        np.testing.assert_allclose(apply(choi_map(), a), (d - a + np.diag(np.diag(a))) / 2)
        assert is_unital(choi_map())

    def test_least_value_is_zero(self):
        # 0 at e1 (the closed-form minimum), nonnegative at every other start,
        # and the search ends within its gate.
        s = choi_map()
        assert _least_value_at(s, np.eye(3)[0]) == 0.0
        assert min(_least_value_at(s, random_unit_vector(3, (12, i))) for i in range(50)) >= 0
        cert = positivity_certificate(s)
        assert cert.proof == "search" and -1e-9 <= cert.min_value <= 1e-9

    def test_not_decomposable(self):
        # Neither phi nor phi o T is completely positive.
        choi = to_choi(choi_map()).mat
        partial = choi.reshape(3, 3, 3, 3).swapaxes(0, 2).reshape(9, 9)
        assert np.linalg.eigvalsh(choi)[0] < -0.1 and np.linalg.eigvalsh(partial)[0] < -0.1


class TestPlantedIndefinite:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_planted_value_is_minus_one(self, n):
        s = planted_indefinite(n, 4)
        x0, y0 = (random_unit_vector(n, derive_seed(4, i)) for i in (1, 2))
        out = apply(s, np.outer(x0, x0.conj()))
        assert np.vdot(y0, out @ y0).real == pytest.approx(-1.0, abs=1e-12)
        assert is_hermiticity_preserving(s)
        assert _least_value_at(s, x0) <= -1.0 + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_search_finds_at_most_minus_one(self, n):
        s = planted_indefinite(n, 7)
        cert = positivity_certificate(s, restarts=10, max_iters=200)
        assert cert.proof == "search"
        assert np.linalg.eigvalsh(to_choi(s).mat)[0] - 1e-9 <= cert.min_value <= -1.0

    def test_seeded(self):
        np.testing.assert_array_equal(planted_indefinite(3, 2).mat, planted_indefinite(3, 2).mat)
        assert not np.array_equal(planted_indefinite(3, 2).mat, planted_indefinite(3, 3).mat)


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
    def test_unknown_family(self):
        with pytest.raises(BadParameterError):
            build_map("kraus", 3, {}, 0)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "2"])
    def test_non_integer_dimension_rejected(self, n):
        for make in (lambda: depolarizing(n, 0.5), lambda: pseudo_depolarizing(n, 0.5),
                     lambda: transpose_superop(n), lambda: planted_indefinite(n, 0),
                     lambda: build_map("wigner", n, {}, 0),
                     lambda: build_map("depolarizing", n, {"lambda": 0.5}, 0),
                     lambda: build_map("pseudo_depolarizing", n, {"mu": 0.5}, 0),
                     lambda: build_map("perturbed_wigner", n, {"epsilon": 0.1}, 0)):
            with pytest.raises(BadParameterError):
                make()

    @pytest.mark.parametrize("name,key,value", [
        ("depolarizing", "lambda", None), ("depolarizing", "lambda", True),
        ("pseudo_depolarizing", "mu", "0.5"), ("perturbed_wigner", "epsilon", [1]),
        ("pseudo_depolarizing", "mu", float("nan")), ("perturbed_wigner", "epsilon", float("inf")),
        ("depolarizing", "lambda", 0.5 + 0j), ("perturbed_wigner", "epsilon", 1j)])
    def test_non_numeric_parameter_rejected(self, name, key, value):
        # Every constructor checks its own parameter before any arithmetic,
        # with no floating-point warning on the way.
        u = haar_unitary(3, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameterError, match=f"{key}="):
                build_map(name, 3, {key: value}, 0)
            for make, param in ((lambda v: depolarizing(3, v), "lambda"),
                                (lambda v: pseudo_depolarizing(3, v), "mu"),
                                (lambda v: perturbed_wigner(u, DIRECT, v), "epsilon")):
                with pytest.raises(BadParameterError, match=f"{param}="):
                    make(value)

    def test_numpy_parameters_accepted(self):
        np.testing.assert_array_equal(build_map("depolarizing", 3, {"lambda": np.float64(0.5)}).mat,
                                      depolarizing(3, 0.5).mat)

    @pytest.mark.parametrize("seed", [1.5, None, -1, True, (2, -1)])
    def test_bad_seed_rejected(self, seed):
        # Every family checks its seed, also the two that draw nothing from it.
        for name, params in (("wigner", {}), ("depolarizing", {"lambda": 0.5}),
                             ("pseudo_depolarizing", {"mu": 0.5}),
                             ("perturbed_wigner", {"epsilon": 0.1})):
            with pytest.raises(BadParameterError):
                build_map(name, 3, params, seed)

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


def _flags(unital, positive, rank_k_preserving):
    return {"unital": unital, "positive": positive, "rank_k_preserving": rank_k_preserving,
            "wigner": unital and positive and rank_k_preserving}


class TestTruthTable:
    """Each family's closed-form outcomes, as its generator states them,
    confirmed by the checkers."""

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_wigner_family(self, n, variant):
        for seed in range(10):
            s = build_map("wigner", n, {"variant": variant}, seed)
            k = 1 + seed % (n - 1)
            assert _audit_flags(s, k, seed) == _flags(True, True, True)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_depolarizing_family(self, n, lam):
        # Rank k is preserved only at lambda = 1.
        for seed in range(3):
            s = build_map("depolarizing", n, {"lambda": lam}, seed)
            k = 1 + seed % (n - 1)
            assert _audit_flags(s, k, seed) == _flags(True, True, lam == 1.0)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("frac", [0.5, 1.0, 2.0])
    def test_pseudo_depolarizing_family(self, n, frac):
        # Positive iff mu <= 1/(n-1). mu = 1 on n = 2k sends Q to I - Q, again
        # a rank-k projection; for n = 2 that map is U a^t U* with
        # U = [[0, -1], [1, 0]].
        mu = frac / (n - 1)
        for seed in range(3):
            s = build_map("pseudo_depolarizing", n, {"mu": mu}, seed)
            k = 1 + seed % (n - 1)
            expected = _flags(True, mu <= 1.0 / (n - 1), mu == 1.0 and n == 2 * k)
            assert _audit_flags(s, k, seed) == expected

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_perturbed_family(self, eps):
        # Unital and rank-k preserving only at epsilon = 0.
        for seed in range(3):
            s = build_map("perturbed_wigner", 3, {"epsilon": eps}, seed)
            assert _audit_flags(s, 1, seed) == _flags(eps == 0.0, True, eps == 0.0)
