import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerkit import (
    DIRECT,
    TRANSPOSE,
    BadIndexError,
    BadParameterError,
    BadRankError,
    ClassifyConfig,
    DegenerateImageError,
    DimensionMismatchError,
    NonFiniteError,
    NotWignerLikeError,
    apply,
    choi_map,
    classify,
    definite_set_check,
    depolarizing,
    extract_unitary,
    from_action,
    haar_unitary,
    is_hermiticity_preserving,
    is_unital,
    lemma1_projections,
    perturbed_wigner,
    phase_distance,
    planted_indefinite,
    positivity_certificate,
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
from wignerkit import matrix_core, superop, wigner
from wignerkit.matrix_core import MAX_DRAWS, derive_seed
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

    def test_samples_above_ceiling_rejected(self):
        with pytest.raises(BadParameterError, match="samples"):
            preserves_rank_k(transpose_superop(3), 1, samples=MAX_DRAWS + 1)

    @pytest.mark.parametrize("kwargs", [{"tol": float("nan")}, {"tol": 0.0}, {"samples": 2.5},
                                        {"seed": -1}, {"seed": 1.5, "samples": 0}])
    def test_bad_parameters_rejected(self, kwargs):
        # Unchecked, tol=nan makes a Wigner map fail every projection without
        # an error, and a seed is checked even when no sample uses it.
        with pytest.raises(BadParameterError):
            preserves_rank_k(wigner_map(haar_unitary(4, 2)), 2, **kwargs)

    def test_audit_forms_no_inverse(self, monkeypatch):
        # "Onto" follows from "into" and cond(S); no inverse map is built or audited.
        def refuse(*args, **kwargs):
            raise AssertionError("the rank-k audit inverted the map")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        audit = preserves_rank_k(wigner_map(haar_unitary(4, 2)), 2, samples=20, seed=0)
        assert audit.pass_fraction == 1.0
        assert audit.inverse_pass

    def test_failed_audit_makes_no_cond_call(self, monkeypatch):
        # cond(S), a full SVD, is computed only once every sample passed.
        def refuse(*args, **kwargs):
            raise AssertionError("the rank-k audit computed cond(S)")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        audit = preserves_rank_k(depolarizing(4, 0.9), 2, samples=20, seed=0)
        assert audit.pass_fraction == 0.0
        assert not audit.inverse_pass

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

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_composing_with_the_transpose_swaps_the_variant(self, variant, n):
        # S times the transpose's permutation matrix permutes S's columns
        # exactly, so phi o T fits phi's form with the other variant. The
        # fits read the same blocks through different strides, so they agree
        # to rounding, not to the bit.
        s = wigner_map(haar_unitary(n, (22, n)), variant)
        form = extract_unitary(s)
        swapped = extract_unitary(SuperOp(n, s.mat @ transpose_superop(n).mat))
        assert swapped.variant == (TRANSPOSE if variant == DIRECT else DIRECT)
        np.testing.assert_allclose(swapped.u, form.u, rtol=0, atol=1e-12)
        assert abs(swapped.residual - form.residual) <= 1e-12

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

    def test_nan_tolerance_rejected(self):
        # Unchecked, no residual exceeds nan, so this map would come back as a form.
        s = wigner_map(haar_unitary(3, 99))
        s.mat[:, 3] = 0.0
        with pytest.raises(BadParameterError):
            extract_unitary(s, tol=float("nan"))

    def test_degenerate_image(self):
        # fully depolarizing map sends E_11 to I/n: top eigenvalue doubled
        with pytest.raises(DegenerateImageError):
            extract_unitary(depolarizing(3, 0.0))

    def test_unitarity_of_output(self):
        form = extract_unitary(wigner_map(haar_unitary(6, 21), TRANSPOSE))
        n = 6
        assert np.linalg.norm(form.u.conj().T @ form.u - np.eye(n)) <= 1e-12 * n


_FORM = wigner.WignerForm(u=np.eye(3, dtype=complex), variant=DIRECT, residual=0.0)


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: apply(depolarizing(2, 0.5), "abc"), BadParameterError, id="apply-text"),
    pytest.param(lambda: apply(depolarizing(2, 0.5), [[1.0, 0.0], [0.0]]), BadParameterError,
                 id="apply-ragged"),
    pytest.param(lambda: validate_projection("x"), BadParameterError, id="validate-text"),
    pytest.param(lambda: validate_projection([[1.0], [0.0, 1.0]]), BadParameterError,
                 id="validate-ragged"),
    pytest.param(lambda: matrix_core.projection_ranks("abc"), BadParameterError,
                 id="ranks-text"),
    pytest.param(lambda: matrix_core.projection_ranks(np.ones(3)), DimensionMismatchError,
                 id="ranks-vector"),
    pytest.param(lambda: from_action(2, lambda a: "abc"), BadParameterError,
                 id="from_action-text"),
    pytest.param(lambda: SuperOp(2, "abc"), BadParameterError, id="superop-text"),
    pytest.param(lambda: vector_state_partner(_FORM, np.ones(2)), DimensionMismatchError,
                 id="partner-length"),
    pytest.param(lambda: vector_state_partner(_FORM, np.array([np.nan, 1.0, 0.0])),
                 NonFiniteError, id="partner-nan"),
    pytest.param(lambda: phase_distance(np.eye(2), np.eye(3)), DimensionMismatchError,
                 id="phase_distance-shapes")])
def test_bad_library_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()


_MAP = depolarizing(3, 0.5)
_PROJECTION = validate_projection(np.diag([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("value", ["abc", None, np.eye(3)], ids=["text", "none", "ndarray"])
@pytest.mark.parametrize("call,kind", [
    (lambda v: classify(v, 1), "SuperOp"),
    (lambda v: extract_unitary(v), "SuperOp"),
    (lambda v: preserves_rank_k(v, 1), "SuperOp"),
    (lambda v: is_unital(v), "SuperOp"),
    (lambda v: is_hermiticity_preserving(v), "SuperOp"),
    (lambda v: positivity_certificate(v), "SuperOp"),
    (lambda v: apply(v, np.eye(3)), "SuperOp"),
    (lambda v: definite_set_check(v, _PROJECTION), "SuperOp"),
    (lambda v: definite_set_check(_MAP, v), "Projection"),
    (lambda v: vector_state_partner(v, np.ones(3)), "WignerForm"),
], ids=["classify", "extract_unitary", "preserves_rank_k", "is_unital",
        "is_hermiticity_preserving", "positivity_certificate", "apply",
        "definite_set_check-s", "definite_set_check-q", "vector_state_partner"])
def test_wrong_argument_type_raises_typed_error(call, kind, value):
    # Unchecked, each ends in a bare AttributeError on .n, .mat, .matrix or .u.
    with pytest.raises(BadParameterError, match=f"must be a {kind}, not {type(value).__name__}"):
        call(value)


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

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_complement_map_fails_positivity_alone(self, n, seed):
        # a -> (2/n) tr(a) I - a sends every rank-n/2 projection Q to I - Q and
        # is invertible, but phi(x x*) has the eigenvalue 2/n - 1 < 0.
        rep = classify(pseudo_depolarizing(n, 1.0), n // 2, ClassifyConfig(seed=seed))
        assert rep.reasons == ["positivity_violation"]
        assert rep.positivity.min_value == pytest.approx(2.0 / n - 1.0, abs=1e-9)
        assert rep.rank_k_audit.inverse_pass is True

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

    def test_hermiticity_deviation_between_search_and_classify_tolerances(self):
        # a -> U a U* + 2e-9 i tr(a) E_00 deviates from Hermiticity by 4e-9,
        # inside classify's 1e-8 but outside the search's own default 1e-9:
        # classify must give a verdict, not raise.
        w = wigner_map(haar_unitary(4, 29))
        e00 = np.zeros((4, 4), dtype=complex)
        e00[0, 0] = 1.0
        s = from_action(4, lambda a: apply(w, a) + 2e-9j * np.trace(a) * e00)
        rep = classify(s, 2, ClassifyConfig(seed=29, samples=10, restarts=5))
        assert rep.hermiticity_preserving
        assert rep.positivity is not None
        assert rep.verdict == "wigner"

    def test_hermiticity_tested_once(self, monkeypatch):
        # classify tests Hermiticity at unital_tol and hands the map to the
        # positivity stage, which does not test it again. On a Wigner map the
        # fitted model proves the test would pass, so it does not run.
        import wignerkit.superop
        import wignerkit.wigner

        calls = []
        test = wignerkit.superop.is_hermiticity_preserving

        def counting(s, tol=1e-10):
            calls.append(tol)
            return test(s, tol)

        for module in (wignerkit.superop, wignerkit.wigner):
            monkeypatch.setattr(module, "is_hermiticity_preserving", counting)
        for s, want in ((wigner_map(haar_unitary(4, 3)), []),
                        (pseudo_depolarizing(4, 0.6), [1e-8])):
            calls.clear()
            rep = classify(s, 2, ClassifyConfig(samples=5, restarts=3))
            assert rep.hermiticity_preserving and rep.positivity is not None
            assert calls == want

    @pytest.mark.parametrize("make,proof", [
        (lambda: wigner_map(haar_unitary(4, 31), TRANSPOSE), "model"),
        (lambda: pseudo_depolarizing(4, 0.6), "search"), (choi_map, "search"),
        (lambda: planted_indefinite(3, 2), "search")],
        ids=["co-cp", "indefinite", "choi", "planted"])
    def test_positivity_stage_is_positivity_certificate(self, make, proof):
        # classify proves a Wigner map positive from its fitted model, where
        # the public stage proves it co-CP; every other field is the same.
        s = make()
        cfg = ClassifyConfig(seed=5, samples=3, restarts=6, max_iters=40)
        cert = classify(s, 1, cfg).positivity
        public = positivity_certificate(s, restarts=6, max_iters=40, tol=cfg.positivity_tol,
                                        seed=derive_seed(5, 2))
        assert cert.proof == proof
        assert public.proof == ("co-cp" if proof == "model" else proof)
        assert (cert.min_value, cert.converged, cert.spread) == \
            (public.min_value, public.converged, public.spread)
        assert np.array_equal(cert.witness, public.witness)
        assert np.array_equal(cert.iterations, public.iterations)

    @pytest.mark.parametrize("seed", [1.5, None, -1, True, (3, -1), "0"])
    def test_config_rejects_bad_seed(self, seed):
        with pytest.raises(BadParameterError):
            ClassifyConfig(seed=seed)

    def test_config_accepts_tuple_and_numpy_seeds(self):
        assert ClassifyConfig(seed=(3, 4)).seed == (3, 4)
        assert ClassifyConfig(seed=np.int64(2)).seed == 2

    def test_with_tolerance_keeps_every_other_field(self):
        cfg = ClassifyConfig(samples=7, restarts=3, max_iters=11, seed=(4, 5),
                             positivity_tol=1e-3)
        scaled = cfg.with_tolerance(1e-4)
        assert (scaled.unital_tol, scaled.positivity_tol, scaled.projection_tol,
                scaled.decomposition_tol) == (1e-4, 1e-3, 1e-4, 1e-4)
        ladder = {"unital_tol", "positivity_tol", "projection_tol", "decomposition_tol"}
        for f in dataclasses.fields(ClassifyConfig):
            if f.name not in ladder:
                assert getattr(scaled, f.name) == getattr(cfg, f.name)

    @pytest.mark.parametrize("field,value", [
        ("samples", -5), ("samples", 2.0), ("samples", True), ("samples", "3"),
        ("restarts", 0), ("restarts", -1), ("restarts", 1.5), ("restarts", False),
        ("max_iters", -1), ("max_iters", 10.0), ("max_iters", True)])
    def test_config_rejects_bad_counts(self, field, value):
        with pytest.raises(BadParameterError):
            ClassifyConfig(**{field: value})

    @pytest.mark.parametrize("field", ["samples", "restarts"])
    def test_config_counts_have_a_ceiling(self, field):
        # The audit and the seesaw allocate per sample and per restart.
        for value in (MAX_DRAWS + 1, np.int64(10**9)):
            with pytest.raises(BadParameterError, match=f"{field}.*<= {MAX_DRAWS}"):
                ClassifyConfig(**{field: value})
        assert getattr(ClassifyConfig(**{field: MAX_DRAWS}), field) == MAX_DRAWS

    def test_config_is_frozen(self):
        # A field set after construction would skip __post_init__'s checks.
        cfg = ClassifyConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.samples = -5
        assert cfg.samples == 100

    def test_config_accepts_least_counts(self):
        cfg = ClassifyConfig(samples=0, restarts=1, max_iters=np.int64(0))
        assert (cfg.samples, cfg.restarts, cfg.max_iters) == (0, 1, 0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, 10**400])
    def test_config_rejects_bad_tolerance(self, tol):
        with pytest.raises(BadParameterError):
            ClassifyConfig(projection_tol=tol)
        with pytest.raises(BadParameterError):
            ClassifyConfig().with_tolerance(tol)


class TestModelCertificate:
    """The bounds classify draws from its fitted model (see AnalysisReport)."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.floats(1e-14, 0.5), st.sampled_from([DIRECT, TRANSPOSE]),
           st.sampled_from([2, 3, 4, 8]), st.integers(0, 2**16), st.data())
    def test_bounds_hold_on_perturbed_maps(self, eps, variant, n, seed, data):
        u = haar_unitary(n, seed)
        s = perturbed_wigner(u, variant, eps, seed)
        # A tolerance of 100 also loosens the rank-1 gate, so every map is fitted.
        form, delta = wigner._fit_form(s, 100.0)
        model = wigner_map(form.u, form.variant)
        assert delta == pytest.approx(np.linalg.norm(s.mat - model.mat), rel=1e-9, abs=1e-14)
        epsilon = np.linalg.norm(form.u.conj().T @ form.u - np.eye(n))

        for i in range(10):
            x = random_unit_vector(n, (seed, i))
            img = apply(s, np.outer(x, x.conj()))
            assert np.linalg.eigvalsh((img + img.conj().T) / 2)[0] >= -delta - 1e-12

        if epsilon + delta < 1:
            bound = (1 + epsilon + delta) / (1 - epsilon - delta)
            assert np.linalg.cond(s.mat) <= bound * (1 + 1e-9)

        # The audit's own test projections: basis subsets, then seeded draws.
        k = data.draw(st.integers(1, n - 1))
        audit_seed = derive_seed(seed, 3)
        subsets = itertools.islice(itertools.combinations(range(n), k),
                                   wigner.BASIS_SUBSET_CAP)
        tests = [np.diag([1.0 if i in sub else 0.0 for i in range(n)]) for sub in subsets]
        tests += [random_rank_k_projection(n, k, derive_seed(audit_seed, 0, i)).matrix
                  for i in range(8)]
        for q in tests:
            moved = q.T if form.variant == TRANSPOSE else q
            gap = np.linalg.norm(apply(s, q) - form.u @ moved @ form.u.conj().T)
            assert gap <= delta * np.sqrt(k) + 1e-12

    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_positivity_tol_below_delta_falls_back_to_cholesky(self, variant):
        s = wigner_map(haar_unitary(5, 41), variant)
        cfg = ClassifyConfig(seed=6, samples=5, restarts=4, max_iters=30, positivity_tol=1e-15)
        rep = classify(s, 2, cfg)
        assert rep.delta > cfg.positivity_tol
        public = positivity_certificate(s, restarts=4, max_iters=30, tol=1e-15,
                                        seed=derive_seed(6, 2))
        assert rep.positivity.proof == public.proof == ("cp" if variant == DIRECT else "co-cp")
        assert (rep.positivity.min_value, rep.positivity.converged) == \
            (public.min_value, public.converged)
        assert np.array_equal(rep.positivity.witness, public.witness)
        assert rep.verdict == "wigner"

    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_accept_at_n32_needs_no_cond_and_no_cholesky(self, monkeypatch, variant):
        calls = []

        def refuse(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"classify called {name} on a model-certified map")
            return call

        monkeypatch.setattr(wigner, "is_invertible", refuse("is_invertible"))
        monkeypatch.setattr(superop, "_is_positive_definite", refuse("_is_positive_definite"))
        u = haar_unitary(32, 7)
        rep = classify(wigner_map(u, variant), 3, ClassifyConfig(samples=4, restarts=2))
        assert calls == []
        assert rep.verdict == "wigner" and rep.form.variant == variant
        assert rep.positivity.proof == "model"
        assert rep.rank_k_audit.inverse_pass
        assert rep.delta + rep.epsilon < 1e-12
        assert phase_distance(rep.form.u, u) < 1e-8

    @staticmethod
    def near_wigner(n, variant, distance, seed, kind):
        # A Wigner map plus a unital, Hermiticity-preserving perturbation of
        # Frobenius norm `distance`: a Lindblad-type a -> h a h - (h^2 a + a h^2)/2
        # for a random Hermitian h, or a -> tr(a) I / n - a.
        w = wigner_map(haar_unitary(n, seed), variant)
        eye = np.eye(n)
        if kind == "lindblad":
            h = random_hermitian(n, (seed, 1))
            p = np.kron(h.T, h) - (np.kron(eye, h @ h) + np.kron((h @ h).T, eye)) / 2
        else:
            p = depolarizing(n, 0.0).mat - np.eye(n * n)
        return SuperOp(n, w.mat + distance * p / np.linalg.norm(p))

    @staticmethod
    def assert_rank_k_images(s, k, tests):
        # eigvalsh is the oracle: every image is Hermitian within tol, its
        # spectrum within tol of {0, 1}, with exactly k eigenvalues near 1.
        tol = matrix_core.DEFAULT_PROJECTION_TOL
        images = np.tensordot(tests, superop.unit_images(s), axes=2)
        assert np.all(np.linalg.norm(images - images.conj().swapaxes(1, 2), axis=(1, 2)) <= tol)
        w = np.linalg.eigvalsh((images + images.conj().swapaxes(1, 2)) / 2)
        near_one = np.abs(w - 1) <= tol
        assert np.all(near_one | (np.abs(w) <= tol))
        assert np.all(near_one.sum(axis=1) == k)

    def check_rank_k_proof(self, s, k, seed):
        # Wherever classify's audit is proven by the model, every audit test
        # projection and 1000 more Haar draws map to rank-k projections.
        cfg = ClassifyConfig(seed=seed, samples=20, restarts=2, max_iters=5)
        rep = classify(s, k, cfg)
        audit = rep.rank_k_audit
        assert audit.proof in ("model", "sampled")
        if audit.proof == "sampled":
            return False
        assert audit.pass_fraction == 1.0 and audit.inverse_pass
        n = s.n
        subsets = itertools.islice(itertools.combinations(range(n), k), wigner.BASIS_SUBSET_CAP)
        basis = [np.diag([1.0 + 0j if i in sub else 0j for i in range(n)]) for sub in subsets]
        draws = matrix_core._rank_k_projections(k, matrix_core._standard_normals(
            derive_seed(cfg.seed, 3, 0), cfg.samples, (2, n, n)))
        self.assert_rank_k_images(s, k, np.concatenate([basis, draws]))
        extra = matrix_core._rank_k_projections(k, matrix_core._standard_normals(
            derive_seed(seed, 99), MAX_DRAWS, (2, n, n)))
        self.assert_rank_k_images(s, k, extra)
        return True

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.sampled_from([DIRECT, TRANSPOSE]), st.integers(2, 16),
           st.one_of(st.just(0.0), st.floats(-16.0, -9.0).map(lambda x: 10.0 ** x)),
           st.sampled_from(["lindblad", "depolarizing"]), st.integers(0, 2**16), st.data())
    def test_rank_k_proof_holds_on_near_wigner_maps(self, variant, n, distance, kind, seed, data):
        k = data.draw(st.integers(1, n - 1))
        s = self.near_wigner(n, variant, distance, seed, kind)
        proven = self.check_rank_k_proof(s, k, seed)
        if distance <= 1e-13:
            assert proven

    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_rank_k_proof_holds_at_n32(self, variant):
        s = self.near_wigner(32, variant, 1e-12, 8, "lindblad")
        assert self.check_rank_k_proof(s, 16, 8)

    @pytest.mark.parametrize("delta,epsilon", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0),
                                               (0.0, np.inf), (np.inf, np.inf)])
    def test_nan_or_infinite_model_proves_nothing(self, delta, epsilon):
        s = wigner_map(haar_unitary(4, 2))
        assert wigner._proves_rank_k(4, 2, 1e-8, 0.0, 0.0, 0.0)
        assert not wigner._proves_rank_k(4, 2, 1e-8, delta, epsilon, 0.0)
        audit = wigner._audit_rank_k(s, 2, 5, 1e-8, (3,), delta, epsilon)
        assert audit.proof == "sampled" and audit.pass_fraction == 1.0

    def test_no_model_on_rejected_maps(self):
        # pseudo-depolarizing maps fail the fit's rank-1 gate and perturbed
        # maps are not unital: both keep the Cholesky proofs.
        for s, proof in ((pseudo_depolarizing(4, 0.2), "co-cp"),
                         (perturbed_wigner(haar_unitary(4, 3), DIRECT, 1e-3), "cp")):
            rep = classify(s, 2, ClassifyConfig(samples=5, restarts=3))
            assert rep.delta is None and rep.epsilon is None
            assert rep.positivity.proof == proof


class TestAuditEigensolves:
    # projection_ranks proves the spectra of the Haar draws and of projection
    # images from their residuals, and decides images far from a projection
    # by the residual alone, so the audit needs no eigensolve.
    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []

        def refuse(a, *args, **kwargs):
            calls.append(np.shape(a))
            raise AssertionError("matrix_core called eigvalsh")

        monkeypatch.setattr(matrix_core.np.linalg, "eigvalsh", refuse)
        return calls

    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_accept_at_n16_makes_no_eigensolve(self, eigvalsh_calls, variant):
        rep = classify(wigner_map(haar_unitary(16, 17), variant), 8, ClassifyConfig(seed=5))
        assert eigvalsh_calls == []
        assert rep.verdict == "wigner" and rep.form.variant == variant
        assert rep.rank_k_audit.pass_fraction == 1.0 and rep.rank_k_audit.inverse_pass

    @pytest.mark.parametrize("s", [depolarizing(8, 0.5), pseudo_depolarizing(8, 0.1)],
                             ids=["depolarizing", "pseudo_depolarizing"])
    def test_reject_makes_no_eigensolve(self, eigvalsh_calls, s):
        rep = classify(s, 3, ClassifyConfig(seed=5))
        assert eigvalsh_calls == []
        assert rep.verdict != "wigner" and rep.rank_k_audit.pass_fraction < 1.0


class TestAuditLayout:
    # The audit certifies its Haar draws from their k x k Gram matrices, so
    # its one projection_ranks call is the one on the images, and on a
    # Wigner map the fitted model proves every image's rank with none.
    @pytest.mark.parametrize("make,proven", [(lambda: wigner_map(haar_unitary(16, 4)), True),
                                             (lambda: depolarizing(16, 0.5), False),
                                             (lambda: pseudo_depolarizing(16, 0.05), False)],
                             ids=["wigner", "depolarizing", "pseudo_depolarizing"])
    def test_one_projection_ranks_call_per_audit(self, monkeypatch, make, proven):
        calls = []
        for module in (matrix_core, wigner):
            def counting(ms, *args, certify=module.projection_ranks):
                calls.append(len(ms))
                return certify(ms, *args)
            monkeypatch.setattr(module, "projection_ranks", counting)
        rep = classify(make(), 8)
        assert rep.rank_k_audit.proof == ("model" if proven else "sampled")
        assert calls == ([] if proven else [rep.rank_k_audit.samples])

    # At n = 32, S takes 16 MB. The audit maps its tests by products with S
    # itself, never a copy of it, and the fit holds one n^4 model at a time,
    # from which it subtracts S in place. The Hermiticity test holds two
    # copies of half the unit images and forms d_ij in one of them.
    @staticmethod
    def peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_audit_at_n32_allocates_less_than_s(self, variant):
        s = wigner_map(haar_unitary(32, 5), variant)
        assert self.peak_bytes(lambda: preserves_rank_k(s, 16)) < s.mat.nbytes

    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_fit_at_n32_allocates_one_model(self, variant):
        s = wigner_map(haar_unitary(32, 5), variant)
        assert self.peak_bytes(lambda: extract_unitary(s)) < 1.25 * s.mat.nbytes

    @pytest.mark.parametrize("variant", [DIRECT, TRANSPOSE])
    def test_classify_at_n32_allocates_only_its_fit(self, variant):
        # On a Wigner map the model proves Hermiticity, so the test's two
        # copies of half the unit images (1.047 S with the fit before it)
        # are never made, and the losing variant's model is never formed:
        # classify's peak is its one fitted model's (1.020 S).
        s = wigner_map(haar_unitary(32, 5), variant)
        fit = self.peak_bytes(lambda: extract_unitary(s))
        assert self.peak_bytes(lambda: classify(s, 16)) < 1.01 * fit < 1.035 * s.mat.nbytes

    def test_hermiticity_test_at_n32_allocates_about_one_s(self):
        s = wigner_map(haar_unitary(32, 5))
        assert self.peak_bytes(lambda: is_hermiticity_preserving(s)) < 1.25 * s.mat.nbytes


@pytest.mark.parametrize("value", [1.5, True, "2"])
@pytest.mark.parametrize("call", [
    lambda v: classify(transpose_superop(3), v),
    lambda v: preserves_rank_k(transpose_superop(3), v),
    lambda v: lemma1_projections(3, v),
    lambda v: lemma1_projections(3, 1, which=v),
], ids=["classify-k", "preserves_rank_k-k", "lemma1_projections-k", "lemma1_projections-which"])
def test_non_integer_rank_or_index_rejected(call, value):
    # Unchecked, 1.5 and "2" end in a bare TypeError and True runs as 1.
    with pytest.raises(BadParameterError):
        call(value)


def test_numpy_integer_rank_accepted():
    audit = preserves_rank_k(transpose_superop(3), np.int64(1), samples=5)
    assert audit.pass_fraction == 1.0
    assert lemma1_projections(3, np.int64(2), which=np.int64(1)).p.rank == 1
