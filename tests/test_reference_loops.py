"""The vectorised classify stages against per-element reference loops.

Each reference is the plain loop over public calls that the stage replaces:
one `apply` per Hermitian basis element, per matrix unit or per test
projection, and one `validate_projection` per image. The stages read every
phi(E_ij) off one view of the superoperator, so these tests pin that view
and the stacked arithmetic to the loops, map by map. The stacked Haar draws
and the positivity seesaw, whose restarts run in lockstep, change no
arithmetic, so their references must agree bit for bit. The seesaw's
reference runs its restarts in lockstep too, since its stop rule compares
them; with the rule switched off it is the search restart by restart.
The stacked Haar draws and the seesaw's starts are seeded in one pass;
their reference is one `np.random.default_rng` per seed.

`ref_rank_k` keeps the inverse audit the stage no longer runs: it inverts
the map and audits the inverse on a second seed stream. The stage derives
inverse_pass from its forward pass and cond(S) alone, so the old loop is the
cross-check that the derived predicate agrees with it, map by map.
`ref_positivity` keeps the projected gradient descent the seesaw replaced,
as the oracle its minima must reach. `ref_projection_ranks` keeps the
certification that ran eigvalsh on every matrix; projection_ranks proves
most spectra from the idempotency residual instead, and must give the same
ranks and residuals bit for bit.

`ref_audit` and `ref_fit_form` keep the audit's tensordot over a dense stack
of test projections and the fit's deviations on the unit images' view, as
they ran before both worked on S's own memory layout. Ranks, counts, U and
the variant must be equal; residuals and delta may move at rounding level,
by the bounds each test states.

`ref_classify` keeps classify as the public stages ran it before its fitted
model could certify positivity and invertibility: the Cholesky proofs or the
search, the audit with cond(S), and the extraction last. Report files from
the two must be equal; only the certificate's proof kind may differ.

Where the fitted model lets a stage skip work, the skip is checked against
the work it skips: classify may skip its Hermiticity test only where the
basis loop passes, and `_fit_form` may skip the second variant only where
that variant's full residual, from `ref_fit_form`, exceeds the first's.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wignerkit import (
    DEFAULT_PROJECTION_TOL,
    AnalysisReport,
    ChoiMatrix,
    ClassifyConfig,
    DegenerateImageError,
    NotAProjectionError,
    NotHermitianError,
    NotWignerLikeError,
    RankKAudit,
    SingularMapError,
    SuperOp,
    apply,
    build_map,
    choi_map,
    classify,
    extract_unitary,
    from_action,
    from_choi,
    haar_unitary,
    invert,
    is_hermiticity_preserving,
    is_unital,
    perturbed_wigner,
    planted_indefinite,
    positivity_certificate,
    preserves_rank_k,
    random_rank_k_projection,
    random_unit_vector,
    validate_projection,
)
from wignerkit import matrix_core, superop, wigner
from wignerkit.matrix_core import (
    NOT_A_PROJECTION,
    NOT_HERMITIAN,
    _standard_normals,
    derive_seed,
    projection_ranks,
)
from wignerkit.serialize import report_to_json
from wignerkit.wigner import BASIS_SUBSET_CAP, TRANSPOSE

DIMS = (2, 3, 5, 8)
KINDS = ("wigner", "wigner_transpose", "depolarizing", "pseudo_depolarizing",
         "perturbed", "random_hp", "random", "constant_projection")


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def constant_projection_map(n: int, k: int, seed) -> SuperOp:
    # a -> tr(a) P / k sends every rank-k projection to the one rank-k
    # projection P: "into" holds, but S has rank 1, so "onto" fails.
    p = random_rank_k_projection(n, k, seed).matrix
    return from_action(n, lambda a: np.trace(a) * p / k)


def make_map(kind: str, n: int, seed: int) -> SuperOp:
    if kind == "constant_projection":
        return constant_projection_map(n, n // 2, seed)
    rng = np.random.default_rng([seed, n])
    if kind == "wigner":
        return build_map("wigner", n, {"variant": "direct"}, seed)
    if kind == "wigner_transpose":
        return build_map("wigner", n, {"variant": "transpose"}, seed)
    if kind == "depolarizing":
        return build_map("depolarizing", n, {"lambda": float(rng.uniform(0.1, 0.9))}, seed)
    if kind == "pseudo_depolarizing":
        mu = float(rng.uniform(0.2, 2.0)) / (n - 1)
        return build_map("pseudo_depolarizing", n, {"mu": mu}, seed)
    if kind == "perturbed":
        return build_map("perturbed_wigner", n, {"variant": "transpose", "epsilon": 1e-3}, seed)
    z = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    if kind == "random_hp":
        return from_choi(ChoiMatrix(n, (z + z.conj().T) / (2 * n)))
    return SuperOp(n, z / n)


def ref_hermitian_basis(n: int) -> list:
    # The n^2 standard Hermitian basis elements.
    basis = [_unit(n, i, i) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        basis.append(_unit(n, i, j) + _unit(n, j, i))
        basis.append(1j * (_unit(n, i, j) - _unit(n, j, i)))
    return basis


def ref_hermiticity_preserving(s: SuperOp, tol: float) -> bool:
    for h in ref_hermitian_basis(s.n):
        out = apply(s, h)
        if np.linalg.norm(out - out.conj().T) > tol * max(1.0, np.linalg.norm(h)):
            return False
    return True


def ref_rank_k(s: SuperOp, k: int, samples: int, tol: float, seed):
    n = s.n

    def run(target: SuperOp, stream: int):
        tests = [np.diag([1.0 + 0j if i in sub else 0j for i in range(n)])
                 for sub in itertools.islice(itertools.combinations(range(n), k),
                                             BASIS_SUBSET_CAP)]
        tests += [random_rank_k_projection(n, k, derive_seed(seed, stream, i)).matrix
                  for i in range(samples)]
        passes, worst = 0, 0.0
        for q in tests:
            img = apply(target, q)
            worst = max(worst, float(np.linalg.norm(img @ img - img)))
            try:
                passes += validate_projection(img, tol).rank == k
            except (NotHermitianError, NotAProjectionError):
                pass
        return passes / len(tests), worst, len(tests)

    fraction, worst, total = run(s, 0)
    try:
        inverse_pass = run(invert(s), 1)[0] == 1.0
    except SingularMapError:
        inverse_pass = False
    return total, fraction, worst, inverse_pass


def ref_residual(s: SuperOp, u: np.ndarray, variant: str) -> float:
    n = s.n
    worst = 0.0
    for i in range(n):
        for j in range(n):
            if variant == TRANSPOSE:
                model = np.outer(u[:, j], u[:, i].conj())
            else:
                model = np.outer(u[:, i], u[:, j].conj())
            worst = max(worst, float(np.linalg.norm(apply(s, _unit(n, i, j)) - model)))
    return worst


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_hermiticity_test_matches_basis_loop(kind, n):
    # The stage squares no tol, so it decides at every size of tol, up to
    # the largest float, with no overflow; the loop scales tol by ||h||_F.
    s = make_map(kind, n, 3)
    for tol in (1e-300, 1e-14, 1e-12, 1e-10, 1e-8, 1e-3, 1e150, 1e300):
        assert is_hermiticity_preserving(s, tol) == ref_hermiticity_preserving(s, tol)
    assert is_hermiticity_preserving(s, 1.7e308)


@pytest.mark.parametrize("phase", [1.0, 1j])
@pytest.mark.parametrize("factor,expected", [(1.2, True), (1.5, False)])
def test_hermiticity_off_diagonal_threshold_is_tol_sqrt2(phase, factor, expected):
    # a -> a + eps phase a_01 E_00 makes phi(h) - phi(h)* = 2 eps E_00 up to
    # a unit factor for h = i(E_01 - E_10) (phase 1) or h = E_01 + E_10
    # (phase i); ||h||_F = sqrt(2) allows 2 eps up to tol sqrt(2).
    tol = 1e-10
    eps = factor * tol / 2

    def action(a):
        return a + eps * phase * a[0, 1] * _unit(3, 0, 0)

    s = from_action(3, action)
    assert ref_hermiticity_preserving(s, tol) is expected
    assert is_hermiticity_preserving(s, tol) is expected


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), single_entry=st.booleans(),
       factor=st.floats(0.5, 2.0).filter(lambda f: abs(f - 1.0) > 1e-9))
def test_hermiticity_near_its_threshold_matches_basis_loop(n, seed, single_entry, factor):
    # A Hermiticity-preserving map plus a perturbation of S, checked at the
    # tol that puts its worst basis deviation at factor times the threshold.
    rng = np.random.default_rng(seed)
    s = make_map("random_hp", n, seed % 1000)
    p = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    if single_entry:
        p *= np.arange(p.size).reshape(p.shape) == rng.integers(p.size)
    s = SuperOp(n, s.mat + 1e-8 * p / np.linalg.norm(p))
    worst = 0.0
    for h in ref_hermitian_basis(n):
        out = apply(s, h)
        worst = max(worst, np.linalg.norm(out - out.conj().T) / max(1.0, np.linalg.norm(h)))
    tol = worst / factor
    assert is_hermiticity_preserving(s, tol) == ref_hermiticity_preserving(s, tol) == (factor < 1)


def worst_hermiticity_deviation(s: SuperOp) -> float:
    # The least tol at which ref_hermiticity_preserving passes.
    worst = 0.0
    for h in ref_hermitian_basis(s.n):
        out = apply(s, h)
        worst = max(worst, np.linalg.norm(out - out.conj().T) / max(1.0, np.linalg.norm(h)))
    return worst


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(2, 6), variant=st.sampled_from(["direct", "transpose"]),
       seed=st.integers(0, 2**32 - 1), hermitian=st.booleans(),
       factor=st.floats(0.5, 2.0).filter(lambda f: abs(f - 1.0) > 1e-9))
def test_hermiticity_skip_only_where_the_test_passes(n, variant, seed, hermitian, factor):
    # A Wigner map plus t (K a - a K), unital for any K, is Hermiticity-
    # preserving only for anti-Hermitian K; its Hermitian part makes
    # phi(h) - phi(h)* = t [K + K*, h], and t puts the worst deviation at
    # factor times classify's unital_tol. classify may skip its Hermiticity
    # test only where the test would pass.
    rng = np.random.default_rng(seed)
    w = build_map("wigner", n, {"variant": variant}, seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (x + x.conj().T) / 2 if hermitian else x
    eye = np.eye(n)
    perturbation = np.kron(eye, k) - np.kron(k.T, eye)
    cfg = ClassifyConfig(seed=seed % 1000, samples=2, restarts=2, max_iters=5)
    t = factor * cfg.unital_tol / worst_hermiticity_deviation(SuperOp(n, perturbation))
    s = SuperOp(n, w.mat + t * perturbation)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigner, "is_hermiticity_preserving",
                   lambda s, tol: calls.append(tol) or is_hermiticity_preserving(s, tol))
        rep = classify(s, 1, cfg)
    passes = is_hermiticity_preserving(s, cfg.unital_tol)
    assert passes == ref_hermiticity_preserving(s, cfg.unital_tol)
    assert rep.hermiticity_preserving == passes
    if not calls:
        assert passes


def test_hermiticity_diagonal_threshold_is_tol():
    # phi(E_00) - phi(E_00)* = 2i eps E_00 with 2 eps = 1.2 tol fails at tol.
    tol = 1e-10
    s = from_action(3, lambda a: a + 0.6j * tol * a[0, 0] * _unit(3, 0, 0))
    assert not ref_hermiticity_preserving(s, tol)
    assert not is_hermiticity_preserving(s, tol)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_rank_k_audit_matches_per_image_loop(kind, n):
    s = make_map(kind, n, 5)
    for k in sorted({1, n // 2, n - 1}):
        for tol in (1e-8, 1e-2):
            seed = (5, n, k)
            audit = preserves_rank_k(s, k, samples=12, tol=tol, seed=seed)
            total, fraction, worst, inverse_pass = ref_rank_k(s, k, 12, tol, seed)
            assert audit.samples == total
            assert audit.pass_fraction == fraction
            assert audit.inverse_pass == inverse_pass
            assert abs(audit.max_residual - worst) <= 1e-12


@pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3, 5) for k in range(1, n)])
def test_constant_projection_fails_only_onto(n, k):
    # Every sample passes and only "onto" rejects: the old loop reaches
    # False through SingularMapError, the stage through cond(S).
    s = constant_projection_map(n, k, (8, n, k))
    audit = preserves_rank_k(s, k, samples=12, seed=(8, n, k))
    assert audit.pass_fraction == 1.0
    assert audit.inverse_pass is False
    assert ref_rank_k(s, k, 12, 1e-8, (8, n, k))[3] is False
    report = classify(s, k, ClassifyConfig(samples=12, restarts=2, max_iters=20))
    assert "rank_k_violation" in report.reasons


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_extraction_residual_matches_per_unit_loop(kind, n):
    # A tolerance of 100 also loosens the rank-1 gate, so every map yields a form.
    s = make_map(kind, n, 7)
    form = extract_unitary(s, tol=100.0)
    assert abs(form.residual - ref_residual(s, form.u, form.variant)) <= 1e-12


EPS = np.finfo(float).eps


def ref_audit(s: SuperOp, k: int, samples: int, tol: float, seed):
    # The audit as it ran before it worked on S's own layout: the basis-subset
    # projections as a dense stack, concatenated with the draws and mapped by
    # one tensordot with the unit images, which copies all n^4 of them.
    # Returns the images, their ranks and residuals, and the audit.
    n = s.n
    subsets = np.array(list(itertools.islice(
        itertools.combinations(range(n), k), BASIS_SUBSET_CAP)))
    basis = np.zeros((len(subsets), n, n), dtype=complex)
    basis[np.arange(len(subsets))[:, None], subsets, subsets] = 1.0
    draws = [random_rank_k_projection(n, k, derive_seed(seed, 0, i)).matrix
             for i in range(samples)]
    tests = np.concatenate([basis, draws])
    images = np.tensordot(tests, superop.unit_images(s), axes=2)
    ranks, residuals = projection_ranks(images, tol)
    fraction = np.count_nonzero(ranks == k) / len(tests)
    audit = RankKAudit(k=k, samples=len(tests), pass_fraction=fraction,
                       max_residual=float(residuals.max()),
                       inverse_pass=fraction == 1.0 and superop.is_invertible(s))
    return images, ranks, residuals, audit


def recorded_projection_ranks(monkeypatch, module) -> list:
    # Every (ranks, residuals) that projection_ranks returns through module.
    calls = []
    certify = module.projection_ranks

    def recording(ms, *args):
        calls.append(certify(ms, *args))
        return calls[-1]

    monkeypatch.setattr(module, "projection_ranks", recording)
    return calls


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_audit_on_s_layout_matches_tensordot_audit(monkeypatch, kind, n):
    # Ranks, pass_fraction, samples and inverse_pass are equal. Each image's
    # residual moves by at most 16 n eps (1 + ||image||_F)^2, the margin
    # projection_ranks allows for the rounding in a residual.
    s = make_map(kind, n, 13)
    calls = recorded_projection_ranks(monkeypatch, wigner)
    for k in sorted({1, n // 2, n - 1}):
        audit = preserves_rank_k(s, k, samples=30, seed=(13, k))
        images, ranks, residuals, ref = ref_audit(s, k, 30, DEFAULT_PROJECTION_TOL, (13, k))
        got_ranks, got_residuals = calls.pop()
        assert np.array_equal(got_ranks, ranks)
        assert ((audit.samples, audit.pass_fraction, audit.inverse_pass)
                == (ref.samples, ref.pass_fraction, ref.inverse_pass))
        margin = 16 * n * EPS * (1.0 + np.linalg.norm(images, axis=(1, 2))) ** 2
        assert np.all(np.abs(got_residuals - residuals) <= margin)
        assert abs(audit.max_residual - ref.max_residual) <= margin.max()


def ref_fit_form(s: SuperOp):
    # _fit_form as it ran before it took the deviations on S's own layout: on
    # the unit images' view, with the n^4 model and the difference both
    # formed, then np.linalg.norm per unit, with no tolerance or rank-1 gate.
    # Returns the form, delta and both variants' residuals.
    units = superop.unit_images(s)
    u1 = np.linalg.eigh((units[0, 0] + units[0, 0].conj().T) / 2)[1][:, -1]

    def fit(images):
        cols = images[:, 0] @ u1
        cols[0] = u1
        u = wigner._fix_phase(wigner._polar_unitary(cols.T))
        model = u.T[:, None, :, None] * u.conj().T[None, :, None, :]
        return u, np.linalg.norm(images - model, axis=(2, 3))

    (u_d, dev_d), (u_t, dev_t) = fit(units), fit(units.swapaxes(0, 1))
    res = (float(dev_d.max()), float(dev_t.max()))
    u, dev, variant = (u_d, dev_d, wigner.DIRECT) if res[0] <= res[1] else (u_t, dev_t, TRANSPOSE)
    return wigner.WignerForm(u=u, variant=variant, residual=float(dev.max())), float(
        np.linalg.norm(dev)), res


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_fit_on_s_layout_matches_view_deviations(kind, n):
    # U is equal bit for bit, and so is every entry of the model and of the
    # difference; only the sums of squares run in another order, so residual
    # and delta move by at most 4 n eps relative. The variant is equal unless
    # the two residuals tie within that.
    s = make_map(kind, n, 17)
    form, delta = wigner._fit_form(s, 100.0)
    ref, ref_delta, (res_d, res_t) = ref_fit_form(s)
    bound = 4 * n * EPS
    assert abs(form.residual - ref.residual) <= bound * ref.residual
    assert abs(delta - ref_delta) <= bound * ref_delta
    if abs(res_d - res_t) > bound * max(res_d, res_t):
        assert form.variant == ref.variant
    if form.variant == ref.variant:
        assert np.array_equal(form.u, ref.u)


@settings(max_examples=80, deadline=None, database=None)
@given(n=st.integers(1, 8), variant=st.sampled_from(["direct", "transpose"]),
       size=st.floats(-16.0, 0.5), seed=st.integers(0, 2**16), tol=st.sampled_from([1e-6, 100.0]))
def test_skipped_variant_loses(n, variant, size, seed, tol):
    # _fit_form fits one variant, the likelier, when it proves the other's
    # worst unit deviation exceeds the first one's residual; the test
    # computes the skipped variant's full residual and checks that it does.
    # Each fit is one polar factor. At n = 1 the two variants are one map,
    # and both are fitted.
    s = perturbed_wigner(haar_unitary(n, seed), variant, 10.0 ** size, seed)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigner, "_polar_unitary",
                   lambda m, fit=wigner._polar_unitary: calls.append(1) or fit(m))
        try:
            form, _ = wigner._fit_form(s, tol)
        except (NotWignerLikeError, DegenerateImageError):
            form = None
    _, _, (res_d, res_t) = ref_fit_form(s)
    if n == 1 or form is None:
        assert len(calls) in ((2,) if n == 1 else (0, 2))
        return
    if len(calls) == 1:
        loser, winner = (res_t, res_d) if form.variant == wigner.DIRECT else (res_d, res_t)
        assert loser > winner
        assert loser > form.residual
    else:
        assert len(calls) == 2


def ref_haar_unitary(n: int, seed) -> np.ndarray:
    # One Ginibre sample, its QR, and the R-diagonal phase fix.
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n", (2, 3, 5, 8, 16, 32, 64))
def test_stacked_draws_match_per_seed_draws(n):
    # The draws QR only their first k Ginibre columns; they must equal the
    # first k columns of the full QR.
    prefix = derive_seed((9, n), 0)
    seeds = [prefix + (i,) for i in range(12)]
    for seed in seeds:
        assert np.array_equal(haar_unitary(n, seed), ref_haar_unitary(n, seed))
    g = _standard_normals(prefix, len(seeds), (2, n, n))
    for k in range(1, n) if n <= 8 else sorted({1, n // 2, n - 1}):
        stack = matrix_core._rank_k_projections(k, g)
        assert stack.shape == (len(seeds), n, n)
        for m, seed in zip(stack, seeds):
            v = ref_haar_unitary(n, seed)[:, :k]
            assert np.array_equal(m, v @ v.conj().T)
            assert np.array_equal(m, random_rank_k_projection(n, k, seed).matrix)


# Seed entries whose words straddle the 32-bit boundaries, and numpy integers.
SEED_INTS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**130]) | st.integers(0, 2**130)
SEED_ENTRIES = (SEED_INTS | st.integers(0, 2**63 - 1).map(np.int64)
                | st.integers(0, 2**64 - 1).map(np.uint64) | st.integers(0, 255).map(np.uint8))
PREFIXES = st.lists(SEED_ENTRIES, max_size=8).map(tuple)


@settings(max_examples=300, deadline=None)
@given(prefix=PREFIXES, count=st.integers(0, 6), n=st.integers(1, 6), matrices=st.booleans())
@example(prefix=(), count=0, n=3, matrices=True)
@example(prefix=(), count=3, n=2, matrices=False)
@example(prefix=(2**40 + 3, 1, 2, 3, 4, 5, 6, 7), count=2, n=2, matrices=False)
@example(prefix=(2**32, 0, 2**130), count=6, n=4, matrices=True)
@example(prefix=(np.uint64(2**64 - 1),), count=1, n=1, matrices=True)
def test_seeded_streams_equal_default_rng(prefix, count, n, matrices):
    # The stacked seeding reproduces SeedSequence and PCG64's seeding for the
    # streams prefix + (i,): prefixes of 0 to 8 entries of 1 to 5 words each
    # (up to 41 words with the index, so entropy beyond the 4-word pool is
    # mixed in) and counts of 0 to 6.
    shape = (2, n, n) if matrices else (2, n)
    got = _standard_normals(prefix, count, shape)
    assert got.shape == (count, *shape)
    for i, row in enumerate(got):
        assert np.array_equal(row, np.random.default_rng(prefix + (i,)).standard_normal(shape))


def test_default_rng_is_pcg64():
    # _standard_normals reproduces PCG64's seeding: a new default bit
    # generator in NumPy must fail here, not change the seeded draws.
    assert type(np.random.default_rng(0).bit_generator) is np.random.PCG64


# Seeds whose streams' entropy is more than one word per entry: 2^40 + 3 is
# two words, and the 5-entry tuple with its stream indices is 8 or more, so
# it is mixed in beyond SeedSequence's 4-word pool.
LARGE_SEEDS = (2**40 + 3, (2**40 + 3, 7, 0, 2**33, 5))


@pytest.mark.parametrize("seed", LARGE_SEEDS, ids=("int", "tuple"))
@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (8, 5)])
def test_audit_draws_match_per_seed_draws_at_large_seeds(monkeypatch, n, k, seed):
    # The audit's draws, recorded as the audit certifies them.
    drawn = []
    rank_k_projections = wigner._rank_k_projections

    def recording(k, g):
        drawn.append(rank_k_projections(k, g))
        return drawn[-1]

    monkeypatch.setattr(wigner, "_rank_k_projections", recording)
    s = make_map("perturbed", n, 3)
    audit = preserves_rank_k(s, k, samples=12, seed=seed)
    (draws,) = drawn
    assert len(draws) == 12
    for i, m in enumerate(draws):
        v = ref_haar_unitary(n, derive_seed(seed, 0, i))[:, :k]
        assert np.array_equal(m, v @ v.conj().T)
    total, fraction, worst, inverse_pass = ref_rank_k(s, k, 12, 1e-8, seed)
    assert (audit.samples, audit.pass_fraction, audit.inverse_pass) == (total, fraction,
                                                                        inverse_pass)
    assert abs(audit.max_residual - worst) <= 1e-12


def ginibre_stack(seeds, n: int) -> np.ndarray:
    # One 2 x n x n block of standard normals per seed, from default_rng itself.
    return np.stack([np.random.default_rng(seed).standard_normal((2, n, n)) for seed in seeds])


def refuse_projection_ranks(*args):
    raise AssertionError("a draw went to projection_ranks")


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 16) | st.just(64), k=st.integers(1, 64),
       seeds=st.lists(SEED_INTS | st.tuples(SEED_INTS, SEED_INTS), min_size=1, max_size=4))
@example(n=64, k=63, seeds=[2**130, (2**64, 7)])
@example(n=64, k=1, seeds=[0])
@example(n=1, k=1, seeds=[(3, 4)])
def test_gram_certificate_proves_every_haar_draw(n, k, seeds):
    # k runs over 1..n, k = n included (V is then unitary and V V* is I).
    # The k x k Gram matrix proves every draw, and projection_ranks, run
    # afterwards as an independent check, gives each rank k.
    k = 1 + (k - 1) % n
    g = ginibre_stack(seeds, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_core, "projection_ranks", refuse_projection_ranks)
        draws = matrix_core._rank_k_projections(k, g)
    assert np.array_equal(projection_ranks(draws)[0], np.full(len(seeds), k))


def test_draws_the_gram_bound_leaves_open_go_to_projection_ranks(monkeypatch):
    # V scaled by 1 + c with c = 2e-9: ||V*V - I||_F = ((1 + c)^2 - 1) sqrt(2),
    # about 5.7e-9, fails 4(gc + 2e) <= 1e-8, but V V* has the eigenvalue
    # (1 + c)^2, about 1 + 4e-9, within 1e-8 of 1, so projection_ranks
    # certifies rank 2 and the draws are returned.
    c = 2e-9
    haar_columns = matrix_core._haar_columns
    monkeypatch.setattr(matrix_core, "_haar_columns", lambda k, g: (1 + c) * haar_columns(k, g))
    calls = recorded_projection_ranks(monkeypatch, matrix_core)
    g = ginibre_stack([0, (1, 2), 2**70], 6)
    draws = matrix_core._rank_k_projections(2, g)
    assert [list(ranks) for ranks, _ in calls] == [[2, 2, 2]]
    v = (1 + c) * haar_columns(2, g)
    assert np.array_equal(draws, v @ v.conj().swapaxes(-1, -2))


def ref_projection_ranks(ms, tol: float):
    # projection_ranks with one eigvalsh per stack and no spectrum proof.
    ms = np.asarray(ms, dtype=complex)
    skew = np.linalg.norm(ms - ms.conj().swapaxes(-1, -2), axis=(-2, -1))
    residuals = np.linalg.norm(ms @ ms - ms, axis=(-2, -1))
    w = np.linalg.eigvalsh((ms + ms.conj().swapaxes(-1, -2)) / 2)
    near_one = np.abs(w - 1.0) <= tol
    ranks = near_one.sum(axis=-1)
    off_spectrum = ~np.all(near_one | (np.abs(w) <= tol), axis=-1)
    ranks[off_spectrum | (residuals > 10.0 * tol) | (skew > 10.0 * tol)] = NOT_A_PROJECTION
    ranks[skew > tol * np.maximum(1.0, np.linalg.norm(ms, axis=(-2, -1)))] = NOT_HERMITIAN
    return ranks, residuals


NOISE_LEVELS = (1 / 8, 1 / 4, 1.0, 10.0, 100.0)


def noisy_projections(n: int, count: int, tol: float, hermitian: bool, scale: float, seed):
    # Haar projections of every rank 0..n, times scale, plus noise whose
    # Frobenius norm is tol times a level from NOISE_LEVELS.
    rng = np.random.default_rng(seed)
    ms = []
    for t in range(count):
        v = haar_unitary(n, derive_seed(seed, t))[:, :int(rng.integers(0, n + 1))]
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if hermitian:
            e = e + e.conj().T
        e *= tol * NOISE_LEVELS[t % len(NOISE_LEVELS)] / np.linalg.norm(e)
        ms.append(scale * (v @ v.conj().T) + e)
    return np.array(ms, dtype=complex).reshape(count, n, n)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 16), count=st.integers(0, 6),
       tol=st.floats(-12.0, np.log10(0.9)).map(lambda e: 10.0 ** e),
       hermitian=st.booleans(),
       scale=st.sampled_from([1.0, 1e-3, 0.5, 1 + 1e-9, 2.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_projection_ranks_match_eigvalsh_everywhere(n, count, tol, hermitian, scale, seed):
    ms = noisy_projections(n, count, tol, hermitian, scale, seed)
    ranks, residuals = projection_ranks(ms, tol)
    want_ranks, want_residuals = ref_projection_ranks(ms, tol)
    assert np.array_equal(ranks, want_ranks)
    assert np.array_equal(residuals, want_residuals)


@pytest.mark.parametrize("n,count", [(64, len(NOISE_LEVELS)), (4, 0)], ids=["n64", "empty"])
@pytest.mark.parametrize("hermitian", [True, False])
def test_projection_ranks_match_eigvalsh_at_the_extremes(n, count, hermitian):
    for tol in (1e-12, 1e-8, 0.9):
        ms = noisy_projections(n, count, tol, hermitian, 1.0, (n, count))
        ranks, residuals = projection_ranks(ms, tol)
        want_ranks, want_residuals = ref_projection_ranks(ms, tol)
        assert ranks.shape == (count,)
        assert np.array_equal(ranks, want_ranks)
        assert np.array_equal(residuals, want_residuals)


POSITIVITY_MAPS = {
    "wigner": lambda: build_map("wigner", 4, {"variant": "direct"}, 11),
    "wigner_transpose": lambda: build_map("wigner", 5, {"variant": "transpose"}, 12),
    "depolarizing": lambda: build_map("depolarizing", 4, {"lambda": 0.4}),
    "pseudo_depolarizing_positive": lambda: build_map("pseudo_depolarizing", 4, {"mu": 0.2}),
    "pseudo_depolarizing_negative": lambda: build_map("pseudo_depolarizing", 4, {"mu": 0.6}),
    "perturbed": lambda: build_map("perturbed_wigner", 4,
                                   {"variant": "transpose", "epsilon": 0.1}, 13),
    "choi": choi_map,
    "random_hp": lambda: make_map("random_hp", 3, 14),
}


def ref_least_eig(s: SuperOp, x: np.ndarray):
    # Least eigenvalue and eigenvector of phi(x x*): one apply, one eigh.
    out = apply(s, np.outer(x, x.conj()))
    w, v = np.linalg.eigh((out + out.conj().T) / 2)
    return float(w[0]), v[:, 0]


def ref_seesaw(s: SuperOp, restarts: int, max_iters: int, tol: float, seed,
              rule: bool = True):
    # The seesaw with every half-step of every restart its own apply and eigh.
    # The restarts run in lockstep so that, with rule, each iteration can end
    # with the stop rule: a running restart whose falls shrink by
    # 0 < rho < 1 stops when its Aitken limit f - d rho / (1 - rho) exceeds
    # max(least value of the stopped restarts, -tol). Without rule this is
    # the search restart by restart. Returns (value, point, stop, iterations)
    # for every restart; stop is "settled" (a half-step fell by at most
    # gtol), "pruned" (the rule) or None (max_iters ran out).
    n = s.n
    s_adj = SuperOp(n, s.mat.conj().T)
    gtol = max(1e-12, 1e-2 * tol)
    rows = []
    for r in range(restarts):
        x = random_unit_vector(n, derive_seed(seed, r))
        f, y = ref_least_eig(s, x)
        rows.append({"f": f, "x": x, "y": y, "stop": None, "iterations": 0,
                     "fall": None, "rho": None})
    for _ in range(max_iters):
        running = [row for row in rows if row["stop"] is None]
        if not running:
            break
        for row in running:
            row["iterations"] += 1
            g, xn = ref_least_eig(s_adj, row["y"])
            if row["f"] - g <= gtol:
                row["stop"] = "settled"
                continue
            fn, yn = ref_least_eig(s, xn)
            d = row["f"] - fn
            row["f"], row["x"], row["y"] = fn, xn, yn
            if g - fn <= gtol:
                row["stop"] = "settled"
                continue
            row["rho"] = None if row["fall"] is None else d / row["fall"]
            row["fall"] = d
        stopped = [row["f"] for row in rows if row["stop"] is not None]
        if not rule or not stopped:
            continue
        bar = max(min(stopped), -tol)
        for row in running:
            rho, d = row["rho"], row["fall"]
            if (row["stop"] is None and rho is not None and 0 < rho < 1
                    and row["f"] - d * rho / (1 - rho) > bar):
                row["stop"] = "pruned"
    return [(row["f"], row["x"], row["stop"], row["iterations"]) for row in rows]


def best_end(ends):
    # The first restart that reaches the least value, as np.argmin picks it.
    values = [end[0] for end in ends]
    return ends[values.index(min(values))]


@pytest.mark.parametrize("restarts,max_iters", [(4, 30), (1, 30), (3, 0), (20, 150)])
@pytest.mark.parametrize("name", sorted(POSITIVITY_MAPS))
def test_positivity_matches_restart_loop(name, restarts, max_iters):
    # The search stage itself, so that maps with a Cholesky proof are searched too.
    s = POSITIVITY_MAPS[name]()
    cert = superop._seesaw(s, restarts, max_iters, 1e-9, (6, 2))
    ends = ref_seesaw(s, restarts, max_iters, 1e-9, (6, 2))
    values = [end[0] for end in ends]
    _, witness, stop, _ = best_end(ends)
    assert cert.proof == "search"
    assert cert.min_value == ref_least_eig(s, witness)[0]
    assert np.array_equal(cert.witness, witness)
    assert cert.converged == (stop == "settled")
    assert cert.iterations.tolist() == [end[3] for end in ends]
    assert cert.spread == max(values) - min(values)
    if max_iters == 0:
        assert not cert.converged


@pytest.mark.parametrize("seed", LARGE_SEEDS, ids=("int", "tuple"))
@pytest.mark.parametrize("name", ["choi", "random_hp", "planted"])
def test_positivity_matches_restart_loop_at_large_seeds(name, seed):
    s = planted_indefinite(4, 15) if name == "planted" else POSITIVITY_MAPS[name]()
    cert = positivity_certificate(s, 20, 150, 1e-9, seed)
    ends = ref_seesaw(s, 20, 150, 1e-9, seed)
    values = [end[0] for end in ends]
    _, witness, _, _ = best_end(ends)
    assert cert.proof == "search"
    assert cert.min_value == ref_least_eig(s, witness)[0]
    assert np.array_equal(cert.witness, witness)
    assert cert.iterations.tolist() == [end[3] for end in ends]
    assert cert.spread == max(values) - min(values)


@pytest.mark.parametrize("name", ["choi", "random_hp"])
def test_positivity_pins_mixed_exits(name):
    # At (20, 150) the restarts of one call settle at different iterations,
    # and on Choi's map the stop rule prunes some of the rest, so the
    # (20, 150) case of test_positivity_matches_restart_loop pins the
    # lockstep search as it drops rows at different iterations and for
    # both reasons.
    ends = ref_seesaw(POSITIVITY_MAPS[name](), 20, 150, 1e-9, (6, 2))
    assert len({iterations for _, _, stop, iterations in ends if stop == "settled"}) > 1
    assert any(stop != "settled" for _, _, stop, _ in ends) == (name == "choi")
    assert any(stop == "pruned" for _, _, stop, _ in ends) == (name == "choi")


def test_positivity_eigensolves_are_stacked(monkeypatch):
    # Each half-step of all running restarts is one _least_eigs call. On
    # Choi's map at the defaults the start x0, the first y-step and 16
    # iterations make exactly 2 * 16 + 2 of them: by then one restart has
    # settled and the stop rule has pruned every other. Without the rule
    # some restarts run to the 500th iteration (1002 calls); restart at a
    # time, the seesaw makes over 20,000. A count does not depend on the
    # machine's speed.
    calls = []
    least_eigs = superop._least_eigs

    def counting(mat, xs):
        calls.append(len(xs))
        return least_eigs(mat, xs)

    monkeypatch.setattr(superop, "_least_eigs", counting)
    positivity_certificate(choi_map())
    assert len(calls) == 34


def test_stop_rule_keeps_the_good_restart_of_a_short_search():
    # An incumbent taken over all rows, the running ones included, needs no
    # stopped row. Here it prunes the restart that would settle at 3.9e-12
    # at its second iteration, and the search ends at 1.4e-5, not
    # converged. Only stopped rows may set the incumbent.
    s = choi_map()
    cert = superop._seesaw(s, 3, 50, 1e-9, (4, 2))
    ends = ref_seesaw(s, 3, 50, 1e-9, (4, 2), rule=False)
    value, witness, stop, _ = best_end(ends)
    assert cert.min_value == value
    assert np.array_equal(cert.witness, witness)
    assert stop == "settled" and cert.converged
    assert cert.min_value < 1e-11


@pytest.mark.parametrize("n", range(2, 9))
def test_stop_rule_keeps_planted_minima(n):
    # At the defaults. Without the -tol floor on the incumbent the rule
    # prunes the best restart at n = 5.
    s = planted_indefinite(n, 15)
    cert = superop._seesaw(s, 50, 500, 1e-9, (6, 2))
    value, witness, _, _ = best_end(ref_seesaw(s, 50, 500, 1e-9, (6, 2), rule=False))
    assert cert.min_value == value
    assert np.array_equal(cert.witness, witness)


def ref_positivity(s: SuperOp, restarts: int, max_iters: int, tol: float, seed):
    # The projected gradient descent with backtracking that the seesaw
    # replaced, one restart at a time: the oracle for the seesaw's minima.
    n = s.n
    s_adj = SuperOp(n, s.mat.conj().T)
    gtol = max(1e-12, 1e-2 * tol)
    best_val, best_x = np.inf, None
    for r in range(restarts):
        x = random_unit_vector(n, derive_seed(seed, r))
        f, v = ref_least_eig(s, x)
        step = 1.0
        for _ in range(max_iters):
            g = apply(s_adj, np.outer(v, v.conj()))
            euc = 2.0 * (((g + g.conj().T) / 2) @ x)
            rgrad = euc - x * np.real(np.vdot(x, euc))
            gnorm = float(np.linalg.norm(rgrad))
            if gnorm <= gtol:
                break
            alpha = step
            for _ in range(30):
                xn = x - alpha * rgrad
                xn = xn / np.linalg.norm(xn)
                fn, vn = ref_least_eig(s, xn)
                if fn <= f - 1e-4 * alpha * gnorm * gnorm:
                    break
                alpha *= 0.5
            else:
                break
            x, f, v = xn, fn, vn
            step = min(2.0 * alpha, 1.0)
        if f < best_val:
            best_val, best_x = f, x
    return ref_least_eig(s, best_x)[0]


ORACLE_MAPS = dict(POSITIVITY_MAPS, planted=lambda: planted_indefinite(3, 15))


@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
def test_positivity_reaches_the_descents_minimum(name):
    # At the defaults, with or without a proof, min_value is no higher than
    # the old descent's minimum from the same starts.
    s = ORACLE_MAPS[name]()
    cert = positivity_certificate(s, seed=(6, 2))
    assert cert.min_value <= ref_positivity(s, 50, 500, 1e-9, (6, 2)) + 1e-9


def ref_classify(s: SuperOp, k: int, cfg: ClassifyConfig) -> AnalysisReport:
    # Every hypothesis check through its public stage, the extraction last.
    unital = is_unital(s, cfg.unital_tol)
    hp = is_hermiticity_preserving(s, cfg.unital_tol)
    cert = None
    if hp:
        cert = positivity_certificate(s, cfg.restarts, cfg.max_iters, cfg.positivity_tol,
                                      derive_seed(cfg.seed, 2))
    audit = preserves_rank_k(s, k, cfg.samples, cfg.projection_tol, derive_seed(cfg.seed, 3))
    reasons = [reason for reason, failed in (
        ("unital_violation", not unital), ("hermiticity_violation", not hp),
        ("positivity_violation", hp and cert.min_value < -cfg.positivity_tol),
        ("rank_k_violation", not audit.inverse_pass)) if failed]
    form = None
    if not reasons:
        try:
            form = extract_unitary(s, cfg.decomposition_tol)
        except (NotWignerLikeError, DegenerateImageError):
            reasons.append("decomposition_failure")
    return AnalysisReport(unital, hp, cert, audit, form,
                          "wigner" if form is not None else "not_wigner", reasons, None, None)


def mixed_map(n: int, t: float, seed) -> SuperOp:
    # a -> (1 - t) U a U* + t tr(a) I / n: unital and CP, within about t of
    # a Wigner map (delta is about 5t at n = 5). t = 1e-12 is inside
    # positivity_tol and the projection tolerance, t = 1e-9 only inside the
    # projection tolerance, and t = 1e-7 outside both and inside
    # decomposition_tol.
    w = build_map("wigner", n, {"variant": "direct"}, seed)
    return SuperOp(n, (1 - t) * w.mat + t * build_map("depolarizing", n, {"lambda": 0.0}).mat)


CLASSIFY_MAPS = {
    **{f"wigner-{n}": (lambda n: lambda seed: build_map(
        "wigner", n, {"variant": "direct"}, seed))(n) for n in (2, 5, 8, 16)},
    **{f"wigner_transpose-{n}": (lambda n: lambda seed: build_map(
        "wigner", n, {"variant": "transpose"}, seed))(n) for n in (2, 5, 8, 16)},
    "depolarizing": lambda seed: build_map("depolarizing", 6, {"lambda": 0.4}),
    "pseudo_depolarizing_positive": lambda seed: build_map("pseudo_depolarizing", 4, {"mu": 0.2}),
    "pseudo_depolarizing_negative": lambda seed: build_map("pseudo_depolarizing", 4, {"mu": 0.6}),
    "perturbed": lambda seed: build_map("perturbed_wigner", 6,
                                        {"variant": "transpose", "epsilon": 1e-3}, seed),
    "mixed_inside": lambda seed: mixed_map(5, 1e-12, seed),
    "mixed_between": lambda seed: mixed_map(5, 1e-9, seed),
    "mixed_outside": lambda seed: mixed_map(5, 1e-7, seed),
    "choi": lambda seed: choi_map(),
    "planted": lambda seed: planted_indefinite(4, seed),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(CLASSIFY_MAPS))
def test_classify_matches_public_stages(name, seed):
    s = CLASSIFY_MAPS[name](seed)
    k = max(1, s.n // 2)
    cfg = ClassifyConfig(seed=seed)
    got, want = classify(s, k, cfg), ref_classify(s, k, cfg)
    assert report_to_json(got) == report_to_json(want)
    if want.positivity is not None:
        assert got.positivity.proof in (want.positivity.proof, "model")
        for field in ("witness", "iterations"):
            assert np.array_equal(getattr(got.positivity, field), getattr(want.positivity, field))
        assert got.positivity.spread == want.positivity.spread
    if got.positivity is not None and got.positivity.proof == "model":
        assert want.positivity.proof in ("cp", "co-cp")
        assert got.delta <= cfg.positivity_tol
