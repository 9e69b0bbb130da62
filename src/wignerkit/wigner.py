"""Hypothesis audits and conjugation-form extraction for matrix maps.

A map phi on n-by-n matrices is "of Wigner form" when phi(a) = U a U* for a
unitary U (direct variant) or phi(a) = U a^t U* (transpose variant). This
module certifies the hypotheses under which that form is forced - phi is
unital, positive, and maps the rank-k projections onto themselves - and
recovers U and the variant from the map's action on matrix units.

Superoperators follow the column-stacking convention (see superop).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadIndexError,
    DegenerateImageError,
    DimensionMismatchError,
    NonFiniteError,
    NotAProjectionError,
    NotWignerLikeError,
)
from .matrix_core import (
    DEFAULT_PROJECTION_TOL,
    MAX_DRAWS,
    Projection,
    _rank_k_projections,
    _standard_normals,
    as_complex,
    dagger,
    derive_seed,
    frobenius,
    hermitian_part,
    projection_ranks,
    require_count,
    require_instance,
    require_rank,
    require_seed,
    require_tolerance,
    require_unitary,
    validate_projection,
)
from .superop import (
    PositivityCertificate,
    SuperOp,
    _certify_positivity,
    apply,
    is_hermiticity_preserving,
    is_invertible,
    is_unital,
    unit_images,
    vec,
)

DIRECT = "direct"
TRANSPOSE = "transpose"

# phi(E_11) must be rank 1 for extraction; its second-largest eigenvalue
# magnitude beyond this means the hypotheses already failed upstream.
DEGENERATE_IMAGE_TOL = 1e-6

# Standard-basis subset projections included in every rank-k audit, capped.
BASIS_SUBSET_CAP = 100

# Entries below this are treated as zero by the phase-gauge convention.
PHASE_GAUGE_EPS = 1e-8

# The unit roundoff of float64 arithmetic, np.finfo(float).eps.
EPS = 2.0 ** -52


@dataclass
class Lemma1Decomposition:
    """A rank-1 projection written as an affine combination of k+1 commuting
    rank-k projections from one orthonormal basis:

        p = (1/k) sum_{j=2}^{k+1} P_j - ((k-1)/k) P_1.
    """

    p: Projection
    Ps: list[Projection]
    k: int
    residual: float


@dataclass
class WignerForm:
    """Recovered conjugation model: a -> U a U* or a -> U a^t U*.

    residual is the worst Frobenius deviation of the map from the model over
    all matrix units. U is gauged so its first column's first nonzero entry
    is real positive.
    """

    u: np.ndarray
    variant: str
    residual: float


@dataclass
class RankKAudit:
    """Audit of rank-k projection preservation.

    samples counts every projection tested (requested random draws plus the
    standard-basis subset projections), and max_residual is the largest
    ||phi(Q)^2 - phi(Q)||_F among their images. The draws are certified
    from their k x k Gram matrices. inverse_pass is derived, not sampled:
    it holds when every sample passed and the map is invertible
    (cond(S) <= 1e12), which is "onto" given "into" (see preserves_rank_k).
    proof says how pass_fraction was decided; it is neither written to
    report files nor compared by ==. "sampled": one projection_ranks call
    certified each image, as preserves_rank_k always does. "model":
    classify's fitted model proved that every rank-k projection maps to a
    rank-k projection that projection_ranks certifies, and that every
    audit image is one (_proves_rank_k runs projection_ranks' own test on
    the model's bounds for each image), so pass_fraction is 1 with no
    per-image test, and max_residual is still computed from the images as
    projection_ranks computes it. An infinite or NaN delta or epsilon
    proves nothing. The proof holds up to about
    delta = tol / (8 (k + 2 sqrt(k))), tol the projection tolerance, less
    rounding terms at large n.
    classify proves invertibility from its fitted model too, with no SVD:
    sigma_min(S) >= sigma_min(S_model) - delta >= 1 - epsilon - delta
    (see AnalysisReport), so epsilon + delta <= 1/2 gives cond(S) <= 3.
    Otherwise it computes cond(S), as preserves_rank_k always does.
    """

    k: int
    samples: int
    pass_fraction: float
    max_residual: float
    inverse_pass: bool
    proof: str = field(default="sampled", compare=False)


@dataclass
class AnalysisReport:
    """Full verdict: which hypotheses hold and the recovered form, if any.

    delta and epsilon come from the conjugation model that classify fits to
    a unital map, and are None when the map is not unital or not
    Hermiticity-preserving, or the fit fails. delta = ||S - S_model||_F is the
    root-sum-square of the per-unit deviations whose maximum is the form's
    residual, and it bounds the operator norm of phi - model. epsilon =
    ||U* U - I||_F is the fitted U's distance from unitarity. So
    lambda_min(phi(x x*)) >= -delta for every unit x, sigma_min(S) >=
    1 - epsilon - delta, and every rank-k projection Q maps to within
    delta sqrt(k) of U Q U* (U Q^t U* for the transpose variant). Both
    models preserve Hermiticity exactly, so phi(E_ij) - phi(E_ji)* is within
    twice the residual of 0. Neither is written to report files.
    """

    unital: bool
    hermiticity_preserving: bool
    positivity: PositivityCertificate | None
    rank_k_audit: RankKAudit
    form: WignerForm | None
    verdict: str
    reasons: list[str]
    delta: float | None
    epsilon: float | None


@dataclass(frozen=True)
class ClassifyConfig:
    """Knobs for classify. The tolerance ladder separates float noise from
    model violation: projection validation 1e-8, decomposition acceptance
    1e-6, certified-pass reporting 1e-9. Frozen, so every field has passed
    __post_init__'s checks; with_tolerance and dataclasses.replace make
    changed copies. samples and restarts are at most matrix_core.MAX_DRAWS
    (1000): the audit and the search stack a few n-by-n matrices per draw,
    about 0.35 GB at the ceiling and n = 64."""

    samples: int = 100
    restarts: int = 50
    max_iters: int = 500
    seed: int = 0
    unital_tol: float = 1e-8
    positivity_tol: float = 1e-9
    projection_tol: float = DEFAULT_PROJECTION_TOL
    decomposition_tol: float = 1e-6

    def __post_init__(self):
        for name, least, most in (("samples", 0, MAX_DRAWS), ("restarts", 1, MAX_DRAWS),
                                  ("max_iters", 0, None)):
            require_count(name, getattr(self, name), least, most)
        for name in ("unital_tol", "positivity_tol", "projection_tol", "decomposition_tol"):
            require_tolerance(name, getattr(self, name))
        require_seed(self.seed)

    def with_tolerance(self, tol: float) -> "ClassifyConfig":
        """Rescale the whole ladder to a single caller-chosen tolerance."""
        return replace(self, unital_tol=tol, positivity_tol=max(tol, self.positivity_tol),
                       projection_tol=tol, decomposition_tol=tol)


def lemma1_projections(n: int, k: int, basis=None, which: int = 0) -> Lemma1Decomposition:
    """Decompose a rank-1 projection over k+1 rank-k projections.

    The columns of `basis` (default: standard basis) define mutually
    orthogonal rank-1 projections p_i; p is the one at column `which`.
    Taking k+1 of them with p first, each P_j = sum_{i != j} p_i is a rank-k
    projection, and p = (1/k) sum_{j>=2} P_j - ((k-1)/k) P_1 exactly. All
    P_j commute since they are diagonal in the same basis.
    """
    require_count("n", n)
    require_rank(k, n)
    if basis is None:
        basis = np.eye(n, dtype=complex)
    basis = require_unitary(basis)
    if basis.shape[0] != n:
        raise DimensionMismatchError(
            f"basis is {basis.shape[0]}x{basis.shape[0]}, expected n={n}")
    require_count("which", which)
    if not 0 <= which < n:
        raise BadIndexError(f"column index {which} out of range for n={n}")

    chosen = [which] + [i for i in range(n) if i != which][:k]
    rank1 = [np.outer(basis[:, i], basis[:, i].conj()) for i in chosen]
    big = [sum(rank1[i] for i in range(k + 1) if i != j) for j in range(k + 1)]

    combo = (1.0 / k) * sum(big[1:]) - ((k - 1.0) / k) * big[0]
    residual = frobenius(rank1[0] - combo)

    p = validate_projection(rank1[0])
    ps = [validate_projection(m) for m in big]
    if any(q.rank != k for q in ps):
        raise NotAProjectionError("constructed combination is not rank k")
    return Lemma1Decomposition(p=p, Ps=ps, k=k, residual=float(residual))


def preserves_rank_k(s: SuperOp, k: int, samples: int = 100,
                     tol: float = DEFAULT_PROJECTION_TOL, seed=0) -> RankKAudit:
    """Audit that the map sends rank-k projections to rank-k projections.

    Tests `samples` Haar-random rank-k projections plus the rank-k
    projections built from standard-basis subsets (the first 100 subsets in
    lexicographic order). The subsets are diagonal and do not span the input
    space, so a map can pass them all and still fail on a random draw, as
    a -> diag(a) does. Both map by products with S in its own layout:
    column i + n i of S is vec(phi(E_ii)), so a subset projection's image is
    the sum of those columns over its subset, and the draws' images are
    vec(draws) S^T, one gemm on S with no copy of it. "Onto" needs no second
    audit: an invertible linear map sending the rank-k projections, a
    compact connected manifold of real dimension 2k(n-k), into themselves is
    onto by invariance of domain (Brouwer, 1912). So inverse_pass is
    pass_fraction == 1 and is_invertible(s), and cond(S) is computed only
    when every sample passed.
    samples is at most MAX_DRAWS (1000), since the draws and their images
    are held as stacks; BadParameterError otherwise.
    """
    require_instance("s", s, SuperOp)
    n = s.n
    require_rank(k, n)
    require_count("samples", samples, 0, MAX_DRAWS)
    require_tolerance("tol", tol)
    require_seed(seed)
    return _audit_rank_k(s, k, samples, tol, seed)


def _audit_rank_k(s: SuperOp, k: int, samples: int, tol: float, seed,
                  delta: float = np.inf, epsilon: float = np.inf) -> RankKAudit:
    # preserves_rank_k on arguments already checked. delta and epsilon come
    # from classify's fitted model (see AnalysisReport): epsilon + delta <= 1/2
    # proves S invertible with no cond(S), and _proves_rank_k may prove every
    # image's rank with no per-image test.
    n = s.n
    subsets = np.array(list(itertools.islice(
        itertools.combinations(range(n), k), BASIS_SUBSET_CAP)))
    indicator = np.zeros((len(subsets), n))
    indicator[np.arange(len(subsets))[:, None], subsets] = 1.0

    draws = _rank_k_projections(k, _standard_normals(derive_seed(seed, 0), samples, (2, n, n)))
    # Row t of images is vec(phi(Q_t)) = S vec(Q_t). Column i + n i of S is
    # vec(phi(E_ii)), so a basis-subset projection maps to the sum of those
    # columns over its subset (a copy of those n columns, n^3 entries, lets
    # BLAS take them); the draws map by one product with S itself.
    images = np.empty((len(subsets) + samples, n * n), dtype=complex)
    np.matmul(indicator, s.mat[:, ::n + 1].T.copy(), out=images[:len(subsets)])
    np.matmul(vec(draws), s.mat.T, out=images[len(subsets):])
    # Row t read row-major is phi(Q_t)^T, C-ordered: a projection exactly when
    # phi(Q_t) is, of the same rank, and with the same residual norms.
    ms = images.reshape(-1, n, n)
    proven = _proves_rank_k(n, k, tol, delta, epsilon, 0.0)
    if proven:
        # The residuals exactly as projection_ranks computes them.
        residuals = np.linalg.norm(ms @ ms - ms, axis=(-2, -1))
        proven = _proves_rank_k(n, k, tol, delta, epsilon, float(residuals.max()))
    if proven:
        pass_fraction = 1.0
    else:
        ranks, residuals = projection_ranks(ms, tol)
        pass_fraction = np.count_nonzero(ranks == k) / len(images)
    return RankKAudit(k=k, samples=len(images), pass_fraction=pass_fraction,
                      max_residual=float(residuals.max()),
                      inverse_pass=pass_fraction == 1.0 and (epsilon + delta <= 0.5
                                                             or is_invertible(s)),
                      proof="model" if proven else "sampled")


def _proves_rank_k(n: int, k: int, tol: float, delta: float, epsilon: float,
                   residual: float) -> bool:
    # Whether a conjugation model with ||S - S_model||_F = delta and
    # ||U*U - I||_F = epsilon, both as _fit_form and classify compute them,
    # proves that every rank-k projection maps to a rank-k projection that
    # projection_ranks(., tol) certifies, and that it certifies every audit
    # image as rank k when residual is their largest ||M^2 - M||_F. It
    # applies projection_ranks' own test to bounds on each image M's
    # s = ||M - M*||_F, N = ||M||_F and r = ||M^2 - M||_F (see RankKAudit).
    # Python floats throughout: an infinite or NaN bound fails the test
    # without a floating-point warning.
    # Every input m, an audit draw or any rank-k projection, has
    # ||m - m*||_F <= skew and ||m||_F <= size and |tr m - k| <= shift: the
    # draws are fl(V V*) for V V* Hermitian, so the skew is their rounding,
    # 2k(k + 2) eps twice, and they are certified within
    # DEFAULT_PROJECTION_TOL (see _rank_k_projections).
    skew = 4.0 * k * (k + 2) * EPS
    size = math.sqrt(k) + 2.0 * math.sqrt(n) * DEFAULT_PROJECTION_TOL + skew
    shift = n * DEFAULT_PROJECTION_TOL
    # epsilon and delta with the rounding of their own computation, then
    # ||U||_2^2 <= c and ||S||_F <= ||U||_F^2 + delta <= n c + delta.
    epsilon = epsilon * (1.0 + n * n * EPS) + 2.0 * n * (n + 2) * EPS
    c = 1.0 + epsilon
    delta = delta * (1.0 + 4.0 * n * n * EPS) + 4.0 * n * c * EPS
    # Each image is model(m) + D, model(m) = U m U* (U m^t U*), with D the
    # map's deviation from the model on m, at most delta ||m||_F, plus the
    # rounding of the product with S, (n^2 + 2) eps ||m||_F ||S||_F.
    e = (delta + (n * n + 2) * EPS * (n * c + delta)) * size
    # model(m) - model(m)* = model(m - m*) and ||model(x)||_F <= c ||x||_F;
    # tr model(m) = tr m + tr(m (U*U - I)).
    norm = c * size + e
    s = c * skew + 2.0 * e
    trace_gap = shift + size * epsilon + math.sqrt(n) * e
    # For a rank-k projection Q, (U Q U*)^2 - U Q U* = U Q (U*U - I) Q U*,
    # so r <= c epsilon + e (2c + 1 + e); the audit images' r are sampled.
    r = max(c * epsilon + e * (2.0 * c + 1.0 + e), residual)
    # projection_ranks' margin, doubled to cover the rounding of its own
    # s, N and b and of the trace.
    margin = 32.0 * n * EPS * (norm + 1.0) * (norm + 1.0)
    b = r + s * (norm + 0.5) + s * s / 4.0 + margin
    return (4.0 * b <= tol and tol + 2.0 * b < 1.0 and 2.0 * n * b < 0.5
            and trace_gap + margin < 0.5)


def definite_set_check(s: SuperOp, q: Projection) -> float:
    """Deviation of phi(Q) from idempotency: ||phi(Q Q) - phi(Q)^2||_F.

    Zero exactly when Q lands in the map's definite set (phi multiplicative
    on Q in the squared sense); for projection-preserving maps this is float
    noise only.
    """
    require_instance("s", s, SuperOp)
    require_instance("q", q, Projection)
    m = q.matrix
    img = apply(s, m)
    return frobenius(apply(s, m @ m) - img @ img)


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    # Nearest unitary in Frobenius norm (polar factor).
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def _fix_phase(u: np.ndarray) -> np.ndarray:
    # u is unitary, so its first column has an entry of modulus at least
    # 1/sqrt(n), far above PHASE_GAUGE_EPS.
    col = u[:, 0]
    z = col[np.flatnonzero(np.abs(col) > PHASE_GAUGE_EPS)[0]]
    return u * (z.conjugate() / abs(z))


def extract_unitary(s: SuperOp, tol: float = 1e-6) -> WignerForm:
    """Recover the conjugating unitary and the variant from the map.

    Writes F_ij = phi(E_ij). For a direct map F_ij = u_i u_j* with u_i the
    columns of U, so u_1 is the top eigenvector of F_11 and F_j1 u_1
    reproduces u_j (all with one shared phase). The candidate matrix is
    projected to the nearest unitary, gauged by the
    first-nonzero-entry-positive convention, and scored by the worst model
    deviation over all matrix units. The transpose variant of phi is the
    direct variant of phi o T, whose matrix-unit images
    (phi o T)(E_ij) = F_ji are the same blocks with i and j swapped, so one
    fit serves both; the better variant wins. The likelier variant is
    fitted first: F_01 F_10 is F_00 for a direct map and F_11 for a
    transpose one. For any unitaries U and V the two variants' models are
    at least sqrt(2n(n - 1)) apart in Frobenius norm (their inner product,
    sum_ij (U*V)_ij (V*U)_ij, is at most n, and each has norm n), so the
    other variant's worst deviation is at least
    (sqrt(2n(n - 1)) - delta) / n, and it is not fitted when the residual
    is within tol and n residual + delta <= sqrt(2n(n - 1)) / 2 proves it
    the loser. The deviations are read off S's own layout: the
    n^4 model is the one temporary, and S is subtracted from it in place.

    Raises DegenerateImageError when phi(E_11) is not numerically rank 1,
    NotWignerLikeError when both residuals exceed tol.
    """
    require_instance("s", s, SuperOp)
    require_tolerance("tol", tol)
    return _fit_form(s, tol)[0]


def _fit_form(s: SuperOp, tol: float) -> tuple[WignerForm, float]:
    # extract_unitary on a checked tol, with delta = ||S - S_model||_F of
    # the winning variant: the root-sum-square of its per-unit deviations,
    # whose maximum is the residual.
    n = s.n
    units = unit_images(s)

    # The rank-1 gate tracks a loosened tolerance: a caller accepting
    # deviations up to tol must accept images that are rank 1 up to tol.
    degenerate_tol = max(DEGENERATE_IMAGE_TOL, tol)
    w, v = np.linalg.eigh(hermitian_part(units[0, 0]))
    if n >= 2 and abs(w[-2]) > degenerate_tol:
        raise DegenerateImageError(
            f"phi(E_11) has second eigenvalue {w[-2]:.3e}; image is not rank 1")
    u1 = v[:, -1]

    def fit(images: np.ndarray) -> np.ndarray:
        # The direct model a -> U a U* fitted to images[i, j] = image of E_ij:
        # column j of U is images[j, 0] u1, column 0 is u1 itself.
        cols = images[:, 0] @ u1
        cols[0] = u1
        return _fix_phase(_polar_unitary(cols.T))

    # The deviations are taken on S's own layout, m4[b, a, j, i] = phi(E_ij)[a, b],
    # where the direct model is u[a, i] conj(u[b, j]); the transpose variant
    # compares m4[b, a, i, j] = phi(E_ji)[a, b] with u[a, i] conj(u[b, j]).
    # Each model is the one n^4 temporary: m4 is subtracted from it in place,
    # and the squares of its real view summed over (b, a) per unit.
    m4 = s.mat.reshape(n, n, n, n)

    def deviations(d: np.ndarray) -> np.ndarray:
        d -= m4
        parts = d.reshape(n * n, n * n).view(float)
        sums = np.einsum("tu,tu->u", parts, parts)
        return np.sqrt(sums[0::2] + sums[1::2])

    def variant(name: str) -> tuple[np.ndarray, np.ndarray]:
        # The fitted U of one variant and its per-unit deviations.
        if name == DIRECT:
            u = fit(units)
            return u, deviations(u[None, :, None, :] * u.conj()[:, None, :, None])
        u = fit(units.swapaxes(0, 1))
        return u, deviations(u[None, :, :, None] * u.conj()[:, None, None, :])

    # The likelier variant first; the other only when the first's residual
    # does not prove it the winner (see the docstring for the bound, whose
    # factor 1/2 covers rounding and the polar factors' distance from
    # unitarity).
    first, other = DIRECT, TRANSPOSE
    if n >= 2:
        product = units[0, 1] @ units[1, 0]
        if frobenius(product - units[1, 1]) < frobenius(product - units[0, 0]):
            first, other = TRANSPOSE, DIRECT
    u, dev = variant(first)
    residual, delta = float(dev.max()), frobenius(dev)
    if not (n >= 2 and residual <= tol
            and 2.0 * (n * residual + delta) <= math.sqrt(2.0 * n * (n - 1))):
        u_other, dev_other = variant(other)
        res_other = float(dev_other.max())
        res_d, res_t = (residual, res_other) if first == DIRECT else (res_other, residual)
        if min(res_d, res_t) > tol:
            raise NotWignerLikeError(f"no conjugation model within {tol:.1e} "
                                     f"(direct {res_d:.3e}, transpose {res_t:.3e})")
        if (res_d <= res_t) != (first == DIRECT):
            first, u, residual, delta = other, u_other, res_other, frobenius(dev_other)
    return WignerForm(u=u, variant=first, residual=residual), delta


def vector_state_partner(form: WignerForm, x: np.ndarray) -> np.ndarray:
    """The unit vector y with (phi(a) x, x) = (a y, y) for every a.

    For the direct variant y = U* x; for the transpose variant
    y = conj(U* x), using (a^t u, u) = (a conj(u), conj(u)).
    """
    require_instance("form", form, WignerForm)
    x = as_complex(x)
    n = form.u.shape[0]
    if x.shape != (n,):
        raise DimensionMismatchError(f"expected a vector of length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("vector contains NaN or infinite entries")
    y = dagger(form.u) @ x
    return np.conj(y) if form.variant == TRANSPOSE else y


def _proves_hermiticity(n: int, residual: float, epsilon: float, tol: float) -> bool:
    # Whether a fitted model with this residual proves that
    # is_hermiticity_preserving(s, tol) holds. Both models preserve
    # Hermiticity exactly, so each d_ij = phi(E_ij) - phi(E_ji)* is within
    # two unit deviations of 0 and that test's ||d||_F^2 + |Re tr d^2| <=
    # 2 ||d||_F^2 is at most 8 residual^2. The margin covers the rounding of
    # the residual (the model's entries are products of columns of norm at
    # most sqrt(1 + epsilon)) and of the test's sums; tol is divided, never
    # squared, so no size of tol overflows.
    margin = 8.0 * n * n * EPS * (1.0 + epsilon + residual)
    return residual + margin <= tol / math.sqrt(8.0)


def classify(s: SuperOp, k: int, config: ClassifyConfig | None = None) -> AnalysisReport:
    """Run every hypothesis check, then attempt the decomposition.

    Stages: unital, the fit of the conjugation model (extract_unitary at
    decomposition_tol, on a unital map), Hermiticity-preserving,
    positivity, and the rank-k audit. All of them run regardless of
    earlier failures, except positivity, which requires a
    Hermiticity-preserving map: it runs on a map that passed the
    Hermiticity test at unital_tol, without positivity_certificate's own
    test. A map that fails the Hermiticity test loses its fit, so delta
    and epsilon are None. The paper's theorem says a map that passes every
    check is of the fitted form, so the fit proves what it can (see
    AnalysisReport and RankKAudit):
    - Hermiticity, with no test, when 8 (residual + rounding margin)^2 <=
      unital_tol^2 (compared as residual + margin <= unital_tol / sqrt(8)),
      since the test's ||d||_F^2 + |Re tr d^2| is at most 8 residual^2;
    - positivity, with proof "model", when delta <= positivity_tol;
    - invertibility, with no cond(S), when epsilon + delta <= 1/2;
    - "into" for every rank-k projection, with proof "model", when
      projection_ranks' test passes on the model's bounds for every image:
      the audit still draws, maps and reports max_residual, and sets
      pass_fraction to 1 with no per-image rank test.
    The fit itself fits the likelier variant first and fits the other
    only when the first's residual does not prove it the winner (see
    extract_unitary). Where the model proves nothing, the Hermiticity test,
    the Cholesky proofs, the search, cond(S) and the per-image rank test
    run as in is_hermiticity_preserving, positivity_certificate and
    preserves_rank_k, and the report is the one they give either way. The
    fitted form is reported only when every hypothesis passed; a failed fit
    then gives "decomposition_failure". Failures are verdicts, not errors.
    """
    require_instance("s", s, SuperOp)
    require_rank(k, s.n)
    cfg = config or ClassifyConfig()

    unital = is_unital(s, cfg.unital_tol)
    fitted = delta = epsilon = None
    if unital:
        try:
            fitted, delta = _fit_form(s, cfg.decomposition_tol)
        except (NotWignerLikeError, DegenerateImageError):
            pass
        else:
            epsilon = frobenius(dagger(fitted.u) @ fitted.u - np.eye(s.n))
    hp = ((fitted is not None and _proves_hermiticity(s.n, fitted.residual, epsilon,
                                                       cfg.unital_tol))
          or is_hermiticity_preserving(s, cfg.unital_tol))
    if not hp:
        fitted = delta = epsilon = None
    cert = None
    if hp:
        cert = _certify_positivity(s, cfg.restarts, cfg.max_iters, cfg.positivity_tol,
                                   derive_seed(cfg.seed, 2),
                                   np.inf if delta is None else delta)
    audit = _audit_rank_k(s, k, cfg.samples, cfg.projection_tol, derive_seed(cfg.seed, 3),
                          *(() if fitted is None else (delta, epsilon)))

    reasons = []
    if not unital:
        reasons.append("unital_violation")
    if not hp:
        reasons.append("hermiticity_violation")
    if hp and cert.min_value < -cfg.positivity_tol:
        reasons.append("positivity_violation")
    if not audit.inverse_pass:
        reasons.append("rank_k_violation")

    if not reasons and fitted is None:
        reasons.append("decomposition_failure")
    form = None if reasons else fitted

    return AnalysisReport(unital=unital, hermiticity_preserving=hp, positivity=cert,
                          rank_k_audit=audit, form=form,
                          verdict="wigner" if form is not None else "not_wigner",
                          reasons=reasons, delta=delta, epsilon=epsilon)
