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
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndexError,
    BadParameterError,
    BadRankError,
    DegenerateImageError,
    DimensionMismatchError,
    NotAProjectionError,
    NotWignerLikeError,
    SingularMapError,
)
from .matrix_core import (
    DEFAULT_PROJECTION_TOL,
    Projection,
    dagger,
    derive_seed,
    frobenius,
    hermitian_part,
    projection_ranks,
    random_rank_k_projection,
    require_unitary,
    validate_projection,
)
from .superop import (
    PositivityCertificate,
    SuperOp,
    apply,
    invert,
    is_hermiticity_preserving,
    is_unital,
    positivity_certificate,
    unit_images,
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
    """Sampling audit of rank-k projection preservation.

    samples counts every forward projection tested (requested random draws
    plus the standard-basis subset projections). inverse_pass reports
    whether the inverse map exists and passes the identical audit,
    approximating "onto".
    """

    k: int
    samples: int
    pass_fraction: float
    max_residual: float
    inverse_pass: bool


@dataclass
class AnalysisReport:
    """Full verdict: which hypotheses hold and the recovered form, if any."""

    unital: bool
    hermiticity_preserving: bool
    positivity: PositivityCertificate | None
    rank_k_audit: RankKAudit
    form: WignerForm | None
    verdict: str
    reasons: list[str]


@dataclass
class ClassifyConfig:
    """Knobs for classify. The tolerance ladder separates float noise from
    model violation: projection validation 1e-8, decomposition acceptance
    1e-6, certified-pass reporting 1e-9."""

    samples: int = 100
    restarts: int = 50
    max_iters: int = 500
    seed: int = 0
    unital_tol: float = 1e-8
    positivity_tol: float = 1e-9
    projection_tol: float = DEFAULT_PROJECTION_TOL
    decomposition_tol: float = 1e-6

    def __post_init__(self):
        for name in ("unital_tol", "positivity_tol", "projection_tol", "decomposition_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise BadParameterError(f"{name}={value} must be finite and positive")

    def with_tolerance(self, tol: float) -> "ClassifyConfig":
        """Rescale the whole ladder to a single caller-chosen tolerance."""
        return ClassifyConfig(samples=self.samples, restarts=self.restarts,
                              max_iters=self.max_iters, seed=self.seed,
                              unital_tol=tol, positivity_tol=max(tol, self.positivity_tol),
                              projection_tol=tol, decomposition_tol=tol)


def lemma1_projections(n: int, k: int, basis=None, which: int = 0) -> Lemma1Decomposition:
    """Decompose a rank-1 projection over k+1 rank-k projections.

    The columns of `basis` (default: standard basis) define mutually
    orthogonal rank-1 projections p_i; p is the one at column `which`.
    Taking k+1 of them with p first, each P_j = sum_{i != j} p_i is a rank-k
    projection, and p = (1/k) sum_{j>=2} P_j - ((k-1)/k) P_1 exactly. All
    P_j commute since they are diagonal in the same basis.
    """
    if not 1 <= k < n:
        raise BadRankError(f"rank k={k} must satisfy 1 <= k < n={n}")
    if basis is None:
        basis = np.eye(n, dtype=complex)
    basis = require_unitary(basis)
    if basis.shape[0] != n:
        raise DimensionMismatchError(
            f"basis is {basis.shape[0]}x{basis.shape[0]}, expected n={n}")
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
    a -> diag(a) does. The inverse map, when it exists, is audited the same
    way (inverse_pass), as the checkable consequence of "onto".
    """
    n = s.n
    if not 1 <= k < n:
        raise BadRankError(f"rank k={k} must satisfy 1 <= k < n={n}")
    if samples < 0:
        raise BadParameterError(f"samples={samples} must be nonnegative")
    subsets = np.array(list(itertools.islice(
        itertools.combinations(range(n), k), BASIS_SUBSET_CAP)))
    basis = np.zeros((len(subsets), n, n), dtype=complex)
    basis[np.arange(len(subsets))[:, None], subsets, subsets] = 1.0

    def run(target: SuperOp, stream: int) -> tuple[float, float, int]:
        draws = [random_rank_k_projection(n, k, derive_seed(seed, stream, i)).matrix
                 for i in range(samples)]
        tests = np.concatenate([basis, np.reshape(draws, (samples, n, n))])
        # images[t] = sum_ij tests[t, i, j] phi(E_ij), one contraction for the stack.
        images = np.tensordot(tests, unit_images(target), axes=2)
        ranks, residuals = projection_ranks(images, tol)
        return np.count_nonzero(ranks == k) / len(tests), float(residuals.max()), len(tests)

    pass_fraction, max_residual, total = run(s, 0)
    try:
        inverse_pass = run(invert(s), 1)[0] == 1.0
    except SingularMapError:
        inverse_pass = False
    return RankKAudit(k=k, samples=total, pass_fraction=pass_fraction,
                      max_residual=max_residual, inverse_pass=inverse_pass)


def definite_set_check(s: SuperOp, q: Projection) -> float:
    """Deviation of phi(Q) from idempotency: ||phi(Q Q) - phi(Q)^2||_F.

    Zero exactly when Q lands in the map's definite set (phi multiplicative
    on Q in the squared sense); for projection-preserving maps this is float
    noise only.
    """
    m = q.matrix
    img = apply(s, m)
    return frobenius(apply(s, m @ m) - img @ img)


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    # Nearest unitary in Frobenius norm (polar factor).
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def _fix_phase(u: np.ndarray) -> np.ndarray:
    col = u[:, 0]
    idx = np.flatnonzero(np.abs(col) > PHASE_GAUGE_EPS)
    if idx.size == 0:
        return u
    z = col[idx[0]]
    return u * (z.conjugate() / abs(z))


def extract_unitary(s: SuperOp, tol: float = 1e-6) -> WignerForm:
    """Recover the conjugating unitary and the variant from the map.

    Writes F_ij = phi(E_ij). For a direct map F_ij = u_i u_j* with u_i the
    columns of U, so u_1 is the top eigenvector of F_11 and F_j1 u_1
    reproduces u_j (all with one shared phase); a transpose map swaps the
    roles of F_j1 and F_1j. Both candidate matrices are projected to the
    nearest unitary, gauged by the first-nonzero-entry-positive convention,
    and scored by the worst model deviation over all matrix units; the
    better variant wins.

    Raises DegenerateImageError when phi(E_11) is not numerically rank 1,
    NotWignerLikeError when both residuals exceed tol.
    """
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

    def candidate(images: np.ndarray) -> np.ndarray:
        # Column j is images[j] u1 (F_j1 u1 or F_1j u1); column 0 is u1 itself.
        cols = images @ u1
        cols[0] = u1
        return _fix_phase(_polar_unitary(cols.T))

    u_direct = candidate(units[:, 0])
    u_transp = candidate(units[0])

    def residual(u: np.ndarray, transpose_variant: bool) -> float:
        # Model image of E_ij: u_i u_j* (direct) or u_j u_i* (transpose).
        model = u.T[:, None, :, None] * u.conj().T[None, :, None, :]
        if transpose_variant:
            model = model.transpose(1, 0, 2, 3)
        return float(np.linalg.norm(units - model, axis=(2, 3)).max())

    res_d = residual(u_direct, False)
    res_t = residual(u_transp, True)
    if min(res_d, res_t) > tol:
        raise NotWignerLikeError(
            f"no conjugation model within {tol:.1e} (direct {res_d:.3e}, transpose {res_t:.3e})")
    if res_d <= res_t:
        return WignerForm(u=u_direct, variant=DIRECT, residual=res_d)
    return WignerForm(u=u_transp, variant=TRANSPOSE, residual=res_t)


def vector_state_partner(form: WignerForm, x: np.ndarray) -> np.ndarray:
    """The unit vector y with (phi(a) x, x) = (a y, y) for every a.

    For the direct variant y = U* x; for the transpose variant
    y = conj(U* x), using (a^t u, u) = (a conj(u), conj(u)).
    """
    y = dagger(form.u) @ np.asarray(x, dtype=complex)
    return np.conj(y) if form.variant == TRANSPOSE else y


def classify(s: SuperOp, k: int, config: ClassifyConfig | None = None) -> AnalysisReport:
    """Run every hypothesis check, then attempt the decomposition.

    Checks run cheap to expensive (unital, Hermiticity-preserving,
    positivity, rank-k audit) and all of them run regardless of earlier
    failures, except positivity, which requires a Hermiticity-preserving
    map. Extraction runs only when every hypothesis passed. Failures are
    verdicts, not errors.
    """
    if not 1 <= k < s.n:
        raise BadRankError(f"rank k={k} must satisfy 1 <= k < n={s.n}")
    cfg = config or ClassifyConfig()

    unital = is_unital(s, cfg.unital_tol)
    hp = is_hermiticity_preserving(s, cfg.unital_tol)
    cert = None
    if hp:
        cert = positivity_certificate(s, restarts=cfg.restarts, max_iters=cfg.max_iters,
                                      tol=cfg.positivity_tol, seed=derive_seed(cfg.seed, 2))
    audit = preserves_rank_k(s, k, samples=cfg.samples, tol=cfg.projection_tol,
                             seed=derive_seed(cfg.seed, 3))

    reasons = []
    if not unital:
        reasons.append("unital_violation")
    if not hp:
        reasons.append("hermiticity_violation")
    if hp and cert.min_value < -cfg.positivity_tol:
        reasons.append("positivity_violation")
    if not (audit.pass_fraction == 1.0 and audit.inverse_pass):
        reasons.append("rank_k_violation")

    form = None
    if not reasons:
        try:
            form = extract_unitary(s, cfg.decomposition_tol)
        except (NotWignerLikeError, DegenerateImageError):
            reasons.append("decomposition_failure")

    return AnalysisReport(unital=unital, hermiticity_preserving=hp, positivity=cert,
                          rank_k_audit=audit, form=form,
                          verdict="wigner" if form is not None else "not_wigner",
                          reasons=reasons)
