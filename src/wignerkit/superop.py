"""Superoperator and Choi representations of linear maps on n-by-n matrices.

Column-stacking convention throughout: vec stacks columns, so
vec(X Y Z) = (Z^T kron X) vec(Y). The superoperator of a map phi is the
n^2-by-n^2 matrix S with S vec(a) = vec(phi(a)); the Choi matrix is
C = sum_ij E_ij kron phi(E_ij). The two are entry reshuffles of one another.
Mixing vectorization conventions is the classic silent bug in this domain,
so serialization writes the CONVENTION tag and checks it on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotHermiticityPreservingError,
    SingularMapError,
)
from .matrix_core import (
    MAX_DRAWS,
    _standard_normals,
    as_complex,
    as_matrix,
    dagger,
    frobenius,
    hermitian_part,
    matrix_unit,
    derive_seed,
    random_unit_vector,
    require_count,
    require_instance,
    require_seed,
    require_tolerance,
)

CONVENTION = "column-stacking"

# The default tolerance of is_unital and is_hermiticity_preserving, and the
# least Hermiticity tolerance of positivity_certificate.
CHECK_TOL = 1e-10

# positivity_certificate's default tolerance, and the least positivity rung
# of classify (see wigner.ClassifyConfig).
POSITIVITY_TOL = 1e-9

# is_invertible() and invert() refuse superoperators beyond this condition number.
COND_LIMIT = 1e12

# SuperOp and ChoiMatrix refuse an entry whose real or imaginary part exceeds
# this. The rank-k audit squares images of Frobenius norm up to
# n^2.5 sqrt(2) MAX_ENTRY and takes Frobenius norms of the squares, which sum
# squares once more: at n = 64 those sums stay below 5e258, inside the float
# range (1.8e308). At 1e80 a report already holds an infinite max_residual.
MAX_ENTRY = 1e60


def _require_map_matrix(n, mat, label: str) -> np.ndarray:
    # The checks SuperOp and ChoiMatrix share; returns mat as a complex array.
    require_count("n", n, 1)
    mat = as_complex(mat)
    if mat.shape != (n * n, n * n):
        raise DimensionMismatchError(f"{label} for n={n} must be {n**2}x{n**2}, got {mat.shape}")
    # The real and imaginary parts; max and min propagate NaN, so this test
    # also fails on NaN and inf.
    parts = mat.ravel(order="K").view(float)
    if not (parts.max() <= MAX_ENTRY and parts.min() >= -MAX_ENTRY):
        if not np.all(np.isfinite(mat)):
            raise NonFiniteError(f"{label} contains NaN or infinite entries")
        raise NonFiniteError(f"{label} has an entry whose real or imaginary part exceeds "
                             f"{MAX_ENTRY:.0e} in magnitude")
    return mat


@dataclass
class SuperOp:
    """A linear map on n-by-n matrices, stored as its n^2-by-n^2 matrix."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        self.mat = _require_map_matrix(self.n, self.mat, "superoperator")


@dataclass
class ChoiMatrix:
    """sum_ij E_ij kron phi(E_ij); Hermitian iff phi preserves Hermiticity."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        self.mat = _require_map_matrix(self.n, self.mat, "Choi matrix")


@dataclass
class PositivityCertificate:
    """Outcome of positivity_certificate: the least eigenvalue of phi(x x*) it found.

    A negative min_value certifies the map is not positive (witness is the
    offending unit vector). A nonnegative one is a proof of positivity when
    proof is "cp" or "co-cp" (a Cholesky of the Choi matrix of phi or of
    phi o T succeeded) or "model" (classify only: the map lies within
    delta <= tol of a fitted a -> U a U* or a -> U a^t U*, so
    lambda_min(phi(x x*)) >= -delta for every unit x), and strong evidence,
    not proof, when proof is "search". iterations holds each restart's
    seesaw iterations (all 0 with a proof) and spread is the largest minus
    the least restart value (0.0 with a proof); neither is written to
    report files. Both reflect the
    restarts that the search's Aitken stop rule ended early: such a restart
    counts the iterations it ran, and its value is where it stopped, above
    its limit.
    """

    min_value: float
    witness: np.ndarray
    restarts: int
    converged: bool
    proof: str
    iterations: np.ndarray
    spread: float


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one vector, or of each matrix of a
    stack: the last two axes flatten in column order."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise DimensionMismatchError(f"cannot vec shape {a.shape}: it has no matrix axes")
    # The length is spelled out: -1 cannot be resolved on an empty stack.
    return a.swapaxes(-1, -2).reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec: the last axis, of length n^2, becomes an n-by-n matrix
    filled in column order, so a stack of vectors gives a stack of matrices."""
    v = np.asarray(v)
    n = math.isqrt(v.shape[-1]) if v.ndim else 0
    if v.ndim == 0 or n * n != v.shape[-1]:
        raise DimensionMismatchError(f"cannot unvec shape {v.shape}: the last axis must have "
                                     f"a square length")
    return v.reshape(v.shape[:-1] + (n, n)).swapaxes(-1, -2)


def from_action(n: int, action) -> SuperOp:
    """Build the superoperator of a map given as a python callable.

    Evaluates the map on every matrix unit; column (i, j) of the result is
    vec(action(E_ij)). DimensionMismatchError unless every image is n-by-n.
    """
    require_count("n", n, 1)
    s = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        for i in range(n):
            image = as_matrix(action(matrix_unit(n, i, j)))
            if image.shape != (n, n):
                raise DimensionMismatchError(
                    f"the image of E_{i}{j} is {image.shape[0]}x{image.shape[1]}, expected n={n}")
            s[:, i + n * j] = vec(image)
    return SuperOp(n, s)


def apply(s: SuperOp, a) -> np.ndarray:
    """Evaluate the map on a single matrix: unvec(S vec(a))."""
    require_instance("s", s, SuperOp)
    a = as_matrix(a)
    if a.shape != (s.n, s.n):
        raise DimensionMismatchError(f"expected a {s.n}x{s.n} matrix, got {a.shape}")
    return unvec(s.mat @ vec(a))


def unit_images(s: SuperOp) -> np.ndarray:
    """Every phi(E_ij) at once, as an n x n x n x n view of S.

    Entry [i, j] is the n-by-n image phi(E_ij), which is also block (i, j)
    of the Choi matrix. Column i + n j of S is vec(phi(E_ij)), so this is a
    reshape of S in place: nothing is computed or copied.
    """
    return s.mat.reshape(s.n, s.n, s.n, s.n).T


def _reshuffle(m: np.ndarray, n: int) -> np.ndarray:
    # Involutive entry permutation between superoperator and Choi orderings,
    # always into a new C-ordered array (a reshape alone is a view at n = 1).
    return m.reshape(n, n, n, n).swapaxes(0, 3).copy().reshape(n * n, n * n)


def to_choi(s: SuperOp) -> ChoiMatrix:
    """Superoperator -> Choi matrix (pure entry permutation, exact)."""
    require_instance("s", s, SuperOp)
    return ChoiMatrix(s.n, _reshuffle(s.mat, s.n))


def from_choi(c: ChoiMatrix) -> SuperOp:
    """Choi matrix -> superoperator (inverse of to_choi, exact)."""
    require_instance("c", c, ChoiMatrix)
    return SuperOp(c.n, _reshuffle(c.mat, c.n))


def is_unital(s: SuperOp, tol: float = CHECK_TOL) -> bool:
    """Whether the map sends the identity to the identity within tol."""
    require_instance("s", s, SuperOp)
    require_tolerance("tol", tol)
    eye = np.eye(s.n, dtype=complex)
    return frobenius(apply(s, eye) - eye) <= tol


def is_hermiticity_preserving(s: SuperOp, tol: float = CHECK_TOL) -> bool:
    """Whether the map sends Hermitian inputs to Hermitian outputs.

    Checked on the n^2 standard Hermitian basis elements h, which suffices
    by linearity: phi(h) - phi(h)* must stay within tol * ||h||_F. Write
    d_ij = phi(E_ij) - phi(E_ji)* for i <= j. For h = E_ii that is d_ii
    within tol. For i < j, h = E_ij + E_ji gives d_ij - d_ij* and
    h = i(E_ij - E_ji) gives i(d_ij + d_ij*), both within tol * sqrt(2).
    As max(||d - d*||_F, ||d + d*||_F)^2 = 2(||d||_F^2 + |Re tr d^2|), and
    d_ii* = -d_ii, all three are one test: ||d||_F^2 + |Re tr d^2| within
    c tol^2, c = 2 for i = j and 1 for i < j. It is compared as
    sqrt(size / c) <= tol, which squares no tol, so no finite tol overflows.
    """
    require_instance("s", s, SuperOp)
    require_tolerance("tol", tol)
    units = unit_images(s)
    i, j = np.triu_indices(s.n)
    # d is formed in place in one of its two copies, so about one S is live.
    d, b = units[i, j], units[j, i]
    d -= np.conjugate(b, out=b).swapaxes(-1, -2)
    size = np.einsum("tab,tab->t", d.real, d.real) + np.einsum("tab,tab->t", d.imag, d.imag)
    size += np.abs(np.einsum("tab,tba->t", d, d).real)
    return bool(np.all(np.sqrt(size / np.where(i == j, 2.0, 1.0)) <= tol))


def _least_eigs(mat: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Least eigenvalue and eigenvector of hermitian_part(unvec(mat @ vec(x x*)))
    # for every row x of xs. The stacked matmul runs one gemv per row, as
    # apply does, so each image equals its apply call bit for bit; a single
    # gemm would not.
    outers = xs[:, :, None] * xs.conj()[:, None, :]
    w, v = np.linalg.eigh(hermitian_part(unvec(np.matmul(mat, vec(outers)[..., None])[..., 0])))
    return w[:, 0], v[:, :, 0]


def _is_positive_definite(h: np.ndarray) -> bool:
    # Whether a Cholesky of the Hermitian matrix h succeeds.
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def positivity_certificate(s: SuperOp, restarts: int = 50, max_iters: int = 500,
                           tol: float = POSITIVITY_TOL, seed=0) -> PositivityCertificate:
    """Find the least value of lambda_min(phi(x x*)) over unit x: a proof first, then a search.

    Since phi(x x*) = (conj(x) kron I)* C (conj(x) kron I) for the Choi
    matrix C, lambda_min(phi(x x*)) >= lambda_min(C) for every unit x (both
    taken on Hermitian parts). So when a Cholesky of C + tol I succeeds, the
    map is completely positive up to tol and min_value >= -tol is proven
    ("cp"); the same test on the Choi matrix of phi o T proves it
    co-completely positive ("co-cp"). The proof holds up to Cholesky's
    backward error: success means C + tol I + E is positive definite, with
    ||E||_2 of order (d+1) u tr(C + tol I), d = n^2 and u the unit roundoff
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10): about
    5e-13 for a unital map at n = 16. With a proof no search runs:
    min_value is the value at restart 0's seeded start, which is also the
    witness. The proofs are not tried when that value is below -tol, since
    then neither can hold.

    Otherwise ("search") a seesaw minimises y* phi(x x*) y over unit x and
    y (Ling, Nie, Qi and Ye, SIAM J. Optim. 20 (2009) 1286). The y-step
    takes the least eigenvector of phi(x x*), the x-step that of
    phi_adj(y y*), since y* phi(x x*) y = x* phi_adj(y y*) x. Each half-step
    is an exact minimisation, so the value never increases and there is no
    step size. A restart stops when a half-step lowers its value by at most
    max(1e-12, 1e-2 tol) (converged) or after max_iters iterations. An
    x-step that stops it keeps its previous point, so every restart ends on
    a point whose value lambda_min(phi(x x*)) it has computed.

    A restart that creeps toward a flat minimum stops early, by a rule on
    Aitken's delta-squared extrapolation. After each full iteration let d be
    the fall in its value f and rho = d / d_prev, the ratio to its fall
    over the previous iteration (none on the first). Once some restart has
    stopped, a running one stops when 0 < rho < 1 and its extrapolated
    limit f - d rho / (1 - rho) exceeds max(least value of the stopped
    restarts, -tol): if its falls keep shrinking by rho, it cannot beat a
    restart that has already stopped. The incumbent comes from stopped
    restarts only, since a running one may still fall below its own limit.

    The restarts are rows of one array; every stacked call runs the same
    BLAS and LAPACK routine per row as one restart at a time would, so the
    result is the same to the bit. The best restart is the first that reaches the least
    value; min_value is its final value and the witness its final point.

    A negative min_value certifies non-positivity through its witness
    either way; a nonnegative one is a proof with "cp" or "co-cp" and
    heuristic evidence with "search". Restart starts are independent
    streams derived from (seed, restart index), so the result is
    deterministic for a fixed (seed, restarts).

    Raises BadParameterError for a bad count, tolerance or seed (restarts
    is at most MAX_DRAWS, 1000, since the restarts are rows of stacks), and
    NotHermiticityPreservingError unless the map preserves Hermiticity
    within max(tol, CHECK_TOL), where CHECK_TOL is 1e-10.
    """
    require_instance("s", s, SuperOp)
    require_count("restarts", restarts, 1, MAX_DRAWS)
    require_count("max_iters", max_iters, 0)
    require_tolerance("tol", tol)
    require_seed(seed)
    if not is_hermiticity_preserving(s, max(tol, CHECK_TOL)):
        raise NotHermiticityPreservingError(
            "positivity search requires a Hermiticity-preserving map")
    return _certify_positivity(s, restarts, max_iters, tol, seed)


def _certify_positivity(s: SuperOp, restarts: int, max_iters: int, tol: float,
                        seed, delta: float = np.inf) -> PositivityCertificate:
    # positivity_certificate on arguments already checked, for a map already
    # known to preserve Hermiticity. delta bounds ||S - S_model||_F for the
    # superoperator S_model of some a -> U a U* or a -> U a^t U*. Then
    # phi(x x*) = U x x* U* + E(x x*) (x conjugated for the transpose
    # variant) with ||E(x x*)||_2 <= delta ||x x*||_F = delta, and the first
    # term is PSD for any U, so lambda_min(phi(x x*)) >= -delta: with
    # delta <= tol that is the proof "model", and no Choi matrix is formed.
    n = s.n
    x0 = random_unit_vector(n, derive_seed(seed, 0))
    (f0,), _ = _least_eigs(s.mat, x0[None])
    proof = None
    if f0 >= -tol and delta <= tol:
        proof = "model"
    elif f0 >= -tol:
        # hermitian_part(C) + tol I, built in place in one new buffer: with
        # the conjugate it adds, at most two arrays the size of S are live.
        h = _reshuffle(s.mat, n)
        h += h.conj().T
        h *= 0.5
        h.ravel()[::n * n + 1] += tol
        # The Choi matrix of phi o T, whose superoperator is S with its
        # columns permuted, is the partial transpose of C: block (i, j) is
        # phi(E_ji). It commutes with the Hermitian part and keeps tol I.
        if _is_positive_definite(h):
            proof = "cp"
        else:
            h = h.reshape(n, n, n, n).swapaxes(0, 2).reshape(n * n, n * n)
            if _is_positive_definite(h):
                proof = "co-cp"
    if proof:
        return PositivityCertificate(min_value=float(f0), witness=x0, restarts=restarts,
                                     converged=True, proof=proof,
                                     iterations=np.zeros(restarts, dtype=int), spread=0.0)
    return _seesaw(s, restarts, max_iters, tol, seed)


def _seesaw(s: SuperOp, restarts: int, max_iters: int, tol: float,
            seed) -> PositivityCertificate:
    # positivity_certificate's search stage, run whether or not a proof exists.
    # Row r of x, f and y is restart r's point, its value and the least
    # eigenvector of phi(x x*) there; fall[r] is its value's fall over its
    # last iteration; live lists the restarts still running.
    adj = dagger(s.mat)
    gtol = max(1e-12, 1e-2 * tol)
    # Restart r starts at random_unit_vector(n, derive_seed(seed, r)): its two
    # standard_normal(n) draws are one (2, n) draw from the same stream, and
    # _standard_normals seeds every stream in one pass, equal to
    # default_rng's. Each start is normalized on its own, as a stacked norm
    # rounds differently.
    g = _standard_normals(derive_seed(seed), restarts, (2, s.n))
    x = np.array([z / np.linalg.norm(z) for z in g[:, 0] + 1j * g[:, 1]])
    f, y = _least_eigs(s.mat, x)
    iterations = np.zeros(restarts, dtype=int)
    fall = np.full(restarts, np.inf)
    live = np.arange(restarts)
    for _ in range(max_iters):
        if not live.size:
            break
        iterations[live] += 1
        g, xn = _least_eigs(adj, y[live])
        # A row the x-step stops keeps its old point; the others move to xn.
        down = f[live] - g > gtol
        live, g, xn = live[down], g[down], xn[down]
        x[live] = xn
        prev = f[live]
        f[live], y[live] = _least_eigs(s.mat, xn)
        keep = g - f[live] > gtol
        live, d = live[keep], (prev - f[live])[keep]
        # rho is 0 on a row's first iteration (fall is inf), which the rule excludes.
        rho = d / fall[live]
        fall[live] = d
        if live.size < restarts:
            # Aitken's delta-squared limit of a row whose falls shrink by rho:
            # stop the row if it cannot beat the best stopped row.
            with np.errstate(divide="ignore"):
                limit = f[live] - d * rho / (1 - rho)
            bar = max(np.delete(f, live).min(), -tol)
            live = live[~((0 < rho) & (rho < 1) & (limit > bar))]

    # np.argmin picks the first restart that reaches the minimum.
    best = np.argmin(f)
    return PositivityCertificate(min_value=float(f[best]), witness=x[best].copy(),
                                 restarts=restarts, converged=best not in live,
                                 proof="search", iterations=iterations,
                                 spread=float(f.max() - f.min()))


def is_invertible(s: SuperOp) -> bool:
    """Whether cond(S) is at most 1e12 (False when it is infinite or NaN)."""
    require_instance("s", s, SuperOp)
    return bool(np.linalg.cond(s.mat) <= COND_LIMIT)


def invert(s: SuperOp) -> SuperOp:
    """Inverse map as a superoperator; SingularMapError unless is_invertible(s).

    The inverse is a SuperOp, so its entries must fit under MAX_ENTRY. A
    well-conditioned map with tiny entries (say 1e-61 times a channel) has
    an inverse above it, and invert raises SingularMapError for that too:
    rescale such a map before inverting it. The rank-k audit needs only
    is_invertible (see wigner.preserves_rank_k).
    """
    require_instance("s", s, SuperOp)
    if not is_invertible(s):
        raise SingularMapError(f"superoperator condition number exceeds {COND_LIMIT:.0e}")
    inv = np.linalg.inv(s.mat)
    if not np.all(np.abs(inv.view(float)) <= MAX_ENTRY):
        raise SingularMapError(f"the inverse has an entry above {MAX_ENTRY:.0e} in magnitude; "
                               "rescale the map")
    return SuperOp(s.n, inv)
