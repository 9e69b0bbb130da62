"""Superoperator and Choi representations of linear maps on n-by-n matrices.

Column-stacking convention throughout: vec stacks columns, so
vec(X Y Z) = (Z^T kron X) vec(Y). The superoperator of a map phi is the
n^2-by-n^2 matrix S with S vec(a) = vec(phi(a)); the Choi matrix is
C = sum_ij E_ij kron phi(E_ij). The two are entry reshuffles of one another.
Mixing vectorization conventions is the classic silent bug in this domain,
so the tag is carried through serialization and checked on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotHermiticityPreservingError,
    SingularMapError,
)
from .matrix_core import (
    as_matrix,
    dagger,
    frobenius,
    hermitian_part,
    matrix_unit,
    derive_seed,
    random_unit_vector,
    require_count,
    require_tolerance,
)

CONVENTION = "column-stacking"

# is_invertible() and invert() refuse superoperators beyond this condition number.
COND_LIMIT = 1e12


@dataclass
class SuperOp:
    """A linear map on n-by-n matrices, stored as its n^2-by-n^2 matrix."""

    n: int
    mat: np.ndarray
    convention: str = field(default=CONVENTION)

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (self.n * self.n, self.n * self.n):
            raise DimensionMismatchError(
                f"superoperator for n={self.n} must be {self.n**2}x{self.n**2}, "
                f"got {self.mat.shape}")
        if not np.all(np.isfinite(self.mat)):
            raise NonFiniteError("superoperator contains NaN or infinite entries")
        if self.convention != CONVENTION:
            raise DimensionMismatchError(f"unsupported convention {self.convention!r}")


@dataclass
class ChoiMatrix:
    """sum_ij E_ij kron phi(E_ij); Hermitian iff phi preserves Hermiticity."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (self.n * self.n, self.n * self.n):
            raise DimensionMismatchError(
                f"Choi matrix for n={self.n} must be {self.n**2}x{self.n**2}, "
                f"got {self.mat.shape}")
        if not np.all(np.isfinite(self.mat)):
            raise NonFiniteError("Choi matrix contains NaN or infinite entries")


@dataclass
class PositivityCertificate:
    """Outcome of the minimum-eigenvalue search over rank-1 inputs.

    A negative min_value certifies the map is not positive (witness is the
    offending unit vector); a nonnegative one is strong evidence of
    positivity, not proof.
    """

    min_value: float
    witness: np.ndarray
    restarts: int
    converged: bool


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of a into one vector."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of vec."""
    v = np.asarray(v).reshape(-1)
    if n is None:
        n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionMismatchError(f"cannot unvec length {v.size} into a square matrix")
    return v.reshape((n, n), order="F")


def from_action(n: int, action) -> SuperOp:
    """Build the superoperator of a map given as a python callable.

    Evaluates the map on every matrix unit; column (i, j) of the result is
    vec(action(E_ij)).
    """
    s = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        for i in range(n):
            s[:, i + n * j] = vec(as_matrix(action(matrix_unit(n, i, j))))
    return SuperOp(n, s)


def apply(s: SuperOp, a) -> np.ndarray:
    """Evaluate the map on a single matrix: unvec(S vec(a))."""
    a = as_matrix(a)
    if a.shape != (s.n, s.n):
        raise DimensionMismatchError(f"expected a {s.n}x{s.n} matrix, got {a.shape}")
    return unvec(s.mat @ vec(a), s.n)


def unit_images(s: SuperOp) -> np.ndarray:
    """Every phi(E_ij) at once, as an n x n x n x n view of S.

    Entry [i, j] is the n-by-n image phi(E_ij), which is also block (i, j)
    of the Choi matrix. Column i + n j of S is vec(phi(E_ij)), so this is a
    reshape of S in place: nothing is computed or copied.
    """
    return s.mat.reshape(s.n, s.n, s.n, s.n).T


def _reshuffle(m: np.ndarray, n: int) -> np.ndarray:
    # Involutive entry permutation between superoperator and Choi orderings.
    return m.reshape(n, n, n, n).swapaxes(0, 3).reshape(n * n, n * n)


def to_choi(s: SuperOp) -> ChoiMatrix:
    """Superoperator -> Choi matrix (pure entry permutation, exact)."""
    return ChoiMatrix(s.n, _reshuffle(s.mat, s.n))


def from_choi(c: ChoiMatrix) -> SuperOp:
    """Choi matrix -> superoperator (inverse of to_choi, exact)."""
    return SuperOp(c.n, _reshuffle(c.mat, c.n))


def is_unital(s: SuperOp, tol: float = 1e-10) -> bool:
    """Whether the map sends the identity to the identity within tol."""
    require_tolerance("tol", tol)
    eye = np.eye(s.n, dtype=complex)
    return frobenius(apply(s, eye) - eye) <= tol


def is_hermiticity_preserving(s: SuperOp, tol: float = 1e-10) -> bool:
    """Whether the map sends Hermitian inputs to Hermitian outputs.

    Checked on the n^2 standard Hermitian basis elements h, which suffices
    by linearity: phi(h) - phi(h)* must stay within tol * ||h||_F. For
    h = E_ii that is phi(E_ii) - phi(E_ii)* within tol. For i < j, write
    d_ij = phi(E_ij) - phi(E_ji)*; then h = E_ij + E_ji gives d_ij - d_ij*
    and h = i(E_ij - E_ji) gives i(d_ij + d_ij*), both within tol * sqrt(2).
    """
    require_tolerance("tol", tol)
    units = unit_images(s)
    diag = units[range(s.n), range(s.n)]
    i, j = np.triu_indices(s.n, 1)
    d = units[i, j] - dagger(units[j, i])
    limit = tol * np.sqrt(2.0)
    return not (np.any(np.linalg.norm(diag - dagger(diag), axis=(1, 2)) > tol)
                or np.any(np.linalg.norm(d - dagger(d), axis=(1, 2)) > limit)
                or np.any(np.linalg.norm(d + dagger(d), axis=(1, 2)) > limit))


def _rank1_images(mat: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # hermitian_part(unvec(mat @ vec(x x*))) for every row x of xs. The
    # stacked matmul runs one gemv per row, as apply does, so each image
    # equals its apply call bit for bit; a single gemm would not.
    t, n = xs.shape
    outers = xs[:, :, None] * xs.conj()[:, None, :]
    out = np.matmul(mat[None], outers.swapaxes(1, 2).reshape(t, n * n, 1))
    return hermitian_part(out.reshape(t, n, n).swapaxes(1, 2))


def _least_eigs(s: SuperOp, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Least eigenvalue and eigenvector of phi(x x*) for every row x of xs.
    w, v = np.linalg.eigh(_rank1_images(s.mat, xs))
    return w[:, 0], v[:, :, 0]


def _gradients(adj: np.ndarray, vs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # Euclidean gradient of f at every row x of xs, via its minimal
    # eigenvector v: f = x* G x with G = phi_adj(v v*), so euc = 2 G x.
    return 2.0 * np.matmul(_rank1_images(adj, vs), xs[:, :, None])[:, :, 0]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.vdot(a[r], b[r]) for every row r: one stacked matmul runs one BLAS
    # dot per row, so each value equals its vdot bit for bit.
    return np.matmul(a.conj()[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(z: np.ndarray) -> np.ndarray:
    # np.linalg.norm(z[r]) for every row r, summed as norm sums one complex
    # vector: the strided real parts' dot plus the imaginary parts' dot.
    re, im = z.real[:, None, :], z.imag[:, None, :]
    return np.sqrt(np.matmul(re, re.swapaxes(1, 2))[:, 0, 0]
                   + np.matmul(im, im.swapaxes(1, 2))[:, 0, 0])


def positivity_certificate(s: SuperOp, restarts: int = 50, max_iters: int = 500,
                           tol: float = 1e-9, seed=0,
                           hermiticity_tol: float | None = None) -> PositivityCertificate:
    """Search for the most negative eigenvalue of phi(x x*) over unit x.

    Multi-start projected gradient descent on the unit sphere. The objective
    f(x) = lambda_min(phi(x x*)) is differentiated through the minimal
    eigenvector, which is exact when the least eigenvalue is simple and a
    valid subgradient choice otherwise. Step sizes come from backtracking
    line search. The verdict "positive" is min_value >= -tol: a negative
    min_value is a certificate of non-positivity, a nonnegative one is
    heuristic evidence of positivity.

    Restarts are independent streams derived from (seed, restart index), so
    the result is deterministic for a fixed (seed, restarts). All restarts
    descend in lockstep: the ones still running are rows of one array, and
    each iteration takes their eigenpairs, gradients, norms and backtracking
    trials as stacked numpy calls, each row with its own step size. A row
    leaves at its gradient stop, after 30 halvings without descent, or at
    max_iters. Every stacked call runs the same BLAS and LAPACK routine per
    row as a one-restart-at-a-time loop would, so the result is the same to
    the bit; the best restart is the first one that reaches the minimum.

    The map must preserve Hermiticity within hermiticity_tol (default
    max(tol, 1e-10)); a caller that has already tested it passes the
    tolerance it tested at.
    """
    require_count("restarts", restarts, 1)
    require_count("max_iters", max_iters, 0)
    require_tolerance("tol", tol)
    if hermiticity_tol is None:
        hermiticity_tol = max(tol, 1e-10)
    if not is_hermiticity_preserving(s, hermiticity_tol):
        raise NotHermiticityPreservingError(
            "positivity search requires a Hermiticity-preserving map")
    n = s.n
    adj = dagger(s.mat)
    gtol = max(1e-12, 1e-2 * tol)

    x = np.array([random_unit_vector(n, derive_seed(seed, r)) for r in range(restarts)])
    f, v = _least_eigs(s, x)
    euc = _gradients(adj, v, x)
    step = np.ones(restarts)
    # Rows of x, f, euc and step are the restarts still descending, which
    # live lists in restart order; a restart that stops leaves its point and
    # value in final_x and final_f.
    live = np.arange(restarts)
    final_x, final_f = x.copy(), f.copy()
    converged = np.zeros(restarts, dtype=bool)
    for _ in range(max_iters):
        # Riemannian gradient: euc projected onto the sphere's tangent space.
        rgrad = euc - x * _row_dots(x, euc).real[:, None]
        gnorm = _row_norms(rgrad)
        alpha = step.copy()
        moved = np.zeros(live.size, dtype=bool)
        xn, fn, vn = np.empty_like(x), np.empty_like(f), np.empty_like(x)
        searching = np.flatnonzero(gnorm > gtol)
        for _ in range(30):
            if not searching.size:
                break
            a, g = alpha[searching], gnorm[searching]
            cand = x[searching] - a[:, None] * rgrad[searching]
            cand = cand / _row_norms(cand)[:, None]
            fc, vc = _least_eigs(s, cand)
            ok = fc <= f[searching] - 1e-4 * a * g * g
            rows = searching[ok]
            xn[rows], fn[rows], vn[rows], moved[rows] = cand[ok], fc[ok], vc[ok], True
            searching = searching[~ok]
            alpha[searching] *= 0.5
        # A row that did not move is at its gradient stop or has no descent
        # step at this scale: stationary enough.
        stopped = live[~moved]
        converged[stopped] = True
        final_x[stopped], final_f[stopped] = x[~moved], f[~moved]
        live, x, f = live[moved], xn[moved], fn[moved]
        if not live.size:
            break
        step = np.minimum(2.0 * alpha[moved], 1.0)
        euc = _gradients(adj, vn[moved], x)
    final_x[live], final_f[live] = x, f

    # np.argmin picks the first restart that reaches the minimum.
    best = np.argmin(final_f)
    # Re-derive the certified value directly from the witness.
    (final_val,), _ = _least_eigs(s, final_x[best][None])
    return PositivityCertificate(min_value=float(final_val), witness=final_x[best].copy(),
                                 restarts=restarts, converged=bool(converged[best]))


def is_invertible(s: SuperOp) -> bool:
    """Whether cond(S) is at most 1e12 (False when it is infinite or NaN)."""
    return bool(np.linalg.cond(s.mat) <= COND_LIMIT)


def invert(s: SuperOp) -> SuperOp:
    """Inverse map as a superoperator; SingularMapError unless is_invertible(s).

    The rank-k audit needs only is_invertible (see wigner.preserves_rank_k).
    """
    if not is_invertible(s):
        raise SingularMapError(f"superoperator condition number exceeds {COND_LIMIT:.0e}")
    return SuperOp(s.n, np.linalg.inv(s.mat))
