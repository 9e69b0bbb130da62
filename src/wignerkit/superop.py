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
    BadParameterError,
    DimensionMismatchError,
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
)

CONVENTION = "column-stacking"

# invert() refuses superoperators beyond this condition number.
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
    units = unit_images(s)
    diag = units[range(s.n), range(s.n)]
    i, j = np.triu_indices(s.n, 1)
    d = units[i, j] - dagger(units[j, i])
    limit = tol * np.sqrt(2.0)
    return not (np.any(np.linalg.norm(diag - dagger(diag), axis=(1, 2)) > tol)
                or np.any(np.linalg.norm(d - dagger(d), axis=(1, 2)) > limit)
                or np.any(np.linalg.norm(d + dagger(d), axis=(1, 2)) > limit))


def _least_eig(s: SuperOp, x: np.ndarray) -> tuple[float, np.ndarray]:
    # Least eigenvalue (and eigenvector) of phi(x x*).
    out = hermitian_part(apply(s, np.outer(x, x.conj())))
    w, v = np.linalg.eigh(out)
    return float(w[0]), v[:, 0]


def positivity_certificate(s: SuperOp, restarts: int = 50, max_iters: int = 500,
                           tol: float = 1e-9, seed=0) -> PositivityCertificate:
    """Search for the most negative eigenvalue of phi(x x*) over unit x.

    Multi-start projected gradient descent on the unit sphere. The objective
    f(x) = lambda_min(phi(x x*)) is differentiated through the minimal
    eigenvector, which is exact when the least eigenvalue is simple and a
    valid subgradient choice otherwise. Step sizes come from backtracking
    line search. The verdict "positive" is min_value >= -tol: a negative
    min_value is a certificate of non-positivity, a nonnegative one is
    heuristic evidence of positivity.

    Restarts are independent streams derived from (seed, restart index), so
    the result is deterministic for a fixed (seed, restarts).
    """
    if restarts < 1:
        raise BadParameterError("at least one restart is required")
    if not is_hermiticity_preserving(s, max(tol, 1e-10)):
        raise NotHermiticityPreservingError(
            "positivity search requires a Hermiticity-preserving map")
    n = s.n
    s_adj = SuperOp(n, dagger(s.mat))
    gtol = max(1e-12, 1e-2 * tol)

    best_val = np.inf
    best_x = None
    best_converged = False
    for r in range(restarts):
        x = random_unit_vector(n, derive_seed(seed, r))
        f, v = _least_eig(s, x)
        step = 1.0
        converged = False
        for _ in range(max_iters):
            # Riemannian gradient of f at x, via the minimal eigenvector v:
            # f = x* G x with G = phi_adj(v v*), so grad = 2 G x projected
            # onto the sphere's tangent space.
            g = hermitian_part(apply(s_adj, np.outer(v, v.conj())))
            euc = 2.0 * (g @ x)
            rgrad = euc - x * np.real(np.vdot(x, euc))
            gnorm = float(np.linalg.norm(rgrad))
            if gnorm <= gtol:
                converged = True
                break
            alpha = step
            for _ in range(30):
                xn = x - alpha * rgrad
                xn = xn / np.linalg.norm(xn)
                fn, vn = _least_eig(s, xn)
                if fn <= f - 1e-4 * alpha * gnorm * gnorm:
                    break
                alpha *= 0.5
            else:
                # No descent step exists at this scale: stationary enough.
                converged = True
                break
            x, f, v = xn, fn, vn
            step = min(2.0 * alpha, 1.0)
        if f < best_val:
            best_val, best_x, best_converged = f, x, converged

    # Re-derive the certified value directly from the witness.
    final_val, _ = _least_eig(s, best_x)
    return PositivityCertificate(min_value=final_val, witness=best_x,
                                 restarts=restarts, converged=best_converged)


def invert(s: SuperOp) -> SuperOp:
    """Inverse map as a superoperator.

    Raises SingularMapError when the condition number exceeds 1e12, which
    rules out surjectivity of the map on any spanning set.
    """
    cond = np.linalg.cond(s.mat)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMapError(f"superoperator condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return SuperOp(s.n, np.linalg.inv(s.mat))
