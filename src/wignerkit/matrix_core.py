"""Dense complex matrix arithmetic: Hermitian spectral tools, projection
certification, and Haar-random sampling.

Every function is a pure function of its inputs; randomness enters only
through an explicit seed, so all results are reproducible and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    BadRankError,
    DimensionMismatchError,
    NonFiniteError,
    NotAProjectionError,
    NotHermitianError,
    NotUnitaryError,
)

# Eigenvalues within this distance of {0, 1} count as projection spectrum.
# Projections have unit-scale spectra, so an absolute tolerance is stable.
DEFAULT_PROJECTION_TOL = 1e-8

# Relative Frobenius tolerance for accepting an input as Hermitian.
HERMITIAN_RTOL = 1e-10

# ||U*U - I||_F <= UNITARY_TOL * n for a certified unitary.
UNITARY_TOL = 1e-12


def as_matrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def trace(m) -> complex:
    """Sum of diagonal entries."""
    return complex(np.trace(np.asarray(m)))


def transpose(m) -> np.ndarray:
    """Entry-exact transpose (returns a fresh array, not a view)."""
    return np.asarray(m).T.copy()


def conjugate(m) -> np.ndarray:
    """Entrywise complex conjugate."""
    return np.conj(np.asarray(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2."""
    return (m + dagger(m)) / 2


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n-by-n matrix with a single 1 at row i, column j."""
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and b minimized over a global phase.

    The minimizing phase is tr(b* a)/|tr(b* a)|; the norm is evaluated at
    that phase directly, which stays accurate when the distance is tiny.
    """
    t = np.trace(dagger(b) @ a)
    c = t / abs(t) if abs(t) > 0 else 1.0
    return frobenius(np.asarray(a) - c * np.asarray(b))


@dataclass
class Projection:
    """A certified Hermitian idempotent.

    matrix: the projection itself; rank: number of eigenvalues at 1;
    tol: the validation tolerance the certificate was issued under.
    """

    matrix: np.ndarray
    rank: int
    tol: float


def spectral_decomp(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w ascending and orthonormal eigenvector
    columns v, so h = v @ diag(w) @ v*. For degenerate eigenvalues the basis
    within an eigenspace is arbitrary; callers must not rely on a specific
    choice.

    Raises NotHermitianError if h deviates from h* by more than 1e-10
    relative Frobenius norm.
    """
    h = as_matrix(h)
    scale = max(1.0, frobenius(h))
    if frobenius(h - dagger(h)) > HERMITIAN_RTOL * scale:
        raise NotHermitianError("input is not Hermitian within 1e-10 relative tolerance")
    w, v = np.linalg.eigh(hermitian_part(h))
    return w, v


# Ranks projection_ranks reports for the matrices it cannot certify.
NOT_HERMITIAN, NOT_A_PROJECTION = -1, -2


def projection_ranks(ms, tol: float = DEFAULT_PROJECTION_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Certify each matrix of a stack as a projection and count its rank.

    A matrix m is certified when ||m - m*||_F <= tol max(1, ||m||_F), every
    eigenvalue lies within tol of {0, 1}, and the re-check ||m^2 - m||_F,
    ||m - m*||_F <= 10 tol holds. Returns (ranks, residuals): residuals[t]
    is ||m_t^2 - m_t||_F, ranks[t] counts the eigenvalues of a certified m_t
    within tol of 1 and is NOT_HERMITIAN or NOT_A_PROJECTION otherwise.
    """
    ms = np.asarray(ms, dtype=complex)
    if not np.all(np.isfinite(ms)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    skew = np.linalg.norm(ms - dagger(ms), axis=(-2, -1))
    residuals = np.linalg.norm(ms @ ms - ms, axis=(-2, -1))
    w = np.linalg.eigvalsh(hermitian_part(ms))
    near_one = np.abs(w - 1.0) <= tol
    ranks = near_one.sum(axis=-1)
    off_spectrum = ~np.all(near_one | (np.abs(w) <= tol), axis=-1)
    ranks[off_spectrum | (residuals > 10.0 * tol) | (skew > 10.0 * tol)] = NOT_A_PROJECTION
    ranks[skew > tol * np.maximum(1.0, np.linalg.norm(ms, axis=(-2, -1)))] = NOT_HERMITIAN
    return ranks, residuals


def validate_projection(m, tol: float = DEFAULT_PROJECTION_TOL) -> Projection:
    """Certify m as a projection and count its rank: projection_ranks for one matrix.

    Raises NotHermitianError or NotAProjectionError.
    """
    m = as_matrix(m)
    (rank,), _ = projection_ranks(m[None], tol)
    if rank == NOT_HERMITIAN:
        raise NotHermitianError("candidate projection is not Hermitian")
    if rank == NOT_A_PROJECTION:
        raise NotAProjectionError(
            f"spectrum is farther than {tol} from {{0, 1}} or fails the idempotency re-check")
    return Projection(matrix=m, rank=int(rank), tol=tol)


def haar_unitary(n: int, seed=0) -> np.ndarray:
    """Haar-distributed n-by-n unitary.

    Ginibre sample, QR factorization, then rescale Q's columns so R's
    diagonal is real positive; plain QR without the rescale is not Haar.
    """
    if n < 1:
        raise BadParameterError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def require_unitary(u) -> np.ndarray:
    """Validate ||u*u - I||_F <= 1e-12 n and return u as a complex array."""
    u = as_matrix(u)
    n = u.shape[0]
    if frobenius(dagger(u) @ u - np.eye(n)) > UNITARY_TOL * n:
        raise NotUnitaryError("matrix is not unitary within 1e-12 * n")
    return u


def random_rank_k_projection(n: int, k: int, seed=0,
                             tol: float = DEFAULT_PROJECTION_TOL) -> Projection:
    """Haar-random rank-k projection: U diag(1 x k, 0 x (n-k)) U*."""
    if not 1 <= k < n:
        raise BadRankError(f"rank k={k} must satisfy 1 <= k < n={n}")
    u = haar_unitary(n, seed)
    m = u[:, :k] @ dagger(u[:, :k])
    return validate_projection(m, tol)


def random_hermitian(n: int, seed=0) -> np.ndarray:
    """GUE-style random Hermitian matrix with O(1) entries."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(z / np.sqrt(2.0))


def random_unit_vector(n: int, seed=0) -> np.ndarray:
    """Uniform random unit vector in C^n."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


def derive_seed(seed, *indices):
    """Extend a seed with stream indices, for independent sub-draws."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),) + tuple(indices)
    return tuple(seed) + tuple(indices)
