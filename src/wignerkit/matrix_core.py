"""Dense complex matrix arithmetic: input checks, projection certification,
and Haar-random sampling.

Every function is a pure function of its inputs; randomness enters only
through an explicit seed, so all results are reproducible and thread-safe.
"""

from __future__ import annotations

import math
import reprlib
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

# ||U*U - I||_F <= UNITARY_TOL * n for a certified unitary.
UNITARY_TOL = 1e-12

# The largest n the CLI generates a map or a decomposition for: dense n^2-by-n^2
# superoperators take 268 MB at n = 64.
MAX_DIMENSION = 64

# The most seeded draws one call stacks: rank-k audit samples or positivity
# restarts. Each holds a few n-by-n complex matrices at once (the audit
# about five per sample: normals, draw, image and projection_ranks'
# temporaries, 0.35 MB at n = 64), so 1000 draws take about 0.35 GB at
# n = 64, and a count of 10^9 would end in a MemoryError.
MAX_DRAWS = 1000

# The unit roundoff of float64 arithmetic, np.finfo(float).eps.
EPS = 2.0 ** -52


def require_count(name: str, value, least: int | None = None, most: int | None = None):
    """Raise BadParameterError unless value is an integer (booleans are not),
    >= least when least is given and <= most when most is given."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least) or (most is not None and value > most)):
        bound = "" if least is None else f" >= {least}"
        bound += "" if most is None else f"{' and' if bound else ''} <= {most}"
        raise BadParameterError(f"{name}={value!r} must be an integer{bound}")


def require_rank(k, n: int):
    """Raise BadParameterError unless k is an integer, BadRankError unless 1 <= k < n."""
    require_count("k", k)
    if not 1 <= k < n:
        raise BadRankError(f"rank k={k} must satisfy 1 <= k < n={n}")


def require_real(name: str, value) -> float:
    """value as a float, checked before any arithmetic: BadParameterError
    unless it is a finite real number (Python or numpy, not a boolean)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not is_finite_float(value)):
        # reprlib bounds the work on long or nested values, the clip the length.
        text = reprlib.repr(value)
        text = text if len(text) <= 60 else text[:57] + "..."
        raise BadParameterError(
            f"{name}={text} ({type(value).__name__}) must be a finite real number")
    return float(value)


def require_tolerance(name: str, value, below: float = math.inf):
    """Raise BadParameterError unless value is a real number (booleans are
    not) with 0 < value < below."""
    if not 0 < require_real(name, value) < below:
        raise BadParameterError(f"{name}={value} must lie in (0, {below:g})")


def require_instance(name: str, value, kind: type):
    """Raise BadParameterError unless value is an instance of kind: the check
    public functions make on their SuperOp, Projection and WignerForm arguments."""
    if not isinstance(value, kind):
        raise BadParameterError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")


def as_complex(entries) -> np.ndarray:
    """np.asarray(entries, dtype=complex), with entries that are not numbers
    in a rectangular array refused as a BadParameterError."""
    try:
        return np.asarray(entries, dtype=complex)
    except (TypeError, ValueError):
        raise BadParameterError("entries must be numbers in a rectangular array") from None


def as_matrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = as_complex(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


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
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"cannot compare shapes {a.shape} and {b.shape}")
    t = np.trace(dagger(b) @ a)
    c = t / abs(t) if abs(t) > 0 else 1.0
    return frobenius(a - c * b)


@dataclass
class Projection:
    """A certified Hermitian idempotent.

    matrix: the projection itself; rank: number of eigenvalues at 1;
    tol: the validation tolerance the certificate was issued under.
    """

    matrix: np.ndarray
    rank: int
    tol: float


# Ranks projection_ranks reports for the matrices it cannot certify.
NOT_HERMITIAN, NOT_A_PROJECTION = -1, -2


def _proves_rank(n: int, tol, residual, skew, size, margin):
    # projection_ranks' test without a spectrum: whether every eigenvalue of
    # the Hermitian part of an n-by-n matrix with ||m^2 - m||_F <= residual,
    # ||m - m*||_F <= skew and ||m||_F <= size lies within tol/2 of exactly
    # one of 0 and 1, its bound b carrying the rounding margin. Elementwise
    # on arrays; on Python floats an infinite or NaN input gives False with
    # no floating-point warning (s * s, not s ** 2, which raises on overflow).
    bound = residual + skew * (size + 0.5) + skew * skew / 4.0 + margin
    return (4.0 * bound <= tol) & (tol + 2.0 * bound < 1.0) & (2.0 * n * bound < 0.5)


def projection_ranks(ms, tol: float = DEFAULT_PROJECTION_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Certify each matrix of a stack as a projection and count its rank.

    A matrix m is certified when ||m - m*||_F <= tol max(1, ||m||_F), every
    eigenvalue of its Hermitian part h lies within tol of {0, 1}, and the
    re-check ||m^2 - m||_F, ||m - m*||_F <= 10 tol holds. Returns (ranks,
    residuals): residuals[t] is ||m_t^2 - m_t||_F, ranks[t] counts the
    eigenvalues of a certified m_t within tol of 1 and is NOT_HERMITIAN or
    NOT_A_PROJECTION otherwise.

    Most matrices need no eigensolve. With s = ||m - m*||_F, r = ||m^2 - m||_F
    and N = ||m||_F, write m = h + a, h the Hermitian part, so ||a||_F = s/2,
    ||h||_F <= N and h^2 - h = (m^2 - m) - (ha + ah) - a^2 + a. Hence
    ||h^2 - h||_2 <= b = r + s (N + 1/2) + s^2/4. Each eigenvalue w of h has
    |w| |w - 1| <= b and max(|w|, |w - 1|) >= 1/2, so w lies within 2b of
    {0, 1}. If 4b <= tol, tol + 2b < 1 and 2nb < 1/2, every eigenvalue is
    within tol/2 of exactly one of 0 and 1, and the rank is the integer
    nearest tr h = Re tr m. b also carries 16 n eps (N + 1)^2, a margin for
    the rounding in r, s, N and the trace and for an eigensolve's backward
    error, so these ranks are the counts eigvalsh would give. A matrix that
    fails the re-checks or the Hermiticity test is decided without its
    spectrum too. Only the rest go to one stacked eigvalsh.

    tol must lie in (0, 1), BadParameterError otherwise: at tol >= 1 the
    bands around 0 and 1 overlap, and every zero eigenvalue would count as 1.
    """
    require_tolerance("tol", tol, 1.0)
    ms = as_complex(ms)
    if ms.ndim < 2 or ms.shape[-1] != ms.shape[-2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {ms.shape}")
    if not np.all(np.isfinite(ms)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    n = ms.shape[-1]
    skew = np.linalg.norm(ms - dagger(ms), axis=(-2, -1))
    residuals = np.linalg.norm(ms @ ms - ms, axis=(-2, -1))
    size = np.linalg.norm(ms, axis=(-2, -1))
    proven = _proves_rank(n, tol, residuals, skew, size,
                          16 * n * EPS * (size + 1.0) ** 2)
    not_hermitian = skew > tol * np.maximum(1.0, size)
    not_projection = (residuals > 10.0 * tol) | (skew > 10.0 * tol)
    traces = np.trace(ms, axis1=-2, axis2=-1).real
    ranks = np.where(proven, np.rint(traces), NOT_A_PROJECTION).astype(np.intp)
    rest = ~(proven | not_hermitian | not_projection)
    if rest.any():
        w = np.linalg.eigvalsh(hermitian_part(ms[rest]))
        near_one = np.abs(w - 1.0) <= tol
        on_spectrum = np.all(near_one | (np.abs(w) <= tol), axis=-1)
        ranks[rest] = np.where(on_spectrum, near_one.sum(axis=-1), NOT_A_PROJECTION)
    ranks[not_hermitian] = NOT_HERMITIAN
    return ranks, residuals


def validate_projection(m, tol: float = DEFAULT_PROJECTION_TOL) -> Projection:
    """Certify m as a projection and count its rank: projection_ranks for one matrix.

    Raises NotHermitianError or NotAProjectionError, and BadParameterError
    unless tol lies in (0, 1).
    """
    m = as_matrix(m)
    (rank,), _ = projection_ranks(m[None], tol)
    if rank == NOT_HERMITIAN:
        raise NotHermitianError("candidate projection is not Hermitian")
    if rank == NOT_A_PROJECTION:
        raise NotAProjectionError(
            f"spectrum is farther than {tol} from {{0, 1}} or fails the idempotency re-check")
    return Projection(matrix=m, rank=int(rank), tol=tol)


# The constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier, which _standard_normals reproduces.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _entropy_words(prefix) -> list[int]:
    # SeedSequence's entropy for a tuple of ints, as uint32 words: each
    # entry, 0 included, split into 32-bit words, least significant first.
    words = []
    for entry in prefix:
        entry = int(entry)
        words.append(entry & _MASK32)
        while entry := entry >> 32:
            words.append(entry & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    # The hash constant before and after each of count successive hashes.
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


def _standard_normals(prefix: tuple, count: int, shape) -> np.ndarray:
    """Row i is np.random.default_rng(prefix + (i,)).standard_normal(shape),
    bit for bit, for i < count <= MAX_DRAWS.

    default_rng(seed) is Generator(PCG64(SeedSequence(seed))), and nearly all
    of its cost is the SeedSequence. This runs SeedSequence's hashing for
    every stream at once, as uint32 arithmetic on one row per stream: the
    pool of 4 words (mix_entropy), then generate_state(4, np.uint64). PCG64
    seeds itself from those words (a, b, c, d) as inc = 2 (c 2^64 + d) + 1
    and state = ((inc + a 2^64 + b) M + inc), both mod 2^128, M its LCG
    multiplier. One PCG64 and one Generator, made for this call alone (a
    shared one would not be thread-safe), then take each stream's state in
    turn and draw from it. NumPy keeps both algorithms stable (NEP 19), and
    the tests pin the streams to default_rng's. The prefix must be a valid
    seed tuple already.
    """
    out = np.empty((count, *shape))
    # The prefix's words, then the index: one word, as count <= MAX_DRAWS.
    words = _entropy_words(prefix)
    width = max(4, len(words) + 1)
    entropy = np.zeros((count, width), dtype=np.uint32)
    entropy[:, :len(words)] = words
    entropy[:, len(words)] = np.arange(count)
    # Every row runs the same sequence of hashes, so one list of constants
    # serves all: 4 to fill the pool, 12 to mix it, 4 per word beyond it.
    before, after = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (width - 4))

    def hashmix(values, j, count):
        v = (values ^ before[j:j + count]) * after[j:j + count]
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        v = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return v ^ (v >> np.uint32(16))

    # A seed of fewer than 4 words hashes zeros in their place.
    pool = hashmix(entropy[:, :4], 0, 4)
    j = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], j, 3))
        j += 3
    # Words beyond the pool mix into every pool word.
    for src in range(4, width):
        pool = mix(pool, hashmix(entropy[:, src, None], j, 4))
        j += 4
    # generate_state: 8 words hashed from the pool cycled twice, read as 4
    # little-endian uint64.
    before, after = _hash_constants(_INIT_B, _MULT_B, 8)
    v = (np.tile(pool, 2) ^ before) * after
    seeded = (v ^ (v >> np.uint32(16))).astype("<u4").view("<u8").tolist()

    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for row, (a, b, c, d) in zip(out, seeded):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=row)
    return out


def _haar_columns(k: int, g: np.ndarray) -> np.ndarray:
    # The first k columns of one Haar unitary per Ginibre sample: g[t] holds
    # the real and imaginary parts of sample t as a 2 x n x n block of
    # standard normals. One stacked QR of the first k columns and one phase
    # fix serve all.
    z = (g[:, 0, :, :k] + 1j * g[:, 1, :, :k]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(n: int, seed=0) -> np.ndarray:
    """Haar-distributed n-by-n unitary.

    Ginibre sample, QR factorization, then rescale Q's columns so R's
    diagonal is real positive (F. Mezzadri, Notices AMS 54 (2007) 592);
    plain QR without the rescale is not Haar. It is the k = n case of the
    column sampler behind random_rank_k_projection.
    """
    require_count("n", n, 1)
    require_seed(seed)
    return _haar_columns(n, np.random.default_rng(seed).standard_normal((1, 2, n, n)))[0]


def require_unitary(u) -> np.ndarray:
    """Validate ||u*u - I||_F <= 1e-12 n and return u as a complex array."""
    u = as_matrix(u)
    n = u.shape[0]
    if frobenius(dagger(u) @ u - np.eye(n)) > UNITARY_TOL * n:
        raise NotUnitaryError("matrix is not unitary within 1e-12 * n")
    return u


def _rank_k_projections(k: int, g: np.ndarray) -> np.ndarray:
    """Haar-random rank-k projections from a drawn Ginibre stack: m = fl(V V*)
    for the n x k Haar columns V of each sample, certified from the k x k
    Gram matrix, with no further n x n product and no eigensolve.

    V holds the first k columns of the Haar unitary of haar_unitary's
    recipe, found by a QR of the first k Ginibre columns alone: Householder
    QR builds column j of Q and R[j, j] from Ginibre columns 0..j only, so
    they equal the full QR's (the tests pin that bit for bit up to n = 64),
    while each sample still holds all 2 n^2 normals.

    Let G = V*V - I and g = ||G||_F. P = V V* is Hermitian with the nonzero
    eigenvalues of V*V = I + G, so k of them lie within g of 1 and the other
    n - k are 0, and P^2 - P = V G V*, so ||P^2 - P||_F <= ||V||_2^2 g <=
    (1 + g) g. A complex product with inner dimension L is exact up to
    gamma_{L+2} <= (L + 2) eps times |A||B|, entry by entry, in any summation
    order (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.6),
    and || |V| |V|* ||_F <= ||V||_F^2 = k + tr G <= 2k while g <= 1. So
    m = P + E with ||E||_F <= 2k(k + 2) eps, and the computed
    gc = ||fl(V*V) - I||_F is within 2k(n + 2) eps + k^2 eps gc of g (g <= 1
    follows once gc <= 1/4). e = 16 k (n + 2) eps covers both products and the
    norm, so g <= gc + e, and:
    - the Hermitian part h = P + (E + E*)/2 has k eigenvalues within g + e of 1
      and n - k within e of 0 (Weyl);
    - ||m - m*||_F = ||E - E*||_F <= 2e;
    - m^2 - m = (P^2 - P) + PE + EP + E^2 - E, so ||m^2 - m||_F <=
      (1 + g) g + e (2(1 + g) + e + 1).
    A draw is proven when 4(gc + 2e) <= tol = DEFAULT_PROJECTION_TOL: then
    every eigenvalue of h is within tol/4 of {0, 1}, exactly k of them near 1,
    and both norms stay below tol, so m passes every test of projection_ranks
    with rank k, with the same factor 4 to spare that its own proof keeps.
    The draws this leaves open go to projection_ranks; NotAProjectionError if
    any of them is not a rank-k projection within DEFAULT_PROJECTION_TOL.
    """
    v = _haar_columns(k, g)
    ms = v @ dagger(v)
    n = ms.shape[-1]
    e = 16 * k * (n + 2) * EPS
    gram = np.linalg.norm(dagger(v) @ v - np.eye(k), axis=(-2, -1))
    open_draws = ~(4.0 * (gram + 2.0 * e) <= DEFAULT_PROJECTION_TOL)
    if open_draws.any() and np.any(projection_ranks(ms[open_draws])[0] != k):
        raise NotAProjectionError(f"a Haar draw is not certified as a rank-{k} projection "
                                  f"within {DEFAULT_PROJECTION_TOL}")
    return ms


def random_rank_k_projection(n: int, k: int, seed=0) -> Projection:
    """Haar-random rank-k projection U diag(1 x k, 0 x (n-k)) U*, with V the
    first k columns of haar_unitary(n, seed), drawn from
    np.random.default_rng(seed) and certified by _rank_k_projections.
    NotAProjectionError if it is not a rank-k projection within
    DEFAULT_PROJECTION_TOL."""
    require_count("n", n, 1)
    require_rank(k, n)
    require_seed(seed)
    g = np.random.default_rng(seed).standard_normal((1, 2, n, n))
    return Projection(matrix=_rank_k_projections(k, g)[0], rank=k, tol=DEFAULT_PROJECTION_TOL)


def random_hermitian(n: int, seed=0) -> np.ndarray:
    """GUE-style random Hermitian matrix with O(1) entries."""
    require_count("n", n, 1)
    require_seed(seed)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(z / np.sqrt(2.0))


def random_unit_vector(n: int, seed=0) -> np.ndarray:
    """Uniform random unit vector in C^n."""
    require_count("n", n, 1)
    require_seed(seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


def is_finite_float(x) -> bool:
    """math.isfinite(x), but False where x is an int beyond the float range,
    for which math.isfinite raises OverflowError."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def require_seed(seed):
    """Raise BadParameterError unless seed is a non-negative integer (booleans
    are not) or a tuple or list of them."""
    for entry in seed if isinstance(seed, (tuple, list)) else (seed,):
        if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)) or entry < 0:
            raise BadParameterError(
                f"seed={seed!r} must be a non-negative integer or a tuple or list of them")


def derive_seed(seed, *indices):
    """Extend a seed with stream indices, for independent sub-draws."""
    require_seed(seed)
    if isinstance(seed, (int, np.integer)):
        return (int(seed),) + tuple(indices)
    return tuple(seed) + tuple(indices)
