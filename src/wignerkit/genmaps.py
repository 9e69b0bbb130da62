"""Generators of control maps exercising each classification hypothesis.

Families (column-stacking superoperators throughout):

* wigner            a -> U a U* or a -> U a^t U*: passes everything.
* depolarizing      a -> lam a + (1-lam) tr(a) I/n: positive and unital,
                    breaks rank-k preservation for lam < 1.
* pseudo_depolarizing  a -> (1+mu) tr(a) I/n - mu a: always unital, breaks
                    positivity exactly when mu > 1/(n-1).
* perturbed_wigner  wigner plus eps times a normalized Hermiticity-
                    preserving noise map, for tolerance calibration.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameterError
from .matrix_core import (
    derive_seed,
    frobenius,
    haar_unitary,
    hermitian_part,
    random_hermitian,
    random_unit_vector,
    require_count,
    require_real,
    require_seed,
    require_unitary,
)
from .superop import ChoiMatrix, SuperOp, from_action, from_choi, vec
from .wigner import DIRECT, TRANSPOSE

FAMILIES = ("wigner", "depolarizing", "pseudo_depolarizing", "perturbed_wigner")


def _transpose_columns(n: int) -> np.ndarray:
    # a -> a^t sends E_ij to E_ji: superoperator columns i + n j and j + n i swap.
    return vec(np.arange(n * n).reshape(n, n))


def transpose_superop(n: int) -> SuperOp:
    """Superoperator of a -> a^t (a 0/1 permutation matrix)."""
    require_count("n", n, 1)
    return SuperOp(n, np.eye(n * n, dtype=complex)[:, _transpose_columns(n)])


def wigner_map(u, variant: str = DIRECT) -> SuperOp:
    """Superoperator of a -> U a U* (direct) or a -> U a^t U* (transpose).

    Under column stacking the direct map is conj(U) kron U; the transpose
    variant composes with the transpose first, which permutes its columns.
    A global phase on U cancels, so e^{i alpha} U yields the identical
    superoperator.
    """
    u = require_unitary(u)
    n = u.shape[0]
    s = np.kron(u.conj(), u)
    if variant == TRANSPOSE:
        s = s[:, _transpose_columns(n)]
    elif variant != DIRECT:
        raise BadParameterError(f"unknown variant {variant!r}")
    return SuperOp(n, s)


def _trace_superop(n: int) -> np.ndarray:
    # a -> tr(a) I / n as a rank-1 superoperator.
    v = vec(np.eye(n, dtype=complex))
    return np.outer(v, v.conj()) / n


def depolarizing(n: int, lam: float) -> SuperOp:
    """a -> lam a + (1 - lam) tr(a) I / n.

    Unital and positive for lam in [0, 1]; every rank-k projection maps to
    a matrix with spectrum {lam + (1-lam) k/n, (1-lam) k/n}, so rank-k
    preservation fails for every lam < 1.
    """
    require_count("n", n, 1)
    lam = require_real("family parameter lambda", lam)
    if not 0.0 <= lam <= 1.0:
        raise BadParameterError(f"lambda={lam} outside [0, 1]")
    return SuperOp(n, lam * np.eye(n * n, dtype=complex) + (1.0 - lam) * _trace_superop(n))


def pseudo_depolarizing(n: int, mu: float) -> SuperOp:
    """a -> (1 + mu) tr(a) I / n - mu a.

    Unital for every mu >= 0. On rank-1 inputs the least output eigenvalue
    is (1 + mu)/n - mu, so the map stops being positive exactly when
    mu > 1/(n-1).
    """
    require_count("n", n, 1)
    mu = require_real("family parameter mu", mu)
    if mu < 0.0:
        raise BadParameterError(f"mu={mu} must be nonnegative")
    return SuperOp(n, (1.0 + mu) * _trace_superop(n) - mu * np.eye(n * n, dtype=complex))


def perturbed_wigner(u, variant: str, eps: float, seed=0) -> SuperOp:
    """wigner_map(u, variant) + eps G for unit-Frobenius random noise G.

    G is the superoperator of a -> H a H with a seeded random Hermitian H,
    normalized to ||G||_F = 1; it preserves Hermiticity (and positivity), so
    the perturbation degrades only unitality and projection preservation.
    """
    eps = require_real("family parameter epsilon", eps)
    base = wigner_map(u, variant)
    h = random_hermitian(base.n, derive_seed(seed, 1))
    g = np.kron(h.T, h)
    g = g / frobenius(g)
    return SuperOp(base.n, base.mat + eps * g)


def choi_map() -> SuperOp:
    """Choi's positive map on 3x3 matrices, scaled by 1/2 to be unital.

    phi(x) = (diag(x11 + x33, x11 + x22, x22 + x33) - offdiag(x)) / 2. It is
    positive but not decomposable, so neither it nor phi o T is completely
    positive. The least value of lambda_min(phi(x x*)) over unit x is 0,
    attained at x = e1: phi(e1 e1*) = diag(1, 1, 0) / 2.
    """
    def action(x):
        d = np.diag([x[0, 0] + x[2, 2], x[0, 0] + x[1, 1], x[1, 1] + x[2, 2]])
        return (d - (x - np.diag(np.diag(x)))) / 2
    return from_action(3, action)


def planted_indefinite(n: int, seed=0) -> SuperOp:
    """A Hermiticity-preserving map with a planted product vector of value -1.

    Its Choi matrix C is a seeded random Hermitian matrix minus
    (p* C p + 1) p p*, where p = conj(x0) kron y0 for seeded unit vectors x0
    and y0. Since y0* phi(x0 x0*) y0 = p* C p = -1, the least value of
    lambda_min(phi(x x*)) over unit x is at most -1 (and at least
    lambda_min(C)), so the map is not positive whatever the rest of C is.
    """
    require_count("n", n, 1)
    c = random_hermitian(n * n, derive_seed(seed, 0))
    x0, y0 = (random_unit_vector(n, derive_seed(seed, i)) for i in (1, 2))
    p = np.kron(x0.conj(), y0)
    c = c - (np.real(np.vdot(p, c @ p)) + 1.0) * np.outer(p, p.conj())
    return from_choi(ChoiMatrix(n, hermitian_part(c)))


def build_map(name: str, n: int, params: dict | None = None, seed=0) -> SuperOp:
    """Construct a family member from its generator spec fields. The seed is
    checked for every family, though only the two Wigner families draw from it."""
    require_seed(seed)
    params = params or {}
    if name == "wigner":
        return wigner_map(haar_unitary(n, derive_seed(seed, 0)),
                          params.get("variant", DIRECT))
    if name == "depolarizing":
        return depolarizing(n, _require_param(params, "lambda"))
    if name == "pseudo_depolarizing":
        return pseudo_depolarizing(n, _require_param(params, "mu"))
    if name == "perturbed_wigner":
        return perturbed_wigner(haar_unitary(n, derive_seed(seed, 0)),
                                params.get("variant", DIRECT),
                                _require_param(params, "epsilon"), seed)
    raise BadParameterError(f"unknown family {name!r}; expected one of {FAMILIES}")


def _require_param(params: dict, key: str):
    if key not in params:
        raise BadParameterError(f"family parameter {key!r} is required")
    return params[key]

