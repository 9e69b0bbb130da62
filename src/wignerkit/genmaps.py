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

from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError, BadRankError
from .matrix_core import (
    derive_seed,
    frobenius,
    haar_unitary,
    random_hermitian,
    require_unitary,
)
from .superop import SuperOp, vec
from .wigner import DIRECT, TRANSPOSE

FAMILIES = ("wigner", "depolarizing", "pseudo_depolarizing", "perturbed_wigner")


@dataclass
class MapFamily:
    """A generator instance with its expected audit outcomes.

    expected holds {unital, positive, rank_k_preserving, wigner}; a wigner
    map necessarily satisfies the other three.
    """

    name: str
    parameters: dict
    expected: dict

    def __post_init__(self):
        if self.expected.get("wigner") and not all(
                self.expected.get(key) for key in ("unital", "positive", "rank_k_preserving")):
            raise BadParameterError("wigner flag requires all three hypothesis flags")


def _transpose_columns(n: int) -> np.ndarray:
    # a -> a^t sends E_ij to E_ji: superoperator columns i + n j and j + n i swap.
    return np.arange(n * n).reshape(n, n).T.reshape(-1)


def transpose_superop(n: int) -> SuperOp:
    """Superoperator of a -> a^t (a 0/1 permutation matrix)."""
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
    if not 0.0 <= lam <= 1.0:
        raise BadParameterError(f"lambda={lam} outside [0, 1]")
    return SuperOp(n, lam * np.eye(n * n, dtype=complex) + (1.0 - lam) * _trace_superop(n))


def pseudo_depolarizing(n: int, mu: float) -> SuperOp:
    """a -> (1 + mu) tr(a) I / n - mu a.

    Unital for every mu >= 0. On rank-1 inputs the least output eigenvalue
    is (1 + mu)/n - mu, so the map stops being positive exactly when
    mu > 1/(n-1).
    """
    if mu < 0.0:
        raise BadParameterError(f"mu={mu} must be nonnegative")
    return SuperOp(n, (1.0 + mu) * _trace_superop(n) - mu * np.eye(n * n, dtype=complex))


def perturbed_wigner(u, variant: str, eps: float, seed=0) -> SuperOp:
    """wigner_map(u, variant) + eps G for unit-Frobenius random noise G.

    G is the superoperator of a -> H a H with a seeded random Hermitian H,
    normalized to ||G||_F = 1; it preserves Hermiticity (and positivity), so
    the perturbation degrades only unitality and projection preservation.
    """
    base = wigner_map(u, variant)
    h = random_hermitian(base.n, derive_seed(seed, 1))
    g = np.kron(h.T, h)
    g = g / frobenius(g)
    return SuperOp(base.n, base.mat + eps * g)


def build_map(name: str, n: int, params: dict | None = None, seed=0) -> SuperOp:
    """Construct a family member from its generator spec fields."""
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


def _require_param(params: dict, key: str) -> float:
    if key not in params:
        raise BadParameterError(f"family parameter {key!r} is required")
    return float(params[key])


def expected_flags(name: str, n: int, params: dict | None, k: int) -> MapFamily:
    """Ground-truth audit outcomes for a family member at audit rank k."""
    if not 1 <= k < n:
        raise BadRankError(f"rank k={k} must satisfy 1 <= k < n={n}")
    params = dict(params or {})
    if name == "wigner":
        flags = {"unital": True, "positive": True, "rank_k_preserving": True, "wigner": True}
    elif name == "depolarizing":
        lam = _require_param(params, "lambda")
        preserved = lam == 1.0
        flags = {"unital": True, "positive": True,
                 "rank_k_preserving": preserved, "wigner": preserved}
    elif name == "pseudo_depolarizing":
        mu = _require_param(params, "mu")
        positive = mu <= 1.0 / (n - 1) + 1e-12
        # mu = 1 on n = 2k sends Q to I - Q, again a rank-k projection; for
        # n = 2 that map is U a^t U* with U = [[0, -1], [1, 0]].
        preserved = mu == 1.0 and n == 2 * k
        flags = {"unital": True, "positive": positive,
                 "rank_k_preserving": preserved, "wigner": preserved and positive}
    elif name == "perturbed_wigner":
        eps = _require_param(params, "epsilon")
        exact = eps == 0.0
        flags = {"unital": exact, "positive": True,
                 "rank_k_preserving": exact, "wigner": exact}
    else:
        raise BadParameterError(f"unknown family {name!r}; expected one of {FAMILIES}")
    return MapFamily(name=name, parameters=params, expected=flags)
