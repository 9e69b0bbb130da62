"""The vectorised classify stages against per-element reference loops.

Each reference is the plain loop over public calls that the stage replaces:
one `apply` per Hermitian basis element, per matrix unit or per test
projection, and one `validate_projection` per image. The stages read every
phi(E_ij) off one view of the superoperator, so these tests pin that view
and the stacked arithmetic to the loops, map by map.
"""

import itertools

import numpy as np
import pytest

from wignerkit import (
    ChoiMatrix,
    NotAProjectionError,
    NotHermitianError,
    SingularMapError,
    SuperOp,
    apply,
    build_map,
    extract_unitary,
    from_action,
    from_choi,
    invert,
    is_hermiticity_preserving,
    preserves_rank_k,
    random_rank_k_projection,
    validate_projection,
)
from wignerkit.matrix_core import derive_seed
from wignerkit.wigner import BASIS_SUBSET_CAP, TRANSPOSE

DIMS = (2, 3, 5, 8)
KINDS = ("wigner", "wigner_transpose", "depolarizing", "pseudo_depolarizing",
         "perturbed", "random_hp", "random")


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def make_map(kind: str, n: int, seed: int) -> SuperOp:
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


def ref_hermiticity_preserving(s: SuperOp, tol: float) -> bool:
    n = s.n
    basis = [_unit(n, i, i) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        basis.append(_unit(n, i, j) + _unit(n, j, i))
        basis.append(1j * (_unit(n, i, j) - _unit(n, j, i)))
    for h in basis:
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
    s = make_map(kind, n, 3)
    for tol in (1e-14, 1e-12, 1e-10, 1e-8, 1e-3):
        assert is_hermiticity_preserving(s, tol) == ref_hermiticity_preserving(s, tol)


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


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_extraction_residual_matches_per_unit_loop(kind, n):
    # A tolerance of 100 also loosens the rank-1 gate, so every map yields a form.
    s = make_map(kind, n, 7)
    form = extract_unitary(s, tol=100.0)
    assert abs(form.residual - ref_residual(s, form.u, form.variant)) <= 1e-12
