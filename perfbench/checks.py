"""Correctness checks for benchmark outputs, computed apart from wignerkit.

Every reference here is plain numpy written for the benchmark: the
column-stacking superoperator of a conjugation map, the superoperator/Choi
reshuffle, a map's image of one matrix, the least eigenvalue of phi(x x*)
read off the Choi blocks, and the closed forms of the control families.
A checker returns a list of problems; an empty list means the output is
right.

Reports reach the checkers as a `ReportView`, built either from a library
`AnalysisReport` or from a report file's JSON, so the library workloads and
the CLI workload share one set of checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

import numpy as np

# Closed-form and recovery tolerances.
PHASE_TOL = 1e-8          # recovered U vs generating U, up to a global phase
RESIDUAL_TOL = 1e-9       # extraction residual on an exact conjugation map
CLOSED_FORM_TOL = 1e-6    # positivity minimum vs its closed form
WITNESS_TOL = 1e-9        # re-evaluated witness vs reported min_value
BUILD_TOL = 1e-12         # a generated map vs its independent construction
BASIS_SUBSET_CAP = 100    # standard-basis subsets the rank-k audit adds

RANK_K = "rank_k_violation"
UNITAL = "unital_violation"
POSITIVITY = "positivity_violation"


def vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).reshape(-1, order="F")


def image(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """phi(a) for the column-stacking superoperator s."""
    n = a.shape[0]
    return (s @ vec(a)).reshape(n, n, order="F")


def conjugation_superop(u: np.ndarray, variant: str) -> np.ndarray:
    """Superoperator of a -> U a U* (direct) or a -> U a^t U* (transpose)."""
    n = u.shape[0]
    s = np.kron(u.conj(), u)
    if variant == "transpose":
        # Column i + n j of the transpose map is column j + n i of the direct one.
        s = s[:, np.arange(n * n).reshape(n, n).T.reshape(-1)]
    return s


def superop_of_action(n: int, action) -> np.ndarray:
    """Superoperator whose column i + n j is vec(action(E_ij))."""
    s = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        for i in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            s[:, i + n * j] = vec(action(e))
    return s


def _trace_map(n: int) -> np.ndarray:
    # a -> tr(a) I / n
    v = vec(np.eye(n, dtype=complex))
    return np.outer(v, v) / n


def reference_superop(family: str, n: int, params: dict, u=None) -> np.ndarray:
    """Superoperator of a generator family member, built from its definition."""
    if family == "wigner":
        return conjugation_superop(u, params["variant"])
    if family == "depolarizing":
        lam = params["lambda"]
        return lam * np.eye(n * n) + (1 - lam) * _trace_map(n)
    if family == "pseudo_depolarizing":
        mu = params["mu"]
        return (1 + mu) * _trace_map(n) - mu * np.eye(n * n)
    raise ValueError(f"no closed-form construction for {family!r}")


def choi_of(s: np.ndarray, n: int) -> np.ndarray:
    """sum_ij E_ij kron phi(E_ij), with phi(E_ij)[a, b] = s[a + n b, i + n j]."""
    return s.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


def superop_of_choi(c: np.ndarray, n: int) -> np.ndarray:
    """Inverse of choi_of (the axis swap is an involution)."""
    return choi_of(c, n)


def least_value_at(c: np.ndarray, n: int, x: np.ndarray) -> float:
    """lambda_min(phi(x x*)), with phi(x x*) = sum_ij x_i conj(x_j) block_ij(C)."""
    blocks = c.reshape(n, n, n, n)
    m = np.einsum("i,iajb,j->ab", x, blocks, x.conj())
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def phase_gap(u: np.ndarray, v: np.ndarray) -> float:
    """min over theta of ||u - e^{i theta} v||_F."""
    t = np.vdot(v, u)
    c = t / abs(t) if abs(t) > 0 else 1.0
    return float(np.linalg.norm(u - c * v))


def unital_deviation(s: np.ndarray, n: int) -> float:
    eye = np.eye(n, dtype=complex)
    return float(np.linalg.norm(image(s, eye) - eye))


def choi_map(n: int = 3) -> np.ndarray:
    """Choi's positive, non-decomposable map on 3x3 matrices, scaled by 1/2.

    phi(x) = (diag(x11 + x33, x11 + x22, x22 + x33) - offdiag(x)) / 2, which
    is unital; its least value over rank-1 inputs is 0 (at x = e1).
    """
    def action(x):
        d = np.diag([x[0, 0] + x[2, 2], x[0, 0] + x[1, 1], x[1, 1] + x[2, 2]])
        return (d - (x - np.diag(np.diag(x)))) / 2
    return superop_of_action(n, action)


def indefinite_choi(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian Choi matrix with a planted product vector of value -1.

    With p = conj(x0) kron y0 for unit x0, y0, the value y0* phi(x0 x0*) y0 is
    p* C p; subtracting (p* C p + 1) p p* makes it exactly -1, so the map is
    proven non-positive whatever the rest of C is.
    """
    d = n * n
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = (z + z.conj().T) / 2
    x0, y0 = (_unit(rng, n) for _ in range(2))
    p = np.kron(x0.conj(), y0)
    c = c - (np.real(np.vdot(p, c @ p)) + 1.0) * np.outer(p, p.conj())
    return (c + c.conj().T) / 2


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


def matrix_from_file_json(obj) -> np.ndarray:
    """Read a {"n", "data": [[[re, im], ...], ...]} matrix."""
    a = np.asarray(obj["data"], dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def map_file_json(s: np.ndarray, n: int, repr_tag: str) -> dict:
    """A map file in the documented wire format, written without wignerkit."""
    m = s if repr_tag == "superop" else choi_of(s, n)
    return {"n": n, "convention": "column-stacking", "repr": repr_tag,
            "data": {"n": n * n, "data": np.stack([m.real, m.imag], axis=-1).tolist()}}


def audit_size(n: int, k: int, samples: int) -> int:
    """Forward projections one rank-k audit tests: random draws plus subsets."""
    return samples + min(comb(n, k), BASIS_SUBSET_CAP)


@dataclass
class ReportView:
    """The fields of one classification that the checks read."""

    verdict: str
    reasons: list
    variant: str | None
    u: np.ndarray | None
    residual: float | None
    unital: bool
    hermiticity_preserving: bool
    min_value: float | None
    witness: np.ndarray | None
    pass_fraction: float
    inverse_pass: bool
    samples: int


def view_of_report(report) -> ReportView:
    cert, audit, form = report.positivity, report.rank_k_audit, report.form
    return ReportView(
        verdict=report.verdict, reasons=list(report.reasons),
        variant=form.variant if form else None, u=form.u if form else None,
        residual=form.residual if form else None, unital=report.unital,
        hermiticity_preserving=report.hermiticity_preserving,
        min_value=cert.min_value if cert else None,
        witness=cert.witness if cert else None,
        pass_fraction=audit.pass_fraction, inverse_pass=audit.inverse_pass,
        samples=audit.samples)


def view_of_json(obj: dict) -> ReportView:
    hyp = obj["hypotheses"]
    pos, audit = hyp["positivity"], hyp["rank_k_audit"]
    return ReportView(
        verdict=obj["verdict"], reasons=list(obj["reasons"]), variant=obj["variant"],
        u=None if obj["unitary"] is None else matrix_from_file_json(obj["unitary"]),
        residual=obj["residual"], unital=hyp["unital"],
        hermiticity_preserving=hyp["hermiticity_preserving"],
        min_value=None if pos is None else pos["min_value"], witness=None,
        pass_fraction=audit["pass_fraction"], inverse_pass=audit["inverse_pass"],
        samples=audit["samples"])


def check_classification(item, view: ReportView) -> list[str]:
    """Check one classification of `item` against the independent references.

    `item` carries family, n, k, params, samples, unital_tol, the reference
    superoperator `ref` (numpy), and for Wigner maps the generating unitary
    `u`; for the random indefinite maps also its Choi matrix `choi`.
    """
    fam = item.family
    if fam == "wigner":
        return _check_accept(item, view)
    problems = _check_rejection(item, view)
    if fam == "depolarizing":
        lam = item.params["lambda"]
        problems += _near("min_value", view.min_value, (1 - lam) / item.n)
    elif fam == "pseudo_depolarizing":
        mu = item.params["mu"]
        problems += _near("min_value", view.min_value, (1 + mu) / item.n - mu)
    elif fam == "perturbed_wigner" and view.min_value < -WITNESS_TOL:
        problems.append(f"min_value {view.min_value:.3e} < 0 on a sum of CP maps")
    elif fam == "choi":
        if not -WITNESS_TOL <= view.min_value <= CLOSED_FORM_TOL:
            problems.append(f"min_value {view.min_value:.3e} is not the closed-form 0")
    elif fam == "indefinite":
        problems += _check_indefinite(item, view)
    return problems


def expected_reasons(item) -> list[str]:
    """Closed-form reasons for a rejected family member, in classify's order."""
    n, fam = item.n, item.family
    reasons = []
    if unital_deviation(item.ref, n) > item.unital_tol:
        reasons.append(UNITAL)
    if fam == "pseudo_depolarizing" and item.params["mu"] > 1.0 / (n - 1):
        reasons.append(POSITIVITY)
    if fam == "indefinite":
        reasons.append(POSITIVITY)
    reasons.append(RANK_K)
    return reasons


def _check_accept(item, view: ReportView) -> list[str]:
    problems = []
    if view.verdict != "wigner" or view.reasons:
        problems.append(f"verdict {view.verdict} {view.reasons} on a Wigner map")
        return problems
    if view.variant != item.params["variant"]:
        problems.append(f"variant {view.variant}, generated {item.params['variant']}")
    gap = phase_gap(view.u, item.u)
    if not gap <= PHASE_TOL:
        problems.append(f"recovered U is {gap:.3e} from the generating U up to phase")
    if not view.residual <= RESIDUAL_TOL:
        problems.append(f"residual {view.residual:.3e} > {RESIDUAL_TOL}")
    if view.samples != audit_size(item.n, item.k, item.samples):
        problems.append(f"audit tested {view.samples} projections")
    return problems


def _check_rejection(item, view: ReportView) -> list[str]:
    problems = []
    want = expected_reasons(item)
    if view.verdict != "not_wigner" or view.reasons != want:
        problems.append(f"verdict {view.verdict} {view.reasons}, expected not_wigner {want}")
    if view.u is not None or view.variant is not None:
        problems.append("a rejected map carries a recovered form")
    if view.unital != (UNITAL not in want):
        problems.append(f"unital={view.unital} against a deviation of "
                        f"{unital_deviation(item.ref, item.n):.3e}")
    if not view.hermiticity_preserving or view.min_value is None:
        problems.append("a Hermiticity-preserving map was reported as not one")
        return problems
    # Depolarizing and pseudo-depolarizing send every rank-k projection to a
    # matrix with two eigenvalues off {0, 1}, and so do their inverses.
    if item.family in ("depolarizing", "pseudo_depolarizing"):
        if view.pass_fraction != 0.0:
            problems.append(f"rank-k pass fraction {view.pass_fraction}, closed form 0")
        if view.inverse_pass:
            problems.append("inverse audit passed on a map whose inverse spoils projections")
    elif not view.pass_fraction < 1.0:
        problems.append("every audited projection passed on a non-Wigner map")
    if view.samples != audit_size(item.n, item.k, item.samples):
        problems.append(f"audit tested {view.samples} projections")
    return problems


def _check_indefinite(item, view: ReportView) -> list[str]:
    problems = []
    floor = float(np.linalg.eigvalsh(item.choi)[0])
    if not (floor - WITNESS_TOL <= view.min_value < 0.0):
        problems.append(f"min_value {view.min_value:.6e} outside "
                        f"[lambda_min(C) = {floor:.6e}, 0) on a proven non-positive map")
    if view.witness is not None:
        again = least_value_at(item.choi, item.n, np.asarray(view.witness))
        if not abs(again - view.min_value) <= WITNESS_TOL:
            problems.append(f"witness re-evaluates to {again:.12e}, "
                            f"reported {view.min_value:.12e}")
    return problems


def _near(name: str, got, want: float) -> list[str]:
    if got is None or not abs(got - want) <= CLOSED_FORM_TOL:
        return [f"{name} {got} is not the closed form {want:.9f}"]
    return []


def check_analyze(item, exit_code: int, report_text: str) -> list[str]:
    """An `analyze` call: exit code, then the report file's content."""
    want = 0 if item.family == "wigner" else 1
    if exit_code != want:
        return [f"analyze exit code {exit_code}, expected {want}"]
    return check_classification(item, view_of_json(json.loads(report_text)))


def check_generate(exit_code: int, data: bytes | None, built: np.ndarray) -> list[str]:
    """A `generate` call: exit 0 and a file holding exactly the built matrix.

    With data None only the exit code is checked.
    """
    if exit_code != 0:
        return [f"generate exit code {exit_code}, expected 0"]
    if data is None:
        return []
    obj = json.loads(data)
    if obj.get("repr") != "superop" or obj.get("convention") != "column-stacking":
        return [f"generated file has repr {obj.get('repr')!r}, "
                f"convention {obj.get('convention')!r}"]
    m = matrix_from_file_json(obj["data"])
    if m.shape != built.shape or not np.array_equal(m, built):
        return ["generated file does not load to the matrix that was built"]
    return []


def check_built(item, built: np.ndarray) -> list[str]:
    """A program-built superoperator against its independent construction.

    A perturbed Wigner map is checked by its closed-form distance: the noise
    term is normalized, so ||S - S_wigner(U)||_F is exactly epsilon.
    """
    if item.family == "perturbed_wigner":
        dist = float(np.linalg.norm(built - conjugation_superop(item.u, item.params["variant"])))
        err = abs(dist - item.params["epsilon"])
    else:
        err = float(np.max(np.abs(built - item.ref)))
    return [] if err <= BUILD_TOL else [f"{item.family} n={item.n}: built map is "
                                        f"{err:.3e} off its independent construction"]
