"""Acceptance criteria, runnable as a self-test.

Each criterion is property-based at desk scale with fixed seeds, so a run
is deterministic. `run(full=True)` executes everything; `full=False` runs
the first three criteria at reduced size (n <= 5) for a fast smoke check.
The pytest acceptance module drives the same functions at full scale.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .genmaps import depolarizing, perturbed_wigner, pseudo_depolarizing, wigner_map
from .matrix_core import (
    frobenius,
    haar_unitary,
    hermitian_part,
    phase_distance,
    random_hermitian,
    random_rank_k_projection,
    random_unit_vector,
)
from .superop import ChoiMatrix, SuperOp, apply, from_choi, positivity_certificate, to_choi
from .wigner import (
    DIRECT,
    TRANSPOSE,
    ClassifyConfig,
    classify,
    definite_set_check,
    lemma1_projections,
    vector_state_partner,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _criterion(check):
    """A criterion from check(full) -> (passed, detail): the result is named
    after the function, and the call is timed."""
    @functools.wraps(check)
    def timed(full: bool = True) -> CriterionResult:
        t0 = time.perf_counter()
        passed, detail = check(full)
        return CriterionResult(check.__name__, passed, detail, time.perf_counter() - t0)
    return timed


def _wigner_trial(tag: int, t: int, n_max: int):
    # Trial t of the criterion seeded by tag: (n, k, variant, U, map) with
    # 2 <= n <= n_max, 1 <= k < n and a Haar-random U.
    rng = np.random.default_rng((tag, t))
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, n))
    variant = DIRECT if rng.integers(2) == 0 else TRANSPOSE
    u = haar_unitary(n, (tag, t, 1))
    return n, k, variant, u, wigner_map(u, variant)


@_criterion
def lemma1_identity(full: bool = True):
    """Rank-1 recovery from k+1 rank-k projections: residual <= 1e-12."""
    n_max = 8 if full else 5
    reps = 20 if full else 5
    worst, cases = 0.0, 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for r in range(reps):
                basis = haar_unitary(n, (10, n, k, r))
                dec = lemma1_projections(n, k, basis, which=r % n)
                worst = max(worst, dec.residual)
                cases += 1
    return worst <= 1e-12, f"max residual {worst:.2e} over {cases} decompositions"


@_criterion
def classification_round_trip(full: bool = True):
    """classify recovers (variant, U) from generated conjugation maps."""
    trials = 200 if full else 20
    n_max = 8 if full else 5
    failures = 0
    worst_res, worst_u = 0.0, 0.0
    for t in range(trials):
        n, k, variant, u, s = _wigner_trial(20, t, n_max)
        rep = classify(s, k, ClassifyConfig(seed=t))
        ok = rep.verdict == "wigner" and rep.form is not None and rep.form.variant == variant
        if ok:
            worst_res = max(worst_res, rep.form.residual)
            worst_u = max(worst_u, phase_distance(rep.form.u, u))
            ok = rep.form.residual <= 1e-9 and phase_distance(rep.form.u, u) <= 1e-8
        failures += not ok
    return failures == 0, (f"{trials - failures}/{trials} trials; worst residual "
                           f"{worst_res:.2e}, worst unitary error {worst_u:.2e}")


@_criterion
def hypothesis_ablation(full: bool = True):
    """Each hypothesis fails in isolation with the expected reason."""
    problems = []

    rep = classify(depolarizing(4, 0.5), 2, ClassifyConfig(seed=31))
    if not (rep.verdict == "not_wigner" and rep.reasons == ["rank_k_violation"]):
        problems.append(f"depolarizing: verdict={rep.verdict} reasons={rep.reasons}")

    rep = classify(pseudo_depolarizing(3, 1.0), 1, ClassifyConfig(seed=32))
    min_value = rep.positivity.min_value if rep.positivity else np.nan
    if not (rep.verdict == "not_wigner" and "positivity_violation" in rep.reasons
            and abs(min_value - (-1.0 / 3.0)) <= 1e-6):
        problems.append(f"pseudo_depolarizing: reasons={rep.reasons} min={min_value}")

    doubled_trace = SuperOp(3, 2.0 * depolarizing(3, 0.0).mat)
    rep = classify(doubled_trace, 1, ClassifyConfig(seed=33))
    if not (rep.verdict == "not_wigner" and "unital_violation" in rep.reasons):
        problems.append(f"doubled trace: reasons={rep.reasons}")

    return not problems, "; ".join(problems) if problems else "3/3 ablations as expected"


@_criterion
def variant_discriminator(full: bool = True):
    """Residual-chosen variant agrees with the Choi least-eigenvalue test."""
    failures = 0
    for t in range(100):
        _, k, _, _, s = _wigner_trial(40, t, 8)
        rep = classify(s, k, ClassifyConfig(samples=40, seed=4000 + t))
        lam = float(np.linalg.eigvalsh(hermitian_part(to_choi(s).mat))[0])
        if rep.verdict != "wigner":
            failures += 1
        elif rep.form.variant == DIRECT:
            failures += not (lam >= -1e-9)
        else:
            failures += not (abs(lam + 1.0) <= 1e-9)
    return failures == 0, f"{100 - failures}/100 maps consistent with Choi spectrum"


@_criterion
def vector_state_transfer(full: bool = True):
    """(phi(a) x, x) = (a y, y) with y from the recovered form."""
    worst = 0.0
    failures = 0
    for t in range(100):
        n, k, _, _, s = _wigner_trial(50, t, 6)
        rep = classify(s, k, ClassifyConfig(samples=40, seed=5000 + t))
        if rep.verdict != "wigner":
            failures += 1
            continue
        for j in range(100):
            a = random_hermitian(n, (50, t, j, 2))
            x = random_unit_vector(n, (50, t, j, 3))
            y = vector_state_partner(rep.form, x)
            lhs = np.vdot(x, apply(s, a) @ x)
            rhs = np.vdot(y, a @ y)
            worst = max(worst, abs(lhs - rhs))
    passed = failures == 0 and worst <= 1e-10
    return passed, f"worst transfer error {worst:.2e} over 100 maps x 100 pairs"


@_criterion
def definite_set_identity(full: bool = True):
    """||phi(Q) - phi(Q)^2||_F <= 1e-10 on sampled rank-k projections."""
    worst = 0.0
    failures = 0
    for t in range(100):
        n, k, _, _, s = _wigner_trial(60, t, 6)
        rep = classify(s, k, ClassifyConfig(samples=40, seed=6000 + t))
        if rep.verdict != "wigner":
            failures += 1
            continue
        for i in range(50):
            q = random_rank_k_projection(n, k, (60, t, i, 2))
            worst = max(worst, definite_set_check(s, q))
    passed = failures == 0 and worst <= 1e-10
    return passed, f"worst idempotency deviation {worst:.2e} over 100 maps x 50 projections"


@_criterion
def representation_round_trip(full: bool = True):
    """superop<->choi is an exact permutation, apply is linear."""
    failures = 0
    worst_lin = 0.0
    for t in range(1000):
        rng = np.random.default_rng((70, t))
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        s = SuperOp(n, m)
        if not np.array_equal(from_choi(to_choi(s)).mat, m):
            failures += 1
        if not np.array_equal(to_choi(from_choi(ChoiMatrix(n, m))).mat, m):
            failures += 1
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        al, be = complex(rng.standard_normal(), rng.standard_normal()), \
            complex(rng.standard_normal(), rng.standard_normal())
        lin = frobenius(apply(s, al * a + be * b) - al * apply(s, a) - be * apply(s, b))
        bound = 1e-12 * (frobenius(a) + frobenius(b))
        worst_lin = max(worst_lin, lin / bound * 1e-12)
        failures += not (lin <= bound)
    return failures == 0, (f"1000 exact round trips; worst linearity residual "
                           f"{worst_lin:.2e} (normalized)")


@_criterion
def positivity_calibration(full: bool = True):
    """Optimizer reproduces the closed-form least eigenvalue (1+mu)/n - mu."""
    worst = 0.0
    for n in range(2, 7):
        for frac in (0.5, 1.0, 2.0):
            mu = frac / (n - 1)
            cert = positivity_certificate(pseudo_depolarizing(n, mu),
                                          restarts=50, max_iters=500,
                                          tol=1e-9, seed=(80, n, int(frac * 2)))
            expected = (1.0 + mu) / n - mu
            worst = max(worst, abs(cert.min_value - expected))
    return worst <= 1e-6, f"max |min_value - closed form| = {worst:.2e} over 15 maps"


@_criterion
def perturbation_ladder(full: bool = True):
    """eps=1e-3 classifies wigner at tol 1e-2 with residual in [eps/10, 10 eps];
    eps=0.1 classifies not_wigner at default tolerances."""
    n, k = 3, 1
    failures = []
    for sd in range(20):
        u = haar_unitary(n, (90, sd))
        variant = DIRECT if sd % 2 == 0 else TRANSPOSE
        small = perturbed_wigner(u, variant, 1e-3, seed=(90, sd, 1))
        rep = classify(small, k, ClassifyConfig(seed=9000 + sd, tol=1e-2))
        if rep.verdict != "wigner" or not 1e-4 <= rep.form.residual <= 1e-2:
            res = rep.form.residual if rep.form else None
            failures.append(f"seed {sd} eps=1e-3: verdict={rep.verdict} residual={res}")
        big = perturbed_wigner(u, variant, 0.1, seed=(90, sd, 1))
        rep = classify(big, k, ClassifyConfig(seed=9000 + sd))
        if rep.verdict != "not_wigner":
            failures.append(f"seed {sd} eps=0.1: verdict={rep.verdict}")
    return not failures, "; ".join(failures) if failures else "20 seeds x 2 rungs as expected"


FULL_CRITERIA = (
    lemma1_identity,
    classification_round_trip,
    hypothesis_ablation,
    variant_discriminator,
    vector_state_transfer,
    definite_set_identity,
    representation_round_trip,
    positivity_calibration,
    perturbation_ladder,
)

QUICK_CRITERIA = (lemma1_identity, classification_round_trip, hypothesis_ablation)


def run(full: bool = True) -> list[CriterionResult]:
    criteria = FULL_CRITERIA if full else QUICK_CRITERIA
    return [criterion(full) for criterion in criteria]


def format_table(results: list[CriterionResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.detail}")
    total = sum(r.seconds for r in results)
    ok = sum(r.passed for r in results)
    lines.append(f"{ok}/{len(results)} criteria passed in {total:.1f}s")
    return "\n".join(lines)
