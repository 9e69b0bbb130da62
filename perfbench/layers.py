"""Per-layer timing for the traced mode, kept outside wignerkit.

The traced run times calls into each module's public functions from here.
`traced_classify` times one `classify` call whole, then makes classify's
stage calls again one by one with the same arguments and seed streams, so
`classify` minus its stages is what the stages do not account for. The
calls nested inside the rank-k audit (`invert`, `random_rank_k_projection`,
`validate_projection`) are timed by a further direct replay of the audit.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time

import numpy as np

import wignerkit as wk
from wignerkit import cli
from wignerkit.errors import (
    DegenerateImageError,
    NotAProjectionError,
    NotHermitianError,
    NotWignerLikeError,
    SingularMapError,
)
from wignerkit.matrix_core import derive_seed
from wignerkit.serialize import (
    dumps,
    report_to_json,
    superop_from_json,
    superop_to_json,
)
from wignerkit.wigner import BASIS_SUBSET_CAP

# Timed calls, by layer. Each yields "<name>.ms" (median per call) and
# "<name>.calls" (calls timed in the run).
TIMED = (
    "superop.is_unital",
    "superop.is_hermiticity_preserving",
    "superop.positivity_certificate",
    "superop.invert",
    "wigner.classify",
    "wigner.preserves_rank_k",
    "wigner.extract_unitary",
    "matrix_core.random_rank_k_projection",
    "matrix_core.validate_projection",
    "genmaps.build_map",
    "serialize.superop_from_json",
    "serialize.superop_to_json",
    "serialize.report_to_json",
    "serialize.dumps",
    "cli.analyze",
    "cli.generate",
    "cli.json_load",
)

# Recorded values: name -> (unit, better, how the samples are summarized).
RECORDED = {
    "superop.positivity_certificate.converged_frac": ("ratio", "higher", "mean"),
    "wigner.classify.unaccounted_ms": ("ms", "lower", "median"),
    "wigner.preserves_rank_k.samples": ("count", "higher", "median"),
    "serialize.bytes_read": ("B", "lower", "median"),
    "serialize.bytes_written": ("B", "lower", "median"),
}

def per_layer_spec() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    spec = []
    for name in TIMED:
        spec.append({"name": f"{name}.ms", "unit": "ms", "better": "lower"})
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    for name, (unit, better, _) in RECORDED.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


class Untraced:
    """Pass-through used by untraced runs: calls are made, nothing is kept."""

    op = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def record(self, name, value):
        pass


class Tracer(Untraced):
    """Spans (name, operation index, start, end) and recorded values."""

    def __init__(self):
        self.op = -1
        self.spans: list[tuple[str, int, float, float]] = []
        self.values: dict[str, list[float]] = {}

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.op, start, time.perf_counter()))

    def record(self, name, value):
        self.values.setdefault(name, []).append(float(value))

    def metrics(self) -> dict:
        durations: dict[str, list[float]] = {}
        for name, _, start, end in self.spans:
            durations.setdefault(name, []).append(end - start)
        out = {}
        for name in TIMED:
            got = durations.get(name, [])
            # A layer a workload never calls spent no time: 0 ms over 0 calls.
            out[f"{name}.ms"] = {"value": statistics.median(got) * 1e3 if got else 0.0,
                                 "unit": "ms"}
            out[f"{name}.calls"] = {"value": len(got), "unit": "count"}
        for name, (unit, _, summary) in RECORDED.items():
            got = self.values.get(name, [])
            value = (statistics.fmean(got) if summary == "mean" else statistics.median(got)) \
                if got else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "start": start, "end": end}) + "\n")


def traced_classify(t: Tracer, s, k: int, cfg) -> tuple:
    """Time classify, then its stages, then the audit's nested calls.

    Returns classify's report and a list of disagreements between the report
    and the stage calls, which must be empty for the replay to be faithful.
    """
    report = t.call("wigner.classify", wk.classify, s, k, cfg)
    classify_s = t.spans[-1][3] - t.spans[-1][2]
    first_stage = len(t.spans)

    unital = t.call("superop.is_unital", wk.is_unital, s, cfg.unital_tol)
    hp = t.call("superop.is_hermiticity_preserving", wk.is_hermiticity_preserving,
                s, cfg.unital_tol)
    cert = None
    if hp:
        cert = t.call("superop.positivity_certificate", wk.positivity_certificate, s,
                      restarts=cfg.restarts, max_iters=cfg.max_iters,
                      tol=cfg.positivity_tol, seed=derive_seed(cfg.seed, 2))
        t.record("superop.positivity_certificate.converged_frac", cert.converged)
    audit_seed = derive_seed(cfg.seed, 3)
    audit = t.call("wigner.preserves_rank_k", wk.preserves_rank_k, s, k,
                   samples=cfg.samples, tol=cfg.projection_tol, seed=audit_seed)
    t.record("wigner.preserves_rank_k.samples", audit.samples)

    reasons = []
    if not unital:
        reasons.append("unital_violation")
    if not hp:
        reasons.append("hermiticity_violation")
    if hp and cert.min_value < -cfg.positivity_tol:
        reasons.append("positivity_violation")
    if not (audit.pass_fraction == 1.0 and audit.inverse_pass):
        reasons.append("rank_k_violation")
    form = None
    if not reasons:
        try:
            form = t.call("wigner.extract_unitary", wk.extract_unitary, s, cfg.decomposition_tol)
        except (NotWignerLikeError, DegenerateImageError):
            reasons.append("decomposition_failure")

    stages_s = sum(end - start for _, _, start, end in t.spans[first_stage:])
    t.record("wigner.classify.unaccounted_ms", (classify_s - stages_s) * 1e3)
    _replay_audit(t, s, k, cfg, audit_seed)

    problems = []
    if reasons != report.reasons:
        problems.append(f"stage calls give {reasons}, classify gave {report.reasons}")
    if cert is not None and cert.min_value != report.positivity.min_value:
        problems.append("positivity stage disagrees with classify")
    if audit != report.rank_k_audit:
        problems.append("rank-k audit stage disagrees with classify")
    if form is not None and (report.form is None or not np.array_equal(form.u, report.form.u)):
        problems.append("extraction stage disagrees with classify")
    return report, problems


def _replay_audit(t: Tracer, s, k: int, cfg, audit_seed) -> None:
    # The calls preserves_rank_k makes: invert once, then for the map (stream
    # 0) and its inverse (stream 1) every basis-subset projection and each
    # seeded random draw, each image validated as a projection.
    n = s.n
    try:
        inv = t.call("superop.invert", wk.invert, s)
    except SingularMapError:
        inv = None
    subsets = itertools.islice(itertools.combinations(range(n), k), BASIS_SUBSET_CAP)
    basis = [np.diag([1.0 + 0j if i in sub else 0j for i in range(n)]) for sub in subsets]
    for stream, target in ((0, s), (1, inv)):
        if target is None:
            continue
        tests = basis + [
            t.call("matrix_core.random_rank_k_projection", wk.random_rank_k_projection,
                   n, k, derive_seed(audit_seed, stream, i)).matrix
            for i in range(cfg.samples)]
        for q in tests:
            try:
                t.call("matrix_core.validate_projection", wk.validate_projection,
                       wk.apply(target, q), cfg.projection_tol)
            except (NotHermitianError, NotAProjectionError):
                pass


def traced_analyze(t: Tracer, argv: list[str], path: str, out: str, k: int, cfg) -> tuple:
    """Time `wignerkit analyze`, then the calls it makes one by one."""
    code = t.call("cli.analyze", cli.main, argv)
    t.record("serialize.bytes_read", os.path.getsize(path))
    with open(path, "r", encoding="utf-8") as fh:
        obj = t.call("cli.json_load", json.load, fh)
    s = t.call("serialize.superop_from_json", superop_from_json, obj)
    report, problems = traced_classify(t, s, k, cfg)
    payload = t.call("serialize.report_to_json", report_to_json, report)
    text = t.call("serialize.dumps", dumps, payload)
    t.record("serialize.bytes_written", len(text.encode()))
    with open(out, "r", encoding="utf-8") as fh:
        if fh.read() != text:
            problems.append("replayed report differs from the analyze output")
    return code, problems


def traced_generate(t: Tracer, argv: list[str], out: str, item) -> tuple:
    """Time `wignerkit generate`, then build_map, superop_to_json and dumps."""
    code = t.call("cli.generate", cli.main, argv)
    s = t.call("genmaps.build_map", wk.build_map, item.family, item.n, item.params, item.seed)
    payload = t.call("serialize.superop_to_json", superop_to_json, s)
    text = t.call("serialize.dumps", dumps, payload)
    t.record("serialize.bytes_written", len(text.encode()))
    with open(out, "r", encoding="utf-8") as fh:
        same = fh.read() == text
    return code, [] if same else ["replayed map file differs from the generate output"]
