"""JSON wire formats for matrices, superoperators, and analysis reports.

Matrix JSON:   {"n": int, "data": [[[re, im], ...n entries], ...n rows]}
SuperOp JSON:  {"n": int, "convention": "column-stacking",
                "repr": "superop" | "choi", "data": <matrix JSON of size n^2>}
Report JSON:   {"verdict", "reasons", "variant", "unitary", "residual",
                "hypotheses"}
Generator spec: {"family", "n", "params", "seed"}

Only the column-stacking convention is accepted; a mismatching tag is a
load error, never silently reinterpreted. JSON true/false load as bool, a
subclass of int, so numeric fields compare their type exactly and reject
booleans.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import SerializationError
from .superop import CONVENTION, ChoiMatrix, SuperOp, from_choi, to_choi
from .wigner import AnalysisReport


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "n": int(m.shape[0]),
        "data": [[[float(x.real), float(x.imag)] for x in row] for row in m],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "data" not in obj:
        raise SerializationError("matrix JSON must have keys 'n' and 'data'")
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise SerializationError(f"matrix dimension must be a positive integer, got {n!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != n:
        raise SerializationError(f"matrix data must have {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise SerializationError(f"row {i} must have {n} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(type(x) in (int, float) for x in entry)):
                raise SerializationError(f"entry ({i}, {j}) must be a [re, im] pair")
            re, im = float(entry[0]), float(entry[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise SerializationError(f"entry ({i}, {j}) is not finite")
            out[i, j] = complex(re, im)
    return out


def superop_to_json(s: SuperOp, repr_tag: str = "superop") -> dict:
    if repr_tag == "superop":
        data = s.mat
    elif repr_tag == "choi":
        data = to_choi(s).mat
    else:
        raise SerializationError(f"unknown repr {repr_tag!r}; expected 'superop' or 'choi'")
    return {
        "n": s.n,
        "convention": CONVENTION,
        "repr": repr_tag,
        "data": matrix_to_json(data),
    }


def superop_from_json(obj) -> SuperOp:
    if not isinstance(obj, dict):
        raise SerializationError("superoperator JSON must be an object")
    for key in ("n", "convention", "repr", "data"):
        if key not in obj:
            raise SerializationError(f"superoperator JSON missing key {key!r}")
    if obj["convention"] != CONVENTION:
        raise SerializationError(
            f"convention mismatch: file says {obj['convention']!r}, "
            f"this toolkit uses {CONVENTION!r}")
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise SerializationError(f"dimension must be a positive integer, got {n!r}")
    mat = matrix_from_json(obj["data"])
    if mat.shape != (n * n, n * n):
        raise SerializationError(
            f"data is {mat.shape[0]}x{mat.shape[1]}, expected {n * n}x{n * n} for n={n}")
    if obj["repr"] == "superop":
        return SuperOp(n, mat)
    if obj["repr"] == "choi":
        return from_choi(ChoiMatrix(n, mat))
    raise SerializationError(f"unknown repr {obj['repr']!r}; expected 'superop' or 'choi'")


def report_to_json(report: AnalysisReport) -> dict:
    cert = report.positivity
    audit = report.rank_k_audit
    return {
        "verdict": report.verdict,
        "reasons": list(report.reasons),
        "variant": report.form.variant if report.form else None,
        "unitary": matrix_to_json(report.form.u) if report.form else None,
        "residual": float(report.form.residual) if report.form else None,
        "hypotheses": {
            "unital": report.unital,
            "hermiticity_preserving": report.hermiticity_preserving,
            "positivity": None if cert is None else {
                "min_value": float(cert.min_value),
                "restarts": int(cert.restarts),
                "converged": bool(cert.converged),
            },
            "rank_k_audit": {
                "k": audit.k,
                "samples": audit.samples,
                "pass_fraction": float(audit.pass_fraction),
                "max_residual": float(audit.max_residual),
                "inverse_pass": bool(audit.inverse_pass),
            },
        },
    }


def family_spec_from_json(obj) -> tuple[str, int, dict, int | None]:
    """Parse a generator spec into (family, n, params, seed or None)."""
    if not isinstance(obj, dict):
        raise SerializationError("generator spec must be a JSON object")
    for key in ("family", "n"):
        if key not in obj:
            raise SerializationError(f"generator spec missing key {key!r}")
    family = obj["family"]
    n = obj["n"]
    if not isinstance(family, str):
        raise SerializationError("family must be a string")
    if type(n) is not int or n < 1:
        raise SerializationError(f"n must be a positive integer, got {n!r}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SerializationError("params must be an object")
    seed = obj.get("seed")
    if seed is not None and type(seed) is not int:
        raise SerializationError("seed must be an integer")
    return family, n, params, seed


def dumps(obj) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
