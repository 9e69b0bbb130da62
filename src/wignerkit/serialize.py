"""JSON wire formats for matrices, superoperators, and analysis reports.

Matrix JSON:   {"n": int, "data": [[[re, im], ...n entries], ...n rows]}
SuperOp JSON:  {"n": int, "convention": "column-stacking",
                "repr": "superop" | "choi", "data": <matrix JSON of size n^2>}
               (written as "superop"; "choi" is read only)
Report JSON:   {"verdict", "reasons", "variant", "unitary", "residual",
                "hypotheses"}
Generator spec: {"family", "n", "params", "seed"}, no other key; params
               holds only the keys its family reads (see genmaps.build_map)

Only the column-stacking convention is accepted; a mismatching tag is a
load error, never silently reinterpreted. JSON true/false load as bool, a
subclass of int, so numeric fields compare their type exactly and reject
booleans.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .errors import SerializationError
from .matrix_core import MAX_DIMENSION, as_complex, is_finite_float
from .superop import CONVENTION, ChoiMatrix, SuperOp, from_choi
from .wigner import AnalysisReport


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_complex(m)
    return {"n": int(m.shape[0]), "data": np.stack([m.real, m.imag], axis=-1).tolist()}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "data" not in obj:
        raise SerializationError("matrix JSON must have keys 'n' and 'data'")
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise SerializationError(f"matrix dimension must be a positive integer, got {n!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != n:
        raise SerializationError(f"matrix data must have {n} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise SerializationError(f"row {i} must have {n} entries")
    # Entry t of `entries` is (t // n, t % n); value v of `values` is entry v // 2.
    entries = list(chain.from_iterable(data))
    pairs = (all(issubclass(t, list) for t in set(map(type, entries)))
             and set(map(len, entries)) == {2})
    values = list(chain.from_iterable(entries)) if pairs else []
    if not pairs or not set(map(type, values)) <= {int, float}:
        t = next(t for t, e in enumerate(entries) if not _is_pair(e))
        raise SerializationError(f"entry {divmod(t, n)} must be a [re, im] pair")
    try:
        flat = np.array(values, dtype=float)
        finite = np.isfinite(flat).all()
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        v = next(v for v, x in enumerate(values) if not is_finite_float(x))
        raise SerializationError(f"entry {divmod(v // 2, n)} is not a finite float")
    return flat.view(complex).reshape(n, n)


def _is_pair(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2
            and all(type(x) in (int, float) for x in entry))


def superop_to_json(s: SuperOp) -> dict:
    """The superoperator JSON of s, with "repr" "superop": the one
    representation written. Files with "repr" "choi" are read, not written."""
    return {**superop_document(s), "data": matrix_to_json(s.mat)}


def superop_document(s: SuperOp) -> dict:
    """superop_to_json(s) with its matrix block's "data" left as S's own
    n^2 x n^2 complex array, which dump and dumps write as the nested list,
    byte for byte, without building it."""
    return {
        "n": s.n,
        "convention": CONVENTION,
        "repr": "superop",
        "data": {"n": int(s.mat.shape[0]), "data": s.mat},
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
    for key in obj:
        if key not in ("family", "n", "params", "seed"):
            raise SerializationError(f"generator spec has unknown key {key!r}; "
                                     "expected family, n, params and seed")
    for key in ("family", "n"):
        if key not in obj:
            raise SerializationError(f"generator spec missing key {key!r}")
    family = obj["family"]
    n = obj["n"]
    if not isinstance(family, str):
        raise SerializationError("family must be a string")
    if type(n) is not int or not 1 <= n <= MAX_DIMENSION:
        raise SerializationError(f"n must be an integer in 1..{MAX_DIMENSION}, got {n!r}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SerializationError("params must be an object")
    seed = obj.get("seed")
    if seed is not None and type(seed) is not int:
        raise SerializationError("seed must be an integer")
    return family, n, params, seed


# json.dumps writes the placeholder "\x00<i>" for block i as "\u0000<i>".
_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def dumps(obj) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline.

    Byte for byte json.dumps(obj, indent=2, sort_keys=True) + "\\n", where a
    complex ndarray stands for its nested list of [re, im] pairs.
    """
    return "".join(iterdumps(obj))


def dump(obj, fh) -> None:
    """Write dumps(obj) to the text file fh, each piece as soon as it is made."""
    fh.writelines(iterdumps(obj))


def iterdumps(obj) -> Iterator[str]:
    """The pieces of dumps(obj), in order, a matrix row at a time.

    With an indent, json encodes in pure Python, so each matrix-JSON "data"
    block of finite floats, beside an integer "n", is formatted here, one row
    at a time, and spliced into the json.dumps text of the rest in place of a
    placeholder string. A block may be a square complex ndarray: its rows
    are formatted from their float views, and no nested list is built.
    """
    blocks = []
    parts = _PLACEHOLDER.split(
        json.dumps(_set_aside(obj, 0, blocks), indent=2, sort_keys=True, default=_pairs))
    if len(parts) != 2 * len(blocks) + 1:  # a string in obj holds a NUL and renders alike
        yield json.dumps(obj, indent=2, sort_keys=True, default=_pairs) + "\n"
        return
    for t, part in enumerate(parts):
        if t % 2:
            yield from _format_block(*blocks[int(part)])
        else:
            yield part
    yield "\n"


def _pairs(value):
    """json.dumps' default: a complex ndarray as its nested [re, im] lists."""
    if isinstance(value, np.ndarray) and value.dtype == complex:
        return np.stack([value.real, value.imag], axis=-1).tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _set_aside(value, level: int, blocks: list):
    """Copy of value, found at nesting depth `level`, with each matrix block
    _block_rows accepts replaced by a placeholder; blocks gets the block's
    dimension, rows and indent."""
    if isinstance(value, list):
        return [_set_aside(v, level + 1, blocks) for v in value]
    if not isinstance(value, dict):
        return value
    out = {}
    for key, v in value.items():
        rows = None
        if key == "data" and type(value.get("n")) is int:
            rows = _block_rows(v)
        if rows is None:
            out[key] = _set_aside(v, level + 1, blocks)
        else:
            out[key] = f"\x00{len(blocks)}"
            blocks.append((len(v), rows, 2 * level + 2))
    return out


def _block_rows(data):
    """The rows of a matrix block, each as its flat list of floats re, im,
    re, im, ...: lazily for a square complex ndarray of finite entries, and
    checked up front for a square list of [re, im] pairs of finite floats.
    None for any other value."""
    if isinstance(data, np.ndarray):
        if (data.dtype != complex or data.ndim != 2 or data.shape[0] != data.shape[1]
                or not data.size or not np.isfinite(data).all()):
            return None
        return (np.ascontiguousarray(r).view(float).tolist() for r in data)
    if not isinstance(data, list) or not data:
        return None
    n = len(data)
    rows = []
    for r in data:
        if not (isinstance(r, list) and len(r) == n
                and all(issubclass(t, list) for t in set(map(type, r)))
                and set(map(len, r)) == {2}):
            return None
        values = list(chain.from_iterable(r))
        if set(map(type, values)) != {float} or not all(map(math.isfinite, values)):
            return None
        rows.append(values)
    return rows


def _format_block(n: int, rows, indent: int) -> Iterator[str]:
    """json.dumps of an n x n block of [re, im] pairs, indent=2, a row at a
    time, for a value whose key is indented by `indent` spaces."""
    row, entry, part = ("\n" + " " * (indent + d) for d in (2, 4, 6))
    pair = f"[{part}%r,{part}%r{entry}]"
    body = f"[{entry}" + f",{entry}".join([pair] * n) + f"{row}]"
    template = f"[{row}" + body
    for values in rows:
        yield template % tuple(values)
        template = f",{row}" + body
    yield "\n" + " " * indent + "]"
