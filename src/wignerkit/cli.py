"""Command-line front end.

Verbs: analyze (classify a superoperator file), generate (write a family
member), lemma (print a rank-1 recovery decomposition), selftest (run the
acceptance criteria). Exit codes: 0 success/wigner, 1 not-wigner or failed
selftest, 2 input error. WIGNERKIT_SEED overrides the default seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys

from . import selftest
from .errors import BadParameterError, SerializationError, WignerkitError
from .genmaps import build_map
from .matrix_core import MAX_DIMENSION, MAX_DRAWS, haar_unitary
from .serialize import (
    dump,
    dumps,
    family_spec_from_json,
    matrix_to_json,
    report_to_json,
    superop_document,
    superop_from_json,
)
from .wigner import ClassifyConfig, classify, lemma1_projections


def default_seed() -> int:
    return int(os.environ.get("WIGNERKIT_SEED", "0"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wignerkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="classify a superoperator file")
    p.add_argument("file", help="superoperator JSON file")
    p.add_argument("--k", type=int, required=True, help="projection rank to audit")
    p.add_argument("--samples", type=int, default=100,
                   help=f"random projections per audit, at most {MAX_DRAWS}")
    p.add_argument("--seed", type=int, default=None, help="audit RNG seed")
    p.add_argument("--tol", type=float, default=None,
                   help="one tolerance in (0, 1) for every check (positivity at least "
                        "1e-9); default: the tolerance ladder")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("generate", help="write a generated map to a file")
    p.add_argument("--spec", required=True,
                   help="generator spec: a JSON file path or an inline JSON object")
    p.add_argument("--out", required=True, help="output superoperator file")

    p = sub.add_parser("lemma", help="print a rank-1 recovery decomposition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="Haar-random basis seed (default: standard basis)")

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true", help="criteria 1-3 at n <= 5")
    group.add_argument("--full", action="store_true", help="all criteria (default)")
    return parser


def _parse_json(text: str, source: str):
    """json.loads, with input nested too deeply for the parser refused as a
    SerializationError instead of a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SerializationError(f"{source} is JSON nested too deeply to parse") from None


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read(), path)


def _cmd_analyze(args) -> int:
    s = superop_from_json(_read_json(args.file))
    seed = args.seed if args.seed is not None else default_seed()
    report = classify(s, args.k, ClassifyConfig(samples=args.samples, seed=seed, tol=args.tol))
    if args.out:
        _write_through_temporary(args.out, report_to_json(report))
    else:
        sys.stdout.write(dumps(report_to_json(report)))
    return 0 if report.verdict == "wigner" else 1


def _cmd_generate(args) -> int:
    raw = args.spec.strip()
    spec = _parse_json(raw, "--spec") if raw.startswith("{") else _read_json(args.spec)
    family, n, params, seed = family_spec_from_json(spec)
    if seed is None:
        seed = default_seed()
    s = build_map(family, n, params, seed)
    _write_through_temporary(args.out, superop_document(s))
    return 0


def _write_through_temporary(path: str, obj) -> None:
    """dump obj into a new file beside path's target, renamed onto it once the
    last piece is written and removed on any error, so the target is never
    left truncated. A path that exists but does not lead to a regular file
    by its real path (a pipe, a device, /dev/stdout) is written directly."""
    target = os.path.realpath(path)
    if os.path.exists(path) and not (os.path.isfile(target) and os.path.samefile(path, target)):
        with open(path, "w", encoding="utf-8") as fh:
            dump(obj, fh)
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            dump(obj, fh)
        if os.path.isfile(target):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_lemma(args) -> int:
    if args.n > MAX_DIMENSION:
        raise BadParameterError(f"--n={args.n} must be at most {MAX_DIMENSION}")
    basis = None if args.seed is None else haar_unitary(args.n, args.seed)
    dec = lemma1_projections(args.n, args.k, basis)
    payload = {
        "n": args.n,
        "k": dec.k,
        "residual": dec.residual,
        "p": matrix_to_json(dec.p.matrix),
        "projections": [matrix_to_json(q.matrix) for q in dec.Ps],
        "ranks": [q.rank for q in dec.Ps],
    }
    sys.stdout.write(dumps(payload))
    return 0


def _cmd_selftest(args) -> int:
    results = selftest.run(full=not args.quick)
    sys.stdout.write(selftest.format_table(results) + "\n")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "generate": _cmd_generate,
        "lemma": _cmd_lemma,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.verb](args)
    except (WignerkitError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
