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
import sys

from . import selftest
from .errors import WignerkitError
from .genmaps import build_map
from .matrix_core import haar_unitary
from .serialize import (
    dumps,
    family_spec_from_json,
    matrix_to_json,
    report_to_json,
    superop_from_json,
    superop_to_json,
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
    p.add_argument("--samples", type=int, default=100, help="random projections per audit")
    p.add_argument("--seed", type=int, default=None, help="audit RNG seed")
    p.add_argument("--tol", type=float, default=None,
                   help="override the whole tolerance ladder with one value")
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


def _cmd_analyze(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        s = superop_from_json(json.load(fh))
    seed = args.seed if args.seed is not None else default_seed()
    cfg = ClassifyConfig(samples=args.samples, seed=seed)
    if args.tol is not None:
        cfg = cfg.with_tolerance(args.tol)
    report = classify(s, args.k, cfg)
    text = dumps(report_to_json(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.verdict == "wigner" else 1


def _cmd_generate(args) -> int:
    raw = args.spec.strip()
    if raw.startswith("{"):
        spec = json.loads(raw)
    else:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    family, n, params, seed = family_spec_from_json(spec)
    if seed is None:
        seed = default_seed()
    s = build_map(family, n, params, seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps(superop_to_json(s)))
    return 0


def _cmd_lemma(args) -> int:
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
