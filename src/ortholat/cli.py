"""Command-line entry point: verification suites, ortho-lattice operations
on user matrices, Jordan decomposition, and the anti-lattice witness.

Exit codes: 0 success, 1 suite failure / failing theorem4 record of ortho /
witness not found, 2 configuration error or comparable pair.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import OrtholatError
from .linalg import (
    frob,
    hermitian_eigendecompose,
    hermitian_matrix,
    matrix_from_json,
    matrix_to_json,
    rel_diff,
)
from .ortholattice import _checked_inf_sup, kadison_witness_search
from .suites import SUITES, run_suites
from .tolerances import DEFAULT_TOL

DEFAULT_SEED = 42


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortholat",
        description="Ortho-infimum/supremum toolkit and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (fallback: ORTHOLAT_SEED env, then 42)")
        p.add_argument("--out", type=str, default=None, help="output JSON path")
        p.add_argument("--tol-eq", type=float, default=None)
        p.add_argument("--tol-zero", type=float, default=None)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", type=str, default="all",
                    help=f"suite name or 'all' ({', '.join(SUITES)})")
    pv.add_argument("--dim", type=int, default=4)
    pv.add_argument("--trials", type=int, default=500)
    common(pv)

    po = sub.add_parser("ortho", help="ortho-infimum/supremum of two matrices")
    po.add_argument("--a", type=str, required=True, help="matrix JSON path")
    po.add_argument("--b", type=str, required=True, help="matrix JSON path")
    common(po)

    pd = sub.add_parser("decompose", help="Jordan decomposition of one matrix")
    pd.add_argument("--a", type=str, required=True, help="matrix JSON path")
    common(pd)

    pw = sub.add_parser("witness", help="construct a lower bound beating the ortho-infimum")
    pw.add_argument("--a", type=str, required=True, help="matrix JSON path (S)")
    pw.add_argument("--b", type=str, required=True, help="matrix JSON path (T)")
    pw.add_argument("--restarts", type=int, default=16,
                    help="ignored: the witness is constructed, not searched")
    pw.add_argument("--iters", type=int, default=2000,
                    help="ignored: the witness is constructed, not searched")
    common(pw)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ORTHOLAT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"ORTHOLAT_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _resolve_tol(args):
    overrides = {}
    if args.tol_eq is not None:
        overrides["tol_eq"] = args.tol_eq
    if args.tol_zero is not None:
        overrides["tol_zero"] = args.tol_zero
    return DEFAULT_TOL.override(**overrides) if overrides else DEFAULT_TOL


def _load_hermitian(path, tol):
    with open(path, "r", encoding="utf-8") as fh:
        m = matrix_from_json(json.load(fh))
    asym = rel_diff(m, m.conj().T)
    if asym > tol.tol_eq:
        print(f"warning: {path} is not Hermitian (asymmetry {asym:.3e}); "
              "symmetrizing", file=sys.stderr)
    return hermitian_matrix(m)


def _emit(report: dict, out_path: str | None) -> None:
    """Write the report as strict JSON: a value that left the float range
    (inf or NaN) is a ValueError, and nothing is written."""
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a value of the report left the float range, "
                         "so it has no JSON form") from None
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    tol = _resolve_tol(args)
    if not 1 <= args.dim <= 64:
        raise ValueError(f"--dim must be in [1, 64], got {args.dim}")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    results = run_suites(names, args.dim, args.trials, seed, tol)
    report = {
        "command": "verify",
        "seed": seed,
        "dim": args.dim,
        "trials": args.trials,
        "suites": results,
        "all_pass": all(r["pass"] for r in results),
    }
    _emit(report, args.out)
    return 0 if report["all_pass"] else 1


def cmd_ortho(args) -> int:
    seed = _resolve_seed(args)
    tol = _resolve_tol(args)
    a = _load_hermitian(args.a, tol)
    b = _load_hermitian(args.b, tol)
    inf, sup, rep = _checked_inf_sup(a, b, seed=seed, tol=tol)
    report = {
        "command": "ortho",
        "seed": seed,
        "inf": matrix_to_json(inf),
        "sup": matrix_to_json(sup),
        "theorem4": rep.to_json(),
    }
    _emit(report, args.out)
    return 0 if rep.holds else 1


def cmd_decompose(args) -> int:
    tol = _resolve_tol(args)
    a = _load_hermitian(args.a, tol)
    spectrum = hermitian_eigendecompose(a)
    pos, neg, absval = spectrum.jordan_parts()
    report = {
        "command": "decompose",
        "pos": matrix_to_json(pos),
        "neg": matrix_to_json(neg),
        "abs": matrix_to_json(absval),
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "norm": frob(a),
    }
    _emit(report, args.out)
    return 0


def cmd_witness(args) -> int:
    tol = _resolve_tol(args)
    if args.restarts < 1:
        raise ValueError("--restarts must be >= 1")
    if args.iters < 1:
        raise ValueError("--iters must be >= 1")
    s = _load_hermitian(args.a, tol)
    t = _load_hermitian(args.b, tol)
    result = kadison_witness_search(s, t, tol=tol)
    report = {"command": "witness", **result.to_json()}
    _emit(report, args.out)
    return 0 if result.found else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches our contract
        return int(exc.code or 0)
    handlers = {
        "verify": cmd_verify,
        "ortho": cmd_ortho,
        "decompose": cmd_decompose,
        "witness": cmd_witness,
    }
    try:
        return handlers[args.command](args)
    except (OrtholatError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
