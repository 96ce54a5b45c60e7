"""Command line front end.

Subcommands: graph, predict, verify, factor, decompose, density.
Exit codes: 0 success / verified, 1 verification mismatch, 2 usage
error (an output path that cannot be written among them), 3 refused
input (ramified prime, p = ell, enumeration cap).
All output is deterministic: identical argv gives identical bytes.

Each subcommand is one function of the parsed arguments returning
(json object, table text, exit code); main prints one of the two.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from functools import cache
from typing import Optional

from .factor import (decompose_prime, factor_pattern_actual,
                     factor_pattern_predicted)
from .ffield import check_domain, make_field
from .graph import DEFAULT_CAP, build_graph, export_dot, summarize
from .predict import (periodic_density, predict_summary, structure_params,
                      tower_density, tower_limit)
from .verify import verify_instance


# The deepest tower level `chebdyn decompose` reports.  A level's report
# grows with the level (about L entries of up to L log10(ell) digits), so
# the output grows as the cube of the level count.  Measured on a 2-core
# host, interpreter start included, the slowest probe (ell = 431, t = 105,
# p = 13) took 0.31 s for the table and 0.43 s for --format json at 128
# levels, and 0.44 and 0.69 s at 200; at ell = 2, 14,284 levels took
# 3.9 s and printed 31.2 MB, and at ell = 5 (t = 105, p = 13) 1,000
# levels printed 128 MB.
MAX_LEVEL = 128


def _check_printable(what: str, base: int, exp: int, coef: int = 1) -> None:
    """Refuse (ValueError) what, the integer coef * base^exp with base >= 2,
    when it may have more digits than Python's int-to-str conversion
    allows; past 2^(4 limit) the power is never formed."""
    limit = sys.get_int_max_str_digits()
    if limit and (exp * (base.bit_length() - 1) >= 4 * limit
                  or coef * base ** exp >= 10 ** limit):
        raise ValueError(
            f"{what} has more than {limit} digits, the limit of Python's "
            "int-to-str conversion (sys.get_int_max_str_digits)")


def _graph(args):
    # the domain and the cap before make_field, which would otherwise
    # search for a modulus of any degree n
    check_domain(args.ell, args.p, args.n, args.cap)
    g = build_graph(args.ell, make_field(args.p, args.n), cap=args.cap)
    s = summarize(g)
    # opened only now: a refused graph leaves the DOT file as it was
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            export_dot(g, fh)
    return s.to_json_obj(), s.table_str(), 0


def _predict(args):
    # the summary first: it refuses a p^n past the factoring bound unformed
    s = predict_summary(args.ell, args.p, args.n)
    params = structure_params(args.ell, args.p, args.n)
    head = (f"mu={params.mu} D1={params.d1} D2={params.d2} v={params.v} "
            f"lambda-=({params.lambda_minus}) omega-=({params.omega_minus}) "
            f"lambda+=({params.lambda_plus}) omega+=({params.omega_plus})")
    return ({"params": params.to_json_obj(), "summary": s.to_json_obj()},
            head + "\n" + s.table_str(), 0)


def _verify(args):
    rep = verify_instance(args.ell, args.p, args.n, cap=args.cap)
    return rep.to_json_obj(), rep.table_str(), 0 if rep.ok else 1


def _factor(args):
    # the capped route first: it refuses before any work
    actual = factor_pattern_actual(args.ell, args.p, args.n, args.t)
    predicted = factor_pattern_predicted(args.ell, args.p, args.n, args.t)
    agree = predicted == actual
    return ({"predicted": predicted.to_json_obj(),
             "actual": actual.to_json_obj(), "match": agree},
            f"T_{args.ell}^{args.n} - {args.t} mod {args.p}\n"
            f"predicted: {predicted}\n"
            f"actual:    {actual}\n"
            f"match: {'yes' if agree else 'NO'}", 0 if agree else 1)


def _decompose(args):
    check_domain(args.ell, args.p)
    # a residue degree of level L is at most ell^L, printed in full
    _check_printable(f"the degree bound {args.ell}^{args.max_level} of "
                     f"level {args.max_level}", args.ell, args.max_level)
    if args.max_level > MAX_LEVEL:
        raise ValueError(f"--max-level {args.max_level} exceeds the limit "
                         f"{MAX_LEVEL}")
    rep = decompose_prime(args.ell, args.t, args.p, args.max_level)
    return rep.to_json_obj(), rep.table_str(), 0


def _density(args):
    check_domain(args.ell, args.p, args.n)
    # the denominator 2 p^n is printed in full
    _check_printable(f"the density's denominator 2 * {args.p}^{args.n}",
                     args.p, args.n, 2)
    dens = periodic_density(args.ell, args.p, args.n)
    lim = tower_limit(args.ell)
    level = min(args.n, 8)
    a, lam, tdens = tower_density(args.ell, args.p, level)
    return ({"density": str(dens), "tower_limit": str(lim),
             "tower_level_exponent": a, "tower_lambda_m": lam,
             "tower_density": str(tdens)},
            f"density of periodic vertices: {dens}\n"
            f"tower density at level {level} "
            f"(field exponent {a}, lambda_m={lam}): {tdens}\n"
            f"tower limit: {lim}", 0)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call
    of main in the process."""
    parser = argparse.ArgumentParser(
        prog="chebdyn",
        description="functional graphs of degree-ell Chebyshev maps over "
                    "finite fields, factorization patterns, and prime "
                    "decomposition in the associated radical towers")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, about, with_t=False, with_n=True):
        sp = sub.add_parser(name, help=about)
        sp.set_defaults(run=run)
        sp.add_argument("--ell", type=int, required=True,
                        help="prime degree of the Chebyshev map")
        sp.add_argument("--p", type=int, required=True,
                        help="odd prime, the field characteristic")
        if with_n:
            sp.add_argument("--n", type=int, default=1,
                            help="extension degree / tower level (default 1)")
        if with_t:
            sp.add_argument("--t", type=int, required=True,
                            help="integer translate")
        sp.add_argument("--format", choices=("table", "json"),
                        default="table", help="output format")
        sp.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
        return sp

    sp = command("graph", _graph, "enumerate the graph and summarize")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help="enumeration cap on p^n")
    sp.add_argument("--dot", metavar="PATH",
                    help="also write a DOT rendering to PATH")
    command("predict", _predict, "closed-form summary, no enumeration")
    sp = command("verify", _verify, "brute force against every prediction")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    command("factor", _factor,
            "predicted and actual pattern of T_ell^n - t", with_t=True)
    sp = command("decompose", _decompose,
                 "residue degrees over p in the radical tower",
                 with_t=True, with_n=False)
    sp.add_argument("--max-level", type=int, default=4,
                    help="deepest tower level to report (default 4)")
    command("density", _density, "exact periodic density")
    return parser


def _check_writable(path: str) -> None:
    """Raise the OSError that open(path, "w") would raise for a path that
    cannot be written (a missing or unwritable directory, a directory, an
    unwritable file), without creating the file: --out and --dot are
    checked before any work, and written only once the subcommand has
    answered."""
    def fail(code):
        raise OSError(code, os.strerror(code), path)

    if os.path.isdir(path):
        fail(errno.EISDIR)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        fail(errno.ENOENT if not os.path.exists(folder) else errno.ENOTDIR)
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        fail(errno.EACCES)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for path in (args.out, getattr(args, "dot", None)):
            if path:
                _check_writable(path)
        obj, text, code = args.run(args)
        if args.format == "json":
            text = json.dumps(obj, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except ValueError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 3
    except OSError as exc:  # an output path that cannot be written
        sys.stderr.write(f"cannot write output: {exc}\n")
        return 2
    if not args.out:
        sys.stdout.write(text + "\n")
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
