"""Command line front end.

Subcommands: graph, predict, verify, factor, decompose, density.
Exit codes: 0 success / verified, 1 verification mismatch, 2 usage
error, 3 refused input (ramified prime, p = ell, enumeration cap).
All output is deterministic: identical argv gives identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .factor import (decompose_prime, factor_pattern_actual,
                     factor_pattern_predicted)
from .ffield import check_domain, make_field
from .graph import DEFAULT_CAP, build_graph, export_dot, summarize
from .predict import (periodic_density, predict_summary, structure_params,
                      tower_density, tower_limit)
from .verify import verify_instance


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebdyn",
        description="functional graphs of degree-ell Chebyshev maps over "
                    "finite fields, factorization patterns, and prime "
                    "decomposition in the associated radical towers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, n_default=1, with_t=False, with_n=True):
        sp.add_argument("--ell", type=int, required=True,
                        help="prime degree of the Chebyshev map")
        sp.add_argument("--p", type=int, required=True,
                        help="odd prime, the field characteristic")
        if with_n:
            sp.add_argument("--n", type=int, default=n_default,
                            help=f"extension degree / tower level "
                                 f"(default {n_default})")
        if with_t:
            sp.add_argument("--t", type=int, required=True,
                            help="integer translate")
        sp.add_argument("--format", choices=("table", "json"),
                        default="table", help="output format")
        sp.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")

    sp = sub.add_parser("graph", help="enumerate the graph and summarize")
    common(sp)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help="enumeration cap on p^n")
    sp.add_argument("--dot", metavar="PATH",
                    help="also write a DOT rendering to PATH")

    sp = sub.add_parser("predict", help="closed-form summary, no enumeration")
    common(sp)

    sp = sub.add_parser("verify",
                        help="brute force against every prediction")
    common(sp)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)

    sp = sub.add_parser("factor",
                        help="predicted and actual pattern of T_ell^n - t")
    common(sp, with_t=True)

    sp = sub.add_parser("decompose",
                        help="residue degrees over p in the radical tower")
    common(sp, with_t=True, with_n=False)
    sp.add_argument("--max-level", type=int, default=4,
                    help="deepest tower level to report (default 4)")

    sp = sub.add_parser("density", help="exact periodic density")
    common(sp)
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "graph":
            check_domain(args.ell, args.p, args.n, args.cap)
            g = build_graph(args.ell, make_field(args.p, args.n),
                            cap=args.cap)
            s = summarize(g)
            if args.dot:
                with open(args.dot, "w", encoding="utf-8") as fh:
                    fh.write(export_dot(g))
            if args.format == "json":
                _emit(_json(s.to_json_obj()), args.out)
            else:
                _emit(s.table_str() + "\n", args.out)
            return 0

        if args.command == "predict":
            params = structure_params(args.ell, args.p, args.n)
            s = predict_summary(args.ell, args.p, args.n)
            if args.format == "json":
                _emit(_json({"params": params.to_json_obj(),
                             "summary": s.to_json_obj()}), args.out)
            else:
                head = (f"mu={params.mu} D1={params.d1} D2={params.d2} "
                        f"v={params.v} lambda-=({params.lambda_minus}) "
                        f"omega-=({params.omega_minus}) "
                        f"lambda+=({params.lambda_plus}) "
                        f"omega+=({params.omega_plus})\n")
                _emit(head + s.table_str() + "\n", args.out)
            return 0

        if args.command == "verify":
            rep = verify_instance(args.ell, args.p, args.n, cap=args.cap)
            if args.format == "json":
                _emit(_json(rep.to_json_obj()), args.out)
            else:
                _emit("\n".join(rep.lines()) + "\n", args.out)
            return 0 if rep.ok else 1

        if args.command == "factor":
            # the capped route first: it refuses before any work
            actual = factor_pattern_actual(args.ell, args.p, args.n, args.t)
            predicted = factor_pattern_predicted(args.ell, args.p, args.n,
                                                 args.t)
            agree = predicted == actual
            if args.format == "json":
                _emit(_json({"predicted": predicted.to_json_obj(),
                             "actual": actual.to_json_obj(),
                             "match": agree}), args.out)
            else:
                _emit(f"T_{args.ell}^{args.n} - {args.t} mod {args.p}\n"
                      f"predicted: {predicted}\n"
                      f"actual:    {actual}\n"
                      f"match: {'yes' if agree else 'NO'}\n", args.out)
            return 0 if agree else 1

        if args.command == "decompose":
            rep = decompose_prime(args.ell, args.t, args.p, args.max_level)
            if args.format == "json":
                _emit(_json(rep.to_json_obj()), args.out)
            else:
                _emit(rep.table_str() + "\n", args.out)
            return 0

        if args.command == "density":
            check_domain(args.ell, args.p, args.n)
            # printed in full, 2 p^n must fit Python's int-to-str limit;
            # n > 3 limit is past it without forming p^n (3^n > 10^limit)
            limit = sys.get_int_max_str_digits()
            if limit and (args.n > 3 * limit
                          or 2 * args.p ** args.n >= 10 ** limit):
                raise ValueError(
                    f"the density's denominator 2 * {args.p}^{args.n} has "
                    f"more than {limit} digits, the limit of Python's "
                    f"int-to-str conversion (sys.get_int_max_str_digits)")
            dens = periodic_density(args.ell, args.p, args.n)
            lim = tower_limit(args.ell)
            a, lam, tdens = tower_density(args.ell, args.p, min(args.n, 8))
            if args.format == "json":
                _emit(_json({"density": str(dens), "tower_limit": str(lim),
                             "tower_level_exponent": a,
                             "tower_lambda_m": lam,
                             "tower_density": str(tdens)}), args.out)
            else:
                _emit(f"density of periodic vertices: {dens}\n"
                      f"tower density at level {min(args.n, 8)} "
                      f"(field exponent {a}, lambda_m={lam}): {tdens}\n"
                      f"tower limit: {lim}\n", args.out)
            return 0
    except ValueError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 3
    return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
