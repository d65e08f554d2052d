"""Batch front end.

Subcommands: trop, bound-system, strassmann, wdiv, mixed-volume,
term-deriv.  Inputs are the JSON documents defined in formats.py; output
is JSON (stdout or --output, written atomically).  Exit codes: 0 success,
2 input error, 3 precision error, 4 genericity failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bounds import WBoundOracle, system_root_bound
from .errors import (
    FormatError,
    GenericityFailure,
    PrecisionExhausted,
    TropPadicError,
)
from .formats import (
    dump_json,
    frac_str,
    is_prime,
    load_json_file,
    parse_frac,
    polytope_from_dict,
    series_from_dict,
    series_to_dict,
    trop_data_to_dict,
    write_atomic,
)
from .polyhedra import mixed_volume
from .series import Budget, ParamSeries, strassmann_count, weierstrass_divide
from .terms import default_registry, derive_term, parse_term, print_term
from .tropical import render_svg, trop_complex

SEED_ENV = "TROPPADIC_SEED"


def build_parser():
    ap = argparse.ArgumentParser(prog="troppadic")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("-o", "--output", help="write the JSON report here")
        return sp

    def domain_flag(sp):
        sp.add_argument("--domain", help="comma list of rationals or 'none' per variable")

    sp = command("trop", "tropicalization report (and SVG at n=2)")
    sp.add_argument("input")
    sp.add_argument("--svg", help="write a deterministic SVG here")
    domain_flag(sp)

    sp = command("bound-system", "uniform root-count bound report")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--seed", help=f"random seed (or {SEED_ENV}); required")

    sp = command("strassmann", "unit-ball zero count")
    sp.add_argument("input")
    domain_flag(sp)

    sp = command("wdiv", "Weierstrass division report")
    sp.add_argument("divisor")
    sp.add_argument("dividend")
    sp.add_argument("--prec", type=int, default=16, help="valuation budget")
    sp.add_argument("--deg", type=int, default=12, help="degree budget")
    domain_flag(sp)

    sp = command("mixed-volume", "mixed volume of polytopes")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument(
        "--normalization",
        choices=("coefficient", "normalized"),
        default="coefficient",
    )

    sp = command("term-deriv", "derivative of a term expression")
    sp.add_argument("expr")
    sp.add_argument("--prime", type=int, default=5, help="prime of the term registry")
    sp.add_argument("--var", help="variable name (default: first)")
    sp.add_argument("--order", type=int, default=1)

    return ap


def _parse_domain(text, nvars):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != nvars:
        raise FormatError(f"domain needs {nvars} entries")
    return tuple(None if s.strip() == "none" else parse_frac(s.strip()) for s in parts)


def _emit(args, payload: str):
    if args.output:
        write_atomic(args.output, payload)
    else:
        sys.stdout.write(payload)


def _load_series(path, args):
    f = series_from_dict(load_json_file(path))
    dom = _parse_domain(args.domain, f.nvars)
    if dom is not None:
        from .series import RestrictedSeries

        f = RestrictedSeries(f.p, f.nvars, f.terms, tail=f.tail, domain=dom)
    return f


def cmd_trop(args):
    f = _load_series(args.input, args)
    data = trop_complex(f)
    _emit(args, dump_json(trop_data_to_dict(data)))
    if args.svg:
        if f.nvars != 2:
            raise FormatError("SVG output needs a two-variable series")
        write_atomic(args.svg, render_svg(data))
    return 0


def cmd_bound_system(args):
    seed = args.seed or os.environ.get(SEED_ENV)
    if seed is None:
        raise FormatError("bound-system requires --seed or TROPPADIC_SEED")
    system = [
        ParamSeries.from_series(series_from_dict(load_json_file(path)))
        for path in args.inputs
    ]
    report = system_root_bound(system, WBoundOracle(), seed)
    _emit(args, report.to_json())
    return 0


def cmd_strassmann(args):
    f = _load_series(args.input, args)
    n = strassmann_count(f)
    _emit(args, dump_json({"schema_version": 1, "count": n}))
    return 0


def cmd_wdiv(args):
    f = _load_series(args.divisor, args)
    g = _load_series(args.dividend, args)
    q, a = weierstrass_divide(f, g, Budget(args.prec, args.deg))
    _emit(
        args,
        dump_json(
            {
                "schema_version": 1,
                "quotient": series_to_dict(q),
                "remainders": [series_to_dict(x) for x in a],
            }
        ),
    )
    return 0


def cmd_mixed_volume(args):
    polys = [polytope_from_dict(load_json_file(path)) for path in args.inputs]
    if any(poly.ambient != len(polys) for poly in polys):
        dims = sorted({poly.ambient for poly in polys})
        raise FormatError(
            f"mixed volume needs n polytopes in dimension n, got {len(polys)} in {dims}"
        )
    mv = mixed_volume(polys, args.normalization)
    _emit(
        args,
        dump_json(
            {
                "schema_version": 1,
                "normalization": args.normalization,
                "value": frac_str(mv),
            }
        ),
    )
    return 0


def cmd_term_deriv(args):
    p = args.prime
    if not is_prime(p):
        raise FormatError(f"prime {p} is not a prime")
    registry = default_registry(p)
    term, names = parse_term(args.expr, registry=registry)
    if not names:
        names = ["x"]
    var = args.var or names[0]
    if var not in names:
        raise FormatError(f"unknown variable {var!r}")
    d = derive_term(term, names.index(var), args.order, registry=registry)
    _emit(
        args,
        dump_json(
            {
                "schema_version": 1,
                "input": args.expr,
                "variable": var,
                "order": args.order,
                "derivative": print_term(d, names, prime=p),
            }
        ),
    )
    return 0


HANDLERS = {
    "trop": cmd_trop,
    "bound-system": cmd_bound_system,
    "strassmann": cmd_strassmann,
    "wdiv": cmd_wdiv,
    "mixed-volume": cmd_mixed_volume,
    "term-deriv": cmd_term_deriv,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3
    except GenericityFailure as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        return 4
    except TropPadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
