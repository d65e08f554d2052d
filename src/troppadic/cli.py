"""Batch front end.

Subcommands: trop, bound-system, strassmann, wdiv, mixed-volume,
term-deriv.  Inputs are the JSON documents defined in formats.py.  The
parser is the one table of subcommands: each subparser names its handler,
a function from the parsed arguments to a JSON document.  ``main`` writes
that document (stdout, or --output written atomically) and maps errors to
exit codes: 0 success, 2 input error, 3 precision error, 4 genericity
failure.
"""

from __future__ import annotations

import argparse
import functools
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
from .series import Budget, ParamSeries, RestrictedSeries, strassmann_count, weierstrass_divide
from .terms import default_registry, derive_term, parse_term, print_term
from .tropical import render_svg, trop_complex

SEED_ENV = "TROPPADIC_SEED"


@functools.cache
def build_parser():
    """The argument parser, built once per process: a build costs more
    than a small mixed-volume call, and parse_args keeps no state between
    calls."""
    ap = argparse.ArgumentParser(prog="troppadic")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument("-o", "--output", help="write the JSON report here")
        return sp

    def domain_flag(sp):
        sp.add_argument("--domain", help="comma list of rationals or 'none' per variable")

    sp = command("trop", cmd_trop, "tropicalization report (and SVG at n=2)")
    sp.add_argument("input")
    sp.add_argument("--svg", help="write a deterministic SVG here")
    domain_flag(sp)

    sp = command("bound-system", cmd_bound_system, "uniform root-count bound report")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--seed", help=f"random seed (or {SEED_ENV}); required")

    sp = command("strassmann", cmd_strassmann, "unit-ball zero count")
    sp.add_argument("input")
    domain_flag(sp)

    sp = command("wdiv", cmd_wdiv, "Weierstrass division report")
    sp.add_argument("divisor")
    sp.add_argument("dividend")
    sp.add_argument("--prec", type=int, default=16, help="valuation budget")
    sp.add_argument("--deg", type=int, default=12, help="degree budget")
    domain_flag(sp)

    sp = command("mixed-volume", cmd_mixed_volume, "mixed volume of polytopes")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument(
        "--normalization",
        choices=("coefficient", "normalized"),
        default="coefficient",
    )

    sp = command("term-deriv", cmd_term_deriv, "derivative of a term expression")
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


def _load_series(path, args):
    f = series_from_dict(load_json_file(path))
    dom = _parse_domain(args.domain, f.nvars)
    if dom is not None:
        f = RestrictedSeries(f.p, f.nvars, f.terms, tail=f.tail, domain=dom)
    return f


def _same_ring(named):
    """Each (path, series) pair must have the first one's prime and
    variable count."""
    (path0, f0), *rest = named
    for path, f in rest:
        if (f.p, f.nvars) != (f0.p, f0.nvars):
            raise FormatError(
                f"{path}: prime {f.p} in {f.nvars} variables, but {path0} "
                f"has prime {f0.p} in {f0.nvars} variables"
            )


def cmd_trop(args):
    f = _load_series(args.input, args)
    if args.svg and f.nvars != 2:
        raise FormatError("SVG output needs a two-variable series")
    data = trop_complex(f)
    # the SVG is written first, so a failure to write it leaves no report
    if args.svg:
        write_atomic(args.svg, render_svg(data))
    return trop_data_to_dict(data)


def cmd_bound_system(args):
    seed = args.seed or os.environ.get(SEED_ENV)
    if seed is None:
        raise FormatError("bound-system requires --seed or TROPPADIC_SEED")
    named = [(path, series_from_dict(load_json_file(path))) for path in args.inputs]
    _same_ring(named)
    path0, f0 = named[0]
    if len(named) != f0.nvars:
        raise FormatError(
            f"bound-system needs one series per variable: {len(named)} series, "
            f"but {path0} has {f0.nvars} variables"
        )
    system = []
    for path, f in named:
        if any(r is not None for r in f.domain):
            raise FormatError(
                f"{path}: bound-system bounds roots over the whole torus, "
                "so every domain entry must be null"
            )
        system.append(ParamSeries.from_series(f))
    return system_root_bound(system, WBoundOracle(), seed).to_dict()


def cmd_strassmann(args):
    f = _load_series(args.input, args)
    if f.nvars != 1:
        raise FormatError(f"{args.input}: strassmann needs a one-variable series, got {f.nvars}")
    return {"schema_version": 1, "count": strassmann_count(f)}


def cmd_wdiv(args):
    for flag, value in (("--prec", args.prec), ("--deg", args.deg)):
        if value < 1:
            raise FormatError(f"{flag} must be >= 1, got {value}")
    f = _load_series(args.divisor, args)
    g = _load_series(args.dividend, args)
    if f.nvars == 0:
        raise FormatError(f"{args.divisor}: Weierstrass division needs at least one variable")
    _same_ring([(args.divisor, f), (args.dividend, g)])
    for path, s in ((args.divisor, f), (args.dividend, g)):
        if any(c.valuation() < 0 for c in s.terms.values()):
            raise FormatError(f"{path}: Weierstrass division needs integral coefficients")
    q, a = weierstrass_divide(f, g, Budget(args.prec, args.deg))
    return {
        "schema_version": 1,
        "quotient": series_to_dict(q),
        "remainders": [series_to_dict(x) for x in a],
    }


def cmd_mixed_volume(args):
    polys = [polytope_from_dict(load_json_file(path)) for path in args.inputs]
    dims = sorted({len(pts[0]) for pts in polys})
    if dims != [len(polys)]:
        raise FormatError(
            f"mixed volume needs n polytopes in dimension n, got {len(polys)} in {dims}"
        )
    mv = mixed_volume(polys, args.normalization)
    return {"schema_version": 1, "normalization": args.normalization, "value": frac_str(mv)}


def cmd_term_deriv(args):
    p = args.prime
    if not is_prime(p):
        raise FormatError(f"prime {p} is not a prime")
    if args.order < 0:
        raise FormatError(f"--order must be >= 0, got {args.order}")
    registry = default_registry(p)
    term, names = parse_term(args.expr, registry=registry)
    if not names:
        names = ["x"]
    var = args.var or names[0]
    if var not in names:
        raise FormatError(f"unknown variable {var!r}")
    d = derive_term(term, names.index(var), args.order, registry=registry)
    return {
        "schema_version": 1,
        "input": args.expr,
        "variable": var,
        "order": args.order,
        "derivative": print_term(d, names),
    }


def _attach_domain(argv):
    """Rewrite '--domain V' as '--domain=V': argparse reads a V that starts
    with '-', such as '-1,none', as a flag."""
    out = []
    for arg in argv:
        if out and out[-1] == "--domain":
            out[-1] = f"--domain={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_domain(sys.argv[1:] if argv is None else argv))
    try:
        payload = dump_json(args.handler(args))
        if args.output:
            write_atomic(args.output, payload)
        else:
            sys.stdout.write(payload)
        return 0
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
