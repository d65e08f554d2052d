"""Correctness checks that share no code with the library.

Each check takes the item's inputs and the output reduced to plain data
(ints, Fractions, dicts) and raises CheckFailed when the output is wrong.
``extract`` does the reduction, so the self-test can corrupt plain data
and show that every check rejects it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

F = Fraction
P = 5


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def vp(x, p=P):
    """p-adic valuation of a rational; None for zero."""
    x = F(x)
    if x == 0:
        return None
    v = 0
    num, den = abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def coeff_data(c):
    """(representative rational, certified floor or None when exact) of a
    PadicScaled, read through its public accessors."""
    if c.is_exact:
        return c.rational_value(), None
    v = c.valuation()
    n = c.precision()
    return F(c.unit_digits(n)) * F(P) ** v, v + n


# ---------------------------------------------------------------------------
# bound_systems


def extract_bound(item, output):
    return json.loads(output)


def check_bound_oracle(item, report):
    want = item.data["want"]
    _require(
        report["s_bound"] >= want,
        f"s_bound {report['s_bound']} below the oracle's {want} torus roots",
    )


def check_bound_sum(item, report):
    total = sum(c["multiplicity"] for c in report["components"])
    _require(total == report["s_bound"], f"multiplicities sum to {total}, s_bound {report['s_bound']}")


def check_bound_cross(item, report):
    _require(
        report["s_bound"] <= report["t_cross"],
        f"s_bound {report['s_bound']} above t_cross {report['t_cross']}",
    )


class SchemaCheck:
    def __init__(self, schema_path):
        import jsonschema

        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def __call__(self, item, report):
        errors = list(self.validator.iter_errors(report))
        _require(not errors, f"report violates the schema: {errors[:1]}")


# ---------------------------------------------------------------------------
# mixed_volumes


def _volume(points, n):
    """Euclidean volume of the hull by qhull; 0 for a flat point set."""
    import numpy as np
    from scipy.spatial import ConvexHull

    arr = np.array(points, dtype=float)
    if len(arr) <= n or np.linalg.matrix_rank(arr[1:] - arr[0]) < n:
        return 0.0
    return float(ConvexHull(arr).volume)


def _minkowski_points(polys):
    out = {tuple(0 for _ in polys[0][0])}
    for pts in polys:
        out = {tuple(a + b for a, b in zip(x, y)) for x in out for y in pts}
    return sorted(out)


def extract_mixed(item, output):
    return F(output)


def check_mixed_inclusion_exclusion(item, value):
    polys, n = item.data["polys"], item.data["n"]
    if item.kind == "hull4":
        return
    total = 0.0
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            total += (-1) ** (n - k) * _volume(_minkowski_points([polys[i] for i in combo]), n)
    _require(
        abs(float(value) - total) <= 1e-6 * max(1.0, abs(total)),
        f"mixed volume {value}, qhull inclusion-exclusion gives {total}",
    )


def check_mixed_diagonal(item, value):
    if not item.data.get("diagonal"):
        return
    n = item.data["n"]
    want = math.factorial(n) * _volume(item.data["polys"][0], n)
    _require(
        abs(float(value) - want) <= 1e-6 * max(1.0, want),
        f"MV(P,...,P) = {value}, n!*vol(P) = {want}",
    )


def check_hull_volume(item, value):
    if item.kind != "hull4":
        return
    want = _volume(item.data["polys"][0], item.data["n"])
    _require(
        abs(float(value) - want) <= 1e-9 * max(1.0, want),
        f"4D volume {value}, qhull gives {want}",
    )


# ---------------------------------------------------------------------------
# series_calculus


def _mul(a, b, maxdeg):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = tuple(s + t for s, t in zip(i, j))
            if sum(k) <= maxdeg:
                out[k] = out.get(k, 0) + x * y
    return out


def extract_series(item, output):
    if item.kind.startswith("wdiv"):
        q, a_list = output
        return {
            "q": {e: coeff_data(c)[0] for e, c in q.terms.items()},
            "a": [{e: coeff_data(c)[0] for e, c in a.terms.items()} for a in a_list],
        }
    if item.kind == "strassmann":
        return output
    names, s, ds = output
    return {
        "names": names,
        "s": {e: coeff_data(c) for e, c in s.terms.items()},
        "s_cutoff": s.tail.cutoff,
        "ds": {e: coeff_data(c) for e, c in ds.terms.items()},
        "ds_cutoff": ds.tail.cutoff,
    }


def check_division_residue(item, out):
    """g - Q*f - sum A_j Y^j has valuation >= prec below the degree cutoff."""
    if not item.kind.startswith("wdiv"):
        return
    budget = item.data["budget"]
    cut = budget.degree - 1
    f = {e: F(c) for e, c in item.data["f"].items()}
    res = {e: F(c) for e, c in item.data["g"].items() if sum(e) <= cut}
    for e, c in _mul(out["q"], f, cut).items():
        res[e] = res.get(e, 0) - c
    for j, a in enumerate(out["a"]):
        for e, c in a.items():
            k = tuple(e) + (j,)
            if sum(k) <= cut:
                res[k] = res.get(k, 0) - c
    for e, c in res.items():
        v = vp(c)
        _require(
            v is None or v >= budget.prec,
            f"division residue at {e} has valuation {v} < {budget.prec}",
        )


def check_strassmann(item, out):
    if item.kind != "strassmann":
        return
    _require(out == item.data["roots"], f"Strassmann count {out}, {item.data['roots']} planted")


def _exp_p(expr_terms, nvars, maxdeg):
    """exp(p*g) up to total degree maxdeg, in Fractions.  g has no constant
    term, so (p*g)^k only reaches degree >= k and k <= maxdeg is exact."""
    pg = {e: P * c for e, c in expr_terms.items()}
    out = {(0,) * nvars: F(1)}
    power = {(0,) * nvars: F(1)}
    for k in range(1, maxdeg + 1):
        power = _mul(power, pg, maxdeg)
        for e, c in power.items():
            out[e] = out.get(e, 0) + c / math.factorial(k)
    return {e: c for e, c in out.items() if c != 0}


def _parse_argument(expr, names):
    """The polynomial inside Ep(...) of a template instance, as exps -> int."""
    inner = expr[expr.index("(") + 1 : expr.rindex(")")]
    poly = {}
    for mono in inner.replace(" ", "").replace("-", "+-").split("+"):
        if not mono:
            continue
        coeff = 1
        exps = [0] * len(names)
        for factor in mono.split("*"):
            base, _, power = factor.partition("^")
            if base.lstrip("-").isdigit():
                coeff *= int(base)
            else:
                exps[names.index(base)] += int(power or 1)
        poly[tuple(exps)] = poly.get(tuple(exps), 0) + coeff
    return poly


def _compare(got, want, maxdeg, prec, what):
    for e, (r, floor) in got.items():
        if sum(e) > maxdeg:
            continue
        diff = r - want.get(e, 0)
        if floor is None:
            _require(diff == 0, f"{what} coefficient at {e} is {r}, exp expansion gives {want.get(e, 0)}")
        else:
            v = vp(diff)
            _require(
                v is None or v >= floor,
                f"{what} coefficient at {e} differs from the exp expansion at valuation {v} < {floor}",
            )
    for e, c in want.items():
        if sum(e) <= maxdeg and e not in got:
            v = vp(c)
            _require(v >= prec, f"{what} drops the coefficient at {e} of valuation {v}")


def check_ep(item, out):
    """Ep(g) and d/dx Ep(g) agree with exp(p*g) expanded in Fractions."""
    if not item.kind.startswith("ep"):
        return
    names = out["names"]
    budget = item.data["budget"]
    g = _parse_argument(item.data["expr"], names)
    want = _exp_p(g, len(names), budget.degree + 1)
    _compare(out["s"], want, min(budget.degree, out["s_cutoff"]), budget.prec, "Ep")
    dwant = {}
    for e, c in want.items():
        if e[0] > 0:
            dwant[(e[0] - 1,) + e[1:]] = c * e[0]
    _compare(out["ds"], dwant, min(budget.degree, out["ds_cutoff"]), budget.prec, "dEp/dx")


# ---------------------------------------------------------------------------


def checks_for(workload, root):
    """(extract, [checks]) of a workload."""
    if workload == "bound_systems":
        schema = SchemaCheck(root / "src" / "troppadic" / "data" / "boundreport.schema.json")
        return extract_bound, [check_bound_oracle, check_bound_sum, check_bound_cross, schema]
    if workload == "mixed_volumes":
        return extract_mixed, [
            check_mixed_inclusion_exclusion,
            check_mixed_diagonal,
            check_hull_volume,
        ]
    return extract_series, [check_division_residue, check_strassmann, check_ep]


def bound_value(item, out):
    """The root-count bound an item certifies, summed into bound_sum:
    s_bound of a system; a mixed volume (the BKK bound of a generic
    system with those Newton polytopes), 4!*vol for a 4D hull; the
    Strassmann count; the Weierstrass order d of a division."""
    if item.kind in ("pointed", "sparse"):
        return out["s_bound"]
    if item.kind in ("mv2", "mv3"):
        return out
    if item.kind == "hull4":
        return math.factorial(4) * out
    if item.kind == "strassmann":
        return out
    if item.kind.startswith("wdiv"):
        return item.data["d"]
    return 0


# Corruptions for the self-test: check name -> (which items it can be shown
# on, a function returning a corrupted copy of the extracted output).


def _report_with(key, value_fn):
    def corrupt(item, rep):
        rep = json.loads(json.dumps(rep))
        rep[key] = value_fn(item, rep)
        return rep

    return corrupt


def _bump_mult(item, rep):
    rep = json.loads(json.dumps(rep))
    rep["components"][0]["multiplicity"] += 1
    return rep


def _bump_q(item, out):
    q = dict(out["q"])
    zero = (0,) * item.data["nvars"]
    q[zero] = q.get(zero, 0) + 1
    return {**out, "q": q}


def _bump_ep(item, out):
    s = dict(out["s"])
    zero = (0,) * len(out["names"])
    r, floor = s[zero]
    s[zero] = (r + 1, floor)
    return {**out, "s": s}


def _kinds(*kinds):
    return lambda item: item.kind in kinds


CORRUPTIONS = {
    "check_bound_oracle": (_kinds("pointed", "sparse"), _report_with("s_bound", lambda i, r: i.data["want"] - 1)),
    "check_bound_sum": (_kinds("pointed", "sparse"), _bump_mult),
    "check_bound_cross": (_kinds("pointed", "sparse"), _report_with("t_cross", lambda i, r: r["s_bound"] - 1)),
    "SchemaCheck": (_kinds("pointed", "sparse"), _report_with("prime", lambda i, r: "five")),
    "check_mixed_inclusion_exclusion": (_kinds("mv2", "mv3"), lambda i, v: v + 1),
    "check_mixed_diagonal": (lambda i: bool(i.data.get("diagonal")), lambda i, v: v + 1),
    "check_hull_volume": (_kinds("hull4"), lambda i, v: v * 2),
    "check_division_residue": (_kinds("wdiv2", "wdiv3"), _bump_q),
    "check_strassmann": (_kinds("strassmann"), lambda i, v: v + 1),
    "check_ep": (_kinds("ep"), _bump_ep),
}


def check_name(check):
    return getattr(check, "__name__", type(check).__name__)
