"""Inputs and operations of the three benchmark workloads.

A workload runs in rounds.  Every round holds the same list of item
shapes (supports, degrees, point counts, term templates); the seed and the
round number draw the numbers that fill them.  Per-item cost is set by the
shape far more than by the numbers: a criterion-6 system costs 0.1 s or
7 s depending on its supports, but moves by about 10% across unit
coefficients.  Fixing the shapes keeps a run's throughput a property of
the code, not of the seed, while every round still sees fresh inputs.

Items call the library through module attributes (``cli.main``,
``series.weierstrass_divide``, ...) so that the traced run's wrappers are
the functions that run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

from troppadic import cli, polyhedra, series, terms
from troppadic.series import Budget, RestrictedSeries

P = 5
F = Fraction


class ItemFailed(Exception):
    """An operation of the program raised or exited non-zero."""


@dataclass
class Item:
    kind: str
    run: object  # () -> output
    data: dict = field(default_factory=dict)


def _unit(rng, lim=20):
    while True:
        c = rng.randint(-lim, lim)
        if c % P:
            return c


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise ItemFailed(f"troppadic {argv[0]} exited {code}")
    return buf.getvalue()


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# bound_systems: 2x2 systems through `troppadic bound-system`

# Criterion-6 pointed shapes: both series contain 1, x and y, plus the
# listed extra monomials.  Their common support is pointed and every
# component is an isolated point.
_POINTED_EXTRA = [
    ([(2, 1)], [(1, 2)]),
    ([(2, 0)], []),
    ([(1, 1)], []),
    ([(2, 1)], []),
    ([(2, 0)], [(2, 0)]),
    ([], [(0, 2)]),
    ([(2, 1)], [(2, 1)]),
    ([(0, 2)], [(2, 1)]),
    ([(1, 2)], []),
]
_BASE = [(0, 0), (1, 0), (0, 1)]

# Sparse shapes in the box [0, 2]^2: the first eight with a
# positive-dimensional component among those drawn by the criterion-6
# random-shape generator (2-3 terms per series) from a fixed seed.
_SPARSE = [
    ([(1, 0), (2, 1)], [(0, 1), (2, 2)]),
    ([(0, 1), (1, 0), (2, 2)], [(1, 1), (2, 0)]),
    ([(0, 2), (1, 2), (2, 0)], [(0, 1), (2, 0), (2, 1)]),
    ([(0, 2), (1, 0), (2, 2)], [(0, 0), (1, 1), (1, 2)]),
    ([(0, 2), (1, 0), (1, 1)], [(1, 2), (2, 0)]),
    ([(0, 2), (1, 1), (2, 1)], [(0, 0), (2, 2)]),
    ([(0, 2), (1, 1), (2, 0)], [(1, 2), (2, 0)]),
    ([(2, 0), (2, 1)], [(0, 1), (1, 2)]),
]

BOUND_SHAPES = [
    ("pointed", _BASE + a, _BASE + b) for a, b in _POINTED_EXTRA
] + [("sparse", a, b) for a, b in _SPARSE]


def _series_doc(coeffs):
    """A series document in the shipped JSON format (unbounded domain)."""
    return {
        "schema_version": 1,
        "prime": P,
        "nvars": 2,
        "domain": [None, None],
        "terms": [
            {"exps": list(e), "coeff": str(c)} for e, c in sorted(coeffs.items())
        ],
        "tail": {"cutoff": max(sum(e) for e in coeffs), "slope": "1", "offset": "inf"},
    }


def bound_round(seed, rnd, rng, workdir: Path, oracle):
    items = []
    for k, (kind, s1, s2) in enumerate(BOUND_SHAPES):
        # redraw the units until the resultant oracle accepts the instance,
        # so every system has a known torus root count
        for _ in range(200):
            f1 = {e: _unit(rng) for e in s1}
            f2 = {e: _unit(rng) for e in s2}
            want = oracle(f1, f2)
            if want is not None:
                break
        else:
            raise RuntimeError(f"oracle rejects every draw for shape {k}")
        pa = workdir / f"r{rnd}-{k}-a.series"
        pb = workdir / f"r{rnd}-{k}-b.series"
        _write_json(pa, _series_doc(f1))
        _write_json(pb, _series_doc(f2))
        argv = ["bound-system", str(pa), str(pb), "--seed", f"{seed}-{rnd}-{k}"]
        items.append(
            Item(kind, lambda argv=argv: _run_cli(argv), {"f1": f1, "f2": f2, "want": want})
        )
    return items


# ---------------------------------------------------------------------------
# mixed_volumes: `troppadic mixed-volume` in 2D and 3D, hull + volume in 4D


def _rank(rows):
    m = [[F(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _points(rng, n, count, box, full=False):
    while True:
        pts = [tuple(rng.randint(0, box) for _ in range(n)) for _ in range(count)]
        if not full or _rank([[a - b for a, b in zip(q, pts[0])] for q in pts[1:]]) == n:
            return pts


def _catalogue():
    """(kind, dimension, polytopes as point lists, diagonal tuple), drawn
    once from a fixed seed: eleven 2D pairs and two 2D diagonal pairs, three
    3D triples and one diagonal triple, four 4D point sets for hull + volume."""
    rng = random.Random("perfbench|mixed_volumes|catalogue")
    out = []
    for kind, n, count, box, diag, copies in (
        ("mv2", 2, 5, 5, False, 11),
        ("mv2", 2, 5, 5, True, 2),
        ("mv3", 3, 5, 3, False, 3),
        ("mv3", 3, 5, 3, True, 1),
        ("hull4", 4, 8, 3, False, 4),
    ):
        for _ in range(copies):
            if kind == "hull4":
                polys = [_points(rng, n, count, box, full=True)]
            elif diag:
                polys = [_points(rng, n, count, box, full=True)] * n
            else:
                polys = [_points(rng, n, count, box) for _ in range(n)]
            out.append((kind, n, polys, diag))
    return out


MV_SHAPES = _catalogue()


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1 with small entries."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def _place(rng, m, pts):
    """The image of pts under m, translated by a random vector."""
    shift = [rng.randint(-3, 3) for _ in m]
    return [tuple(sum(r * x for r, x in zip(row, q)) + s for row, s in zip(m, shift)) for q in pts]


def mixed_round(seed, rnd, rng, workdir: Path, oracle=None):
    """The catalogue under a fresh unimodular map per item and a fresh
    translation per polytope: mixed volumes and volumes stay the same, the
    coordinates the program sees change with the seed."""
    items = []
    for k, (kind, n, shapes, diag) in enumerate(MV_SHAPES):
        m = _unimodular(rng, n)
        if kind == "hull4":
            pts = _place(rng, m, shapes[0])

            def run(pts=pts):
                return polyhedra.volume(polyhedra.convex_hull(pts))

            items.append(Item(kind, run, {"polys": [pts], "n": n}))
            continue
        if diag:
            polys = [_place(rng, m, shapes[0])] * n
        else:
            polys = [_place(rng, m, pts) for pts in shapes]
        paths = []
        for j, pts in enumerate(polys):
            path = workdir / f"r{rnd}-{k}-{j}.json"
            _write_json(
                path,
                {"schema_version": 1, "dim": n, "vertices": [list(q) for q in pts]},
            )
            paths.append(str(path))
        argv = ["mixed-volume"] + paths

        def run(argv=argv):
            return F(json.loads(_run_cli(argv))["value"])

        items.append(Item(kind, run, {"polys": polys, "n": n, "diagonal": diag}))
    return items


# ---------------------------------------------------------------------------
# series_calculus: Weierstrass division, Strassmann counts, Ep terms

# Weierstrass division shapes: (nvars, order d, cross monomials of f, budget,
# total degree of the dense dividend g).  f = u*Y^d + p*(lower Y powers) +
# cross terms; the cross terms were drawn once from a fixed seed.
WDIV_SHAPES = [
    (2, 1, [(1, 0), (1, 2), (2, 0), (2, 1)], Budget(24, 20), 4),
    (2, 2, [(1, 3), (2, 1), (2, 2), (2, 3)], Budget(24, 20), 5),
    (2, 3, [(1, 0), (1, 4), (2, 0), (2, 1)], Budget(24, 20), 6),
    (2, 4, [(1, 1), (1, 2), (1, 4), (2, 2)], Budget(24, 20), 7),
    (3, 1, [(1, 0, 1), (2, 0, 0), (2, 0, 1)], Budget(16, 14), 2),
    (3, 2, [(0, 2, 3), (1, 0, 1), (2, 0, 1)], Budget(16, 14), 3),
    (3, 3, [(0, 2, 0), (0, 2, 4), (1, 0, 1)], Budget(16, 14), 4),
    (3, 4, [(0, 2, 1), (1, 1, 1), (2, 0, 4)], Budget(16, 14), 5),
]

STRASSMANN_ROOTS = [3, 5, 7, 9, 11]

# Ep term templates.  Each variable occurs in one monomial only, so no two
# products of argument monomials meet and the expansion has no p-adic
# cancellation: every coefficient up to the degree budget has valuation
# below the precision budget and realization certifies it.
EP_TEMPLATES = [
    "Ep({a}*x)",
    "Ep({a}*x + {b}*y)",
    "Ep({a}*x^2 + {b}*y)",
    "Ep({a}*x*y + {b}*z)",
    "Ep({a}*x + {b}*y + {c}*z)",
    "Ep({a}*x^3 + {b}*y)",
    "Ep({a}*x + {b}*y^2)",
    "Ep({a}*x*y + {b}*z^2)",
]

# Ep terms whose argument has a p-divisible part.  realize() raises
# PrecisionExhausted on them at this budget although they are well defined
# (a known fault of compose_univariate); they stay in every round as
# operations that fail, with inputs that do not depend on the seed.
EP_FAILING = ["Ep(5*y)", "Ep(x*x+5*y)"]

EP_BUDGET = Budget(16, 12)


def _wdiv_item(rng, nvars, d, cross, budget, gdeg):
    last = (0,) * (nvars - 1)
    fterms = {last + (d,): _unit(rng)}
    for j in range(d):
        fterms[last + (j,)] = P * _unit(rng)
    for e in cross:
        fterms[e] = _unit(rng)
    gterms = {
        e: _unit(rng) for e in product(range(gdeg + 1), repeat=nvars) if sum(e) <= gdeg
    }
    f = RestrictedSeries(P, nvars, fterms)
    g = RestrictedSeries(P, nvars, gterms)

    def run():
        return series.weierstrass_divide(f, g, budget)

    return Item(
        f"wdiv{nvars}",
        run,
        {"f": fterms, "g": gterms, "d": d, "budget": budget, "nvars": nvars},
    )


def _strassmann_item(rng, k):
    dom = (F(0),)
    unit = {(0,): _unit(rng, 4), (1,): P * rng.randint(0, 4), (2,): P * P * rng.randint(0, 3)}
    roots = [rng.randrange(0, P**20) for _ in range(k)]

    def run():
        f = RestrictedSeries(P, 1, unit, domain=dom)
        for a in roots:
            f = f * RestrictedSeries(P, 1, {(1,): 1, (0,): -a}, domain=dom)
        return series.strassmann_count(f)

    return Item("strassmann", run, {"roots": k})


def _ep_item(kind, expr, registry):
    def run():
        t, names = terms.parse_term(expr, registry=registry)
        dt = terms.derive_term(t, 0, 1, registry=registry)
        ctx = terms.RealizeContext(P, len(names), EP_BUDGET, registry=registry)
        return names, terms.realize(t, ctx), terms.realize(dt, ctx)

    return Item(kind, run, {"expr": expr, "budget": EP_BUDGET})


def series_round(seed, rnd, rng, workdir: Path, oracle=None):
    registry = terms.default_registry(P)
    items = [_wdiv_item(rng, *shape) for shape in WDIV_SHAPES]
    items += [_strassmann_item(rng, k) for k in STRASSMANN_ROOTS]
    for tpl in EP_TEMPLATES:
        expr = tpl.format(a=_unit(rng, 24), b=_unit(rng, 24), c=_unit(rng, 24))
        items.append(_ep_item("ep", expr, registry))
    items += [_ep_item("ep_pdiv", expr, registry) for expr in EP_FAILING]
    return items


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # (seed, round, rng, workdir, oracle) -> [Item]
    min_rounds: int  # every run completes at least this many rounds


# Each round has an odd number of items that succeed (17, 21, 21), and
# items of one shape cost about the same, so sorted item times form one
# step per shape.  With an odd count the median of whole rounds falls on a
# step, not on the jump between two.  min_rounds sets the tail percentile
# (tail_level), which for these counts also falls inside a step.
WORKLOADS = {
    "bound_systems": Workload("bound_systems", bound_round, 3),
    "mixed_volumes": Workload("mixed_volumes", mixed_round, 8),
    "series_calculus": Workload("series_calculus", series_round, 3),
}


def make_round(workload: Workload, seed, rnd, workdir: Path, oracle):
    rng = random.Random(f"perfbench|{workload.name}|{seed}|{rnd}")
    return workload.make_round(seed, rnd, rng, workdir, oracle)


def tail_level(n_min: int) -> int:
    """The highest whole percentile with at least ten of n_min samples
    beyond it.  Fixed per workload from its minimum item count, so a run
    that completes one more round reports the same percentile."""
    if n_min < 40:
        raise ValueError(f"{n_min} items are too few for a tail percentile")
    return 100 * (n_min - 10) // n_min
