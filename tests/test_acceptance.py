"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing the stated tolerances and runtime limits."""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from itertools import product

from oracle_roots import torus_root_count
from polyhedra_helpers import direction_space, is_face_of
from series_helpers import monomial_substitution
from troppadic.bounds import (
    WBoundOracle,
    box_E,
    isolated_bounds,
    monomial_order_bound,
    system_root_bound,
)
from troppadic.cli import main as cli_main
from troppadic.padic import PadicScaled
from troppadic.polyhedra import QPolyhedron, convex_hull, mixed_volume, vdot, volume
from troppadic.series import (
    Budget,
    ParamSeries,
    RestrictedSeries,
    regular_order,
    strassmann_count,
    weierstrass_divide,
    weierstrass_prepare,
)
from troppadic.tropical import trop_complex

F = Fraction


@contextmanager
def criterion(number, label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {number} ({label}): PASS [{dt:.2f}s]")


def poly(p, nvars, mapping, domain=None):
    if domain is None:
        domain = (None,) * nvars
    return RestrictedSeries(p, nvars, mapping, domain=domain)


def data_path(name):
    return str(resources.files("troppadic") / "data" / name)


# -------------------------------------------------------------------- 1


def test_criterion_1_figure_reproduction(capsys, tmp_path):
    with criterion(1, "figure reproduction"):
        out = tmp_path / "fig.json"
        t0 = time.monotonic()
        code = cli_main(["trop", data_path("fig1_p5.series"), "-o", str(out)])
        elapsed = time.monotonic() - t0
        assert code == 0
        assert elapsed < 1.0
        doc = json.loads(out.read_text())
        cells = doc["cells"]
        assert len(cells) == 4
        vertex_cells = [c for c in cells if c["dim"] == 0]
        assert len(vertex_cells) == 1
        assert vertex_cells[0]["vertices"] == [["1/4", "1/4"]]
        ray_dirs = sorted(tuple(r) for c in cells for r in c["rays"])
        assert ray_dirs == sorted([(0, 1), (5, 1), (-1, -1)])
        # duality pairing: cell k pairs with newton cell k, and the three
        # rays pair with the right edges of the triangle
        newton = {nc["index"]: nc for nc in doc["newton_cells"]}
        want = {
            (0, 1): [["1", "0"], ["5", "0"]],
            (5, 1): [["0", "5"], ["1", "0"]],
            (-1, -1): [["0", "5"], ["5", "0"]],
        }
        seen_duals = []
        for c in cells:
            dual = sorted(newton[c["index"]]["vertices"])
            seen_duals.append(tuple(map(tuple, dual)))
            if c["dim"] == 0:
                assert dual == [["0", "5"], ["1", "0"], ["5", "0"]]
            else:
                assert len(c["rays"]) == 1
                assert dual == want[tuple(c["rays"][0])]
        assert len(set(seen_duals)) == 4


# -------------------------------------------------------------------- 2


def test_criterion_2_strassmann_planted_roots():
    with criterion(2, "strassmann vs planted roots"):
        rng = random.Random(20260810)
        p = 5
        t0 = time.monotonic()
        for _ in range(200):
            k = rng.randint(0, 6)
            f = poly(
                p,
                1,
                {
                    (0,): rng.randint(1, 4),
                    (1,): p * rng.randint(0, 4),
                    (2,): p * p * rng.randint(0, 3),
                },
                domain=(F(0),),
            )
            for _ in range(k):
                a = rng.randrange(0, p**20)
                f = f * poly(p, 1, {(1,): 1, (0,): -a}, domain=(F(0),))
            assert strassmann_count(f) == k
        assert time.monotonic() - t0 < 10.0


# -------------------------------------------------------------------- 3


def _random_regular(rng, p, d):
    terms = {(0, d): rng.choice([1, 2, 3, 4, 6])}
    for _ in range(rng.randint(1, 5)):
        i = rng.randint(0, 3)
        j = rng.randint(0, d + 2)
        c = rng.randint(-20, 20)
        if c == 0:
            continue
        if i == 0:
            if j == d:
                continue
            c *= p
        key = (i, j)
        terms[key] = terms.get(key, 0) + c
    return RestrictedSeries(p, 2, terms)


def test_criterion_3_division_residue():
    with criterion(3, "weierstrass division residue"):
        rng = random.Random(33)
        p = 5
        budget = Budget(12, 10)
        t0 = time.monotonic()
        done = 0
        while done < 100:
            d = rng.randint(1, 4)
            f = _random_regular(rng, p, d)
            if regular_order(f) != d:
                continue
            g = poly(
                p,
                2,
                {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-40, 40) for _ in range(4)},
                domain=(F(0), F(0)),
            )
            q1, a1 = weierstrass_divide(f, g, budget)
            q2, a2 = weierstrass_divide(f, g, budget)
            assert q1.terms == q2.terms
            assert all(x.terms == y.terms for x, y in zip(a1, a2))
            rem = RestrictedSeries(
                p,
                2,
                {e + (j,): c for j, aj in enumerate(a1) for e, c in aj.terms.items()},
            )
            res = g - q1 * f - rem
            for exps, c in res.terms.items():
                if sum(exps) < budget.degree:
                    assert c.valuation() >= budget.prec
            done += 1
        assert time.monotonic() - t0 < 30.0


def _vp(x, p):
    """The p-adic valuation of a Fraction; infinity at 0."""
    if x == 0:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _fraction_product(a, b, below):
    """The terms of total degree less than below of the product of two
    {exponents: Fraction} dicts."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = tuple(e + f for e, f in zip(i, j))
            if sum(k) < below:
                out[k] = out.get(k, 0) + x * y
    return out


def test_criterion_3_preparation_inverts_the_first_quotient():
    """weierstrass_prepare succeeds on 60 random regular series at two
    budgets: its A_j are the negated remainder of dividing Y^d by f, and
    f - P*U vanishes to budget in Fraction arithmetic."""
    p = 5
    for budget in (Budget(24, 20), Budget(12, 10)):
        rng = random.Random(1)
        done = 0
        while done < 60:
            d = rng.randint(1, 4)
            f = _random_regular(rng, p, d)
            if regular_order(f) != d:
                continue
            a, u = weierstrass_prepare(f, budget)
            _, rem = weierstrass_divide(f, RestrictedSeries(p, 2, {(0, d): 1}), budget)
            assert a == [-r for r in rem]
            dist = {(0, d): F(1)}
            for j, aj in enumerate(a):
                dist.update({(i, j): c.rational_value() for (i,), c in aj.terms.items()})
            unit = {k: c.rational_value() for k, c in u.terms.items()}
            back = _fraction_product(dist, unit, budget.degree)
            want = {k: c.rational_value() for k, c in f.terms.items()}
            for k in set(back) | {k for k in want if sum(k) < budget.degree}:
                assert _vp(want.get(k, 0) - back.get(k, 0), p) >= budget.prec
            done += 1


# -------------------------------------------------------------------- 4


def _scaled(poly, c):
    c = F(c)
    if c == 0:
        return QPolyhedron.from_points([(F(0),) * poly.ambient])
    return QPolyhedron(
        poly.ambient,
        tuple((u, a * c) for u, a in poly.ineqs),
        tuple(tuple(c * x for x in v) for v in poly.vertices),
        poly.rays,
        poly.lines,
    )


def _interp_mv(polys):
    n = len(polys)
    monos = [e for e in product(range(n + 1), repeat=n) if sum(e) == n]
    points = [x + (1,) for x in product(range(n + 1), repeat=n - 1) if sum(x) <= n]
    rows, rhs = [], []
    from troppadic.polyhedra import minkowski_sum

    for lam in points:
        s = None
        for lam_i, pl in zip(lam, polys):
            scaled = _scaled(pl, lam_i)
            s = scaled if s is None else minkowski_sum(s, scaled)
        rows.append([math.prod(F(l) ** e for l, e in zip(lam, mono)) for mono in monos])
        rhs.append(volume(s))
    m = [row + [r] for row, r in zip(rows, rhs)]
    for c in range(len(monos)):
        piv = next(i for i in range(c, len(m)) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = F(1) / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c] != 0:
                fac = m[i][c]
                m[i] = [x - fac * y for x, y in zip(m[i], m[c])]
    return m[monos.index((1,) * n)][-1]


def test_criterion_4_mixed_volume():
    with criterion(4, "mixed volume vs interpolation oracle"):
        rng = random.Random(44)
        for trial in range(50):
            n = 2 if trial < 35 else 3
            polys = [
                convex_hull(
                    [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n + 2)]
                )
                for _ in range(n)
            ]
            assert mixed_volume(polys) == _interp_mv(polys)
        # diagonal identity and monotonicity
        for _ in range(8):
            n = rng.choice([2, 3])
            pl = convex_hull(
                [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n + 3)]
            )
            assert mixed_volume([pl] * n) == math.factorial(n) * volume(pl)
        for _ in range(50):
            inner1 = convex_hull([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)])
            inner2 = convex_hull([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)])
            outer1 = convex_hull(
                list(inner1.vertices)
                + [(rng.randint(-2, 5), rng.randint(-2, 5)) for _ in range(3)]
            )
            outer2 = convex_hull(
                list(inner2.vertices)
                + [(rng.randint(-2, 5), rng.randint(-2, 5)) for _ in range(3)]
            )
            assert mixed_volume([inner1, inner2]) <= mixed_volume([outer1, outer2])


# -------------------------------------------------------------------- 5


def test_criterion_5_duality_suite():
    with criterion(5, "trop/newton duality"):
        rng = random.Random(55)
        p = 5
        checked = 0
        while checked < 50:
            terms = {}
            for _ in range(rng.randint(3, 8)):
                terms[(rng.randint(0, 5), rng.randint(0, 5))] = rng.choice(
                    [1, 2, 3, 4]
                ) * p ** rng.randint(0, 5)
            if len(terms) < 2:
                continue
            f = poly(p, 2, terms)
            data = trop_complex(f)
            newton = [c.newton() for c in data.cells]
            for c, nc in zip(data.cells, newton):
                assert c.dim() + nc.affine_dim() == 2
                for du in direction_space(c.cell):
                    for dv in direction_space(nc):
                        assert vdot(du, dv) == 0
            for i, ci in enumerate(data.cells):
                for j, cj in enumerate(data.cells):
                    if i == j:
                        continue
                    left = is_face_of(ci.cell, cj.cell)
                    right = is_face_of(newton[j], newton[i])
                    assert left == right
                    if ci.vert > cj.vert:
                        assert left and right
            checked += 1


# -------------------------------------------------------------------- 6


def _rand_unit(rng, p):
    while True:
        c = rng.randint(-20, 20)
        if c % p:
            return c


def _criterion6_instances(rng, p):
    out = []
    while len(out) < 15:  # pointed by design: supports share 1, x, y
        f1 = {(0, 0): _rand_unit(rng, p), (1, 0): _rand_unit(rng, p), (0, 1): _rand_unit(rng, p)}
        f2 = dict(f1)
        f2 = {k: _rand_unit(rng, p) for k in f2}
        f1[(rng.randint(0, 2), rng.randint(0, 2))] = _rand_unit(rng, p)
        f2[(rng.randint(0, 2), rng.randint(0, 2))] = _rand_unit(rng, p)
        if torus_root_count(f1, f2) is None:
            continue
        out.append((f1, f2))
    while len(out) < 30:  # fully random sparse shapes
        f1 = {
            (rng.randint(0, 3), rng.randint(0, 3)): _rand_unit(rng, p)
            for _ in range(rng.randint(2, 4))
        }
        f2 = {
            (rng.randint(0, 3), rng.randint(0, 3)): _rand_unit(rng, p)
            for _ in range(rng.randint(2, 4))
        }
        if len(f1) < 2 or len(f2) < 2:
            continue
        if torus_root_count(f1, f2) is None:
            continue
        out.append((f1, f2))
    return out


def _run_instance(p, f1, f2, seed):
    sys_ = [
        ParamSeries.from_series(poly(p, 2, f1)),
        ParamSeries.from_series(poly(p, 2, f2)),
    ]
    return system_root_bound(sys_, WBoundOracle(), seed=seed)


def test_criterion_6_bernstein_soundness():
    with criterion(6, "bernstein-type soundness"):
        rng = random.Random(66)
        p = 5
        t0 = time.monotonic()
        instances = _criterion6_instances(rng, p)
        equal = 0
        for k, (f1, f2) in enumerate(instances):
            want = torus_root_count(f1, f2)
            report = _run_instance(p, f1, f2, seed=f"acc6-{k}")
            got = sum(c["multiplicity"] for c in report.components)
            assert got == report.s_bound
            assert want <= got, (f1, f2, want, got)
            assert report.cross_check_ok
            if want == got:
                equal += 1
        assert equal >= 10, f"only {equal} sharp instances"
        assert time.monotonic() - t0 < 120.0


# -------------------------------------------------------------------- 7


def test_criterion_7_box_lemma():
    with criterion(7, "recursive box lemma"):
        p = 5
        yv = RestrictedSeries.variable(p, 0, 1)
        one = RestrictedSeries.constant(p, 1, nvars=1)
        f = ParamSeries(
            p,
            2,
            1,
            {
                (1, 0): yv,
                (3, 0): one,
                (0, 3): one,
                (4, 0): RestrictedSeries.constant(p, p, nvars=1),
            },
        )
        oracle = WBoundOracle()
        e = box_E(f, oracle)
        assert e == 4
        d1, d2 = isolated_bounds([f, f], oracle)
        assert d2 == e ** 2 == 16
        rng = random.Random(77)
        for _ in range(100):
            y = PadicScaled.exact(p, rng.randint(-10**6, 10**6))
            specialized = f.specialize((y,), x_domain=(None, None))
            if specialized.is_certified_zero():
                continue
            if len(specialized.terms) >= 2:
                data = trop_complex(specialized)
                support = data.newton_support()
                if support is not None:
                    for v in support.vertices:
                        assert max(v) <= e
            for exps in specialized.terms:
                assert max(exps) <= e


# -------------------------------------------------------------------- 8


def test_criterion_8_substitution_order():
    with criterion(8, "base-d substitution order"):
        rng = random.Random(88)
        p = 5
        done = 0
        while done < 20:
            n = rng.randint(1, 3)
            d = rng.randint(1, 3)
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(exps) == 0:
                continue
            s = monomial_order_bound(exps, d)
            f = poly(p, n, {exps: 1}, domain=(F(0),) * n)
            g = monomial_substitution(f, d, 4 * s + 8)
            assert regular_order(g) == s
            done += 1


# -------------------------------------------------------------------- 9


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "bound report determinism"):
        args = [
            "bound-system",
            data_path("line_a.series"),
            data_path("line_b.series"),
        ]
        out1, out2, out3 = (tmp_path / n for n in ("r1.json", "r2.json", "r3.json"))
        assert cli_main(args + ["--seed", "alpha", "-o", str(out1)]) == 0
        assert cli_main(args + ["--seed", "alpha", "-o", str(out2)]) == 0
        assert cli_main(args + ["--seed", "beta", "-o", str(out3)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc1 = json.loads(out1.read_text())
        doc3 = json.loads(out3.read_text())
        assert [c["multiplicity"] for c in doc1["components"]] == [
            c["multiplicity"] for c in doc3["components"]
        ]
        assert doc1["s_bound"] == doc3["s_bound"]
        # soundness relations survive a seed change on a sharp instance
        p = 5
        f1 = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        f2 = {(0, 0): 2, (1, 0): 7, (0, 1): 3}
        want = torus_root_count(f1, f2)
        for seed in ("alpha", "beta"):
            report = _run_instance(p, f1, f2, seed)
            assert want <= report.s_bound
            assert report.cross_check_ok
