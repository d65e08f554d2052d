import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from troppadic.errors import Unbounded
from troppadic.polyhedra import (
    PolyComplex,
    QPolyhedron,
    _decompose_simplices,
    _facets_fullrank,
    convex_hull,
    det,
    lower_hull,
    matrix_rank,
    minkowski_sum,
    mixed_volume,
    null_space,
    primitive,
    vdot,
    volume,
    vsub,
)

F = Fraction

# Deterministic draws, so a tier-1 run never differs from the last one.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def point_sets(d, lo, hi, min_size, max_size):
    return st.lists(
        st.tuples(*[st.integers(lo, hi)] * d),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    )


# --------------------------------------------------------------- oracles


def _facets_brute(pts):
    """Facet enumeration by hyperplane candidates: every d-subset of the
    points that spans a hyperplane with all points on one side."""
    d = len(pts[0])
    found = {}
    for combo in combinations(range(len(pts)), d):
        base = pts[combo[0]]
        dirs = [vsub(pts[i], base) for i in combo[1:]]
        if matrix_rank(dirs) != d - 1:
            continue
        ns = null_space(dirs, d)
        if len(ns) != 1:
            continue
        n = ns[0]
        off = vdot(n, base)
        sides = [vdot(n, q) - off for q in pts]
        if all(s <= 0 for s in sides):
            pass
        elif all(s >= 0 for s in sides):
            n, off = tuple(-x for x in n), -off
        else:
            continue
        n = primitive(n)
        off = vdot(n, base)
        key = (n, off)
        if key not in found:
            found[key] = [i for i, q in enumerate(pts) if vdot(n, q) == off]
    return [(k[0], k[1], t) for k, t in sorted(found.items())]


def brute_hull_vertices(points):
    """Exhaustive facet-enumeration hull oracle: every point against every
    candidate facet; vertices are points not in the hull of the others."""
    pts = [tuple(F(x) for x in p) for p in points]
    pts = list(dict.fromkeys(pts))
    facets = _facets_brute(pts)
    verts = set()
    for n, off, tight in facets:
        for i in tight:
            rows = [u for u, a, t in facets if i in t]
            if matrix_rank(rows) == len(pts[0]):
                verts.add(pts[i])
    return sorted(verts)


def grid_argmin(lifted, nu):
    vals = [F(h) + vdot(tuple(map(F, pt)), nu) for pt, h in lifted]
    m = min(vals)
    return frozenset(i for i, v in enumerate(vals) if v == m)


def interpolated_volume_poly(polys, _grid_max=None):
    """vol(sum lambda_i P_i) as a homogeneous degree-n polynomial by exact
    interpolation on a principal-lattice grid; returns {exponent: coeff}."""
    n = len(polys)
    monos = [e for e in product(range(n + 1), repeat=n) if sum(e) == n]
    # lambda = (x_1..x_{n-1}, 1) on the degree-n principal lattice, which is
    # unisolvent for the dehomogenized polynomial
    points = [
        x + (1,)
        for x in product(range(n + 1), repeat=n - 1)
        if sum(x) <= n
    ]
    rows, rhs = [], []
    for lam in points:
        s = None
        for lam_i, p in zip(lam, polys):
            scaled = QPolyhedron.from_points(
                [tuple(F(lam_i) * x for x in v) for v in p.vertices]
            )
            s = scaled if s is None else minkowski_sum(s, scaled)
        rows.append([math.prod(F(l) ** e for l, e in zip(lam, mono)) for mono in monos])
        rhs.append(volume(s))
    # solve the square system exactly
    m = [row + [r] for row, r in zip(rows, rhs)]
    cols = len(monos)
    for c in range(cols):
        piv = next(i for i in range(c, len(m)) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = F(1) / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return {mono: m[i][-1] for i, mono in enumerate(monos)}


def signed_simplex_volume(poly):
    """Independent volume oracle: signed cones from an external apex."""
    n = poly.ambient
    apex = tuple(v + F(17 + 31 * i) for i, v in enumerate(poly.vertices[0]))
    total = F(0)
    for u, a in poly.ineqs:
        tight = [v for v in poly.vertices if vdot(u, v) == a]
        if not tight:
            continue
        sign = 1 if vdot(u, apex) < a else -1
        if vdot(u, apex) == a:
            continue
        for s in _decompose_simplices(tight):
            if len(s) != n:
                continue
            rows = [vsub(q, apex) for q in s]
            total += sign * abs(det(rows))
    return abs(total) / math.factorial(n)


def rand_points(rng, n, count, lo=-6, hi=6):
    return [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(count)]


# --------------------------------------------------------------- hulls


def test_hull_removes_interior_point():
    p = convex_hull([(0, 0), (4, 0), (0, 4), (1, 1)])
    assert sorted(p.vertices) == [(0, 0), (0, 4), (4, 0)]


def test_hull_collinear_is_segment():
    p = convex_hull([(0, 0, 0), (1, 1, 1), (3, 3, 3), (2, 2, 2)])
    assert p.affine_dim() == 1
    assert sorted(p.vertices) == [(0, 0, 0), (3, 3, 3)]


def test_hull_3d_matches_brute_force_oracle():
    rng = random.Random(3333)
    for count in (40, 15, 15, 15, 15):
        pts = rand_points(rng, 3, count, -4, 4)
        hull = convex_hull(pts)
        assert sorted(hull.vertices) == brute_hull_vertices(pts)


def test_hull_degenerate_coplanar_3d():
    pts = [(x, y, x + y) for x in range(3) for y in range(3)]
    hull = convex_hull(pts)
    assert hull.affine_dim() == 2
    assert sorted(hull.vertices) == [(0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 4)]


@PROPERTY
@given(st.integers(3, 4).flatmap(lambda d: point_sets(d, -3, 3, d + 1, 10)))
def test_facets_match_brute_force_oracle(pts):
    d = len(pts[0])
    assume(matrix_rank([vsub(q, pts[0]) for q in pts[1:]]) == d)
    assert _facets_fullrank(pts) == _facets_brute(pts)


@PROPERTY
@given(st.integers(2, 4).flatmap(lambda d: point_sets(d, -6, 6, 1, 12)))
def test_hv_roundtrip_property(pts):
    """V -> H -> V: the hull's inequalities give back its vertices."""
    hull = convex_hull(pts)
    back = QPolyhedron.from_hrep(hull.ineqs, ambient=hull.ambient)
    assert back.same_set(hull)
    assert back.vertices == hull.vertices


# --------------------------------------------------------------- lower hull


def test_lower_hull_figure_data():
    faces = lower_hull([((1, 0), 1), ((5, 0), 0), ((0, 5), 0)])
    sizes = sorted(len(f.points) for f in faces)
    assert sizes == [1, 1, 1, 2, 2, 2, 3]
    top = next(f for f in faces if len(f.points) == 3)
    assert top.witness == (F(1, 4), F(1, 4))


def test_lower_hull_point_above_is_in_no_face():
    faces = lower_hull([((0, 0), 0), ((2, 0), 0), ((0, 2), 0), ((1, 1), 5)])
    for f in faces:
        assert ((1, 1), 5) not in [(tuple(int(c) for c in p), int(h)) for p, h in f.points]


def test_lower_hull_matches_grid_minimization_oracle():
    rng = random.Random(41)
    for _ in range(8):
        lifted = [
            ((rng.randint(0, 5), rng.randint(0, 5)), F(rng.randint(0, 6)))
            for _ in range(7)
        ]
        ded = {}
        for pt, h in lifted:
            if pt not in ded or h < ded[pt]:
                ded[pt] = h
        items = sorted(ded.items())
        faces = lower_hull(items)
        face_sets = {
            frozenset(items.index((tuple(p), h)) for p, h in f.points) for f in faces
        }
        for a in range(-8, 9, 3):
            for b in range(-8, 9, 3):
                nu = (F(a, 4), F(b, 4))
                assert grid_argmin(items, nu) in face_sets


def test_lower_hull_witness_is_exact():
    rng = random.Random(42)
    lifted = [((rng.randint(0, 4), rng.randint(0, 4)), F(rng.randint(0, 5))) for _ in range(6)]
    ded = {}
    for pt, h in lifted:
        if pt not in ded or h < ded[pt]:
            ded[pt] = h
    items = sorted(ded.items())
    for f in lower_hull(items):
        got = grid_argmin(items, f.witness)
        want = frozenset(items.index((tuple(p), h)) for p, h in f.points)
        assert got == want


# --------------------------------------------------------------- minkowski


def test_minkowski_unit_square():
    seg_x = convex_hull([(0, 0), (1, 0)])
    seg_y = convex_hull([(0, 0), (0, 1)])
    sq = minkowski_sum(seg_x, seg_y)
    assert sorted(sq.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_minkowski_translate():
    tri = convex_hull([(0, 0), (2, 0), (0, 2)])
    pt = convex_hull([(3, 5)])
    s = minkowski_sum(tri, pt)
    assert sorted(s.vertices) == [(3, 5), (3, 7), (5, 5)]


def test_minkowski_support_function_oracle():
    rng = random.Random(123)
    for _ in range(10):
        p = convex_hull(rand_points(rng, 2, 6))
        q = convex_hull(rand_points(rng, 2, 6))
        s = minkowski_sum(p, q)
        for _ in range(100):
            d = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert s.support_value(d) == p.support_value(d) + q.support_value(d)


# --------------------------------------------------------------- volume


def test_volume_cubes_and_simplices():
    for n in (1, 2, 3):
        cube = convex_hull(list(product((0, 1), repeat=n)))
        assert volume(cube) == 1
        simplex = convex_hull(
            [(0,) * n] + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        )
        assert volume(simplex) == F(1, math.factorial(n))


def test_volume_lower_dimensional_is_zero():
    assert volume(convex_hull([(0, 0, 0), (1, 1, 0), (2, 0, 0)])) == 0


def test_volume_matches_signed_simplex_oracle():
    rng = random.Random(999)
    for _ in range(8):
        p = convex_hull(rand_points(rng, 3, 9))
        if p.affine_dim() < 3:
            continue
        assert volume(p) == signed_simplex_volume(p)


def test_volume_unbounded_raises():
    ray = QPolyhedron.from_hrep([((-1, 0), F(0)), ((0, -1), F(0)), ((0, 1), F(1))])
    with pytest.raises(Unbounded):
        volume(ray)


# --------------------------------------------------------------- mixed volume


def test_mixed_volume_simplex_pair():
    for n in (2, 4):
        simplex = convex_hull(
            [(0,) * n] + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        )
        # vol((l1+...+ln) simplex) = (l1+...+ln)^n/n!: coefficient of l1...ln is 1
        assert mixed_volume([simplex] * n) == 1


def test_mixed_volume_segments():
    seg_x = convex_hull([(0, 0), (1, 0)])
    seg_y = convex_hull([(0, 0), (0, 1)])
    assert mixed_volume([seg_x, seg_y]) == 1


def test_mixed_volume_diagonal_is_factorial_times_volume():
    rng = random.Random(2024)
    for n, count in ((2, 4), (3, 4), (4, 1)):
        for _ in range(count):
            p = convex_hull(rand_points(rng, n, n + 4))
            mv = mixed_volume([p] * n)
            assert mv == math.factorial(n) * volume(p)
            assert mixed_volume([p] * n, "normalized") == volume(p)


def test_mixed_volume_matches_interpolation_oracle():
    rng = random.Random(55)
    for n in (2, 3):
        for _ in range(3):
            polys = [convex_hull(rand_points(rng, n, 5, 0, 4)) for _ in range(n)]
            coeffs = interpolated_volume_poly(polys, n + 2)
            assert mixed_volume(polys) == coeffs[(1,) * n]


def test_mixed_volume_monotonicity():
    rng = random.Random(31)
    for _ in range(10):
        inner1 = convex_hull(rand_points(rng, 2, 5, 0, 3))
        inner2 = convex_hull(rand_points(rng, 2, 5, 0, 3))
        outer1 = convex_hull(list(inner1.vertices) + rand_points(rng, 2, 3, -2, 6))
        outer2 = convex_hull(list(inner2.vertices) + rand_points(rng, 2, 3, -2, 6))
        assert mixed_volume([inner1, inner2]) <= mixed_volume([outer1, outer2])


def test_mixed_volume_symmetry():
    rng = random.Random(66)
    p = convex_hull(rand_points(rng, 2, 5))
    q = convex_hull(rand_points(rng, 2, 5))
    assert mixed_volume([p, q]) == mixed_volume([q, p])


# --------------------------------------------------------------- complexes


def test_polycomplex_face_compatibility():
    a = convex_hull([(0, 0), (1, 0), (0, 1)])
    b = convex_hull([(1, 0), (0, 1), (1, 1)])
    assert PolyComplex([a, b]).verify_face_compatible()
    c = convex_hull([(F(1, 2), 0), (2, 0), (2, 2)])
    assert not PolyComplex([a, c]).verify_face_compatible()


def test_is_face_of():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    edge = convex_hull([(0, 0), (1, 0)])
    vertex = convex_hull([(1, 1)])
    diag = convex_hull([(0, 0), (1, 1)])
    assert edge.is_face_of(sq)
    assert vertex.is_face_of(sq)
    assert not diag.is_face_of(sq)
