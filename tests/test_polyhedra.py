import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle_cells import face_cell
from polyhedra_helpers import contains, is_face_of, null_space, same_set, support_value
from troppadic import polyhedra
from troppadic.errors import Unbounded
from troppadic.polyhedra import (
    QPolyhedron,
    _facets_fullrank,
    _normalized,
    convex_hull,
    eliminate,
    lower_cells,
    lower_hull,
    minkowski_sum,
    mixed_volume,
    primitive,
    vadd,
    vdot,
    volume,
    vscale,
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


def fraction_rref(rows, dim):
    """(pivots, rows): the reduced row echelon form, by Fraction
    Gauss-Jordan elimination, with 1 at each pivot."""
    mat = [[F(x) for x in r] for r in rows]
    pivots = []
    for c in range(dim):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots, mat[: len(pivots)]


def row_echelon(rows):
    """(rank, pivot columns) by Fraction Gauss-Jordan elimination."""
    pivots, _ = fraction_rref(rows, len(rows[0]) if rows else 0)
    return len(pivots), pivots


def matrix_rank(rows):
    return row_echelon(rows)[0]


def det(rows):
    """Laplace expansion along the first row."""
    if not rows:
        return F(1)
    return sum(
        (-1) ** j * F(x) * det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x != 0
    )


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


def fan_simplices(pts):
    """Simplices covering conv(pts), vertices in convex position, with
    disjoint interiors: the first point coned over the fans of the facets
    that miss it.  Facets come from _facets_brute on the coordinates that
    span the affine hull."""
    dirs = [vsub(q, pts[0]) for q in pts[1:]]
    if not dirs:
        return [(pts[0],)]
    coords = []
    for c in range(len(pts[0])):
        if matrix_rank([[d[j] for j in coords + [c]] for d in dirs]) > len(coords):
            coords.append(c)
    proj = [tuple(q[c] for c in coords) for q in pts]
    out = []
    for _, _, tight in _facets_brute(proj):
        if 0 not in tight:
            out += [(pts[0],) + s for s in fan_simplices([pts[i] for i in tight])]
    return out


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
        for s in fan_simplices(tight):
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


def test_hull_rejects_points_of_different_lengths():
    with pytest.raises(ValueError):
        QPolyhedron.from_points([(0, 0), (1, 0, 5), (0, 1)])


def test_hull_reads_iterator_points_once():
    pts = [(0, 0), (2, 0), (0, 1)]
    assert QPolyhedron.from_points(iter(pts)) == QPolyhedron.from_points(pts)


def test_hull_reads_other_numbers_as_fractions():
    p = convex_hull([(0.5, 0), (0, 1), ("1/3", 1), (0, 0)])
    assert p == convex_hull([(F(1, 2), 0), (0, 1), (F(1, 3), 1), (0, 0)])
    assert p.vertices == ((0, 0), (0, 1), (F(1, 3), 1), (F(1, 2), 0))


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
@given(st.integers(1, 4).flatmap(lambda d: point_sets(d, -3, 3, d + 1, 10)))
def test_facets_match_brute_force_oracle(pts):
    d = len(pts[0])
    assume(matrix_rank([vsub(q, pts[0]) for q in pts[1:]]) == d)
    assert _facets_fullrank(pts) == _facets_brute(pts)


@st.composite
def affine_point_sets(draw):
    """Rational points in dimension 1-4 on a random affine subspace of
    dimension 0 to d (a line, a plane, ...), duplicates allowed."""
    d = draw(st.integers(1, 4))
    coords = st.fractions(-4, 4, max_denominator=3)
    base = draw(st.tuples(*[coords] * d))
    k = draw(st.integers(0, d))
    dirs = draw(st.lists(st.tuples(*[coords] * d), min_size=k, max_size=k))
    steps = st.lists(st.fractions(-2, 2, max_denominator=2), min_size=k, max_size=k)
    ts = draw(st.lists(steps, min_size=1, max_size=9))
    pts = [vadd(base, tuple(sum((t * w[j] for t, w in zip(tt, dirs)), F(0)) for j in range(d)))
           for tt in ts]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@PROPERTY
@given(affine_point_sets())
def test_affine_pivots_match_fraction_row_reduction(pts):
    dirs = [vsub(q, pts[0]) for q in pts[1:]]
    assert eliminate(dirs)[0] == row_echelon(dirs)[1]


@st.composite
def rational_matrices(draw):
    """(rows, dim): up to 6 rational rows of length dim in 1-5, square about
    half the time.  The first rows are a random basis of 0 to dim rows and
    the rest are integer combinations of it, so every rank shows up."""
    dim = draw(st.integers(1, 5))
    coords = st.one_of(st.integers(-3, 3), st.fractions(-4, 4, max_denominator=4))
    k = draw(st.integers(0, dim))
    basis = draw(st.lists(st.tuples(*[coords] * dim), min_size=k, max_size=k))
    nrows = dim if draw(st.booleans()) else draw(st.integers(0, 6))
    weights = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    rows = basis[:nrows]
    while len(rows) < nrows:
        ws = draw(weights)
        rows.append(tuple(sum((t * F(b[j]) for t, b in zip(ws, basis)), F(0)) for j in range(dim)))
    return rows, dim


@PROPERTY
@given(rational_matrices())
def test_eliminate_matches_fraction_oracles(case):
    rows, dim = case
    pivots, reduced, d = eliminate(rows)
    rank, want = row_echelon(rows)
    assert pivots == want
    assert QPolyhedron(dim, (), ((0,) * dim, *rows), (), ()).affine_dim() == len(want)
    for row, pc in zip(reduced, pivots):
        assert [row[c] for c in pivots] == [d if c == pc else 0 for c in pivots]
    if len(rows) == dim:
        # rows are cleared of their denominators, which scales det by each lcm
        scale = math.prod(math.lcm(*(x.denominator for x in r)) for r in rows)
        assert (abs(d) if rank == dim else 0) == abs(det(rows)) * scale
    basis = null_space(rows, dim)
    free = [c for c in range(dim) if c not in pivots]
    assert len(basis) == dim - rank == len(free)
    for w, fc in zip(basis, free):
        assert math.gcd(*w) == 1
        assert all(vdot(r, w) == 0 for r in rows)
        assert w[fc] > 0 and all(w[c] == 0 for c in free if c != fc)


@PROPERTY
@given(st.one_of(
    st.integers(1, 4).flatmap(lambda d: point_sets(d, -6, 6, 1, 12)), affine_point_sets()
))
def test_hv_roundtrip_property(pts):
    """V -> H -> V: the hull's inequalities give back its vertices, and
    every row is already normalized: a primitive int normal and a
    Fraction offset."""
    hull = convex_hull(pts)
    for u, a in hull.ineqs:
        assert all(type(x) is int for x in u) and type(a) is Fraction
        assert _normalized(u, a) == (u, a)
    back = QPolyhedron.from_hrep(hull.ineqs, ambient=hull.ambient)
    assert same_set(back, hull)
    assert back.vertices == hull.vertices


@PROPERTY
@given(affine_point_sets())
def test_hull_runs_one_double_description_in_every_dimension(pts):
    """One facet routine for every point hull: a hull of two or more
    distinct points, on a line, a plane or of full rank, runs the double
    description once."""
    assume(len(set(pts)) >= 2)
    with mock.patch.object(polyhedra, "_dd_masks", wraps=polyhedra._dd_masks) as dd:
        convex_hull(pts)
    assert dd.call_count == 1


# --------------------------------------------------------------- double description


def fraction_kernel(rows, dim):
    """Basis of {x : <row, x> = 0 for all rows}, Fraction vectors."""
    pivots, mat = fraction_rref(rows, dim)
    basis = []
    for fc in range(dim):
        if fc not in pivots:
            w = [F(0)] * dim
            w[fc] = F(1)
            for row, pc in zip(mat, pivots):
                w[pc] = -row[fc]
            basis.append(tuple(w))
    return basis


def fdot(a, b):
    return sum((F(x) * y for x, y in zip(a, b)), F(0))


def coset_canonizer(lin, dim):
    """v -> the canonical representative of the ray v + span(lin)."""
    pivots, basis = fraction_rref(lin, dim)

    def canon(v):
        v = [F(x) for x in v]
        for row, pc in zip(basis, pivots):
            f = v[pc]
            v = [x - f * y for x, y in zip(v, row)]
        lead = abs(next(x for x in v if x != 0))
        return tuple(x / lead for x in v)

    return canon


def brute_cone(rows, dim):
    """(lineality basis, extreme rays) of {x : <row, x> >= 0}, sharing no
    code with the library: the lineality space is the kernel of the rows;
    an extreme ray (in the complement of the lineality space) spans the
    kernel of some d - 1 - L independent rows plus the lineality basis, and
    is feasible.  Rays are canonical: reduced modulo the lineality space
    and scaled to a first nonzero entry of +-1."""
    lin = fraction_kernel(rows, dim)
    canon = coset_canonizer(lin, dim)
    rays = set()
    if len(lin) < dim:
        for sub in combinations(range(len(rows)), dim - 1 - len(lin)):
            ker = fraction_kernel([rows[i] for i in sub] + lin, dim)
            if len(ker) == 1:
                for x in (ker[0], tuple(-t for t in ker[0])):
                    if all(fdot(r, x) >= 0 for r in rows):
                        rays.add(canon(x))
    return lin, rays


def tight_mask(rows, v):
    return sum(1 << j for j, r in enumerate(rows) if fdot(r, v) == 0)


@st.composite
def cones(draw):
    """(rows, dim) in dimension 2-5: up to 6 integer combinations of a
    random basis of 1 to dim rows (so the cone has lines when the basis is
    short), or the rows (1, q) of up to 8 points q in {-1, 0, 1}^(dim-1)
    (the polar cone of their hull, where many rays are tight on more rows
    than they need); then duplicate rows, zero rows and opposite row pairs
    (equalities), in random order."""
    dim = draw(st.integers(2, 5))
    if draw(st.booleans()):
        k = draw(st.integers(1, dim))
        basis = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=k, max_size=k))
        weights = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
        rows = [
            tuple(sum(t * b[j] for t, b in zip(ws, basis)) for j in range(dim))
            for ws in draw(st.lists(weights, max_size=6))
        ]
    else:
        rows = [(1,) + q for q in draw(point_sets(dim - 1, -1, 1, 1, 8))]
    for extra in draw(st.lists(st.sampled_from(("dup", "zero", "opposite")), max_size=3)):
        if extra == "zero" or not rows:
            rows.append((0,) * dim)
        else:
            r = draw(st.sampled_from(rows))
            rows.append(r if extra == "dup" else tuple(-x for x in r))
    return draw(st.permutations(rows)), dim


@settings(PROPERTY, max_examples=200)
@given(cones())
def test_dd_matches_brute_force_cone_oracle(case):
    """The lines span the oracle's lineality space, the rays are its
    extreme rays (one per ray modulo the lines), every generator is
    primitive and every mask is the ray's tight set."""
    rows, dim = case
    lines, rays = polyhedra._dd_masks(rows, dim)
    lin, want = brute_cone(rows, dim)
    assert len(lines) == len(lin) == matrix_rank(lines)
    assert all(fdot(r, l) == 0 for r in rows for l in lines)
    canon = coset_canonizer(lin, dim)
    assert sorted(canon(v) for v, _ in rays) == sorted(want)
    for v in lines + [v for v, _ in rays]:
        assert math.gcd(*v) == 1
    for v, mask in rays:
        assert mask == tight_mask(rows, v)


@st.composite
def scaled_rows(draw):
    """(rows, dim, factors): up to 7 integer rows in dimension 1-4, zero
    and repeated rows included, and a positive integer for each row."""
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=7))
    factors = draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    return rows, dim, factors


@PROPERTY
@given(scaled_rows())
def test_dd_is_unchanged_by_positive_row_multiples(case):
    """Rows are inserted as given: a positive multiple of each row changes
    no line, no ray, no mask and no order."""
    rows, dim, factors = case
    scaled = [vscale(r, k) for r, k in zip(rows, factors)]
    assert polyhedra._dd_masks(scaled, dim) == polyhedra._dd_masks(rows, dim)


def assert_cone_oracle_vdata(poly, ineqs):
    """poly's vertices and rays are the extreme rays, and its lines span
    the lineality space, of the cone of the rows a - <u, x> >= 0 and
    t >= 0, by the brute-force oracle over every given row."""
    dim = poly.ambient + 1
    rows = [(F(a),) + tuple(-x for x in u) for u, a in ineqs] + [(1,) + (0,) * poly.ambient]
    lin, want = brute_cone(rows, dim)
    canon = coset_canonizer(lin, dim)
    got = [(1,) + v for v in poly.vertices] + [(0,) + r for r in poly.rays]
    assert sorted(canon(g) for g in got) == sorted(want)
    assert len(poly.lines) == len(lin)


def test_from_hrep_gives_the_dd_each_distinct_row_once():
    """Rows that repeat, also only after normalization, and the rows that
    two cells share reach the double description once each; the kept rows
    are the distinct ones in first-occurrence order, and the V-data are
    those of all the rows."""
    square = [((1, 0), F(1)), ((-1, 0), F(0)), ((0, 1), F(1)), ((0, -1), F(0))]
    rows = square + [((2, 0), 2), ((0, 1), F(1)), ((-3, 0), 0)]
    with mock.patch.object(polyhedra, "_dd_masks", wraps=polyhedra._dd_masks) as dd:
        poly = QPolyhedron.from_hrep(rows)
    assert poly.ineqs == tuple(square)
    assert len(dd.call_args.args[0]) == len(square) + 1  # and t >= 0
    assert_cone_oracle_vdata(poly, rows)
    # collinear lifted points give a cell the same equality row twice, and
    # the cells of one clipped complex share rows
    items = [((0, 0), 0), ((1, 0), 1), ((2, 0), 2), ((0, 1), 1), ((0, 2), 0), ((1, 1), 1)]
    cells = [cell for _, _, cell in lower_cells(items, [((-1, 0), F(2)), ((0, -1), F(2))])]
    assert all(len(set(c.ineqs)) == len(c.ineqs) for c in cells)
    shared = 0
    for a, b in combinations(cells, 2):
        distinct = tuple(dict.fromkeys(a.ineqs + b.ineqs))
        shared += len(a.ineqs) + len(b.ineqs) - len(distinct)
        with mock.patch.object(polyhedra, "_dd_masks", wraps=polyhedra._dd_masks) as dd:
            inter = a.intersection(b)
        sent = dd.call_args.args[0]
        assert len(sent) == len(set(sent)) == len(distinct) + 1
        assert inter.ineqs == distinct
        assert_cone_oracle_vdata(inter, a.ineqs + b.ineqs)
    assert shared > 0


# --------------------------------------------------------------- lower hull


def test_lower_hull_figure_data():
    items = [((0, 5), 0), ((1, 0), 1), ((5, 0), 0)]
    faces = lower_hull(items)
    sizes = sorted(len(f) for f in faces)
    assert sizes == [1, 1, 1, 2, 2, 2, 3]
    top = next(f for f in faces if len(f) == 3)
    witness, cell = {f: (nu, cell) for f, nu, cell in lower_cells(items)}[top]
    assert witness == (F(1, 4), F(1, 4))
    assert cell.vertices == ((F(1, 4), F(1, 4)),)


def test_lower_hull_point_above_is_in_no_face():
    faces = lower_hull([((0, 0), 0), ((2, 0), 0), ((0, 2), 0), ((1, 1), 5)])
    for f in faces:
        assert ((1, 1), 5) not in f


def test_lower_hull_of_nothing_is_empty():
    assert lower_hull([]) == []


def test_face_cell_rejects_non_faces_and_finer_remnants():
    # the middle point lies above the segment: no direction isolates it
    assert face_cell([((0,), 0), ((1,), 1), ((2,), 0)], (((1,), 1),)) == (None, None)
    # min(0, nu_1, nu_2): the cell of {x, y} is the ray nu_1 = nu_2 <= 0, and
    # the clip nu >= 0 leaves only its vertex, where all three terms tie
    items = [((0, 0), 0), ((0, 1), 0), ((1, 0), 0)]
    face = (((0, 1), 0), ((1, 0), 0))
    cells = {f: (nu, cell) for f, nu, cell in lower_cells(items)}
    witness, cell = cells[face]
    assert witness == (-1, -1) and cell.rays == ((-1, -1),)
    clip = (((-1, 0), 0), ((0, -1), 0))
    clipped = [f for f, _, _ in lower_cells(items, clip)]
    assert face not in clipped and len(clipped) == 3


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
        face_sets = {frozenset(items.index((tuple(p), h)) for p, h in f) for f in faces}
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
        witness, _ = face_cell(items, f)
        got = grid_argmin(items, witness)
        want = frozenset(items.index((tuple(p), h)) for p, h in f)
        assert got == want


@st.composite
def lifts(draw):
    """(point, height) pairs in dimension 1-3 with distinct points: free
    heights, supports on a line, or heights affine on the points."""
    d = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("free", "line", "affine")))
    if shape == "line":
        base = draw(st.tuples(*[st.integers(0, 3)] * d))
        step = draw(st.tuples(*[st.integers(-2, 2)] * d))
        count = draw(st.integers(2, 5))
        pts = list(dict.fromkeys(vadd(base, vscale(step, t)) for t in range(count)))
    else:
        pts = draw(point_sets(d, 0, 4, d + 2, 9))
    if shape == "affine":
        coeffs = st.fractions(-3, 3, max_denominator=3)
        c0, *c = draw(st.lists(coeffs, min_size=d + 1, max_size=d + 1))
        heights = [c0 + vdot(c, q) for q in pts]
    else:
        heights = [k % 3 for k in draw(st.permutations(range(len(pts))))]
    return sorted((tuple(map(F, q)), F(h)) for q, h in zip(pts, heights))


@PROPERTY
@given(lifts())
def test_lower_hull_faces_are_the_argmin_sets(items):
    """Each face's witness has exactly that face as its argmin, and every
    argmin set on a rational grid of directions is a face."""
    face_sets = set()
    for f in lower_hull(items):
        face = frozenset(items.index(pair) for pair in f)
        witness, cell = face_cell(items, f)
        assert grid_argmin(items, witness) == face
        assert contains(cell, witness)
        face_sets.add(face)
    grid = [F(a, 4) for a in range(-8, 9, 3)]
    for nu in product(grid, repeat=len(items[0][0])):
        assert grid_argmin(items, nu) in face_sets


@st.composite
def clipped_lifts(draw):
    """A lift of ``lifts`` with 0 to 2 clip rows <u, nu> <= a."""
    items = draw(lifts())
    n = len(items[0][0])
    normals = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    rows = st.tuples(normals, st.fractions(-3, 3, max_denominator=2))
    return items, draw(st.lists(rows, max_size=2))


@PROPERTY
@given(clipped_lifts())
def test_lifted_facets_match_brute_force_cone_oracle(case):
    """The lines and the facets of the lifted hull against the polar cone
    of the oracle: each facet is a ray tight on some item, with exactly
    the items it is tight on."""
    items, clip = case
    lift, lines, facets = polyhedra._lifted_facets(items, clip)
    den = math.lcm(*(x.denominator for p, h in items for x in p + (h,)))
    assert lift == [tuple(int(x * den) for x in p + (h,)) for p, h in items]
    dim = len(lift[0]) + 1
    rows = [(1,) + q for q in lift] + [(0,) * (dim - 1) + (1,)]
    rows += [(0,) + tuple(-x for x in u) + (a,) for u, a in clip]
    lin, want = brute_cone(rows, dim)
    on_lift = (1 << len(lift)) - 1
    want = sorted(r for r in want if tight_mask(rows, r) & on_lift)
    canon = coset_canonizer(lin, dim)
    got = []
    for c, tight in facets:
        c0 = -fdot(c, lift[min(tight)])
        assert tight == {i for i, q in enumerate(lift) if c0 + fdot(c, q) == 0}
        got.append(canon((c0,) + tuple(c)))
    assert sorted(got) == want
    assert len(lines) == len(lin) == matrix_rank(lines)
    assert all(fdot(r, l) == 0 for r in rows for l in lines)

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
            assert support_value(s, d) == support_value(p, d) + support_value(q, d)


def test_minkowski_sum_of_an_unbounded_polyhedron_raises():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    quadrant = QPolyhedron.from_hrep([((-1, 0), 0), ((0, -1), 0)])
    strip = QPolyhedron.from_hrep([((1, 0), 1), ((-1, 0), 0)])
    for other in (quadrant, strip):
        assert not other.is_bounded()
        with pytest.raises(Unbounded):
            minkowski_sum(square, other)
        with pytest.raises(Unbounded):
            minkowski_sum(other, square)


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


@PROPERTY
@given(st.integers(2, 4).flatmap(lambda d: point_sets(d, -6, 6, d + 1, 12)))
def test_volume_matches_signed_simplex_oracle(pts):
    p = convex_hull(pts)
    assume(p.affine_dim() == p.ambient)
    assert volume(p) == signed_simplex_volume(p)


@PROPERTY
@given(
    st.integers(2, 4).flatmap(lambda d: point_sets(d, -4, 4, d + 1, 10)),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 3)), max_size=6),
)
def test_volume_reads_facets_among_extra_rows(pts, den, picks):
    """Rows tight on a lower face (the sum of two facet rows) or slack
    change neither the polytope nor its volume."""
    hull = convex_hull([tuple(F(x, den) for x in q) for q in pts])
    assume(hull.affine_dim() == hull.ambient)
    rows = list(hull.ineqs)
    extra = []
    for i, j, slack in picks:
        (u, a), (w, b) = rows[i % len(rows)], rows[j % len(rows)]
        if vadd(u, w) != (0,) * hull.ambient:
            extra.append((vadd(u, w), a + b + F(slack, 2)))
    poly = QPolyhedron.from_hrep(extra + rows + extra, ambient=hull.ambient)
    assert poly.vertices == hull.vertices
    assert volume(poly) == volume(hull) == signed_simplex_volume(hull)


def scaled_point_sets():
    """(points, den): integer points in dimension 1-4 divided by den, kept
    as ints when den is 1 and as Fractions otherwise."""
    def over(pts, den):
        return [tuple(F(x, den) if den > 1 else x for x in q) for q in pts]

    return st.builds(
        lambda pts, den: (over(pts, den), den),
        st.integers(1, 4).flatmap(lambda d: point_sets(d, -4, 4, 1, 9)),
        st.integers(1, 3),
    )


@PROPERTY
@given(scaled_point_sets())
def test_volume_of_kept_data_matches_rebuilt_and_oracle(case):
    """A point hull's kept integer data gives the volume that a polytope
    without it (the same inequalities through from_hrep) gets, and the
    independent oracle's."""
    pts, _ = case
    hull = convex_hull(pts)
    back = QPolyhedron.from_hrep(hull.ineqs, ambient=hull.ambient)
    assert back._kept is None
    assert volume(hull) == volume(back) == signed_simplex_volume(hull)


@PROPERTY
@given(scaled_point_sets(), st.data())
def test_integer_minkowski_sum_matches_fraction_sums(case, data):
    """Two point hulls, each over its own denominator, sum their integer
    vertices over the lcm without scaling any point set again, and give
    the hull of the Fraction vertex sums; a polytope built another way
    gives the same sum."""
    pts, den = case
    d = len(pts[0])
    other_den = data.draw(st.integers(1, 6))
    other = [tuple(F(x, other_den) for x in q) for q in data.draw(point_sets(d, -4, 4, 1, 9))]
    p, q = convex_hull(pts), convex_hull(other)
    with mock.patch.object(polyhedra, "_int_scaled", wraps=polyhedra._int_scaled) as scaled:
        s = minkowski_sum(p, q)
    assert scaled.call_count == 0
    want = QPolyhedron.from_points([vadd(v, w) for v in p.vertices for w in q.vertices])
    assert s == want
    assert s.key() == want.key() and repr(s) == repr(want) and s.ineqs == want.ineqs
    assert volume(s) == volume(want)
    assert minkowski_sum(dataclasses.replace(p, _kept=None), q) == want


@PROPERTY
@given(scaled_point_sets())
def test_kept_data_is_not_compared(case):
    hull = convex_hull(case[0])
    bare = dataclasses.replace(hull, _kept=None)
    assert bare._kept is None and hull._kept is not None
    assert bare == hull and hash(bare) == hash(hull)
    assert bare.key() == hull.key() and repr(bare) == repr(hull)
    assert bare.affine_dim() == hull.affine_dim()


def test_volume_of_a_point_hull_rebuilds_nothing():
    rng = random.Random(808)
    for n in (1, 2, 3, 4):
        hull = convex_hull(rand_points(rng, n, n + 4))
        with (
            mock.patch.object(
                QPolyhedron, "affine_dim", autospec=True, side_effect=QPolyhedron.affine_dim
            ) as rank,
            mock.patch.object(polyhedra, "_facets_fullrank", wraps=polyhedra._facets_fullrank) as fac,
        ):
            assert volume(hull) == signed_simplex_volume(hull)
        assert rank.call_count == fac.call_count == 0


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mixed_volume_hulls_each_subset_sum_once(monkeypatch, n):
    """The one subset sum the recursion hulls is P_2 + ... + P_n, built by
    max(n - 2, 0) Minkowski sums; no volume is taken."""
    rng = random.Random(70 + n)
    polys = [convex_hull(rand_points(rng, n, n + 1, 0, 2)) for _ in range(n)]
    calls = {"minkowski_sum": 0, "volume": 0}

    def counted(name):
        inner = getattr(polyhedra, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(polyhedra, name, wrapper)

    counted("minkowski_sum")
    counted("volume")
    assert mixed_volume(polys) == interpolated_volume_poly(polys)[(1,) * n]
    assert calls == {"minkowski_sum": max(n - 2, 0), "volume": 0}

    def no_facets(pts):
        raise AssertionError("volume re-hulled its polytope")

    monkeypatch.setattr(polyhedra, "_facets_fullrank", no_facets)
    for p in polys:
        volume(p)


def test_mixed_volume_checks_the_normalization_first(monkeypatch):
    cube = convex_hull(list(product((0, 1), repeat=3)))
    calls = []
    for name in ("minkowski_sum", "_facets_fullrank", "_hull_data", "eliminate"):
        inner = getattr(polyhedra, name)
        monkeypatch.setattr(
            polyhedra, name, lambda *a, _f=inner, _n=name: calls.append(_n) or _f(*a)
        )
    with pytest.raises(ValueError, match="normalization"):
        mixed_volume([cube, cube, cube], "bogus")
    assert calls == []
    assert mixed_volume([cube, cube, cube]) == 6 and calls.count("minkowski_sum") == 1


@st.composite
def polytope_lists(draw, n):
    """n polytopes in R^n over denominators 1-3: full, flat (in the
    hyperplane x_n = 2 x_1 - x_(n-1)), segments and single points, some
    rebuilt through from_hrep so that they keep no integer data."""
    polys = []
    for _ in range(n):
        shape = draw(st.sampled_from(["full"] * 4 + ["flat", "segment", "point"]))
        lo = -1 if n == 4 else -2
        pts = draw(point_sets(n, lo, -lo, n + 1 if shape == "full" else 1, min(n + 2, 5)))
        if shape == "flat" and n > 1:
            pts = [q[:-1] + (2 * q[0] - q[-2],) for q in pts]
        elif shape == "segment":
            pts = pts[:2]
        elif shape == "point":
            pts = pts[:1]
        den = draw(st.integers(1, 3))
        hull = convex_hull([tuple(F(x, den) for x in q) for q in pts])
        if draw(st.booleans()):
            hull = QPolyhedron.from_hrep(hull.ineqs, ambient=n)
            assert hull._kept is None
        polys.append(hull)
    return polys


# the oracle takes 35 volumes of Minkowski sums in R^4, about 1 s
@pytest.mark.parametrize("n, examples", [(1, 30), (2, 30), (3, 30), (4, 5)])
def test_mixed_volume_recursion_matches_interpolation_oracle(n, examples):
    """The mixed area recursion gives the coefficient that the
    interpolation oracle reads off volumes of Minkowski sums, and the same
    value in every order of the polytopes, though it treats the first one
    apart."""

    @settings(PROPERTY, max_examples=examples)
    @given(polytope_lists(n))
    def check(polys):
        want = interpolated_volume_poly(polys)[(1,) * n]
        for perm in permutations(polys):
            assert mixed_volume(list(perm)) == want
        assert mixed_volume(polys, "normalized") == want / math.factorial(n)

    check()


def test_mixed_volume_is_zero_by_minkowskis_criterion():
    """Zero exactly when some k of the polytopes sum to less than k
    dimensions: three segments in one plane, two parallel segments beside
    a cube, and a point beside a square."""
    seg = [convex_hull([(0, 0, 0), v]) for v in ((1, 0, 0), (0, 1, 0), (1, 2, 0))]
    cube = convex_hull(list(product((0, 1), repeat=3)))
    parallel = convex_hull([(0, 0, 0), (F(1, 2), 1, 0)])
    wide = convex_hull([(-1, -2, 0), (1, 2, 0)])
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    point = convex_hull([(F(1, 3), 2)])
    for polys in (seg, [cube, parallel, wide], [parallel, cube, wide], [square, point]):
        assert mixed_volume(polys) == 0 == interpolated_volume_poly(polys)[(1,) * len(polys)]
    assert mixed_volume([cube, seg[0], seg[1]]) == 1


def test_mixed_volume_symmetry():
    rng = random.Random(66)
    p = convex_hull(rand_points(rng, 2, 5))
    q = convex_hull(rand_points(rng, 2, 5))
    assert mixed_volume([p, q]) == mixed_volume([q, p])


# --------------------------------------------------------------- complexes


class PolyComplex:
    """A finite list of cells, checked for face compatibility pairwise."""

    def __init__(self, cells):
        self.cells = list(cells)

    def verify_face_compatible(self) -> bool:
        for i, a in enumerate(self.cells):
            for b in self.cells[i + 1:]:
                x = a.intersection(b)
                if x.is_empty():
                    continue
                if not (is_face_of(x, a) and is_face_of(x, b)):
                    return False
        return True


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
    assert is_face_of(edge, sq)
    assert is_face_of(vertex, sq)
    assert not is_face_of(diag, sq)
