import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracle_cells import (
    cell_rows,
    face_cell,
    initial_form,
    is_in_tropicalization,
    ray_directions,
    vert_nu,
    vertices,
)
from polyhedra_helpers import contains, direction_space, is_face_of, same_set
from series_helpers import shift_trop
from troppadic.errors import PrecisionExhausted, ZeroSeries
from troppadic.polyhedra import QPolyhedron, lower_hull, vdot
from troppadic.series import RestrictedSeries, TailBound
from troppadic.tropical import (
    TropCell,
    _support_items,
    connected_components,
    render_svg,
    trop_complex,
)

F = Fraction


def poly(p, nvars, mapping, domain=None):
    if domain is None:
        domain = (None,) * nvars
    return RestrictedSeries(p, nvars, mapping, domain=domain)


def fig_series(p=5):
    return poly(p, 2, {(1, 0): p, (p, 0): 1, (0, p): 1})


def exps_of(vert):
    return {i for i, _ in vert}


def on_complex(data, point):
    """Whether some cell of the complex holds the point."""
    return any(contains(c.cell, point) for c in data.cells)


# --------------------------------------------------------------- vert sets


def test_vert_nu_triple_point():
    f = fig_series()
    vs = vert_nu(f, (F(1, 4), F(1, 4)))
    assert vs == {((1, 0), F(1)), ((5, 0), F(0)), ((0, 5), F(0))}


def test_vert_nu_linear_region():
    f = fig_series()
    assert exps_of(vert_nu(f, (1, 1))) == {(1, 0)}
    assert exps_of(vert_nu(f, (0, 0))) == {(5, 0), (0, 5)}


def test_initial_form_examples():
    f = fig_series()
    assert set(initial_form(f, (0, 0)).terms) == {(5, 0), (0, 5)}
    assert set(initial_form(f, (1, 1)).terms) == {(1, 0)}
    assert not is_in_tropicalization(f, (1, 1))
    assert set(initial_form(f, (F(1, 4), F(1, 4))).terms) == {(1, 0), (5, 0), (0, 5)}


# --------------------------------------------------------------- the complex


def test_figure_complex():
    data = trop_complex(fig_series())
    assert vertices(data) == [(F(1, 4), F(1, 4))]
    assert ray_directions(data) == sorted([(0, 1), (5, 1), (-1, -1)])
    assert len(data.cells) == 4
    newton = [c.newton() for c in data.cells]
    duals = sorted(tuple(sorted(nc.vertices)) for nc in newton)
    assert duals == sorted(
        [
            ((1, 0), (5, 0)),
            ((0, 5), (1, 0)),
            ((0, 5), (5, 0)),
            ((0, 5), (1, 0), (5, 0)),
        ]
    )
    # index pairing: each Newton cell is dual to the trop cell of equal index
    for k, nc in enumerate(newton):
        assert sorted(exps_of(data.cells[k].vert)) == sorted(
            set(nc.vertices)
            | {v for v, _ in data.cells[k].vert}
        )
        # orthogonality of the paired spans
        for du in direction_space(data.cells[k].cell):
            for dv in direction_space(nc):
                assert vdot(du, dv) == 0
        assert data.cells[k].dim() + nc.affine_dim() == 2


def test_monomial_has_empty_complex():
    data = trop_complex(poly(5, 2, {(3, 1): 7}))
    assert data.is_empty()


def test_zero_series_raises():
    with pytest.raises(ZeroSeries):
        trop_complex(poly(5, 2, {}))


def test_univariate_root_valuation():
    data = trop_complex(poly(5, 1, {(1,): 1, (0,): -5}))
    assert len(data.cells) == 1
    assert data.cells[0].cell.vertices == ((F(1),),)


def test_domain_clipping():
    # over [0, oo)^2 the (-1,-1) ray of the figure complex becomes a bounded
    # segment, so only the two upward rays survive as directions
    f = RestrictedSeries(5, 2, {(1, 0): 5, (5, 0): 1, (0, 5): 1})
    data = trop_complex(f)
    assert ray_directions(data) == sorted([(0, 1), (5, 1)])


def test_clipping_keeps_face_pairing():
    f = RestrictedSeries(5, 2, {(1, 0): 5, (5, 0): 1, (0, 5): 1})
    data = trop_complex(f)
    seg = [
        c
        for c in data.cells
        if c.cell.is_bounded() and c.cell.affine_dim() == 1
    ]
    assert len(seg) == 1
    vs = sorted(seg[0].cell.vertices)
    assert vs == [(F(0), F(0)), (F(1, 4), F(1, 4))]


@pytest.mark.parametrize(
    "domain", [(None, None), (F(0), F(0)), (F(-1), None), (F(1, 2), F(-1, 3))]
)
def test_one_cell_construction_per_lower_face(monkeypatch, domain):
    # every cell, clipped or not, is read off the one lifted hull: no cell
    # takes an H-to-V conversion of its own
    terms = {(1, 0): 5, (5, 0): 1, (0, 5): 1, (2, 2): 1}
    f = RestrictedSeries(5, 2, terms, domain=domain)
    calls = []
    build = QPolyhedron.from_hrep

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(QPolyhedron, "from_hrep", staticmethod(counting))
    data = trop_complex(f)
    assert calls == []
    assert data.cells


@st.composite
def drawn_series(draw):
    """(shape, series) in 1-3 variables, over the torus or a drawn domain.
    Shapes: valuations drawn from {0, 1, 2}, so that many repeat;
    valuations affine in the exponents, so that one lower facet holds
    every point; a support on a line, whose cells have lines in 2 and 3
    variables; or a support in a plane in 3 variables."""
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("repeated", "affine", "line", "plane")))
    coords = st.tuples(*[st.integers(0, 3)] * n)
    if shape == "line" or (shape == "plane" and n == 3):
        base = draw(coords)
        k = 1 if shape == "line" else 2
        steps = draw(st.lists(coords.filter(any), min_size=k, max_size=k))
        multiples = st.tuples(*[st.integers(0, 3)] * k)

        def point(ts):
            return tuple(b + sum(t * s[j] for t, s in zip(ts, steps)) for j, b in enumerate(base))

        support = sorted(
            {point(ts) for ts in draw(st.lists(multiples, min_size=2, max_size=5, unique=True))}
        )
    else:
        support = draw(st.lists(coords, min_size=2, max_size=7, unique=True))
    if shape == "affine":
        c0, *c = draw(st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1))
        vals = [c0 + vdot(c, q) for q in support]
    else:
        vals = draw(st.lists(st.integers(0, 2), min_size=len(support), max_size=len(support)))
    bound = st.builds(F, st.integers(-2, 2), st.integers(1, 3))
    domain = draw(st.tuples(*[st.none() | bound] * n))
    return shape, poly(5, n, {q: F(5) ** v for q, v in zip(support, vals)}, domain)


def face_cell_complex(f):
    """vert -> (witness, cell) by one H-to-V conversion per lower face."""
    items = sorted((i, c.valuation()) for i, c in f.terms.items())
    n = f.nvars
    clip = tuple(
        (tuple(-1 if k == j else 0 for k in range(n)), -r)
        for j, r in enumerate(f.domain)
        if r is not None
    )
    out = {}
    for face in lower_hull(items):
        if len(face) > 1:
            witness, cell = face_cell(items, face, clip)
            if cell is not None:
                out[frozenset((tuple(int(x) for x in q), h) for q, h in face)] = (witness, cell)
    return out


def is_canonical(cell):
    """Each line's last nonzero entry, at its free column, is positive, and
    the other lines, the vertices and the rays are 0 at that column."""
    for k, line in enumerate(cell.lines):
        c = max(i for i, x in enumerate(line) if x)
        others = cell.lines[:k] + cell.lines[k + 1:]
        if line[c] <= 0 or any(v[c] for v in cell.vertices + cell.rays + others):
            return False
    return True


def test_line_cells_have_one_canonical_form():
    # a support on the line through (1, 0) and (3, 1): the line (-1, 2) of
    # the null space, and the vertex where its free column nu_2 is 0
    [c] = trop_complex(poly(5, 2, {(1, 0): 1, (3, 1): 25})).cells
    assert c.cell.lines == ((-1, 2),) and c.cell.vertices == ((F(-1), F(0)),)
    assert c.witness == (F(-1), F(0))
    # every cell of a support in a plane has the same line
    data = trop_complex(poly(5, 3, {(0, 0, 1): 1, (1, 0, 0): 1, (1, 1, 1): 1}))
    assert {c.cell.lines for c in data.cells} == {((1, -1, 1),)}
    assert all(is_canonical(c.cell) for c in data.cells)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn_series())
def test_cells_read_off_the_lifted_hull_are_face_cells(shape_and_series):
    """A cell's rows are some of the oracle's, and they alone give the
    oracle's cell.  A cell without lines equals the oracle's down to the
    types: vertices, rays and witness.  A cell with lines has the oracle's
    set, a witness whose argmin is exactly its face, and the canonical
    form; the complex has one line basis."""
    shape, f = shape_and_series
    data = trop_complex(f)
    want = face_cell_complex(f)
    assert {c.vert for c in data.cells} == set(want)

    def fields(witness, cell):
        return repr((witness, cell.ambient, cell.vertices, cell.rays, cell.lines))

    for c in data.cells:
        witness, cell = want[c.vert]
        assert set(c.cell.ineqs) <= set(cell.ineqs)
        assert QPolyhedron.from_hrep(c.cell.ineqs, ambient=f.nvars).key() == cell.key()
        if not cell.lines:
            assert fields(c.witness, c.cell) == fields(witness, cell)
            continue
        assert same_set(c.cell, cell)
        assert vert_nu(f, c.witness) == c.vert and contains(c.cell, c.witness)
        assert is_canonical(c.cell)
    assert len({c.cell.lines for c in data.cells}) <= 1
    if all(r is None for r in f.domain):
        if shape == "affine":
            assert any(len(c.vert) == len(f.terms) for c in data.cells)
        if shape == "line" and f.nvars > 1:
            assert all(c.cell.lines for c in data.cells)


# --------------------------------------------------------------- shifting


def test_shift_trop_identity():
    f = fig_series()
    d0 = trop_complex(f)
    d1 = trop_complex(shift_trop(f, 0, (1, 1)))
    assert [c.cell.key() for c in d0.cells] == [c.cell.key() for c in d1.cells]


def test_shift_trop_translates_vertex():
    f = fig_series()
    d = trop_complex(shift_trop(f, 1, (1, 1)))
    assert vertices(d) == [(F(5, 4), F(5, 4))]


def test_shift_trop_univariate():
    f = poly(5, 1, {(1,): 1, (0,): -5})
    d = trop_complex(shift_trop(f, F(1, 2), (1,)))
    assert d.cells[0].cell.vertices == ((F(3, 2),),)


# --------------------------------------------------------------- components


def line_series(p, v0, v1, v2):
    return poly(p, 2, {(0, 0): p**v0, (1, 0): p**v1, (0, 1): p**v2})


def test_two_generic_lines_cross_once():
    f1 = trop_complex(line_series(5, 0, 0, 0))
    f2 = trop_complex(line_series(5, 2, 1, 0))
    comps = connected_components([f1, f2])
    assert len(comps) == 1
    pts = {v for piece in comps[0] for v in piece.cell.vertices}
    assert pts == {(F(0), F(1))}
    assert all(p.cell.affine_dim() == 0 for p in comps[0])


def test_disjoint_complexes():
    f1 = trop_complex(poly(5, 2, {(0, 0): 1, (1, 0): 1}))
    f2 = trop_complex(poly(5, 2, {(0, 0): 5, (1, 0): 1}))
    assert connected_components([f1, f2]) == []


def test_shared_ray_component():
    f1 = trop_complex(poly(5, 2, {(1, 0): 1, (0, 1): 1}))
    f2 = trop_complex(line_series(5, 0, 0, 0))
    comps = connected_components([f1, f2])
    assert len(comps) == 1
    assert any(piece.cell.rays for piece in comps[0])


def test_components_refuse_a_finite_domain():
    clipped = trop_complex(poly(5, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}, domain=(F(0), None)))
    with pytest.raises(ValueError, match="torus"):
        connected_components([clipped, trop_complex(line_series(5, 2, 1, 0))])


def test_one_intersection_per_piece(monkeypatch):
    # each piece is one intersection of two cells: no empty tuple is tried
    # and no two pieces are intersected to link them.  Here the pieces are
    # a shared ray and its vertex.
    fs = [poly(5, 2, {(1, 0): 1, (0, 1): 1}), line_series(5, 0, 0, 0)]
    datas = [trop_complex(f) for f in fs]
    calls = []
    build = QPolyhedron.from_hrep

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(QPolyhedron, "from_hrep", staticmethod(counting))
    comps = connected_components(datas)
    assert [len(c) for c in comps] == [2]
    assert len(calls) == 2


def components_oracle(datas):
    """The components by brute force: intersect every tuple of cells, then
    join two pieces whenever they intersect."""
    pieces = {}
    for combo in product(*(d.cells for d in datas)):
        inter = combo[0].cell
        for c in combo[1:]:
            inter = inter.intersection(c.cell)
        if not inter.is_empty():
            pieces[inter.key()] = inter
    comps = []
    for piece in pieces.values():
        touching = [c for c in comps if any(not piece.intersection(q).is_empty() for q in c)]
        comps = [c for c in comps if c not in touching] + [[piece] + sum(touching, [])]
    return comps


def torus_system(n):
    """n random series in n variables over the torus."""
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * n),
        st.builds(lambda c, k: c * 5**k, st.integers(1, 4), st.integers(0, 1)),
    )
    one = st.lists(term, min_size=2, max_size=4, unique_by=lambda t: t[0])
    return st.lists(one, min_size=n, max_size=n).map(
        lambda fs: [poly(5, n, dict(f)) for f in fs]
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3).flatmap(torus_system))
def test_components_match_the_brute_force_oracle(fs):
    datas = [trop_complex(f) for f in fs]
    comps = connected_components(datas)
    keys = {frozenset(p.cell.key() for p in c) for c in comps}
    assert keys == {frozenset(p.key() for p in c) for c in components_oracle(datas)}
    for c in comps:
        assert [p.cell.key() for p in c] == sorted(p.cell.key() for p in c)
        for p in c:
            # each piece keeps one cell of every complex, and lies in it
            assert all(cell in d.cells for cell, d in zip(p.cells, datas))
            assert all(contains(cell.cell, v) for cell in p.cells for v in p.cell.vertices)
    assert [c[-1].cell.key() for c in comps] == sorted(c[-1].cell.key() for c in comps)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3).flatmap(torus_system))
def test_pieces_match_the_rebuild_from_every_row(fs):
    """Each piece is the polyhedron of every row of the cells it was cut
    from: ``cell_rows`` of each cell's whole support, by one H-to-V
    conversion on the test side."""
    datas = [trop_complex(f) for f in fs]
    for comp in connected_components(datas):
        for piece in comp:
            rows = [
                row
                for f, c in zip(fs, piece.cells)
                for row in cell_rows(_support_items(f), tuple(sorted(c.vert)))
            ]
            rebuilt = QPolyhedron.from_hrep(rows, ambient=len(fs))
            assert piece.cell.key() == rebuilt.key()


# --------------------------------------------------------------- properties


def rand_bivariate(rng, p=5):
    terms = {}
    for _ in range(rng.randint(3, 8)):
        i = (rng.randint(0, 5), rng.randint(0, 5))
        terms[i] = rng.choice([1, 2, 3, 4]) * p ** rng.randint(0, 5)
    return poly(p, 2, terms)


def test_duality_on_random_series():
    rng = random.Random(205)
    for _ in range(12):
        f = rand_bivariate(rng)
        if len(f.terms) < 2:
            continue
        data = trop_complex(f)
        newton = [c.newton() for c in data.cells]
        for c, nc in zip(data.cells, newton):
            assert c.dim() + nc.affine_dim() == 2
            for du in direction_space(c.cell):
                for dv in direction_space(nc):
                    assert vdot(du, dv) == 0
        # face reversal over all cell pairs
        for i, ci in enumerate(data.cells):
            for j, cj in enumerate(data.cells):
                left = is_face_of(ci.cell, cj.cell) and not same_set(ci.cell, cj.cell)
                right = is_face_of(newton[j], newton[i]) and not same_set(newton[j], newton[i])
                if ci.vert > cj.vert:
                    assert left and right


def _val_int(a, p):
    v = F(0)
    while a % p == 0:
        a //= p
        v += 1
    return v


def test_planted_roots_lie_on_the_complex():
    rng = random.Random(777)
    p = 5
    for _ in range(40):
        # univariate with planted roots
        roots = [p ** rng.randint(0, 3) * rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        f = poly(p, 1, {(0,): 1})
        for a in roots:
            f = f * poly(p, 1, {(1,): 1, (0,): -a})
        data = trop_complex(f)
        for a in roots:
            assert on_complex(data, (_val_int(a, p),))


def test_planted_roots_bivariate():
    rng = random.Random(778)
    p = 5
    for _ in range(20):
        a = p ** rng.randint(0, 2) * rng.randint(1, 4)
        b = p ** rng.randint(0, 2) * rng.randint(1, 4)
        unit = poly(p, 2, {(0, 0): rng.randint(1, 4), (1, 1): p * rng.randint(1, 3)})
        f = poly(p, 2, {(1, 0): 1, (0, 0): -a}) * poly(p, 2, {(0, 1): 1, (0, 0): -b})
        f = f * unit
        data = trop_complex(f)
        assert on_complex(data, (_val_int(a, p), _val_int(b, p)))


def test_monomial_criterion_matches_support():
    rng = random.Random(31337)
    for _ in range(15):
        f = rand_bivariate(rng)
        if len(f.terms) < 2:
            continue
        data = trop_complex(f)
        for _ in range(12):
            nu = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
            assert is_in_tropicalization(f, nu) == on_complex(data, nu)


def test_tail_is_certified_on_each_cell():
    # 25 + X: one cell at nu = 2, where the tail floor is 2*(1 + 2) + 10 = 16
    f = RestrictedSeries(5, 1, {(0,): 25, (1,): 1}, tail=TailBound(1, F(1), F(10)))
    data = trop_complex(f)
    assert vertices(data) == [(F(2),)]
    assert exps_of(vert_nu(f, (F(2),))) == {(0,), (1,)}
    # a tail that reaches the minimum on the cell still raises
    low = RestrictedSeries(5, 1, {(0,): 25, (1,): 1}, tail=TailBound(1, F(1), F(-5)))
    with pytest.raises(PrecisionExhausted):
        trop_complex(low)


_GRID = [F(k, 4) for k in range(-8, 9)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.builds(lambda c, k: c * 5**k, st.integers(1, 4), st.integers(0, 5)),
        min_size=2,
        max_size=8,
    ),
    st.tuples(*[st.sampled_from([None, F(-1), F(0), F(1, 2)])] * 2),
    st.none() | st.tuples(st.sampled_from([F(3, 2), F(2), F(3)]), st.integers(-4, 12)),
)
def test_clipped_complex_is_the_tropicalization_over_the_domain(terms, domain, tail):
    if tail is None:
        f = poly(5, 2, terms, domain=domain)
    else:
        # a tail needs every domain coordinate bounded below
        domain = tuple(F(0) if r is None else r for r in domain)
        cutoff = max(map(sum, terms))
        f = RestrictedSeries(5, 2, terms, tail=TailBound(cutoff, tail[0], F(tail[1])), domain=domain)
    try:
        data = trop_complex(f)
    except PrecisionExhausted:
        assert tail is not None  # the tail reaches the minimum on some cell
        return
    for nu in ((a, b) for a in _GRID for b in _GRID):
        inside = all(r is None or x >= r for x, r in zip(nu, domain))
        if on_complex(data, nu):
            assert inside
            # nu lies in the relative interior of its lowest cell, and the
            # cell's tail certificate lets vert_nu certify there
            lowest = min((c for c in data.cells if contains(c.cell, nu)), key=TropCell.dim)
            assert lowest.vert == vert_nu(f, nu)
            assert len(lowest.vert) >= 2
        elif tail is None:
            assert not (inside and is_in_tropicalization(f, nu))
    for c in data.cells:
        # far out along the cell's rays, beyond the grid
        far = tuple(w + 1000 * sum(r[k] for r in c.cell.rays) for k, w in enumerate(c.witness))
        assert c.vert == vert_nu(f, far)


def test_vert_union_is_finite_and_covered():
    rng = random.Random(9)
    f = rand_bivariate(rng)
    data = trop_complex(f)
    union = set()
    for c in data.cells:
        union |= exps_of(c.vert)
    assert union <= set(f.terms)


# --------------------------------------------------------------- svg


def test_svg_deterministic():
    data = trop_complex(fig_series())
    a = render_svg(data)
    b = render_svg(trop_complex(fig_series()))
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "&#947;4" in a  # four labeled cells


def test_line_cell_directions_and_svg():
    # 1 + 5x in two variables: one cell, the line nu_1 = -1
    data = trop_complex(poly(5, 2, {(0, 0): 1, (1, 0): 5}))
    assert [len(c.cell.lines) for c in data.cells] == [1]
    assert ray_directions(data) == [(0, -1), (0, 1)]
    # one line for the tropical line, one for its Newton segment
    svg = render_svg(data)
    assert svg.count("<line") == 2
    # every coordinate lies on the 1200 x 600 canvas
    for name, value in re.findall(r'\b(c?[xy])[12]?="([-0-9.]+)"', svg):
        assert 0 <= float(value) <= (1200 if name.endswith("x") else 600)
