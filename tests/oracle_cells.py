"""Cell oracle for the tests: the dual cell of one lower face by one H-to-V
double description of its rows, with no lifted hull, and the argmin sets
(``vert_nu``) and vertices and rays of a complex.  Used by tests only."""

from fractions import Fraction

from troppadic.errors import PrecisionExhausted, ZeroSeries
from troppadic.polyhedra import QPolyhedron, primitive, vadd, vdot, vsub
from troppadic.series import RestrictedSeries
from troppadic.tropical import _support_items

F = Fraction


def cell_rows(items, face):
    """The rows <u, nu> <= a of a face's dual cell: the points off the
    face, then the equality pairs of the points on it."""
    base_pt, base_h = face[0]
    inside = set(face)
    rows = [(vsub(base_pt, q), hq - base_h) for q, hq in items if (q, hq) not in inside]
    for q, hq in face[1:]:
        rows.append((vsub(q, base_pt), base_h - hq))
        rows.append((vsub(base_pt, q), hq - base_h))
    return rows


def relint_point(cell):
    """A point strictly inside every inequality that is not an implicit
    equality: the vertex mean, or, when such an inequality is tight on
    every vertex (it is then strict on some ray), the mean plus the sum of
    the rays."""
    n = len(cell.vertices)
    mean = tuple(sum(v[i] for v in cell.vertices) / n for i in range(cell.ambient))

    def implicit(u, a):
        return (
            all(vdot(u, v) == a for v in cell.vertices)
            and all(vdot(u, r) == 0 for r in cell.rays)
            and all(vdot(u, l) == 0 for l in cell.lines)
        )

    if all(implicit(u, a) or vdot(u, mean) < a for u, a in cell.ineqs):
        return mean
    for r in cell.rays:
        mean = vadd(mean, r)
    return mean


def face_cell(items, face, clip=()):
    """(nu, cell): the cell of directions nu whose weighted minimum
    <(nu, 1), (q, h)> over the items is attained on the whole face, cut by
    the ``clip`` inequalities, and a witness nu in it whose argmin is
    exactly the face; (None, None) when the cell is empty or the witness
    finds a larger argmin.

    ``items`` are (point, height) pairs with distinct points and ``face``
    is a tuple of some of them.  The rows are ``cell_rows``, then ``clip``;
    the double description's line basis follows that order.
    """
    rows = cell_rows(items, face) + list(clip)
    cell = QPolyhedron.from_hrep(rows, ambient=len(items[0][0]))
    if cell.is_empty():
        return None, None
    nu = relint_point(cell)
    vals = [hq + vdot(q, nu) for q, hq in items]
    m = min(vals)
    if {pair for pair, v in zip(items, vals) if v == m} != set(face):
        return None, None
    return nu, cell


def vert_nu(f: RestrictedSeries, nu):
    """Exact argmin set of v(a_I) + <I, nu> over all exponents."""
    nu = tuple(F(x) for x in nu)
    items = _support_items(f)
    if not items:
        if f.is_certified_zero():
            raise ZeroSeries("zero series has no vert sets")
        raise PrecisionExhausted("no stored terms to minimize over")
    vals = [(v + vdot(i, nu), i, v) for i, v in items]
    m = min(x[0] for x in vals)
    if not f.tail.is_empty:
        floor = f.tail.floor_at(min(nu))
        if floor is None or floor <= m:
            raise PrecisionExhausted(
                "tail bound cannot exclude the minimum at this direction"
            )
    return {(i, v) for val, i, v in vals if val == m}


def initial_form(f: RestrictedSeries, nu) -> RestrictedSeries:
    """Sum of the minimum-attaining terms; a monomial exactly off the complex."""
    vs = vert_nu(f, nu)
    return RestrictedSeries(
        f.p, f.nvars, {i: f.terms[i] for i, _ in vs}, domain=f.domain
    )


def is_in_tropicalization(f: RestrictedSeries, nu) -> bool:
    return len(vert_nu(f, nu)) >= 2


def ray_directions(data):
    dirs = set()
    for c in data.cells:
        for r in c.cell.rays:
            dirs.add(primitive(r))
        for l in c.cell.lines:
            dirs.add(primitive(l))
            dirs.add(primitive(tuple(-x for x in l)))
    return sorted(dirs)


def vertices(data):
    out = set()
    for c in data.cells:
        if c.cell.affine_dim() == 0:
            out.update(c.cell.vertices)
    return sorted(out)
