"""Cell oracle for the tests: the dual cell of one lower face by one H-to-V
double description of its rows, with no lifted hull.  Used by tests only."""

from fractions import Fraction

from troppadic.polyhedra import QPolyhedron, vadd, vdot, vsub

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
