"""Polyhedron queries that only the tests ask: null spaces, direction
spaces, linear minima, support values, point and set containment and the
face relation, as plain functions of a ``QPolyhedron``, and the JSON
document of a polyhedron.  Used by tests only."""

from fractions import Fraction

from troppadic.errors import Unbounded
from troppadic.formats import SCHEMA_VERSION, frac_str
from troppadic.polyhedra import (
    QPolyhedron,
    _kernel,
    eliminate,
    primitive,
    vdot,
    vscale,
    vsub,
)

F = Fraction


def to_frac_point(pt):
    return tuple(F(x) for x in pt)


def null_space(rows, dim):
    """Basis of {w : <row, w> = 0 for all rows}, primitive integer vectors."""
    return _kernel(*eliminate(rows), dim)


def direction_space(poly):
    """Primitive basis of the linear space parallel to the affine hull."""
    if poly.is_empty():
        return []
    base = poly.vertices[0]
    dirs = [vsub(v, base) for v in poly.vertices[1:]]
    dirs += [to_frac_point(r) for r in poly.rays]
    dirs += [to_frac_point(l) for l in poly.lines]
    _, reduced, d = eliminate(dirs)
    return [primitive(r if d > 0 else vscale(r, -1)) for r in reduced]


def linear_min(poly, objective):
    """(min of <objective, x> over poly, attained: bool); None if empty."""
    if poly.is_empty():
        return None, False
    obj = to_frac_point(objective)
    for r in poly.rays:
        if vdot(obj, r) < 0:
            return None, False  # unbounded below
    for l in poly.lines:
        if vdot(obj, l) != 0:
            return None, False
    return min(vdot(obj, v) for v in poly.vertices), True


def support_value(poly, direction):
    """max of <direction, x>; raises Unbounded when infinite."""
    m, ok = linear_min(poly, vscale(to_frac_point(direction), F(-1)))
    if not ok:
        raise Unbounded("support function infinite in this direction")
    return -m


def contains(poly, point):
    """True when the point satisfies every inequality of poly."""
    point = to_frac_point(point)
    return all(vdot(u, point) <= a for u, a in poly.ineqs)


def is_subset_of(a, b):
    """True when every vertex of a lies in b and its rays and lines stay in b."""
    return (
        all(contains(b, v) for v in a.vertices)
        and all(all(vdot(u, r) <= 0 for u, _ in b.ineqs) for r in a.rays)
        and all(all(vdot(u, l) == 0 for u, _ in b.ineqs) for l in a.lines)
    )


def same_set(a, b):
    """True when a and b are the same point set."""
    return is_subset_of(a, b) and is_subset_of(b, a)


def is_face_of(face, poly):
    """True when face = poly cut by the inequalities tight on face."""
    if face.is_empty():
        return True
    if not is_subset_of(face, poly):
        return False
    tight = []
    for u, a in poly.ineqs:
        if all(vdot(u, v) == a for v in face.vertices) and all(
            vdot(u, r) == 0 for r in face.rays
        ) and all(vdot(u, l) == 0 for l in face.lines):
            tight.append((u, a))
    cut = QPolyhedron.from_hrep(
        tuple(poly.ineqs) + tuple((vscale(u, -1), -a) for u, a in tight),
        ambient=poly.ambient,
    )
    return same_set(cut, face)


def polytope_to_dict(poly: QPolyhedron) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": poly.ambient,
        "vertices": [[frac_str(x) for x in v] for v in poly.vertices],
        "rays": [list(r) for r in poly.rays],
        "lines": [list(l) for l in poly.lines],
    }
