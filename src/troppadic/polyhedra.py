"""Exact rational polyhedral geometry.

Conventions: an H-representation is a list of distinct inequalities (u, a)
meaning <u, x> <= a with primitive integer u and rational a; equalities are
stored as inequality pairs.  V-representations carry rational vertices plus
primitive integer rays and lines.  Points are the only V-input: a hull
takes points and gives a bounded polytope, and only ``from_hrep`` and the
dual cells of ``lower_cells`` give rays and lines.  Input is made exact
once: a point keeps its int and Fraction entries, a vector is cleared of
denominators times their lcm, and a row is normalized and kept once, so
the double description inserts each distinct row once, as given.

One engine does the polyhedral work: an integer double-description cone
method.  H-to-V conversion, emptiness and intersections run it on the
homogenized inequalities; a hull in every dimension reads its facets off
the rays of the polar cone, and each facet's tight set off the bit mask
of the rows its ray is tight on, which the engine keeps exact: the
points are the first rows.  Everything is deterministic: canonical
primitive normals, lexicographic sorting, no randomization anywhere.

Faces come from one facet list: every face of a polytope is the set of
its points on some of its facets, so the facets of a face are its
largest proper intersections with the facet tight sets.  ``lower_hull``
hulls the lift plus an upward ray once and walks the faces by these
intersections.  A point hull works on its points scaled to integers and
keeps them: its integer vertices, their denominator, its facet tight sets
read off the masks and its affine dimension.  ``volume`` walks the faces
by those tight sets; ``minkowski_sum`` sums the integer vertices of two
bounded polytopes over the lcm of their denominators, its one path; and
``mixed_volume`` recurses on the faces of one Minkowski sum's facets.

Linear algebra runs on one exact kernel, ``eliminate`` (fraction-free
Gauss-Jordan, Bareiss 1968): affine ranks read its pivot columns, null
spaces its reduced integer rows, a simplex volume its common
pivot value, and ``bounds`` solves its linear systems with it.

The cells of a regular subdivision's dual complex come from the same
lifted hull (Maclagan & Sturmfels, section 3.1), and from nothing else:
``lower_cells`` reads the cell of a lower face (the directions whose
weighted minimum is attained on it) off the facets that hold the face, a
vertex for each lower facet and a ray for each vertical one.  A clipped
domain enters the lift as one ray per clip row, and a support that spans
no full-dimensional lift gives every cell the same canonical lines.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Unbounded

F = Fraction


# ---------------------------------------------------------------------------
# small exact linear algebra


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vdot(a, b):
    return sum(map(operator.mul, a, b))


def vscale(a, c):
    return tuple(x * c for x in a)


def _exact_point(pt):
    """The point with its int and Fraction entries kept, others read as Fractions."""
    return tuple(x if type(x) in (int, F) else F(x) for x in pt)


def _cleared(vec):
    """The rational vector times the lcm of its denominators, in integers."""
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec]


def primitive(vec):
    """Scale a rational vector to coprime integers, preserving direction."""
    if not all(isinstance(x, int) for x in vec):
        vec = _cleared(vec)
    g = math.gcd(*vec)
    return tuple(vec) if g <= 1 else tuple(i // g for i in vec)


def eliminate(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of rational rows.

    Each row is first cleared of its denominators.  Returns (pivots,
    reduced, d): the pivot columns, one reduced integer row per pivot, and
    their common pivot value d (1 with no pivot), so reduced[i] is d at
    pivots[i] and 0 at the other pivots.  Every division is exact
    (Sylvester's identity); for a square matrix of full rank |d| is |det|.
    """
    mat = [_cleared(row) for row in rows]
    pivots, d = [], 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top, p = mat[r], mat[r][c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(c)
        d = p
        if len(pivots) == len(mat):
            break
    return pivots, mat[: len(pivots)], d


def _kernel(pivots, reduced, d, dim):
    """Null space basis read off an elimination: one primitive vector per
    free column, positive there and 0 at the other free columns."""
    s = 1 if d > 0 else -1
    basis = []
    for fc in range(dim):
        if fc not in pivots:
            w = [0] * dim
            w[fc] = abs(d)
            for row, pc in zip(reduced, pivots):
                w[pc] = -s * row[fc]
            basis.append(primitive(w))
    return basis


# ---------------------------------------------------------------------------
# hulls: facet enumeration for full-rank point sets


def _int_scaled(pts):
    """(integer points, den): the exact points times the lcm den of all
    their denominators.  Plane normals and tight sets are invariant under
    the scaling, and integer arithmetic is much faster."""
    den = math.lcm(*(x.denominator for q in pts for x in q))
    return [tuple(x.numerator * (den // x.denominator) for x in q) for q in pts], den


def _facets_fullrank(pts, den=1):
    """Facets of conv(pts / den), full-rank integer points, as (normal,
    offset, tight) sorted: each ray (c0, c) of the polar cone
    {(c0, c) : c0 + <c, q> >= 0} of the integer points is the facet
    <-c, x> <= c0 / den, tight on the points its mask holds.  The normal is
    primitive: c0 = -<c, q> on a tight integer point q, so gcd(c) divides
    c0."""
    _, rays = _polar_cone(pts)
    return sorted(
        (tuple(-x for x in c[1:]), F(c[0], den), _bits(m)) for c, m in rays
    )


def _subfaces(face, facet_sets):
    """The facets of a face, as index sets.  Each proper face of the face
    lies on a facet of the polytope that does not hold the whole face, so
    the facets of the face are its largest proper nonempty cuts by the
    polytope's facet tight sets."""
    cuts = {face & s for s in facet_sets} - {face, frozenset()}
    return [c for c in cuts if not any(c < d for d in cuts)]


# ---------------------------------------------------------------------------
# double description


def _dd_masks(rows, dim):
    """Generators of {x : <row, x> >= 0}: (lines, rays), primitive integers,
    each ray paired with the bit mask of the rows it is tight on.

    The double description method (Fukuda & Prodon 1996) in integer
    arithmetic, on the rows as given: a positive multiple of a row changes
    no ray and no mask.  Each mask is kept exact when row k is inserted:

    - a ray that survives row k gains bit k exactly when it is zero on it;
    - a new ray sp*vn - sn*vp is a positive combination of two rays that
      are feasible on the earlier rows, so it is tight exactly where both
      are, plus row k: mask (mp & mn) | bit k;
    - while a line is eliminated, the rebuilt rays keep their mask and gain
      bit k, and the eliminated line becomes a ray tight on every earlier
      row.

    Two rays are adjacent when no third ray is tight on every row they
    share; exact masks make that combinatorial test exact.  It runs only on
    pairs that share at least dim - 2 - L rows, L the number of lines: the
    face two adjacent rays span has dimension L + 2, and the rows tight on
    a face of dimension f have rank dim - f, so fewer shared rows rule
    adjacency out.  Survivors of row k are already primitive and distinct;
    only the new combinations and the rays rebuilt while a line is
    eliminated are normalized and deduplicated.
    """
    lines = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # (vector, zero-mask) pairs
    for k, row in enumerate(rows):
        bit = 1 << k
        dots = [vdot(l, row) for l in lines]
        nz = [(l, d) for l, d in zip(lines, dots) if d]
        if nz:
            l0, d0 = nz[0]
            if d0 < 0:
                l0, d0 = vscale(l0, -1), -d0
            lines = [l for l, d in zip(lines, dots) if not d]
            lines += [primitive(vsub(vscale(l, d0), vscale(l0, d))) for l, d in nz[1:]]
            cand = [
                (vsub(vscale(v, d0), vscale(l0, vdot(v, row))), m | bit) for v, m in rays
            ]
            cand.append((l0, bit - 1))
            rays, seen = [], set()
            for vec, mask in cand:
                vec = primitive(vec)
                if vec not in seen and any(vec):
                    seen.add(vec)
                    rays.append((vec, mask))
            continue
        pos, zero, neg = [], [], []
        for vec, mask in rays:
            s = vdot(vec, row)
            (pos if s > 0 else zero if s == 0 else neg).append((vec, mask, s))
        masks = [m for _, m in rays]
        need = dim - 2 - len(lines)
        rays = [(v, m) for v, m, _ in pos] + [(v, m | bit) for v, m, _ in zero]
        seen = set()
        for vp, mp, sp in pos:
            for vn, mn, sn in neg:
                common = mp & mn
                if common.bit_count() < need:
                    continue
                # vp and vn are tight on common; a third such ray means
                # they are not adjacent
                hits = 0
                for mo in masks:
                    if mo & common == common:
                        hits += 1
                        if hits > 2:
                            break
                else:
                    w = primitive(vsub(vscale(vn, sp), vscale(vp, sn)))
                    if w not in seen:
                        seen.add(w)
                        rays.append((w, common | bit))
    return lines, rays


def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _polar_cone(points, rays=()):
    """(lines, rays) of the cone of (c0, c) with c0 + <c, q> >= 0 on the
    points and <c, r> >= 0 on the rays: each generator (c0, c) with c != 0
    is a valid inequality <-c, x> <= c0.  The rays are sorted (vector,
    mask) pairs of ``_dd_masks``; the points are the first rows, so bit i
    of a mask says that (c0, c) is tight on points[i]."""
    rows = [(1,) + tuple(q) for q in points]
    rows += [(0,) + tuple(r) for r in rays]
    lines, rays = _dd_masks(rows, len(points[0]) + 1)
    return sorted(lines), sorted(rays)


# ---------------------------------------------------------------------------
# the polyhedron type


@dataclass(frozen=True)
class QPolyhedron:
    """An exact rational polyhedron with both representations."""

    ambient: int
    ineqs: tuple  # ((u ints), a Fraction) meaning <u,x> <= a
    vertices: tuple
    rays: tuple
    lines: tuple
    # a point hull's (integer vertices in vertices order, their common
    # denominator, facet tight sets as vertex indices, affine dimension)
    _kept: tuple = field(default=None, compare=False, repr=False)

    # -- constructors --

    @staticmethod
    def from_hrep(ineqs, ambient=None) -> "QPolyhedron":
        """The polyhedron {x : <u, x> <= a}, each normalized row once; its
        V-data are the generators of the homogenized cone, whose DD rows
        are (a, -u) cleared of a's denominator, plus t >= 0."""
        folded = list(dict.fromkeys(_normalized(u, a) for u, a in ineqs))
        if ambient is None:
            if not folded:
                raise ValueError("ambient dimension required for an empty H-rep")
            ambient = len(folded[0][0])
        rows = [(a.numerator,) + tuple(-x * a.denominator for x in u) for u, a in folded]
        rows.append((1,) + (0,) * ambient)
        lines, rays = _dd_masks(rows, ambient + 1)
        vertices = tuple(sorted(tuple(F(x, r[0]) for x in r[1:]) for r, _ in rays if r[0] > 0))
        if not vertices:  # empty: the whole cone lies in t = 0
            return QPolyhedron(ambient, tuple(folded), (), (), ())
        # rays at t = 0 recede; every line is at t = 0, as t >= 0 is a row
        return QPolyhedron(
            ambient,
            tuple(folded),
            vertices,
            tuple(sorted(r[1:] for r, _ in rays if r[0] == 0)),
            tuple(sorted(l[1:] for l in lines)),
        )

    @staticmethod
    def from_points(points) -> "QPolyhedron":
        """The convex hull of the points, read once; an entry that is
        neither an int nor a Fraction is read as a Fraction."""
        points = list(points)
        if not points:
            raise ValueError("need at least one point")
        ambient = len(points[0])
        if any(len(q) != ambient for q in points):
            raise ValueError("points must have one length")
        pts, den = _int_scaled([_exact_point(q) for q in points])
        return _hull_of_points(list(dict.fromkeys(pts)), den, ambient)

    # -- queries --

    def is_empty(self) -> bool:
        return not self.vertices

    def is_bounded(self) -> bool:
        return not self.rays and not self.lines

    def affine_dim(self) -> int:
        if self.is_empty():
            return -1
        base = self.vertices[0]
        dirs = [vsub(v, base) for v in self.vertices[1:]] + list(self.rays + self.lines)
        return len(eliminate(dirs)[0])

    def intersection(self, other: "QPolyhedron") -> "QPolyhedron":
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return QPolyhedron.from_hrep(
            tuple(self.ineqs) + tuple(other.ineqs), ambient=self.ambient
        )

    def key(self):
        return (self.vertices, self.rays, self.lines)

    def __repr__(self):
        return (
            f"QPolyhedron(dim={self.affine_dim()}/{self.ambient}, "
            f"V={len(self.vertices)}, R={len(self.rays)}, L={len(self.lines)})"
        )


def _normalized(u, a):
    """The inequality <u, x> <= a rescaled to a primitive integer normal."""
    pu, a = primitive(u), F(a)
    nz = next((i for i, x in enumerate(pu) if x != 0), None)
    if nz is None and a < 0:
        raise ValueError("inconsistent trivial inequality")
    if nz is None or pu == tuple(u):  # already normalized: intersections pass carried rows
        return pu, a
    return pu, a * pu[nz] / F(u[nz])


def _hull_of_points(pts, den, ambient):
    """The hull of the distinct integer points pts / den: each facet of the
    points in the coordinates that span their affine hull, lifted by
    placing its primitive normal at those columns, plus the equality pairs
    of the kernel.  It keeps its integer data (``QPolyhedron._kept``)."""
    pivots, reduced, d = eliminate([vsub(q, pts[0]) for q in pts[1:]])
    ineqs = []
    for w in _kernel(pivots, reduced, d, ambient):
        c = vdot(w, pts[0])
        ineqs.append((w, F(c, den)))
        ineqs.append((tuple(-x for x in w), F(-c, den)))
    facets = _facets_fullrank([tuple(q[c] for c in pivots) for q in pts], den) if pivots else []
    # the smallest face through a point is the meet of the facets through
    # it; the point is a vertex exactly when that face holds it alone (a
    # single point has no facet)
    meet = [None] * len(pts)
    for n, off, tight in facets:
        u = [0] * ambient
        for c, x in zip(pivots, n):
            u[c] = x
        ineqs.append((tuple(u), off))
        tight_set = set(tight)
        for i in tight:
            meet[i] = tight_set if meet[i] is None else meet[i] & tight_set
    order = sorted((i for i, m in enumerate(meet) if m == {i}), key=pts.__getitem__) or [0]
    index = {i: k for k, i in enumerate(order)}
    tights = tuple(frozenset(index[i] for i in t if i in index) for _, _, t in facets)
    verts = tuple(pts[i] for i in order)
    vertices = tuple(tuple(F(x, den) for x in q) for q in verts)
    kept = (verts, den, tights, len(pivots))
    return QPolyhedron(ambient, tuple(sorted(ineqs)), vertices, (), (), kept)


def convex_hull(points) -> QPolyhedron:
    """Minimal V-representation plus a valid H-representation."""
    return QPolyhedron.from_points(points)


# ---------------------------------------------------------------------------
# lower hulls (regular subdivisions)


def _lifted_items(lifted):
    """Sorted (exact point, Fraction height) pairs; a duplicate point keeps
    its minimal height (the rest can never support a minimizing
    functional)."""
    best = {}
    for pt, h in lifted:
        pt = _exact_point(pt)
        h = F(h)
        if pt not in best or h < best[pt]:
            best[pt] = h
    return sorted(best.items())


def _lifted_facets(items, clip=()):
    """(lift, lines, facets) of conv(lift) + cone(e, (-u, a) for each clip
    row (u, a)), e the upward unit vector, from one double description of
    its polar cone; ``lift`` is the items as (point, height) rows scaled to
    integers.

    A facet is (c, tight): c the inner normal, the polar ray without its
    constant, and tight the indices of the items on it.  The facet is
    lower when c's height entry is positive and vertical when it is 0; no
    facet is upper.  The ray (-u, a) keeps every lower normal (nu, 1)
    inside <u, nu> <= a and every vertical normal (c, 0) inside
    <u, c> <= 0.  When the lift and its rays are not full-dimensional the
    polar cone has lines, but the lines are 0 on the height entry, on
    every item and on every clip ray, so neither the tight sets nor the
    kinds depend on them.
    """
    n = len(items[0][0])
    lift, _ = _int_scaled([p + (h,) for p, h in items])
    up = [(0,) * n + (1,)] + [primitive(vscale(u, -1) + (a,)) for u, a in clip]
    lines, rays = _polar_cone(lift, rays=up)
    on_lift = (1 << len(lift)) - 1  # a ray tight on no item is the trivial 0 <= c0
    facets = [(c[1:], frozenset(_bits(m & on_lift))) for c, m in rays if m & on_lift]
    return lift, lines, facets


def _lower_faces(items, facets):
    """Every lower face as (the sorted tuple of its items, its index set),
    smallest faces first: the lower facets and, walked by ``_subfaces``
    over all facets, their faces."""
    facet_sets = [t for _, t in facets]
    todo = [t for c, t in facets if c[-1] > 0]
    seen = set()
    while todo:
        face = todo.pop()
        if face not in seen:
            seen.add(face)
            todo.extend(_subfaces(face, facet_sets))
    faces = [(tuple(items[i] for i in sorted(f)), f) for f in seen]
    return sorted(faces, key=lambda pair: (len(pair[0]), pair[0]))


def lower_hull(lifted):
    """The faces of the lower hull, each the sorted tuple of its (point,
    height) pairs, smallest faces first.

    Input: (point in Z^n or Q^n, height in Q) pairs; a duplicate point
    keeps its minimal height.  ``lower_cells`` builds the dual cells.
    """
    items = _lifted_items(lifted)
    if not items:
        return []
    return [face for face, _ in _lower_faces(items, _lifted_facets(items)[2])]


def _cell_rows(items, face):
    """The rows of a face's dual cell: the points off the face, then the
    equality pairs of the points on it."""
    base_pt, base_h = face[0]
    inside = set(face)
    rows = [
        # (hq - base_h) + <q - base_pt, nu> >= 0, strictly for exactness
        (vsub(base_pt, q), hq - base_h)
        for q, hq in items
        if (q, hq) not in inside
    ]
    for q, hq in face[1:]:
        rows.append((vsub(q, base_pt), base_h - hq))
        rows.append((vsub(base_pt, q), hq - base_h))
    return rows


def lower_cells(lifted, clip=()):
    """(face, nu, cell) for each lower face of two points or more whose
    dual cell is nonempty and has a witness nu with exactly the face as
    argmin.  The cell of a face is the set of directions nu whose weighted
    minimum <(nu, 1), (q, h)> over the items is attained on the whole
    face, cut by the ``clip`` inequalities <u, nu> <= a.

    Every cell is read off the facets of one lifted hull, the lift plus an
    upward ray plus a ray (-u, a) for each clip row (see
    ``_lifted_facets``): the cell of a face has one vertex c/c_h for each
    lower facet (c, c_h) that holds the face, and one ray c for each
    vertical facet (c, 0) that does.  Its rows are ``_cell_rows``, then
    the normalized clip rows.  Its witness is the vertex mean, plus the
    sum of the rays when the mean has a larger argmin or sits on a clip
    row that some ray leaves.

    When the support directions and the clip normals do not span the
    space, every cell has the same lines: the null space basis of
    ``_kernel``, each line positive at its free column and 0 at the
    others.  The vertices and rays are slid along the lines to where the
    free columns are 0.
    """
    items = _lifted_items(lifted)
    if not items:
        return []
    clip = tuple(_normalized(u, a) for u, a in clip)
    lift, lines, facets = _lifted_facets(items, clip)
    n = len(items[0][0])
    basis, free = [], []
    if lines:
        dirs = [vsub(q[:-1], lift[0][:-1]) for q in lift[1:]] + [u for u, _ in clip]
        pivots, reduced, d = eliminate(dirs)
        basis = _kernel(pivots, reduced, d, n)
        free = [c for c in range(n) if c not in pivots]

    def slide(v):
        for w, fc in zip(basis, free):
            v = vsub(v, vscale(w, F(v[fc], w[fc])))
        return v

    def argmin(nu):
        # on the integer lift: <q, (nu, 1)> scaled by the lift's and nu's
        # common denominators
        c = _cleared(nu + (1,))
        vals = [vdot(q, c) for q in lift]
        m = min(vals)
        return {i for i, v in enumerate(vals) if v == m}

    int_items = [(q[:-1], q[-1]) for q in lift]
    out = []
    for face, f in _lower_faces(items, facets):
        if len(f) < 2:
            continue
        vertices, rays = [], []
        for c, tight in facets:
            if f <= tight:
                if c[-1]:
                    vertices.append(slide(tuple(F(x, c[-1]) for x in c[:-1])))
                else:
                    rays.append(primitive(slide(c[:-1])))
        nu = tuple(sum(v[i] for v in vertices) / len(vertices) for i in range(n))
        if argmin(nu) != f or any(
            vdot(u, nu) == a and any(vdot(u, r) for r in rays) for u, a in clip
        ):
            nu = functools.reduce(vadd, rays, nu)
            if argmin(nu) != f:
                continue
        # the rows made on the integer lift: the scale cancels when a row
        # is normalized
        rows = _cell_rows(int_items, tuple(int_items[i] for i in sorted(f)))
        ineqs = tuple(dict.fromkeys([*(_normalized(u, a) for u, a in rows), *clip]))
        cell = QPolyhedron(
            n, ineqs, tuple(sorted(vertices)), tuple(sorted(rays)), tuple(sorted(basis))
        )
        out.append((face, nu, cell))
    return out


# ---------------------------------------------------------------------------
# volume and mixed volume


def _hull_data(poly, what):
    """A bounded polytope as a point hull, whose ``_kept`` holds its integer
    data: a polytope built another way hulls its vertices."""
    if not poly.is_bounded():
        raise Unbounded(f"{what} needs a bounded polyhedron")
    return poly if poly._kept else QPolyhedron.from_points(poly.vertices)


def _over_lcm(hulls):
    """(vertex lists, den): the kept integer vertices of point hulls over
    the lcm den of their denominators; a list is scaled only when its
    denominator differs."""
    den = math.lcm(*(h._kept[1] for h in hulls))
    kept = [h._kept[:2] for h in hulls]
    return [vs if d == den else [vscale(v, den // d) for v in vs] for vs, d in kept], den


def volume(poly: QPolyhedron) -> Fraction:
    """Exact Euclidean volume; 0 for lower-dimensional input."""
    if poly.is_empty():
        return F(0)
    n = poly.ambient
    pts, den, facet_sets, dim = _hull_data(poly, "volume")._kept
    if dim < n:
        return F(0)

    def pulled(face):
        # simplices covering the face: its first index coned over the
        # pulled simplices of the sub-faces that miss it
        apex = min(face)
        subs = [s for s in _subfaces(face, facet_sets) if apex not in s]
        if not subs:
            return [(apex,)]
        return [(apex,) + t for s in subs for t in pulled(s)]

    # each pulled simplex is full-dimensional, so |d| is |det| of its edges
    total = 0
    for s in pulled(frozenset(range(len(pts)))):
        total += abs(eliminate([vsub(pts[i], pts[s[0]]) for i in s[1:]])[2])
    return F(total, den ** n * math.factorial(n))


def minkowski_sum(p: QPolyhedron, q: QPolyhedron) -> QPolyhedron:
    """The hull of the pairwise vertex sums of two bounded polytopes, summed
    in integers over the lcm of their denominators."""
    if p.ambient != q.ambient:
        raise ValueError("ambient dimension mismatch")
    (pv, qv), den = _over_lcm([_hull_data(x, "Minkowski sum") for x in (p, q)])
    pts = dict.fromkeys(vadd(v, w) for v in pv for w in qv)
    return _hull_of_points(list(pts), den, p.ambient)


def _mixed(sets, hull=None):
    """n! V(conv(sets[0]), ...) of n integer point lists in Z^n, see
    ``mixed_volume``; ``hull`` is the point hull of sum(sets[1:]) if known."""
    n = len(sets)
    if n == 1:
        return max(sets[0])[0] - min(sets[0])[0]
    s = hull._kept[0] if hull else sets[1]
    for f in [] if hull else sets[2:]:
        s = list(dict.fromkeys(vadd(p, q) for p in s for q in f))
    pivots, reduced, d = eliminate([vsub(q, s[0]) for q in s[1:]])
    if len(pivots) < n - 1:
        return 0
    if len(pivots) == n - 1:
        w = _kernel(pivots, reduced, d, n)[0]
        normals = [w, vscale(w, -1)]
    else:  # a full-rank point hull's inequalities are its facets
        normals = [f[0] for f in (hull.ineqs if hull else _facets_fullrank(s))]
    total = 0
    for u in normals:
        j = next(i for i, x in enumerate(u) if x)
        faces = []
        for pts in sets[1:]:
            dots = [vdot(u, q) for q in pts]
            top = max(dots)
            faces.append([q[:j] + q[j + 1 :] for q, d in zip(pts, dots) if d == top])
        total += max(vdot(u, q) for q in sets[0]) * _mixed(faces) // abs(u[j])
    return total


def mixed_volume(polys, normalization="coefficient") -> Fraction:
    """The lambda_1...lambda_n coefficient of vol(sum lambda_i P_i), n! V;
    ``normalized`` mode divides by n!.  The mixed area recursion (Schneider,
    *Convex Bodies*, section 5.1): sum over the outer primitive normals u of
    the (n - 1)-faces of S = P_2 + ... + P_n (n - 2 Minkowski sums) of
    max <u, P_1> times the mixed volume of the faces F_u(P_2), ..., F_u(P_n)
    in the lattice u-perp of Z^n.  Dropping a coordinate j with u_j != 0 maps
    that lattice onto one of index |u_j| in Z^(n-1), u being primitive, so
    that is the mixed volume of the projected faces over |u_j|.  n = 1 gives
    max - min; the recursion runs on integer vertices over one denominator.
    """
    if normalization not in ("coefficient", "normalized"):
        raise ValueError("normalization must be 'coefficient' or 'normalized'")
    n = len(polys)
    for p in polys:
        if p.ambient != n:
            raise ValueError("need n bounded polytopes in R^n")
        if not p.is_bounded():
            raise Unbounded("mixed volume needs bounded polytopes")
    if n < 2:
        xs = [v[0] for p in polys for v in p.vertices]
        return F(max(xs, default=0) - min(xs, default=0))
    hulls = [_hull_data(p, "mixed volume") for p in polys]
    sets, den = _over_lcm(hulls)
    total = F(_mixed(sets, functools.reduce(minkowski_sum, hulls[2:], hulls[1])), den**n)
    return total / math.factorial(n) if normalization == "normalized" else total
