"""Exact rational polyhedral geometry.

Conventions: an H-representation is a list of inequalities (u, a) meaning
<u, x> <= a with primitive integer u and rational a; equalities are stored
as inequality pairs.  V-representations carry rational vertices plus
primitive integer rays and lines.

One engine does the polyhedral work: an integer double-description cone
method.  H-to-V conversion, emptiness and intersections run it on the
homogenized inequalities; hulls in dimension 3 and up read their facets
off the rays of the polar cone.  Only the line and the plane keep direct
code (min/max, monotone chain), which is faster there.  Everything is
deterministic: canonical primitive normals, lexicographic sorting, no
randomization anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    return sum(x * y for x, y in zip(a, b))


def vscale(a, c):
    return tuple(x * c for x in a)


def to_frac_point(pt):
    return tuple(F(x) for x in pt)


def primitive(vec):
    """Scale a rational vector to coprime integers, preserving direction."""
    if all(isinstance(x, int) for x in vec):
        g = math.gcd(*vec)
        return tuple(vec) if g <= 1 else tuple(i // g for i in vec)
    fr = [F(x) for x in vec]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr)
    den = math.lcm(*(x.denominator for x in fr))
    ints = [int(x * den) for x in fr]
    g = math.gcd(*(abs(i) for i in ints))
    return tuple(i // g for i in ints)


def _row_reduce(rows):
    """Gaussian elimination; returns (rank, pivot column indices, rref rows)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return r, pivots, mat[:r]


def matrix_rank(rows):
    if not rows:
        return 0
    return _row_reduce(rows)[0]


def null_space(rows, dim):
    """Basis of {w : <row, w> = 0 for all rows}, primitive integer vectors."""
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rank, pivots, rref = _row_reduce(rows)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        w = [F(0)] * dim
        w[fc] = F(1)
        for i, pc in enumerate(pivots):
            w[pc] = -rref[i][fc]
        basis.append(primitive(w))
    return basis


def det(rows):
    mat = [list(map(F, r)) for r in rows]
    n = len(mat)
    out = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            out = -out
        out *= mat[c][c]
        inv = F(1) / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return out


def _int_det(rows):
    """Bareiss fraction-free determinant of an integer matrix."""
    mat = [list(r) for r in rows]
    n = len(mat)
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                mat[i][j] = (mat[i][j] * mat[c][c] - mat[i][c] * mat[c][j]) // prev
            mat[i][c] = 0
        prev = mat[c][c]
    return sign * mat[n - 1][n - 1]


def _dedupe(points):
    seen, out = set(), []
    for pt in points:
        if pt not in seen:
            seen.add(pt)
            out.append(pt)
    return out


def _affine_pivots(points):
    """(rank, pivot coordinate indices) of the affine hull of the points."""
    if len(points) <= 1:
        return 0, []
    dirs = [vsub(q, points[0]) for q in points[1:]]
    rank, pivots, _ = _row_reduce(dirs)
    return rank, pivots


# ---------------------------------------------------------------------------
# hulls: facet enumeration for full-rank point sets


def _hull2d_cycle(pts):
    """Indices of hull vertices in CCW order (monotone chain)."""
    order = sorted(range(len(pts)), key=lambda i: pts[i])

    def cross(o, a, b):
        return (pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1]) - (
            pts[a][1] - pts[o][1]
        ) * (pts[b][0] - pts[o][0])

    lower = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _facets_1d(pts):
    vals = [p[0] for p in pts]
    lo, hi = min(vals), max(vals)
    return [
        ((-1,), -lo, [i for i, v in enumerate(vals) if v == lo]),
        ((1,), hi, [i for i, v in enumerate(vals) if v == hi]),
    ]


def _facets_2d(pts):
    cyc = _hull2d_cycle(pts)
    facets = []
    m = len(cyc)
    for k in range(m):
        a, b = pts[cyc[k]], pts[cyc[(k + 1) % m]]
        d = vsub(b, a)
        normal = primitive((d[1], -d[0]))  # outward for a CCW cycle
        off = vdot(normal, a)
        tight = [i for i, q in enumerate(pts) if vdot(normal, q) == off]
        facets.append((normal, off, tight))
    return facets


def _project_points(pts):
    """Project onto pivot coordinates of the affine hull (injective there)."""
    rank, pivots = _affine_pivots(_dedupe(pts))
    if rank == 0:
        return [(F(0),) for _ in pts]
    return [tuple(q[c] for c in pivots) for q in pts]


def _int_scaled(pts):
    """Clear denominators globally; plane normals and tight sets are
    invariant under the scaling, and integer arithmetic is much faster."""
    den = 1
    for q in pts:
        for x in q:
            if isinstance(x, Fraction) and x.denominator != 1:
                den = den * x.denominator // math.gcd(den, x.denominator)
    if den == 1:
        return [tuple(int(x) for x in q) for q in pts], 1
    return [tuple(int(x * den) for x in q) for q in pts], den


def _facets_polar(pts):
    """Facets of conv(pts), full-rank integer points: each ray (c0, c) of
    the polar cone {(c0, c) : c0 + <c, q> >= 0} is the facet <-c, x> <= c0."""
    _, rays = _polar_cone(pts)
    out = []
    for c in rays:
        normal = tuple(-x for x in c[1:])
        tight = [i for i, q in enumerate(pts) if vdot(normal, q) == c[0]]
        out.append((normal, c[0], tight))
    return sorted(out)


def _facets_fullrank(pts):
    d = len(pts[0])
    scaled, den = _int_scaled(pts)
    if d == 1:
        out = _facets_1d(scaled)
    elif d == 2:
        out = _facets_2d(scaled)
    else:
        out = _facets_polar(scaled)
    if den == 1:
        return out
    return [(n, F(off, den), t) for n, off, t in out]


def all_faces(points):
    """Every face of conv(points) as a tight index set (the improper face
    included), recursively through the facet lattice."""
    pts = [to_frac_point(p) for p in points]
    idx_all = tuple(range(len(pts)))
    seen = set()

    def rec(idxs):
        key = frozenset(idxs)
        if key in seen:
            return
        seen.add(key)
        sub = [pts[i] for i in idxs]
        rank, _ = _affine_pivots(_dedupe(sub))
        if rank == 0:
            return
        proj = _project_points(sub)
        for _, _, tight in _facets_fullrank(proj):
            rec(tuple(idxs[i] for i in tight))

    rec(idx_all)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# double description


def _dd_cone(rows, dim):
    """Generators of {x : <row, x> >= 0}: (lines, rays), primitive integers.

    The double description method (Fukuda & Prodon 1996) in integer
    arithmetic.  Rows are scaled to primitive integers.  Every ray carries
    the exact set of processed rows it is tight on as a bit mask, kept
    exact incrementally when row k is inserted:

    - a ray that survives row k gains bit k exactly when it is zero on it;
    - a new ray sp*vn - sn*vp is a positive combination of two rays that
      are feasible on the earlier rows, so it is tight exactly where both
      are, plus row k: mask (mp & mn) | bit k;
    - while a line is eliminated, the rebuilt rays keep their mask and gain
      bit k, and the eliminated line becomes a ray tight on every earlier
      row.

    Two rays are adjacent when no third ray is tight on every row they
    share; exact masks make that combinatorial test exact.
    """
    lines = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # (vector, zero-mask) pairs
    for k, row in enumerate(rows):
        row = primitive(row)
        bit = 1 << k
        nz = [l for l in lines if vdot(l, row) != 0]
        if nz:
            l0 = nz[0]
            d0 = vdot(l0, row)
            if d0 < 0:
                l0, d0 = vscale(l0, -1), -d0
            new_lines = [l for l in lines if vdot(l, row) == 0]
            for l in nz[1:]:
                new_lines.append(vsub(vscale(l, d0), vscale(l0, vdot(l, row))))
            lines = [primitive(l) for l in new_lines]
            cand = [
                (vsub(vscale(v, d0), vscale(l0, vdot(v, row))), m | bit) for v, m in rays
            ]
            cand.append((l0, bit - 1))
        else:
            pos, zero, neg = [], [], []
            for vec, mask in rays:
                s = vdot(vec, row)
                (pos if s > 0 else zero if s == 0 else neg).append((vec, mask, s))
            cand = [(v, m) for v, m, _ in pos] + [(v, m | bit) for v, m, _ in zero]
            masks = [m for _, m in rays]
            for vp, mp, sp in pos:
                for vn, mn, sn in neg:
                    common = mp & mn
                    # vp and vn are tight on common; a third such ray
                    # means they are not adjacent
                    hits = 0
                    for mo in masks:
                        if mo & common == common:
                            hits += 1
                            if hits > 2:
                                break
                    else:
                        w = vsub(vscale(vn, sp), vscale(vp, sn))
                        cand.append((w, common | bit))
        seen = set()
        rays = []
        for vec, mask in cand:
            vec = primitive(vec)
            if vec in seen or not any(vec):
                continue
            seen.add(vec)
            rays.append((vec, mask))
    return sorted(lines), sorted(v for v, _ in rays)


def _polar_cone(points, rays=(), lines=()):
    """(lines, rays) of the cone of (c0, c) with c0 + <c, q> >= 0 on the
    points, <c, r> >= 0 on the rays and <c, l> = 0 on the lines: each
    generator (c0, c) with c != 0 is a valid inequality <-c, x> <= c0."""
    rows = [(1,) + tuple(q) for q in points]
    rows += [(0,) + tuple(r) for r in rays]
    for l in lines:
        rows.append((0,) + tuple(l))
        rows.append((0,) + tuple(-x for x in l))
    return _dd_cone(rows, len(points[0]) + 1)


def hrep_generators(ineqs, ambient):
    """V-data (vertices, rays, lines) of {x: <u, x> <= a for (u, a) in
    ineqs}, integer u; the DD rows are (a, -u) cleared of a's denominator."""
    rows = []
    for u, a in ineqs:
        a = F(a)
        rows.append((a.numerator,) + tuple(-x * a.denominator for x in u))
    rows.append((1,) + (0,) * ambient)
    lines, rays = _dd_cone(rows, ambient + 1)
    vertices, crays, clines = [], [], []
    for l in lines:
        if l[0] != 0:
            raise AssertionError("homogenization line with nonzero t")
        clines.append(l[1:])
    for r in rays:
        if r[0] > 0:
            vertices.append(tuple(F(x, r[0]) for x in r[1:]))
        elif r[0] == 0:
            crays.append(r[1:])
    if not vertices:
        return [], [], []
    return sorted(vertices), sorted(crays), sorted(clines)


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

    # -- constructors --

    @staticmethod
    def from_hrep(ineqs, eqs=(), ambient=None) -> "QPolyhedron":
        folded = [_normalized(u, a) for u, a in ineqs]
        for u, a in eqs:
            up, ap = _normalized(u, a)
            folded.append((up, ap))
            folded.append((tuple(-x for x in up), -ap))
        if ambient is None:
            if not folded:
                raise ValueError("ambient dimension required for an empty H-rep")
            ambient = len(folded[0][0])
        vertices, rays, lines = hrep_generators(folded, ambient)
        return QPolyhedron(
            ambient,
            tuple(folded),
            tuple(vertices),
            tuple(rays),
            tuple(lines),
        )

    @staticmethod
    def from_points(points, rays=(), lines=()) -> "QPolyhedron":
        points = _dedupe([to_frac_point(p) for p in points])
        if not points:
            raise ValueError("need at least one point")
        ambient = len(points[0])
        if not rays and not lines:
            return _hull_of_points(points, ambient)
        return _hull_with_rays(points, rays, lines, ambient)

    # -- queries --

    def is_empty(self) -> bool:
        return not self.vertices

    def is_bounded(self) -> bool:
        return not self.rays and not self.lines

    def affine_dim(self) -> int:
        if self.is_empty():
            return -1
        base = self.vertices[0]
        dirs = [vsub(v, base) for v in self.vertices[1:]]
        dirs += [to_frac_point(r) for r in self.rays]
        dirs += [to_frac_point(l) for l in self.lines]
        return matrix_rank(dirs) if dirs else 0

    def direction_space(self):
        """Primitive basis of the linear space parallel to the affine hull."""
        if self.is_empty():
            return []
        base = self.vertices[0]
        dirs = [vsub(v, base) for v in self.vertices[1:]]
        dirs += [to_frac_point(r) for r in self.rays]
        dirs += [to_frac_point(l) for l in self.lines]
        if not dirs:
            return []
        rank, pivots, rref = _row_reduce(dirs)
        return [primitive(r) for r in rref]

    def contains(self, point) -> bool:
        point = to_frac_point(point)
        return all(vdot(u, point) <= a for u, a in self.ineqs)

    def intersection(self, other: "QPolyhedron") -> "QPolyhedron":
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return QPolyhedron.from_hrep(
            tuple(self.ineqs) + tuple(other.ineqs), ambient=self.ambient
        )

    def implicit_equality_mask(self):
        out = []
        for u, a in self.ineqs:
            tight = all(vdot(u, v) == a for v in self.vertices) and all(
                vdot(u, r) == 0 for r in self.rays
            ) and all(vdot(u, l) == 0 for l in self.lines)
            out.append(tight)
        return out

    def relint_point(self):
        """A point strictly inside every non-implicit inequality."""
        if self.is_empty():
            raise ValueError("empty polyhedron has no relative interior")
        n = len(self.vertices)
        base = tuple(sum(v[i] for v in self.vertices) / n for i in range(self.ambient))
        implicit = self.implicit_equality_mask()
        ray_sum = (0,) * self.ambient
        for r in self.rays:
            ray_sum = vadd(ray_sum, r)
        for k in range(len(self.ineqs) + 2):
            cand = vadd(base, vscale(ray_sum, F(k)))
            ok = True
            for (u, a), imp in zip(self.ineqs, implicit):
                s = vdot(u, cand)
                if imp:
                    if s != a:
                        ok = False
                        break
                elif s >= a:
                    ok = False
                    break
            if ok:
                return cand
        raise ValueError("no relative interior point found")

    def linear_min(self, objective):
        """(min of <objective, x> over self, attained: bool); None if empty."""
        if self.is_empty():
            return None, False
        obj = to_frac_point(objective)
        for r in self.rays:
            if vdot(obj, r) < 0:
                return None, False  # unbounded below
        for l in self.lines:
            if vdot(obj, l) != 0:
                return None, False
        return min(vdot(obj, v) for v in self.vertices), True

    def support_value(self, direction):
        """max of <direction, x>; raises Unbounded when infinite."""
        m, ok = self.linear_min(vscale(to_frac_point(direction), F(-1)))
        if not ok:
            raise Unbounded("support function infinite in this direction")
        return -m

    def is_subset_of(self, other: "QPolyhedron") -> bool:
        return (
            all(other.contains(v) for v in self.vertices)
            and all(
                all(vdot(u, r) <= 0 for u, a in other.ineqs) for r in self.rays
            )
            and all(
                all(vdot(u, l) == 0 for u, a in other.ineqs) for l in self.lines
            )
        )

    def same_set(self, other: "QPolyhedron") -> bool:
        return self.is_subset_of(other) and other.is_subset_of(self)

    def is_face_of(self, other: "QPolyhedron") -> bool:
        """True when self = other cut by the inequalities tight on self."""
        if self.is_empty():
            return True
        if not self.is_subset_of(other):
            return False
        tight = []
        for u, a in other.ineqs:
            if all(vdot(u, v) == a for v in self.vertices) and all(
                vdot(u, r) == 0 for r in self.rays
            ) and all(vdot(u, l) == 0 for l in self.lines):
                tight.append((u, a))
        cut = QPolyhedron.from_hrep(
            tuple(other.ineqs) + tuple((vscale(u, -1), -a) for u, a in tight),
            ambient=other.ambient,
        )
        return cut.same_set(self)

    def coordinate_intervals(self):
        """Per-coordinate (lo, hi) bounds from the V-data; None is infinite."""
        out = []
        for j in range(self.ambient):
            lo = min((v[j] for v in self.vertices), default=None)
            hi = max((v[j] for v in self.vertices), default=None)
            for r in self.rays:
                if r[j] < 0:
                    lo = None
                elif r[j] > 0:
                    hi = None
            for l in self.lines:
                if l[j] != 0:
                    lo = hi = None
            out.append((lo, hi))
        return out

    def surely_disjoint_from(self, other) -> bool:
        """Cheap exact reject: separated coordinate intervals."""
        for (alo, ahi), (blo, bhi) in zip(
            self.coordinate_intervals(), other.coordinate_intervals()
        ):
            if ahi is not None and blo is not None and ahi < blo:
                return True
            if bhi is not None and alo is not None and bhi < alo:
                return True
        return False

    def key(self):
        return (self.vertices, self.rays, self.lines)

    def __repr__(self):
        return (
            f"QPolyhedron(dim={self.affine_dim()}/{self.ambient}, "
            f"V={len(self.vertices)}, R={len(self.rays)}, L={len(self.lines)})"
        )


def _normalized(u, a):
    """The inequality <u, x> <= a rescaled to a primitive integer normal."""
    pu = primitive(u)
    nz = next((i for i, x in enumerate(pu) if x != 0), None)
    if nz is None:
        if F(a) < 0:
            raise ValueError("inconsistent trivial inequality")
        return pu, F(a)
    if pu == tuple(u):  # already normalized: intersections pass carried rows
        return pu, F(a)
    return pu, F(a) * pu[nz] / F(u[nz])


def _hull_of_points(points, ambient):
    rank, _ = _affine_pivots(points)
    ineqs = []
    eq_normals = []
    if rank < ambient:
        base = points[0]
        dirs = [vsub(q, base) for q in points[1:]]
        for w in null_space(dirs, ambient):
            c = vdot(w, base)
            ineqs.append((w, c))
            ineqs.append((tuple(-x for x in w), -c))
            eq_normals.append(w)
    if rank == 0:
        return QPolyhedron(ambient, tuple(ineqs), (points[0],), (), ())
    rank, pivots = _affine_pivots(points)
    proj = [tuple(q[c] for c in pivots) for q in points]
    facets = _facets_fullrank(proj)
    tight_map = []
    for n, off, tight in facets:
        # lift the projected inequality back to ambient coordinates
        u = [F(0)] * ambient
        for c, x in zip(pivots, n):
            u[c] = F(x)
        a = vdot(u, points[tight[0]])
        ineqs.append((tuple(u), a))
        tight_map.append(set(tight))
    # vertices: points whose tight facet normals (plus equalities) span
    normals = [primitive(u) for u, _ in ineqs]
    verts = []
    for i, q in enumerate(points):
        active = [normals[k] for k, (u, a) in enumerate(ineqs) if vdot(u, q) == a]
        if matrix_rank(active) == ambient:
            verts.append(q)
    ineqs = [_normalized(u, a) for u, a in ineqs]
    return QPolyhedron(ambient, tuple(sorted(ineqs)), tuple(sorted(verts)), (), ())


def _hull_with_rays(points, rays, lines, ambient):
    """Facets of conv(points) + cone(rays) + span(lines) via the polar cone."""
    dlines, drays = _polar_cone(points, rays, lines)
    ineqs = []
    for c in drays:
        u = tuple(-x for x in c[1:])
        if all(x == 0 for x in u):
            continue  # the trivial 0 <= c0 generator
        ineqs.append((u, F(c[0])))
    for c in dlines:
        u = tuple(-x for x in c[1:])
        if all(x == 0 for x in u):
            continue
        ineqs.append((u, F(c[0])))
        ineqs.append((tuple(-x for x in u), -F(c[0])))
    return QPolyhedron.from_hrep(ineqs, ambient=ambient)


def convex_hull(points) -> QPolyhedron:
    """Minimal V-representation plus a valid H-representation."""
    return QPolyhedron.from_points(points)


# ---------------------------------------------------------------------------
# lower hulls (regular subdivisions)


@dataclass(frozen=True)
class LowerFace:
    """A face of the lower hull of lifted points, with a witness functional.

    ``points`` are the lifted (point, height) pairs on the face; ``witness``
    is a rational vector nu such that (nu, 1) attains its minimum exactly on
    the face, and ``cell`` is the full polyhedron of such directions.
    """

    points: tuple  # ((coords...), height) pairs
    witness: tuple
    cell: object = None

    @property
    def dim(self):
        pts = [p for p, _ in self.points]
        rank, _ = _affine_pivots(_dedupe([to_frac_point(p) for p in pts]))
        return rank


def lower_hull(lifted):
    """All faces of the lower hull, each with a witness nu.

    Input: (point in Z^n or Q^n, height in Q) pairs.  Duplicate points keep
    their minimal height (the rest can never support a minimizing
    functional).
    """
    best = {}
    for pt, h in lifted:
        pt = to_frac_point(pt)
        h = F(h)
        if pt not in best or h < best[pt]:
            best[pt] = h
    items = sorted(best.items())
    pts = [p for p, _ in items]
    n = len(pts[0]) if pts else 0
    lift = [p + (h,) for p, h in items]
    rank, _ = _affine_pivots(_dedupe(lift))

    lower_facets = []
    if rank == n + 1:
        for normal, off, tight in _facets_fullrank(lift):
            if normal[-1] < 0:
                lower_facets.append(tuple(tight))
    else:
        # all lifted points affinely dependent: heights are an affine
        # function of the points, every face of the projected hull is lower
        lower_facets.append(tuple(range(len(lift))))

    seen = set()
    for tight in lower_facets:
        for face in all_faces([lift[i] for i in tight]):
            seen.add(frozenset(tight[i] for i in face))

    out = []
    for face in sorted(seen, key=lambda s: (len(s), sorted(s))):
        idxs = sorted(face)
        witness, cell = _face_witness(items, idxs)
        if witness is None:
            continue
        out.append(
            LowerFace(
                tuple((items[i][0], items[i][1]) for i in idxs), witness, cell
            )
        )
    out.sort(key=lambda f: (len(f.points), f.points))
    return out


def _face_witness(items, idxs):
    """(nu, cell) with argmin of <(nu,1), lifted> exactly the index set."""
    n = len(items[0][0])
    base_pt, base_h = items[idxs[0]]
    ineqs = []
    eqs = []
    for j in idxs[1:]:
        q, hq = items[j]
        eqs.append((vsub(q, base_pt), base_h - hq))
    inside = set(idxs)
    for j, (q, hq) in enumerate(items):
        if j in inside:
            continue
        # (hq - base_h) + <q - base_pt, nu> >= 0, strictly for exactness
        ineqs.append((vsub(base_pt, q), hq - base_h))
    cell = QPolyhedron.from_hrep(ineqs, eqs, ambient=n)
    if cell.is_empty():
        return None, None
    nu = cell.relint_point()
    # verify exact attainment
    vals = [hq + vdot(q, nu) for q, hq in items]
    m = min(vals)
    argmin = {j for j, v in enumerate(vals) if v == m}
    if argmin != inside:
        return None, None
    return nu, cell


# ---------------------------------------------------------------------------
# volume and mixed volume


def _decompose_simplices(points):
    """Simplices covering conv(points) with disjoint interiors, using only
    the given points: fan from the first point over the facets missing it,
    recursively within each facet."""
    pts = _dedupe([tuple(p) for p in points])
    if len(pts) == 1:
        return [tuple(pts)]
    rank, pivots = _affine_pivots(pts)
    if rank == 0:
        return [(pts[0],)]
    if rank == 1:
        key = lambda q: tuple(q[c] for c in pivots)
        lo = min(pts, key=key)
        hi = max(pts, key=key)
        return [(lo, hi)]
    proj = [tuple(q[c] for c in pivots) for q in pts]
    out = []
    for _, _, tight in _facets_fullrank(proj):
        if 0 in tight:
            continue
        for s in _decompose_simplices([pts[i] for i in tight]):
            out.append((pts[0],) + s)
    return out


def volume(poly: QPolyhedron) -> Fraction:
    """Exact Euclidean volume; 0 for lower-dimensional input."""
    if not poly.is_bounded():
        raise Unbounded("volume needs a bounded polyhedron")
    if poly.is_empty():
        return F(0)
    n = poly.ambient
    if poly.affine_dim() < n:
        return F(0)
    pts, den = _int_scaled([to_frac_point(v) for v in poly.vertices])
    total = 0
    for s in _decompose_simplices(pts):
        if len(s) != n + 1:
            continue
        rows = [vsub(q, s[0]) for q in s[1:]]
        total += abs(_int_det(rows))
    return F(total, den ** n * math.factorial(n))


def minkowski_sum(p: QPolyhedron, q: QPolyhedron) -> QPolyhedron:
    """Pairwise vertex sums, then the hull; rays and lines accumulate."""
    if p.ambient != q.ambient:
        raise ValueError("ambient dimension mismatch")
    pts = [vadd(v, w) for v in p.vertices for w in q.vertices]
    rays = tuple(sorted(set(p.rays) | set(q.rays)))
    lines = tuple(sorted(set(p.lines) | set(q.lines)))
    return QPolyhedron.from_points(pts, rays=rays, lines=lines)


def mixed_volume(polys, normalization="coefficient") -> Fraction:
    """The lambda_1...lambda_n coefficient of vol(sum lambda_i P_i).

    Inclusion-exclusion: MV = sum over nonempty S of (-1)^(n-|S|) vol(sum_S P_i).
    ``normalized`` mode divides by n!.
    """
    from itertools import combinations

    n = len(polys)
    for p in polys:
        if p.ambient != n:
            raise ValueError("need n bounded polytopes in R^n")
        if not p.is_bounded():
            raise Unbounded("mixed volume needs bounded polytopes")
    total = F(0)
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            s = polys[combo[0]]
            for i in combo[1:]:
                s = minkowski_sum(s, polys[i])
            total += (-1) ** (n - k) * volume(s)
    if normalization == "normalized":
        return total / math.factorial(n)
    if normalization != "coefficient":
        raise ValueError("normalization must be 'coefficient' or 'normalized'")
    return total


# ---------------------------------------------------------------------------
# complexes


class PolyComplex:
    """A finite list of cells; face compatibility is verified on demand."""

    def __init__(self, cells):
        self.cells = list(cells)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)

    def dim(self):
        return max((c.affine_dim() for c in self.cells), default=-1)

    def support_contains(self, point) -> bool:
        return any(c.contains(point) for c in self.cells)

    def verify_face_compatible(self) -> bool:
        for i, a in enumerate(self.cells):
            for b in self.cells[i + 1:]:
                x = a.intersection(b)
                if x.is_empty():
                    continue
                if not (x.is_face_of(a) and x.is_face_of(b)):
                    return False
        return True
