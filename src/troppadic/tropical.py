"""Tropicalization of restricted series.

The complex of a series is computed through the regular subdivision route:
lift the stored support by coefficient valuations, take the faces of the
lower hull with at least two points, and dualize each face F once
(polyhedra.face_cell) to the cell of directions whose weighted minimum is
attained exactly on F, clipped to the domain.  The
Newton cell of a cell is the projected convex hull of its face, built
where it is read (TropCell.newton); the two families are dual
(complementary dimensions, orthogonal spans, reversed face order).

Series with a nonempty tail get a per-cell certificate that the tail can
never reach the minimum anywhere on the cell, read off the cell's vertices,
rays and lines; failure raises PrecisionExhausted rather than guessing.

The components of an intersection of tropicalizations come from one lower
hull of the lifted Minkowski sum of the supports: its lower faces are the
cells of the common refinement, each the intersection of one cell from
every complex, and two cells meet exactly when one face holds another.
Each Piece keeps the cells it was cut from.  This is the torus case only;
no piece is clipped to a finite domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import PrecisionExhausted, ZeroSeries
from .polyhedra import (
    QPolyhedron,
    convex_hull,
    face_cell,
    lower_hull,
    primitive,
    vdot,
)
from .series import RestrictedSeries, scale_variable

F = Fraction


@dataclass(frozen=True)
class TropCell:
    """A cell of directions sharing one weighted-minimum support set."""

    witness: tuple
    vert: frozenset  # of (exponents, valuation)
    cell: QPolyhedron

    def dim(self):
        return self.cell.affine_dim()

    def newton(self) -> QPolyhedron:
        """The dual Newton cell: the hull of the vert exponents."""
        return convex_hull([i for i, _ in self.vert])


class TropicalData:
    """All cells of one series over its domain."""

    def __init__(self, series, cells):
        self.series = series
        self.cells = list(cells)

    def newton_support(self):
        """The hull of every exponent on a cell; None without cells."""
        pts = {i for c in self.cells for i, _ in c.vert}
        return convex_hull(sorted(pts)) if pts else None

    def is_empty(self):
        return not self.cells

    def ray_directions(self):
        dirs = set()
        for c in self.cells:
            for r in c.cell.rays:
                dirs.add(primitive(r))
            for l in c.cell.lines:
                dirs.add(primitive(l))
                dirs.add(primitive(tuple(-x for x in l)))
        return sorted(dirs)

    def vertices(self):
        out = set()
        for c in self.cells:
            if c.cell.affine_dim() == 0:
                out.update(c.cell.vertices)
        return sorted(out)


def _support_items(f: RestrictedSeries):
    return sorted((i, c.valuation()) for i, c in f.terms.items())


def _tail_floor_on_cell(f: RestrictedSeries, cell: QPolyhedron, base_point, base_val):
    """Certified min over the cell of (tail floor at nu) - (cell value at nu).

    On a cell inside the domain the tail floor at nu is
    d1 * (slope + min_j nu_j) + offset with d1 = cutoff + 1, so the margin
    is a constant plus g(nu) = d1 * min_j nu_j - <base_point, nu>.  g is
    concave and positively homogeneous, hence superadditive: its minimum
    over the cell is attained at a vertex, unless g < 0 on some ray or on
    either direction of some line, where it is unbounded below (None).
    """
    d1 = f.tail.cutoff + 1

    def g(nu):
        return d1 * min(nu) - vdot(base_point, nu)

    directions = [*cell.rays, *cell.lines, *(tuple(-x for x in l) for l in cell.lines)]
    if any(g(r) < 0 for r in directions):
        return None
    return min(g(v) for v in cell.vertices) + d1 * f.tail.slope + f.tail.offset - base_val


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


def trop_complex(f: RestrictedSeries) -> TropicalData:
    """The full cell complex of the series over its domain."""
    if f.is_certified_zero():
        raise ZeroSeries("the zero series has no tropicalization")
    if not f.terms:
        raise PrecisionExhausted("no stored terms")
    items = _support_items(f)
    n = f.nvars
    if len(items) == 1:
        return TropicalData(f, [])

    # nu_j >= r_j for every bounded coordinate of the domain
    clip = tuple(
        (tuple(-1 if k == j else 0 for k in range(n)), -F(r))
        for j, r in enumerate(f.domain)
        if r is not None
    )
    cells = []
    for face in lower_hull(items):
        if len(face) < 2:
            continue
        witness, cell = face_cell(items, face, clip)
        if cell is None:
            continue  # empty, or a clipped remnant of a larger face's cell
        if not f.tail.is_empty:
            base_pt, base_val = face[0]
            margin = _tail_floor_on_cell(f, cell, base_pt, base_val)
            if margin is None or margin <= 0:
                raise PrecisionExhausted(
                    "tail bound cannot be excluded over a cell", floor=margin
                )
        vert = frozenset((tuple(int(x) for x in q), h) for q, h in face)
        cells.append(TropCell(witness, vert, cell))

    cells.sort(key=lambda c: c.witness)
    return TropicalData(f, cells)


def shift_trop(f: RestrictedSeries, t, direction) -> RestrictedSeries:
    """Coefficient-valuation bookkeeping moving the complex by t*direction."""
    t = F(t)
    out = f
    for i, vi in enumerate(direction):
        if vi:
            out = scale_variable(out, i, t * vi)
    return out


@dataclass(frozen=True)
class Piece:
    """A cell of the common refinement and the TropCells it was cut from."""

    cell: QPolyhedron  # the intersection of the cells
    cells: tuple  # one TropCell from each complex


def connected_components(datas):
    """Components of the intersection of several tropicalizations, over
    the torus.

    The cells of the intersection form the common refinement, dual to the
    regular mixed subdivision of the lifted Minkowski sum of the supports,
    so one lower hull of that sum gives them all.  A lower face G splits
    as G_1+...+G_n: G_i, the i-th summands of the least-height
    decompositions of G's points, is the face of lifted N(f_i) with the
    same normal.  The first decomposition in product order is enough: the
    items are sorted and lex order is compatible with addition, so a point
    a of G_i is first reached by (the lex-least points of G_1..G_(i-1), a,
    the lex-greatest points of the rest).  G is a piece when every G_i has
    two points or more; it is cut from the cells whose vert is G_i.  The
    pieces form a complex, so two of them meet exactly when some piece is
    a face of both; a piece whose G is a proper subset of another's has
    that one as a face.

    Returns the components, each its Pieces sorted by cell key, ordered by
    their largest piece key.  A finite domain raises ValueError.
    """
    if any(r is not None for d in datas for r in d.series.domain):
        raise ValueError("components are computed over the torus only")
    if any(d.is_empty() for d in datas):
        return []
    cells = [{c.vert: c for c in d.cells} for d in datas]
    summands = {}  # summed point -> (least height, first tuple reaching it)
    for combo in product(*(_support_items(d.series) for d in datas)):
        pt = tuple(map(sum, zip(*(i for i, _ in combo))))
        h = sum(v for _, v in combo)
        if pt not in summands or h < summands[pt][0]:
            summands[pt] = (h, combo)
    groups = []  # (faces G, pieces) of each component found so far
    for face in lower_hull([(pt, h) for pt, (h, _) in summands.items()]):
        parts = [
            frozenset(summands[q][1][i] for q, _ in face) for i in range(len(datas))
        ]
        if any(len(part) < 2 for part in parts):
            continue
        cut = tuple(by_vert[part] for by_vert, part in zip(cells, parts))
        inter = functools.reduce(QPolyhedron.intersection, (c.cell for c in cut))
        # lower_hull lists smaller faces first, so the pieces that have
        # this one as a face are already grouped
        g = frozenset(q for q, _ in face)
        faces, pieces = {g}, [Piece(inter, cut)]
        for k in reversed(range(len(groups))):
            if any(other < g for other in groups[k][0]):
                other_faces, other_pieces = groups.pop(k)
                faces |= other_faces
                pieces += other_pieces
        groups.append((faces, pieces))
    comps = [sorted(pieces, key=lambda piece: piece.cell.key()) for _, pieces in groups]
    return sorted(comps, key=lambda comp: comp[-1].cell.key())


# ---------------------------------------------------------------------------
# deterministic SVG rendering (planar series only)


def _fmt(x):
    return f"{float(x):.3f}"


def _map_factory(xs, ys, size, margin):
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, F(1))
    scale = F(size - 2 * margin) / span

    def mp(pt):
        px = margin + (pt[0] - xmin) * scale
        py = size - margin - (pt[1] - ymin) * scale  # y axis up
        return _fmt(px), _fmt(py)

    return mp


def render_svg(data: TropicalData, size=600) -> str:
    """Two fixed panels: the trop cells and the Newton cells, labeled in
    cell order.  Byte-deterministic for a given complex."""
    if data.series.nvars != 2:
        raise ValueError("SVG rendering is planar only")
    margin = 40
    ray_len = F(3)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * size}" '
        f'height="{size}" viewBox="0 0 {2 * size} {size}">'
    ]

    # panel 1: tropical cells
    xs, ys = [F(0)], [F(0)]
    segs, dots, labels = [], [], []
    for k, c in enumerate(data.cells):
        poly = c.cell
        pts = list(poly.vertices)
        xs += [p[0] for p in pts]
        ys += [p[1] for p in pts]
        for r in poly.rays:
            for v in pts:
                end = (v[0] + ray_len * r[0], v[1] + ray_len * r[1])
                xs.append(end[0])
                ys.append(end[1])
    mp = _map_factory(xs, ys, size, margin)
    for k, c in enumerate(data.cells):
        poly = c.cell
        name = f"g{k + 1}"
        if poly.affine_dim() == 0:
            v = poly.vertices[0]
            dots.append(v)
            labels.append((v, name))
        else:
            vs = list(poly.vertices)
            if len(vs) == 2:
                segs.append((vs[0], vs[1]))
                mid = ((vs[0][0] + vs[1][0]) / 2, (vs[0][1] + vs[1][1]) / 2)
                labels.append((mid, name))
            for r in poly.rays:
                for v in vs:
                    end = (v[0] + ray_len * r[0], v[1] + ray_len * r[1])
                    segs.append((v, end))
                    labels.append((end, name))
            for l in poly.lines:
                for v in vs:
                    a = (v[0] - ray_len * l[0], v[1] - ray_len * l[1])
                    b = (v[0] + ray_len * l[0], v[1] + ray_len * l[1])
                    segs.append((a, b))
                    labels.append((b, name))
    parts.append('<g id="trop">')
    for a, b in segs:
        (x1, y1), (x2, y2) = mp(a), mp(b)
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="black" stroke-width="1.5"/>'
        )
    for v in dots:
        x, y = mp(v)
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')
    for pt, name in labels:
        x, y = mp(pt)
        parts.append(f'<text x="{x}" y="{y}" font-size="14">&#947;{name[1:]}</text>')
    parts.append("</g>")

    # panel 2: Newton cells
    newton = [c.newton() for c in data.cells]
    support = data.newton_support()
    xs2, ys2 = [F(0)], [F(0)]
    for nc in newton:
        xs2 += [p[0] for p in nc.vertices]
        ys2 += [p[1] for p in nc.vertices]
    mp2 = _map_factory(xs2, ys2, size, margin)

    def shift(sxy):
        return str(float(sxy[0]) + size), sxy[1]

    parts.append('<g id="newton">')
    if support is not None and support.affine_dim() == 2:
        cyc = _polygon_cycle(support)
        path = " ".join(
            ("M" if i == 0 else "L") + f"{shift(mp2(p))[0]},{shift(mp2(p))[1]}"
            for i, p in enumerate(cyc)
        )
        parts.append(f'<path d="{path} Z" fill="#dddddd" stroke="none"/>')
    for k, nc in enumerate(newton):
        vs = list(nc.vertices)
        if nc.affine_dim() >= 1:
            cyc = _polygon_cycle(nc) if nc.affine_dim() == 2 else vs
            m = len(cyc)
            for i in range(m if nc.affine_dim() == 2 else m - 1):
                a, b = cyc[i], cyc[(i + 1) % m]
                (x1, y1), (x2, y2) = shift(mp2(a)), shift(mp2(b))
                parts.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="black" stroke-width="1"/>'
                )
        cx = sum(p[0] for p in vs) / len(vs)
        cy = sum(p[1] for p in vs) / len(vs)
        x, y = shift(mp2((cx, cy)))
        parts.append(
            f'<text x="{x}" y="{y}" font-size="14">&#947;&#780;{k + 1}</text>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _polygon_cycle(poly: QPolyhedron):
    """Vertices of a planar polygon in cyclic order."""
    vs = sorted(poly.vertices)
    if len(vs) <= 2:
        return vs
    cx = sum(v[0] for v in vs) / len(vs)
    cy = sum(v[1] for v in vs) / len(vs)

    def half(v):
        dx, dy = v[0] - cx, v[1] - cy
        return 0 if (dy, dx) > (0, 0) else 1

    # sort by angle around the centroid using exact cross products
    def cross(a, b):
        return (a[0] - cx) * (b[1] - cy) - (a[1] - cy) * (b[0] - cx)

    def compare(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        c = cross(a, b)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(vs, key=functools.cmp_to_key(compare))
