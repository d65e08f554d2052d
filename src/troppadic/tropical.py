"""Tropicalization of restricted series.

The complex of a series is computed through the regular subdivision route:
lift the stored support by coefficient valuations, take the faces of the
lower hull with at least two points, and dualize each face F to the cell
of directions whose weighted minimum is attained exactly on F
(polyhedra.lower_cells).  Every cell, clipped to the domain or not, is
read off the facets of one lifted hull: the domain's bounds enter the lift
as rays, and a support in a hyperplane gives every cell the same lines.
The Newton cell of a cell is the projected convex hull of its face; the
two families are dual (complementary dimensions, orthogonal spans,
reversed face order).  TropCell.newton builds it for the reports that draw
or list it; the root-count bound reads the face's exponents (TropCell.vert)
and lets the mixed volume hull only what it needs.

Series with a nonempty tail get a per-cell certificate that the tail can
never reach the minimum anywhere on the cell, read off the cell's vertices,
rays and lines; failure raises PrecisionExhausted rather than guessing.

The components of an intersection of tropicalizations come from one lower
hull of the lifted Minkowski sum of the supports: its lower faces are the
cells of the common refinement, each the intersection of one cell from
every complex, and two cells meet exactly when one face holds another.
The sum runs on integer heights, every valuation put over one lcm (a
positive scale moves no lower face), and each summed point keeps the
index tuple of its least-height decomposition, so a face's cells are
found by the index sets of their vert exponents and no Fraction is
summed or hashed.  Each Piece keeps the cells it was cut from.  This is
the torus case only; no piece is clipped to a finite domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import PrecisionExhausted, ZeroSeries
from .polyhedra import (
    QPolyhedron,
    convex_hull,
    lower_cells,
    lower_hull,
    vdot,
)
from .series import RestrictedSeries

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
    for face, witness, cell in lower_cells(items, clip):
        if not f.tail.is_empty:
            base_pt, base_val = face[0]
            margin = _tail_floor_on_cell(f, cell, base_pt, base_val)
            if margin is None or margin <= 0:
                raise PrecisionExhausted(
                    "tail bound cannot be excluded over a cell", floor=margin
                )
        cells.append(TropCell(witness, frozenset(face), cell))

    cells.sort(key=lambda c: c.witness)
    return TropicalData(f, cells)


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
    same normal (heights: the valuations over their lcm, as ints).  The
    first decomposition in product order is enough: the items are sorted
    and lex order is compatible with addition, so a point a of G_i is
    first reached by (the lex-least points of G_1..G_(i-1), a, the
    lex-greatest points of the rest).  G is a piece when every G_i has two
    points or more; it is cut from the cells whose vert is G_i.  The
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
    supports = [_support_items(d.series) for d in datas]
    # every valuation over one lcm, so the heights are ints
    den = math.lcm(*(v.denominator for items in supports for _, v in items))
    heights = [[v.numerator * (den // v.denominator) for _, v in items] for items in supports]
    cells = []  # per complex: the indices of a cell's vert exponents -> the cell
    for items, d in zip(supports, datas):
        at = {i: k for k, (i, _) in enumerate(items)}
        cells.append({frozenset(at[i] for i, _ in c.vert): c for c in d.cells})
    summands = {}  # summed point -> (least height, first index tuple reaching it)
    for combo in product(*(range(len(items)) for items in supports)):
        pt = tuple(map(sum, zip(*(items[k][0] for items, k in zip(supports, combo)))))
        h = sum(hs[k] for hs, k in zip(heights, combo))
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

SVG_SIZE = 600  # the side of each square panel, in pixels


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


def render_svg(data: TropicalData) -> str:
    """Two fixed panels: the trop cells and the Newton cells, labeled in
    cell order.  Byte-deterministic for a given complex."""
    if data.series.nvars != 2:
        raise ValueError("SVG rendering is planar only")
    margin = 40
    ray_len = F(3)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {2 * SVG_SIZE} {SVG_SIZE}">'
    ]

    # panel 1: tropical cells, framed by the drawn points (a label sits on
    # one of them or midway between two)
    segs, dots, labels = [], [], []
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
    drawn = [(F(0), F(0)), *dots, *(pt for seg in segs for pt in seg)]
    mp = _map_factory([x for x, _ in drawn], [y for _, y in drawn], SVG_SIZE, margin)
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
    mp2 = _map_factory(xs2, ys2, SVG_SIZE, margin)

    def shift(sxy):
        return str(float(sxy[0]) + SVG_SIZE), sxy[1]

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
    """Vertices of a 2-dimensional polygon in cyclic order."""
    vs = sorted(poly.vertices)
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
