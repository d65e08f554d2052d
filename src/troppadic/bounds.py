"""The effective root-count pipeline.

Uniform bounds flow from one computable ingredient: for every (slice of a)
parameterized series, an integer d such that all coefficient functions of
X-degree >= d are combinations of lower ones with p-small series weights.
From d the recursive box E(f) confines every specialized Newton support;
boxes give the isolated bounds D1 (a cap on codimension-one cells) and
D2 = E^n (a cap on per-point multiplicities), and the stable-intersection
sum S(f) = sum over components of i(C, ...) gives the reported bound, with
T = D1*T2 as a box-only cross-check.  Each i(C, ...) is a sum of mixed
volumes at the vertices of the common refinement inside C, so the bound
involves no random choice: the seed only reaches the pointedness repair.

Mixed volumes enter in coefficient (unnormalized) mode throughout, the
larger of the two readings, so every reported bound stays sound under
either normalization convention.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GenericityFailure, OracleMissing
from .formats import frac_str
from .padic import PadicScaled, vp_fraction
from .polyhedra import _row_reduce, convex_hull, mixed_volume
from .series import ParamSeries, RestrictedSeries, shift_variable
from .tropical import connected_components, trop_complex

F = Fraction

SHIFT_EXPONENT = 16  # make_pointed's first shift exponent t, and its step every 2 redraws
MAX_REDRAWS = 8  # the shifts make_pointed draws before it gives up


# ---------------------------------------------------------------------------
# the finite-generation oracle


def _series_as_vector(s: RestrictedSeries):
    """Exact rational monomial vector of a polynomial coefficient series."""
    if not s.tail.is_empty:
        return None
    out = {}
    for exps, c in s.terms.items():
        if not c.is_exact:
            return None
        out[exps] = c.rational_value()
    return out


def _solve_small_combination(target, basis, p):
    """Constants c_J with target = sum c_J basis_J and v(c_J) >= 1, or None.

    A verified constant witness family is in particular a p-small series
    witness family, so success certifies the finite-generation property.
    """
    if not target:
        return {}
    if not basis:
        return None
    keys = sorted(set(target) | {k for b in basis for k in b})
    rows = [[b.get(k, F(0)) for b in basis] + [target.get(k, F(0))] for k in keys]
    ncols = len(basis)
    rank, pivots, rref = _row_reduce(rows)
    # inconsistent iff a pivot lands in the augmented column
    if ncols in pivots:
        return None
    sol = [F(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rref[i][ncols]
    if any(vp_fraction(c, p) < 1 for c in sol):
        return None
    return dict(zip(range(ncols), sol))


class WBoundOracle:
    """Certified finite-generation constants d(.), registered or computed.

    The computed route verifies, over the stored coefficients of a series
    polynomial in X, that every coefficient of X-degree >= d is a constant
    combination of lower ones with weights in p*Zp; that witness family
    satisfies the required smallness outright.
    """

    def __init__(self):
        self._registered = {}

    def register(self, key, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self._registered[key] = d

    def d_for(self, ps: ParamSeries) -> int:
        key = ps.canonical_key()
        if key in self._registered:
            return self._registered[key]
        d = self.compute_d(ps)
        if d is None:
            raise OracleMissing(
                "no registered constant and the representation is not verifiable"
            )
        return d

    def compute_d(self, ps: ParamSeries):
        if ps.is_identically_zero():
            return 1
        vectors = {}
        for exps, s in ps.coeffs.items():
            vec = _series_as_vector(s)
            if vec is None:
                return None
            vectors[exps] = vec
        degrees = sorted({sum(i) for i in vectors})
        maxdeg = degrees[-1]
        for d in range(1, maxdeg + 2):
            low = [v for i, v in vectors.items() if sum(i) < d]
            ok = True
            for i, v in vectors.items():
                if sum(i) < d:
                    continue
                if _solve_small_combination(v, low, ps.p) is None:
                    ok = False
                    break
            if ok:
                return d
        return maxdeg + 1


def weierstrass_bound_1_to_n(f: ParamSeries, oracle: WBoundOracle) -> int:
    """The n-variable bound D(f) = d(f) + 1 derived from the oracle constant.

    An identically zero series is flagged with the convention D = 1.
    """
    if f.is_identically_zero():
        return 1
    return oracle.d_for(f) + 1


def monomial_order_bound(exps, d: int) -> int:
    """The regularity order the base-d monomial substitution certifies."""
    n = len(exps)
    return sum(exps[i] * d ** (n - 1 - i) for i in range(n))


# ---------------------------------------------------------------------------
# boxes and isolated bounds


def box_E(f: ParamSeries, oracle: WBoundOracle) -> int:
    """The recursive box bound: every specialized Newton support lies in
    B_max(E(f)) unless the specialization vanishes identically."""
    if f.is_identically_zero():
        return 1
    d = oracle.d_for(f)
    n = f.nx
    if n == 1:
        return d
    e_prime = d
    sub = []
    for k in range(n):
        for s in range(1, d + 1):
            fsk = f.slice_at_zero(s, k)
            if fsk.is_identically_zero():
                continue
            e_prime = max(e_prime, oracle.d_for(fsk))
            if n > 2:
                sub.append(box_E(fsk, oracle))
    if n == 2:
        return e_prime
    return max([e_prime] + sub)


def max_codim1_cells(e: int, n: int) -> int:
    """How many codimension-one cells a complex with Newton support inside
    B_max(e) can have: the interval count in one variable, the Euler count
    of a maximal subdivision of the full box in two, and the coarse
    lattice-point bound above."""
    if n == 1:
        return e
    if n == 2:
        interior = (e - 1) ** 2
        boundary = 4 * e
        return 3 * interior + 2 * boundary - 3
    return (e + 1) ** n


def isolated_bounds(system, oracle: WBoundOracle):
    """(D1, D2): caps on isolated intersection points and on the number of
    roots above each, from the boxes alone."""
    return _isolated_from_boxes([box_E(f, oracle) for f in system], system[0].nx)


def _isolated_from_boxes(es, n):
    """(D1, D2) from the boxes E(f_i) of a system in n variables."""
    d1 = math.prod(max_codim1_cells(ei, n) for ei in es)
    return d1, max(es) ** n


# ---------------------------------------------------------------------------
# pointedness


def support_intersection(system):
    common = None
    for f in system:
        s = set(f.terms)
        common = s if common is None else (common & s)
    return common or set()


def pointed_check(system) -> bool:
    """Is the convex closure of the common support full-dimensional?"""
    common = support_intersection(system)
    if not common:
        return False
    n = system[0].nvars
    return convex_hull(sorted(common)).affine_dim() == n


def _variable_occurs(f: RestrictedSeries, i: int) -> bool:
    if not f.tail.is_empty:
        return True  # unknown tail terms may involve any variable
    return any(exps[i] > 0 for exps in f.terms)


@dataclass
class PointedTranscript:
    unit_factors: list = field(default_factory=list)  # (series, variable, s)
    shift_t: int = None
    shift_z: list = None


def make_pointed(system, rng):
    """Transform the system until the common support is pointed.

    Missing variables are fixed by unit factors (1 + p^s X_i); if the
    common support still isn't full-dimensional, every variable is shifted
    X_i -> X_i - p^t z_i with fresh units z_i, which fills the supports
    downward while preserving the relevant root counts.
    """
    p = system[0].p
    n = system[0].nvars
    rmins = [r for f in system for r in f.domain if r is not None]
    s_exp = max(1, math.ceil(1 - min(rmins))) if rmins else 1
    transcript = PointedTranscript()
    out = list(system)
    for j, f in enumerate(out):
        for i in range(n):
            if not _variable_occurs(f, i):
                factor = RestrictedSeries(
                    p,
                    n,
                    {
                        (0,) * n: 1,
                        tuple(1 if k == i else 0 for k in range(n)): p ** s_exp,
                    },
                    domain=f.domain,
                )
                out[j] = out[j] * factor
                transcript.unit_factors.append((j, i, s_exp))
    if pointed_check(out):
        return out, transcript
    t = SHIFT_EXPONENT
    for attempt in range(MAX_REDRAWS):
        zs = [rng.randrange(1, p) for _ in range(n)]
        shifted = out
        for i in range(n):
            c = PadicScaled.exact(p, zs[i] * p ** t)
            shifted = [shift_variable(f, i, c) for f in shifted]
        if pointed_check(shifted):
            transcript.shift_t = t
            transcript.shift_z = zs
            return shifted, transcript
        if attempt % 2 == 1:
            t += SHIFT_EXPONENT
    raise GenericityFailure("could not make the common support pointed")


# ---------------------------------------------------------------------------
# stable multiplicities


def _as_int(mv) -> int:
    mv = F(mv)
    if mv.denominator != 1:
        raise AssertionError(f"mixed volume of lattice duals must be integral, got {mv}")
    return int(mv)


def stable_multiplicity(component):
    """i(C, Trop(f_1)...Trop(f_n)) for one connected component, and its
    points: (nu, mixed volume) at each vertex nu of C, sorted by nu.

    The stable intersection of tropical hypersurfaces is carried by the
    vertices nu of their common refinement, and its multiplicity at nu is
    the mixed volume of the initial Newton polytopes conv(vert_nu(f_i))
    (Maclagan-Sturmfels, Introduction to Tropical Geometry, 3.6): the
    Newton cells of the cells that the 0-dimensional piece at nu was cut
    from.  Elsewhere in C they lie orthogonal to the piece and add zero.
    """
    points = sorted(
        (piece.cell.vertices[0], _as_int(mixed_volume([c.newton() for c in piece.cells])))
        for piece in component
        if piece.cell.affine_dim() == 0
    )
    return sum(mv for _, mv in points), points


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class BoundReport:
    """The audit trail of one system bound."""

    prime: int
    nvars: int
    seed: object
    e_boxes: list
    d1: int
    d2: int
    t2: int
    t_cross: int
    s_bound: int
    components: list
    transforms: dict
    cross_check_ok: bool
    normalization: str = "coefficient"
    schema_version: int = 2

    def to_dict(self):
        return {
            "schema_version": self.schema_version,
            "prime": self.prime,
            "nvars": self.nvars,
            "seed": self.seed,
            "normalization": self.normalization,
            "e_boxes": list(self.e_boxes),
            "d1": self.d1,
            "d2": self.d2,
            "t2": self.t2,
            "t_cross": self.t_cross,
            "s_bound": self.s_bound,
            "cross_check_ok": self.cross_check_ok,
            "components": self.components,
            "transforms": self.transforms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def system_root_bound(system, oracle: WBoundOracle, seed, ys=()):
    """Run the whole pipeline on an n x n system of parameterized series.

    Returns a BoundReport whose s_bound dominates the number of roots in
    the torus, whenever that number is finite; an infinite solution set is
    not detected.  The series are specialized over the whole torus.
    """
    n = system[0].nx
    if len(system) != n:
        raise ValueError("need n series in n variables")
    p = system[0].p
    rng = random.Random(f"{seed}|pointed")
    fs = [ps.specialize(ys, x_domain=(None,) * n) for ps in system]
    fs, pointed_transcript = make_pointed(fs, rng)
    transformed = [ParamSeries.from_series(f) for f in fs]
    es = [box_E(f, oracle) for f in transformed]
    d1, d2 = _isolated_from_boxes(es, n)
    t2 = math.factorial(n) * d2
    t_cross = d1 * t2

    comps = connected_components([trop_complex(f) for f in fs])
    total = 0
    comp_records = []
    for idx, comp in enumerate(comps):
        mult, points = stable_multiplicity(comp)
        total += mult
        comp_records.append(
            {
                "index": idx,
                "multiplicity": mult,
                # fixed since schema 2; the benchmark's report reader
                # (perfbench/spans.py) still reads them by name
                "epsilon": "0",
                "thickening": None,
                "shift_vectors": None,
                "points": [
                    {"nu": [frac_str(x) for x in pt], "mv": mv}
                    for pt, mv in points
                ],
                "pieces": len(comp),
            }
        )
    transforms = {
        "unit_factors": [
            {"series": j, "variable": i, "s": s}
            for j, i, s in pointed_transcript.unit_factors
        ],
        "shift": None
        if pointed_transcript.shift_t is None
        else {"t": pointed_transcript.shift_t, "z": pointed_transcript.shift_z},
    }
    return BoundReport(
        prime=p,
        nvars=n,
        seed=seed,
        e_boxes=es,
        d1=d1,
        d2=d2,
        t2=t2,
        t_cross=t_cross,
        s_bound=total,
        components=comp_records,
        transforms=transforms,
        cross_check_ok=(total <= t_cross),
    )
