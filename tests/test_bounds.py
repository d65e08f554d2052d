import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle_cells import vert_nu
from oracle_roots import torus_root_count
from series_helpers import monomial_substitution
from test_acceptance import _interp_mv
from test_tropical import torus_system
from troppadic.bounds import (
    WBoundOracle,
    box_E,
    isolated_bounds,
    make_pointed,
    max_codim1_cells,
    monomial_order_bound,
    pointed_check,
    stable_multiplicity,
    system_root_bound,
    weierstrass_bound_1_to_n,
)
from troppadic.errors import OracleMissing
from troppadic.formats import dump_json
from troppadic.polyhedra import convex_hull, mixed_volume
from troppadic.series import ParamSeries, RestrictedSeries, regular_order
from troppadic.tropical import connected_components, trop_complex

F = Fraction


def pseries(p, nx, nparams, coeffs):
    return ParamSeries(p, nx, nparams, coeffs)


def yvar(p, nparams, k):
    return RestrictedSeries.variable(p, k, nparams)


def yconst(p, nparams, c):
    return RestrictedSeries.constant(p, c, nvars=nparams)


def poly(p, nvars, mapping, domain=None):
    if domain is None:
        domain = (None,) * nvars
    return RestrictedSeries(p, nvars, mapping, domain=domain)


# --------------------------------------------------------------- oracle d


def test_d_for_linear_plus_cubic():
    # f = Y*X + X^3 over one parameter: d = 4, no smaller d works
    p = 5
    f = pseries(p, 1, 1, {(1,): yvar(p, 1, 0), (3,): yconst(p, 1, 1)})
    oracle = WBoundOracle()
    assert oracle.d_for(f) == 4
    assert weierstrass_bound_1_to_n(f, oracle) == 5


def test_d_verifies_p_multiple_combinations():
    # top coefficient p is p * (unit coefficient below): d = 2 suffices
    p = 5
    f = pseries(p, 1, 0, {(0,): 1, (1,): 1, (2,): p})
    oracle = WBoundOracle()
    assert oracle.d_for(f) == 2


def test_zero_series_flagged_with_d_one():
    p = 5
    f = pseries(p, 1, 1, {})
    assert weierstrass_bound_1_to_n(f, WBoundOracle()) == 1


def test_registered_oracle_values():
    p = 5
    f = pseries(p, 1, 1, {(1,): yvar(p, 1, 0)})
    oracle = WBoundOracle()
    oracle.register(f.canonical_key(), 9)
    assert oracle.d_for(f) == 9


def test_registered_oracle_key_is_exact():
    # same coefficient valuations and first unit digits, different series
    p = 5
    f = pseries(p, 1, 0, {(0,): 1, (1,): 1, (2,): 5})
    g = pseries(p, 1, 0, {(0,): 6, (1,): 11, (2,): 5})
    assert f.canonical_key() != g.canonical_key()
    assert f.canonical_key() == pseries(p, 1, 0, {(0,): 1, (1,): 1, (2,): 5}).canonical_key()
    oracle = WBoundOracle()
    oracle.register(f.canonical_key(), 9)
    assert oracle.d_for(f) == 9
    assert oracle.d_for(g) == oracle.compute_d(g) != 9


def test_oracle_missing_for_inexact_representation():
    from troppadic.series import TailBound

    p = 5
    tailful = RestrictedSeries(p, 1, {(0,): 1}, tail=TailBound(0, F(1), F(1)))
    f = ParamSeries(p, 1, 1, {(1,): tailful})
    with pytest.raises(OracleMissing):
        WBoundOracle().d_for(f)


def test_substitution_order_matches_bound_formula():
    # after the base-d substitution, the certified order is the base-d value
    rng = random.Random(88)
    p = 5
    for _ in range(12):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(exps) == 0:
            continue
        s = monomial_order_bound(exps, d)
        f = poly(p, n, {exps: 1}, domain=(F(0),) * n)
        g = monomial_substitution(f, d, 4 * s + 8)
        assert regular_order(g) == s


# --------------------------------------------------------------- boxes


def fixture_param_series(p=5):
    # f = Y1*X1 + X1^3 + X2^3 + p*X1^4: d(f) = 4, E = 4 in two variables
    return pseries(
        p,
        2,
        1,
        {
            (1, 0): yvar(p, 1, 0),
            (3, 0): yconst(p, 1, 1),
            (0, 3): yconst(p, 1, 1),
            (4, 0): yconst(p, 1, p),
        },
    )


def test_box_base_case_univariate():
    p = 5
    f = pseries(p, 1, 1, {(1,): yvar(p, 1, 0), (3,): yconst(p, 1, 1)})
    assert box_E(f, WBoundOracle()) == 4


def test_box_fixture_is_four():
    f = fixture_param_series()
    assert box_E(f, WBoundOracle()) == 4


def test_box_constant_coefficients_cross_checked():
    # E equals the top support degree here, and the Newton support fits
    p = 5
    f = pseries(p, 1, 0, {(0,): 1, (1,): 1, (2,): p})
    e = box_E(f, WBoundOracle())
    assert e == 2
    specialized = f.specialize((), x_domain=(None,))
    data = trop_complex(specialized)
    for i in specialized.terms:
        assert max(i) <= e


def test_box_contains_sampled_newton_supports():
    rng = random.Random(404)
    p = 5
    f = fixture_param_series(p)
    oracle = WBoundOracle()
    e = box_E(f, oracle)
    for _ in range(50):
        ys = (RestrictedSeries.constant(p, rng.randint(0, 30), 0),)
        from troppadic.padic import PadicScaled

        specialized = f.specialize((PadicScaled.exact(p, rng.randint(-30, 30)),), x_domain=(None, None))
        for i in specialized.terms:
            assert max(i) <= e


def test_isolated_bounds_formula():
    p = 5
    f = fixture_param_series(p)
    d1, d2 = isolated_bounds([f, f], WBoundOracle())
    assert d2 == 4 ** 2
    assert d1 == max_codim1_cells(4, 2) ** 2


def test_max_codim1_cells_euler_identities():
    # n = 2 cross-check at tiny sizes: a full triangulation of the box has
    # 2E^2 triangles and (3T + B)/2 edges
    for e in (1, 2, 3):
        tri = 2 * e * e
        boundary = 4 * e
        edges = (3 * tri + boundary) // 2
        assert max_codim1_cells(e, 2) == edges
    assert max_codim1_cells(3, 1) == 3
    assert max_codim1_cells(2, 3) == 27


def test_d1_dominates_univariate_cells():
    rng = random.Random(3)
    p = 5
    for _ in range(10):
        terms = {(k,): p ** rng.randint(0, 3) for k in rng.sample(range(5), 3)}
        f = poly(p, 1, terms, domain=(None,))
        ps = ParamSeries.from_series(f)
        d1, _ = isolated_bounds([ps], WBoundOracle())
        data = trop_complex(f)
        assert len(data.cells) <= d1


# --------------------------------------------------------------- pointedness


def test_pointed_check_examples():
    p = 5
    f1 = poly(p, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    f2 = poly(p, 2, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): 1})
    assert pointed_check([f1, f2])
    g1 = poly(p, 2, {(0, 0): 1, (1, 0): 1})
    g2 = poly(p, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 4})
    assert not pointed_check([g1, g2])  # common support on a line


def test_make_pointed_adds_missing_variable_factor():
    p = 5
    rng = random.Random(1)
    f1 = poly(p, 2, {(0, 0): 1, (1, 0): 1})  # X2 missing
    f2 = poly(p, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    out, tr = make_pointed([f1, f2], rng)
    assert any(i == 1 for _, i, _ in [(j, i, s) for j, i, s in tr.unit_factors])
    assert any(exps[1] > 0 for exps in out[0].terms)
    assert pointed_check(out)


def test_make_pointed_no_transform_when_pointed():
    p = 5
    rng = random.Random(1)
    f1 = poly(p, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    out, tr = make_pointed([f1, f1], rng)
    assert not tr.unit_factors and tr.shift_t is None
    assert out[0].terms == f1.terms


def test_make_pointed_preserves_oracle_count():
    # x + y = 0, 1 + x*y = 0 has no common monomial: the shift applies, and
    # since no solution has a zero coordinate the oracle count is preserved
    p = 5
    f1 = {(1, 0): 1, (0, 1): 1}
    f2 = {(0, 0): 1, (1, 1): 1}
    before = torus_root_count(f1, f2)
    assert before == 2
    rng = random.Random(17)
    out, tr = make_pointed(
        [poly(p, 2, f1), poly(p, 2, f2)], rng
    )
    assert tr.shift_t is not None and not tr.unit_factors
    after = torus_root_count(
        {e: c.rational_value() for e, c in out[0].terms.items()},
        {e: c.rational_value() for e, c in out[1].terms.items()},
    )
    assert after == before


# --------------------------------------------------------------- multiplicity


def line_series(p, v0, v1, v2):
    return poly(p, 2, {(0, 0): p**v0, (1, 0): p**v1, (0, 1): p**v2})


def test_stable_multiplicity_transverse_point():
    p = 5
    fs = [line_series(p, 0, 0, 0), line_series(p, 2, 1, 0)]
    comps = connected_components([trop_complex(f) for f in fs])
    assert len(comps) == 1
    mult, points = stable_multiplicity(comps[0])
    assert mult == 1
    assert [mv for _, mv in points] == [1]  # one transverse crossing


def test_stable_multiplicity_overlapping_lines():
    # two unit-coefficient lines share their whole complex: the stable
    # count along the single component is still the Bernstein number 1
    # at the shared vertex, carried by the mixed volume of the two triangles
    p = 5
    fs = [line_series(p, 0, 0, 0), line_series(p, 0, 0, 0)]
    comps = connected_components([trop_complex(f) for f in fs])
    assert len(comps) == 1
    mult, points = stable_multiplicity(comps[0])
    assert mult == 1
    assert points == [((0, 0), 1)]


def test_stable_multiplicity_shared_ray():
    # f1 = x + y gives the full diagonal; paired with a generic line the
    # component is the shared ray, whose vertex carries the count 1
    p = 5
    fs = [poly(p, 2, {(1, 0): 1, (0, 1): 1}), line_series(p, 0, 0, 0)]
    comps = connected_components([trop_complex(f) for f in fs])
    assert len(comps) == 1
    mult, _ = stable_multiplicity(comps[0])
    assert mult == 1


def test_stable_multiplicity_of_a_lineality_component():
    # 1 + x and 2 + x share the line nu_1 = 0: no vertex, so no point
    p = 5
    fs = [poly(p, 2, {(0, 0): 1, (1, 0): 1}), poly(p, 2, {(0, 0): 2, (1, 0): 1})]
    comps = connected_components([trop_complex(f) for f in fs])
    assert len(comps) == 1
    assert stable_multiplicity(comps[0]) == (0, [])


def multiplicity_oracle(fs, component):
    """The multiplicity at every vertex of the component's pieces, from the
    argmin sets of the series themselves."""
    points = []
    for nu in sorted({v for piece in component for v in piece.cell.vertices}):
        duals = [sorted(i for i, _ in vert_nu(f, nu)) for f in fs]
        points.append((nu, mixed_volume(duals)))
    return sum(mv for _, mv in points), points


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3).flatmap(torus_system))
def test_stable_multiplicities_sum_to_the_mixed_volume(fs):
    # tropical Bernstein: the stable intersection has degree MV(Newton polytopes),
    # for the system as drawn and after the pointedness repair, where the
    # multiplicities also match the argmin-set oracle point by point
    pointed, _ = make_pointed(fs, random.Random(0))
    for system in (fs, pointed):
        comps = connected_components([trop_complex(f) for f in system])
        mults = [stable_multiplicity(c) for c in comps]
        total = sum(m for m, _ in mults)
        assert total == _interp_mv([convex_hull(sorted(f.terms)) for f in system])
        if system is pointed:
            assert mults == [multiplicity_oracle(system, c) for c in comps]


# --------------------------------------------------------------- pipeline


def to_param(p, mapping):
    return ParamSeries.from_series(poly(p, 2, mapping))


def test_system_bound_two_lines():
    p = 5
    sys_ = [
        to_param(p, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
        to_param(p, {(0, 0): 2, (1, 0): 1, (0, 1): 3}),
    ]
    report = system_root_bound(sys_, WBoundOracle(), seed="lines")
    oracle_count = torus_root_count(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1}, {(0, 0): 2, (1, 0): 1, (0, 1): 3}
    )
    assert oracle_count == 1
    assert report.s_bound >= 1
    assert report.cross_check_ok
    assert report.d2 == max(report.e_boxes) ** 2


def test_system_bound_planted_triangular_3x3():
    # f1 = (x-1)(x-2)(x-3), f2 = y - x - 5x^2, f3 = z - y - xy - 25: each
    # root of f1 fixes y and then z, so the roots are counted from x alone
    p = 5
    planted = 0
    for x in (1, 2, 3):
        y = x + 5 * x * x
        z = y + x * y + 25
        planted += x != 0 and y != 0 and z != 0
    assert planted == 3
    fs = [
        {(3, 0, 0): 1, (2, 0, 0): -6, (1, 0, 0): 11, (0, 0, 0): -6},
        {(0, 1, 0): 1, (1, 0, 0): -1, (2, 0, 0): -5},
        {(0, 0, 1): 1, (0, 1, 0): -1, (1, 1, 0): -1, (0, 0, 0): -25},
    ]
    t0 = time.monotonic()
    sys_ = [ParamSeries.from_series(poly(p, 3, f)) for f in fs]
    report = system_root_bound(sys_, WBoundOracle(), seed="triangular")
    assert report.s_bound >= planted
    assert report.cross_check_ok
    assert time.monotonic() - t0 < 10.0


def test_system_bound_figure_series_with_line():
    p = 5
    sys_ = [
        to_param(p, {(1, 0): 5, (5, 0): 1, (0, 5): 1}),
        to_param(p, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
    ]
    report = system_root_bound(sys_, WBoundOracle(), seed="fig")
    oracle_count = torus_root_count(
        {(1, 0): 5, (5, 0): 1, (0, 5): 1}, {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    )
    assert oracle_count is not None
    assert oracle_count <= report.s_bound
    assert report.cross_check_ok


def test_report_invariant_under_unit_scaling():
    p = 5
    a = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    b = {(0, 0): 2, (1, 0): 7, (0, 1): 3}
    scaled_b = {k: 3 * v for k, v in b.items()}  # 3 is a unit at p = 5
    r1 = system_root_bound([to_param(p, a), to_param(p, b)], WBoundOracle(), seed="s")
    r2 = system_root_bound(
        [to_param(p, a), to_param(p, scaled_b)], WBoundOracle(), seed="s"
    )
    assert dump_json(r1.to_dict()) == dump_json(r2.to_dict())


def test_report_determinism_and_seed_independence_of_multiplicities():
    p = 5
    sys_ = [
        to_param(p, {(1, 0): 1, (0, 1): 1}),
        to_param(p, {(0, 0): 1, (1, 1): 1}),
    ]
    r1 = system_root_bound(sys_, WBoundOracle(), seed="a")
    r2 = system_root_bound(sys_, WBoundOracle(), seed="a")
    r3 = system_root_bound(sys_, WBoundOracle(), seed="b")
    assert dump_json(r1.to_dict()) == dump_json(r2.to_dict())
    assert [c["multiplicity"] for c in r1.components] == [
        c["multiplicity"] for c in r3.components
    ]
    assert r1.s_bound == r3.s_bound
    # overlapping complexes: the seed reaches no component record
    overlap = [
        to_param(p, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
        to_param(p, {(0, 0): 3, (1, 0): 2, (0, 1): 1}),
    ]
    s1 = system_root_bound(overlap, WBoundOracle(), seed="a")
    s3 = system_root_bound(overlap, WBoundOracle(), seed="b")
    assert s1.components == s3.components


def test_positive_dimensional_component_counts_every_vertex():
    # f1 = 3X^2 + 100Y^2, f2 = 3 - (12/5)X^3Y - 60XY^3 at p = 5: the complexes
    # share a ray from (1/2, -1/2), and Res_Y = 3X^8 + 2500 gives 8 torus roots
    p = 5
    f1 = {(2, 0): 3, (0, 2): 100}
    f2 = {(0, 0): 3, (3, 1): F(-12, 5), (1, 3): -60}
    assert torus_root_count(f1, f2) == 8
    reports = [
        system_root_bound([to_param(p, f1), to_param(p, f2)], WBoundOracle(), seed=s)
        for s in ("1", "2", "alpha")
    ]
    assert [r.s_bound for r in reports] == [8, 8, 8]
    assert reports[0].components == reports[1].components == reports[2].components


def _scaled_units():
    unit = st.sampled_from([c for c in range(-20, 21) if c % 5])
    scale = st.sampled_from([F(1), F(5), F(25), F(1, 5)])
    return st.builds(lambda u, s: u * s, unit, scale)


def _sparse_support():
    return st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        _scaled_units(),
        min_size=2,
        max_size=4,
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_sparse_support(), _sparse_support())
def test_sparse_systems_with_valuations_are_sound(f1, f2):
    want = torus_root_count(f1, f2)
    assume(want is not None)
    report = system_root_bound(
        [to_param(5, f1), to_param(5, f2)], WBoundOracle(), seed="prop"
    )
    assert report.s_bound >= want
    assert report.cross_check_ok
    # tropical Bernstein: the stable intersection has degree MV(Newton polygons)
    if not report.transforms["unit_factors"] and report.transforms["shift"] is None:
        assert report.s_bound == mixed_volume([sorted(f) for f in (f1, f2)])


# --------------------------------------------------------------- swaps
# Swapping the equations, or the variables, keeps every torus root and its
# multiplicity: the bound stays, and each component's points map along.


def _components(report, perm=(0, 1)):
    """The multiset of components, each the multiset of its points (nu, mv)
    with the coordinates of nu taken in the order perm."""
    return sorted(
        sorted((tuple(F(pt["nu"][i]) for i in perm), pt["mv"]) for pt in c["points"])
        for c in report.components
    )


def _bound(f1, f2):
    return system_root_bound([to_param(5, f1), to_param(5, f2)], WBoundOracle(), seed="swap")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_sparse_support(), _sparse_support())
def test_swapping_the_equations_keeps_the_bound(f1, f2):
    report, swapped = _bound(f1, f2), _bound(f2, f1)
    assert swapped.s_bound == report.s_bound
    assert _components(swapped) == _components(report)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_sparse_support(), _sparse_support())
def test_swapping_the_variables_keeps_the_bound(f1, f2):
    def swap(f):
        return {(j, i): c for (i, j), c in f.items()}

    report, swapped = _bound(f1, f2), _bound(swap(f1), swap(f2))
    assert swapped.s_bound == report.s_bound
    assert _components(swapped, (1, 0)) == _components(report)


# --------------------------------------------------------------- constant factors
# Multiplying an equation by a nonzero constant keeps its zeros, and a
# factor of valuation k lifts the equation's tropical polynomial by k alike
# at every exponent, so the complexes, the bound and each component's
# points all stay.


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_sparse_support(), _sparse_support(), st.sampled_from([3, 25]), st.integers(0, 1))
def test_a_constant_factor_keeps_the_bound(f1, f2, factor, which):
    system = [f1, f2]
    system[which] = {e: factor * c for e, c in system[which].items()}
    report, scaled = _bound(f1, f2), _bound(*system)
    assert scaled.s_bound == report.s_bound
    assert _components(scaled) == _components(report)
