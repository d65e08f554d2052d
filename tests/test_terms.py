import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from defining_systems import (
    coefficient_defining_systems,
    distinctness_root_system,
    matrix_row_values,
)
from series_helpers import composed_apps, derivative, difference_floor
from troppadic.errors import NotClosedUnderDerivation, PrecisionExhausted
from troppadic.formats import series_to_dict
from troppadic.padic import INF, PadicScaled
from troppadic.series import Budget, RestrictedSeries, TailBound, compose_univariate, weierstrass_prepare
from troppadic.terms import (
    Add,
    App,
    Const,
    FunctionSymbol,
    Mul,
    RealizeContext,
    Var,
    default_registry,
    derive_term,
    parse_term,
    print_term,
    realize,
    simplify,
    subst_vars,
)

F = Fraction


def ex(v, p=5):
    return PadicScaled.exact(p, v)


def n_partitions(d):
    # Euler's pentagonal-free brute force
    memo = {}

    def count(n, maxpart):
        if n == 0:
            return 1
        if (n, maxpart) in memo:
            return memo[n, maxpart]
        total = sum(count(n - k, k) for k in range(min(n, maxpart), 0, -1))
        memo[n, maxpart] = total
        return total

    return count(d, d)


# --------------------------------------------------------------- derive


def test_derive_product_simplifies():
    t = Mul((Var(0), Var(0)))
    d = derive_term(t, 0)
    assert d == Mul((Const(2), Var(0)))


def test_derive_ep_rewrites():
    p = 5
    t = App("Ep", (Var(0),))
    d = derive_term(t, 0, registry=default_registry(p))
    assert d == Mul((Const(5), App("Ep", (Var(0),))))
    assert print_term(d, ["x"]) == "5*Ep(x)"


def test_derive_unknown_symbol_raises():
    bare = FunctionSymbol("mystery", 1, lambda p, b: None, None)
    with pytest.raises(NotClosedUnderDerivation):
        derive_term(App("mystery", (Var(0),)), 0, registry={"mystery": bare})


def test_derive_realize_commute():
    rng = random.Random(1212)
    p = 5
    reg = default_registry(p)
    budget = Budget(10, 10)

    def rand_term(depth):
        if depth == 0:
            return rng.choice([Var(0), Var(1), Const(rng.randint(-3, 3))])
        kind = rng.randrange(3)
        if kind == 0:
            return Add((rand_term(depth - 1), rand_term(depth - 1)))
        if kind == 1:
            return Mul((rand_term(depth - 1), rand_term(depth - 1)))
        return App("Ep", (rng.choice([Var(0), Var(1)]),))

    for _ in range(25):
        t = simplify(rand_term(rng.randint(1, 4)))
        ctx = RealizeContext(p, 2, budget, registry=reg)
        var = rng.randrange(2)
        lhs = realize(derive_term(t, var, registry=reg), ctx)
        rhs = derivative(realize(t, ctx), var)
        for j1 in range(budget.degree - 1):
            for j2 in range(budget.degree - 1 - j1):
                fl = difference_floor(lhs.coeff((j1, j2)), rhs.coeff((j1, j2)))
                assert fl is INF or fl >= 6


# --------------------------------------------------------------- realize


def test_realize_constant_unit():
    s = realize(Const(1), RealizeContext(5, 1, Budget(8, 8)))
    assert s.coeff((0,)).rational_value() == 1


def test_realize_ep_coefficients_and_tail():
    p = 5
    budget = Budget(12, 12)
    import math

    # Ep(x) in one variable, and Ep(y) in two: only the y-axis is stored
    for nvars, at in ((1, lambda k: (k,)), (2, lambda k: (0, k))):
        s = realize(App("Ep", (Var(nvars - 1),)), RealizeContext(p, nvars, budget))
        assert sorted(s.terms) == sorted(at(k) for k in range(13))
        for k in range(13):
            want = F(p) ** k / math.factorial(k)
            assert s.coeff(at(k)).rational_value() == want
            if k >= 1:  # the certified tail line covers every index past 0
                assert s.coeff(at(k)).valuation() >= s.tail.slope * k + s.tail.offset
        assert s.tail == TailBound(12, F(3, 4), F(1, 4))
        assert s.domain == (F(0),) * nvars


def test_realize_product_matches_series_multiplication_oracle():
    p = 5
    budget = Budget(10, 8)
    ctx = RealizeContext(p, 1, budget)
    lhs = realize(Mul((App("Ep", (Var(0),)), App("Ep", (Var(0),)))), ctx)
    e = realize(App("Ep", (Var(0),)), ctx)
    rhs = e * e
    for k in range(budget.degree + 1):
        assert difference_floor(lhs.coeff((k,)), rhs.coeff((k,))) >= 8


def test_realize_composition_with_polynomial_argument():
    p = 5
    budget = Budget(8, 10)
    ctx = RealizeContext(p, 1, budget)
    # Ep(x + x^2) vs Ep at the series x + x^2
    t = App("Ep", (Add((Var(0), Mul((Var(0), Var(0))))),))
    got = realize(t, ctx)
    # oracle: exp(p*(x+x^2)) coefficients via exact composition of rationals
    import math

    oracle = {}
    for k in range(budget.degree + 12):
        ck = F(p) ** k / math.factorial(k)
        # (x + x^2)^k expanded
        for j in range(k + 1):
            e = k + j
            if e > budget.degree:
                continue
            oracle[e] = oracle.get(e, F(0)) + ck * math.comb(k, j)
    for e in range(budget.degree + 1):
        fl = difference_floor(got.coeff((e,)), ex(oracle.get(e, F(0))))
        assert fl is INF or fl >= budget.prec


@pytest.mark.parametrize("index", [-1, 2, 3])
def test_realize_checks_the_variable_index_of_a_symbol_argument(index):
    """Ep(Var(i)) refuses an index out of range like a bare Var, instead
    of reading Var(-1) as the last one."""
    ctx = RealizeContext(5, 2, Budget(8, 6))
    for t in (Var(index), App("Ep", (Var(index),))):
        with pytest.raises(ValueError, match=f"variable index {index} out of range"):
            realize(t, ctx)


def _polys():
    """Polynomials in x, y without a constant term, with unit coefficients
    at p = 5."""
    monomials = [Var(0), Var(1), Mul((Var(0), Var(0))), Mul((Var(0), Var(1)))]
    unit = st.sampled_from([c for c in range(-9, 10) if c % 5])
    summand = st.tuples(unit, st.sampled_from(monomials))
    return st.lists(summand, min_size=1, max_size=3, unique_by=lambda cm: cm[1].key).map(
        lambda cms: simplify(Add(tuple(Mul((Const(c), m)) for c, m in cms)))
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_polys(), _polys(), st.integers(0, 2), st.booleans())
def test_a_context_composes_each_application_once(g, h, shape, own_registry):
    """A term and its partials realized in one context equal their
    realizations in fresh contexts, and the context composes each distinct
    application once."""
    from troppadic import terms

    e, f = App("Ep", (g,)), App("Ep", (h,))
    t = simplify([
        Add((Mul((e, e)), Mul((Var(0), e)))),
        Add((e, f)),
        Add((Mul((Var(1), e, f)), e)),
    ][shape])
    registry = default_registry(5) if own_registry else None
    reg = default_registry(5)
    todo = [t, derive_term(t, 0, 1, reg), derive_term(t, 0, 2, reg), derive_term(t, 1, 1, reg)]

    def ctx():
        return RealizeContext(5, 2, Budget(8, 6), registry=registry)

    try:
        want = [realize(u, ctx()) for u in todo]
    except PrecisionExhausted:  # a cancellation: no series to compare
        assume(False)
    with mock.patch.object(terms, "compose_univariate", wraps=compose_univariate) as spy:
        shared = ctx()
        got = [realize(u, shared) for u in todo]
    for a, b in zip(got, want):
        assert series_to_dict(a) == series_to_dict(b)
        assert list(a.terms) == list(b.terms)
    apps = set()
    for u in todo:
        composed_apps(u, apps)
    assert spy.call_count == len(apps)


def test_an_edited_registry_realizes_its_new_symbol():
    """A context's compositions are keyed by the symbol object: after the
    registry's Ep is replaced, the same application realizes the new one."""
    reg = default_registry(5)

    def ctx():
        return RealizeContext(5, 1, Budget(8, 6), registry=reg)

    shared, t = ctx(), App("Ep", (Mul((Const(2), Var(0))),))
    before = series_to_dict(realize(t, shared))
    reg["Ep"] = FunctionSymbol("Ep", 1, lambda p, budget: RestrictedSeries(p, 1, {(0,): 1}))
    after = series_to_dict(realize(t, shared))
    assert after == series_to_dict(realize(t, ctx())) != before


# --------------------------------------------------------------- parsing


def test_parse_roundtrip():
    t, names = parse_term("Ep(x)*Ep(y) + 3*x")
    assert names == ["x", "y"]
    assert print_term(t, names) == "3*x + Ep(x)*Ep(y)"


def test_parse_powers_and_minus():
    t, names = parse_term("x^2 - 5")
    assert t == Add((Const(-5), Mul((Var(0), Var(0)))))


def test_parse_errors():
    from troppadic.errors import FormatError

    with pytest.raises(FormatError):
        parse_term("x +")
    with pytest.raises(FormatError):
        parse_term("Ep(x")
    with pytest.raises(FormatError, match="Ep expects 1 arguments"):
        parse_term("Ep(x, y)")


def test_parse_rejects_exponents_above_the_limit(monkeypatch):
    from troppadic import terms
    from troppadic.errors import FormatError

    t, _ = parse_term(f"x^{terms.MAX_EXPONENT}")
    assert t == Mul((Var(0),) * terms.MAX_EXPONENT)

    def no_power(base, e):
        raise AssertionError("a power was built")

    monkeypatch.setattr(terms, "_power", no_power)
    with pytest.raises(FormatError, match="above the limit"):
        parse_term(f"x^{terms.MAX_EXPONENT + 1}")


def leaves(t):
    """The constants and variables of a term, counted with repetition."""
    if isinstance(t, (Var, Const)):
        return 1
    return sum(leaves(a) for a in t.args)


def test_parse_caps_the_leaves_that_powers_build(monkeypatch):
    from troppadic import terms
    from troppadic.errors import FormatError

    t, _ = parse_term("x^256*y^256*x^256*y^256")
    assert t == Mul((Var(0),) * 512 + (Var(1),) * 512)
    assert parse_term("(x^32)^32")[0] == Mul((Var(0),) * 1024)

    build = terms._power

    def bounded(base, e):
        if e * leaves(base) > terms.MAX_LEAVES:
            raise AssertionError("a power above the limit was built")
        return build(base, e)

    monkeypatch.setattr(terms, "_power", bounded)
    for text in ["(x^32)^33", "(x+y+z+u+v)^256", "x^256*y^256*x^256*y^256*x^2", "(x-y-z)^205"]:
        with pytest.raises(FormatError, match="above the limit"):
            parse_term(text)


def test_parse_caps_the_written_leaves():
    from troppadic import terms
    from troppadic.errors import FormatError

    n = terms.MAX_LEAVES
    assert parse_term("*".join(["x"] * n))[0] == Mul((Var(0),) * n)
    k = (n - 1) // 2  # each minus adds a -1 leaf
    assert parse_term("x" + "-x" * k)[0] == Mul((Const(1 - k), Var(0)))
    for text in ["*".join(["x"] * (n + 1)), "x" + "-x" * (n // 2), "*".join(["x"] * 20000)]:
        with pytest.raises(FormatError, match=f"above the limit {n}"):
            parse_term(text)


def test_parse_rejects_long_integer_literals():
    from troppadic import terms
    from troppadic.errors import FormatError

    digits = "7" * terms.MAX_LITERAL_DIGITS
    assert parse_term(digits)[0] == Const(int(digits))
    with pytest.raises(FormatError, match="5000 digits"):
        parse_term("7" * 5000 + "*x")


def test_parse_flattens_chains(monkeypatch):
    # the parser hands simplify one node per chain, not a left-deep tree
    from troppadic import terms

    seen = []
    monkeypatch.setattr(terms, "simplify", lambda t: seen.append(t) or t)
    parse_term("x*y*z - x + 2")
    assert seen == [
        Add((Mul((Var(0), Var(1), Var(2))), Mul((Const(-1), Var(0))), Const(2)))
    ]


def left_deep(t):
    """The term with every Add and Mul chain nested pairwise from the left,
    as a binary parser builds it."""
    if isinstance(t, (Var, Const)):
        return t
    args = tuple(left_deep(a) for a in t.args)
    if isinstance(t, App):
        return App(t.symbol, args)
    node = args[0]
    for a in args[1:]:
        node = type(t)((node, a))
    return node


def _terms():
    leaf = st.builds(Var, st.integers(0, 1)) | st.builds(Const, st.integers(-3, 3))
    return st.recursive(
        leaf,
        lambda kids: st.builds(Add, st.lists(kids, min_size=2, max_size=4).map(tuple))
        | st.builds(Mul, st.lists(kids, min_size=2, max_size=4).map(tuple))
        | st.builds(lambda a: App("Ep", (a,)), kids),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_terms())
def test_flat_chains_simplify_like_nested_ones(t):
    assert simplify(t) == simplify(left_deep(t))


def test_parse_caps_the_nesting_depth():
    from troppadic import terms
    from troppadic.errors import FormatError

    def nests(k):
        return ["(" * k + "x" + ")" * k, "-" * k + "x", "Ep(" * k + "x" + ")" * k]

    n = terms.MAX_NESTING
    deep_ep = Var(0)
    for _ in range(n):
        deep_ep = App("Ep", (deep_ep,))
    assert [parse_term(text)[0] for text in nests(n)] == [
        Var(0),
        simplify(Mul((Const((-1) ** n), Var(0)))),
        deep_ep,
    ]
    for text in nests(n + 1):
        with pytest.raises(FormatError, match="nested deeper"):
            parse_term(text)


def test_simplify_caps_the_digits_of_folded_constants():
    from troppadic import terms
    from troppadic.errors import FormatError

    top = 10**terms.MAX_LITERAL_DIGITS - 1
    assert simplify(Mul((Const(top), Const(1), Var(0)))) == Mul((Const(top), Var(0)))
    too_long = [
        Mul((Const(top), Const(10))),
        Add((Const(top), Const(1))),
        Add((Const(-top), Const(-1))),
    ]
    for t in too_long:
        with pytest.raises(FormatError, match="folded constant"):
            simplify(t)
    with pytest.raises(FormatError, match="folded constant"):
        parse_term("99999999999999999^256*x")


# ------------------------------------------- the re-simplifying oracle
#
# The normal form as a separate pass, the way terms.py computed it before
# the constructors: a nested sort key rebuilt on every sort, a simplify
# that re-normalizes every subterm, and derivation of raw trees.


def oracle_key(t):
    if isinstance(t, Const):
        return (0, t.value)
    if isinstance(t, Var):
        return (1, t.index)
    if isinstance(t, App):
        return (2, t.symbol, tuple(oracle_key(a) for a in t.args))
    if isinstance(t, Mul):
        return (3, tuple(oracle_key(a) for a in t.args))
    return (4, tuple(oracle_key(a) for a in t.args))


def oracle_simplify(t):
    if isinstance(t, (Var, Const)):
        return t
    if isinstance(t, App):
        return App(t.symbol, tuple(oracle_simplify(a) for a in t.args))
    if isinstance(t, Mul):
        coeff = 1
        factors = []
        for a in (oracle_simplify(x) for x in t.args):
            for b in a.args if isinstance(a, Mul) else (a,):
                if isinstance(b, Const):
                    coeff *= b.value
                else:
                    factors.append(b)
        if coeff == 0:
            return Const(0)
        factors.sort(key=oracle_key)
        if coeff != 1:
            factors = [Const(coeff)] + factors
        if not factors:
            return Const(1)
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))
    const = 0
    counts = {}
    reps = {}
    for a in (oracle_simplify(x) for x in t.args):
        for b in a.args if isinstance(a, Add) else (a,):
            if isinstance(b, Const):
                const += b.value
                continue
            c = 1
            core = b
            if isinstance(b, Mul) and isinstance(b.args[0], Const):
                c = b.args[0].value
                rest = b.args[1:]
                core = rest[0] if len(rest) == 1 else Mul(rest)
            k = oracle_key(core)
            counts[k] = counts.get(k, 0) + c
            reps[k] = core
    out = []
    for k in sorted(counts):
        c = counts[k]
        if c == 0:
            continue
        out.append(reps[k] if c == 1 else oracle_simplify(Mul((Const(c), reps[k]))))
    if const != 0 or not out:
        out = [Const(const)] + out
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def oracle_derive1(t, var, registry):
    if isinstance(t, Var):
        return Const(1 if t.index == var else 0)
    if isinstance(t, Const):
        return Const(0)
    if isinstance(t, Add):
        return Add(tuple(oracle_derive1(a, var, registry) for a in t.args))
    if isinstance(t, Mul):
        parts = []
        for k in range(len(t.args)):
            dk = oracle_derive1(t.args[k], var, registry)
            parts.append(Mul(t.args[:k] + (dk,) + t.args[k + 1:]))
        return Add(tuple(parts))
    parts = []
    for k, arg in enumerate(t.args):
        outer = registry[t.symbol].derivative_rule(t.args, k)
        parts.append(Mul((outer, oracle_derive1(arg, var, registry))))
    return Add(tuple(parts))


def oracle_derive(t, var, order, registry):
    """Derive and re-simplify once per order."""
    for _ in range(order):
        t = oracle_simplify(oracle_derive1(t, var, registry))
    return t


def subst_vars_raw(t, mapping):
    if isinstance(t, Var):
        return mapping[t.index]
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(t.symbol, tuple(subst_vars_raw(a, mapping) for a in t.args))
    return type(t)(tuple(subst_vars_raw(a, mapping) for a in t.args))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_terms(), _terms())
def test_keys_order_terms_like_the_nested_oracle(a, b):
    x, y = Var(0), Var(1)
    # the children of one node end before the next node's start
    shorter = Mul((App("Ep", (Add((x, y)),)), y))
    longer = Mul((App("Ep", (Add((x, y, y)),)),))
    for s, t in [(a, b), (simplify(a), simplify(b)), (shorter, longer), (longer, shorter)]:
        assert (s.key < t.key) == (oracle_key(s) < oracle_key(t))
        assert (s.key == t.key) == (s == t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_terms(), st.integers(0, 1), st.integers(1, 3), st.sampled_from([2, 5]))
def test_derivation_matches_the_resimplifying_oracle(t, var, order, p):
    reg = default_registry(p)
    normal = oracle_simplify(t)
    assert simplify(t) == normal
    assert simplify(normal) == normal
    want = oracle_derive(normal, var, order, reg)
    # on normal-form input the result is the oracle's, and on raw input it
    # is the derivative of simplify(t)
    assert derive_term(normal, var, order, reg) == want
    assert derive_term(t, var, order, reg) == want
    assert derive_term(t, var, 0, reg) == normal


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_terms(), _terms(), _terms())
def test_substitution_matches_the_resimplifying_oracle(t, a, b):
    mapping = {0: oracle_simplify(a), 1: oracle_simplify(b)}
    for u in (t, oracle_simplify(t)):
        assert subst_vars(u, mapping) == oracle_simplify(subst_vars_raw(u, mapping))
    renaming = {0: Var(3), 1: Var(2)}
    assert subst_vars(t, renaming) == subst_vars(simplify(t), renaming)


def test_derivation_stops_at_zero():
    assert derive_term(Var(0), 0, 10**9) == Const(0)
    t, _ = parse_term("x^3*Ep(y)")
    assert derive_term(t, 0, 10**9, default_registry(5)) == Const(0)


# --------------------------------------------------------------- systems


def test_coefficient_systems_count_is_partition_number():
    f = Add((Mul((Var(0), Var(1))), Mul((Var(1), Var(1), Var(1)))))
    g = Var(1)
    for d in (1, 2, 3, 4, 5):
        systems = coefficient_defining_systems(f, g, d, nx=1)
        assert len(systems) == n_partitions(d)
        assert systems[0].config == f"multiplicities {d}"


def test_coefficient_system_d1_shape():
    f, g = Var(1), Var(1)
    (sys1,) = coefficient_defining_systems(f, g, 1, nx=1)
    assert len(sys1.equations) == 2  # f(alpha) = 0 and A_0 = g(alpha)
    assert sys1.rows == ((0, 0),)


def test_matrix_rows_match_derivative_pattern():
    alpha = ex(7)
    assert [r.rational_value() if not r.is_zero() else 0 for r in matrix_row_values(2, 0, alpha)] == [1, 7]
    assert [r.rational_value() if not r.is_zero() else 0 for r in matrix_row_values(2, 1, alpha)] == [0, 1]


def test_double_root_system_uses_derivative_rows():
    f = Var(1)
    g = Var(1)
    systems = coefficient_defining_systems(f, g, 2, nx=1)
    configs = [s.config for s in systems]
    assert configs == ["multiplicities 2", "multiplicities 1+1"]
    double = systems[0]
    assert double.rows == ((0, 0), (0, 1))
    distinct = systems[1]
    assert distinct.rows == ((0, 0), (1, 0))


def test_system_satisfied_by_actual_preparation():
    # f = (Y - 5)(Y - 10): regular of order 2, distinct roots of valuation 1
    p = 5
    budget = Budget(12, 10)
    f_series = RestrictedSeries(p, 1, {(2,): 1, (1,): -15, (0,): 50})
    a, u = weierstrass_prepare(f_series, budget)
    fterm = Add(
        (
            Mul((Var(1), Var(1))),
            Mul((Const(-15), Var(1))),
            Const(50),
        )
    )
    gterm = Var(1)
    systems = coefficient_defining_systems(fterm, gterm, 2, nx=1)
    distinct = systems[1]
    # g = Y gives Vandermonde right side g(alpha_j) = alpha_j, so A = (0, 1)
    values = {
        "x1": ex(0),
        "alpha1": ex(5),
        "alpha2": ex(10),
        "A0": ex(0),
        "A1": ex(1),
        "w12": ex(1) / (ex(5) - ex(10)),
    }
    ctx = RealizeContext(p, 0, budget)
    res = distinct.residuals(values, ctx)
    assert all(r.is_zero() for r in res)
    # and the preparation's coefficients vanish on the known roots to budget
    for root in (5, 10):
        val = ex(root) ** 2 + a[1].coeff(()) * ex(root) + a[0].coeff(())
        assert difference_floor(val, PadicScaled.zero(p)) >= budget.prec


def test_distinctness_system_shape():
    # P(z, a_0..a_s) arbitrary; f, g in (T, Z)
    f = Add((Var(0), Mul((Const(-1), Var(1)))))  # T - Z
    g = Var(0)
    P = Var(1)
    s0 = distinctness_root_system(P, f, g, 0)
    assert len(s0.equations) == 3
    assert s0.unknown_count == 3
    s1 = distinctness_root_system(P, f, g, 1)
    assert "t01" in s1.var_names
    s2 = distinctness_root_system(P, f, g, 2)
    assert s2.unknown_count == 7 + 3
    assert len(s2.equations) == (3 + 3 + 1 + 3)


def test_distinctness_system_satisfiable():
    p = 5
    # f = T^2 - z: roots t0, t1 = +-sqrt(z); take z = 4: roots 2, -2 = 3 mod 5
    f = Add((Mul((Var(0), Var(0))), Mul((Const(-1), Var(1)))))
    g = Const(1)
    P = Var(1)  # P(z, a_0, a_1) = z: not zero at z=4, so expect a residual
    s1 = distinctness_root_system(P, f, g, 1)
    values = {
        "z": ex(4),
        "t0": ex(2),
        "t1": ex(-2),
        "a0": ex(1),
        "a1": ex(0),
        "w": ex(1),
        "t01": ex(1) / ex(4),
    }
    ctx = RealizeContext(p, 0, Budget(10, 8))
    res = s1.residuals(values, ctx)
    # root equations and vandermonde rows and distinctness hold; P(z)=4 != 0
    zero_flags = [r.is_zero() for r in res]
    assert zero_flags.count(False) == 1
