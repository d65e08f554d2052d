import random
from fractions import Fraction

import pytest

from troppadic.errors import NotClosedUnderDerivation
from troppadic.padic import INF, PadicScaled, difference_floor
from troppadic.series import Budget, RestrictedSeries, derivative, weierstrass_prepare
from troppadic.terms import (
    Add,
    App,
    Const,
    FunctionSymbol,
    Mul,
    RealizeContext,
    Var,
    coefficient_defining_systems,
    default_registry,
    derive_term,
    distinctness_root_system,
    matrix_row_values,
    parse_term,
    print_term,
    realize,
    simplify,
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
    s = realize(App("Ep", (Var(0),)), RealizeContext(p, 1, budget))
    import math

    for k in range(13):
        want = F(p) ** k / math.factorial(k)
        assert s.coeff((k,)).rational_value() == want
        if k >= 1:  # the certified tail line covers every index past 0
            assert s.coeff((k,)).valuation() >= s.tail.slope * k + s.tail.offset
    assert not s.tail.is_empty


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


def test_parse_caps_the_leaves_that_powers_build(monkeypatch):
    from troppadic import terms
    from troppadic.errors import FormatError

    t, _ = parse_term("x^256*y^256*x^256*y^256")
    assert t == Mul((Var(0),) * 512 + (Var(1),) * 512)

    build = terms._power
    built = []

    def bounded(base, e):
        built.append(e * terms._leaves(base))
        if sum(built) > terms.MAX_POWER_LEAVES:
            raise AssertionError("a power above the limit was built")
        return build(base, e)

    monkeypatch.setattr(terms, "_power", bounded)
    for text in ["(x^32)^32", "(x+y+z+u+v)^256", "x^256*y^256*x^256*y^256*x^2"]:
        built.clear()
        with pytest.raises(FormatError, match="above the limit"):
            parse_term(text)


def test_parse_rejects_long_integer_literals():
    from troppadic import terms
    from troppadic.errors import FormatError

    digits = "7" * terms.MAX_LITERAL_DIGITS
    assert parse_term(digits)[0] == Const(int(digits))
    with pytest.raises(FormatError, match="5000 digits"):
        parse_term("7" * 5000 + "*x")


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
