import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from troppadic.errors import (
    BudgetExceeded,
    DomainViolation,
    NotRegular,
    PrecisionExhausted,
    ZeroSeries,
)
from troppadic.padic import INF, PadicScaled, difference_floor
from troppadic.series import (
    Budget,
    RestrictedSeries,
    TailBound,
    derivative,
    evaluate,
    monomial_substitution,
    regular_order,
    scale_variable,
    shift_variable,
    strassmann_count,
    weierstrass_divide,
    weierstrass_prepare,
)

F = Fraction


def poly(p, nvars, mapping, domain=None):
    return RestrictedSeries(p, nvars, mapping, domain=domain)


def ex(p, v):
    return PadicScaled.exact(p, v)


# --------------------------------------------------------------- oracles


def long_division(num, den):
    """Univariate polynomial long division over Fractions: num = q*den + r."""
    num = list(num)
    dq, dd = len(num) - 1, len(den) - 1
    q = [F(0)] * max(dq - dd + 1, 1)
    while len(num) - 1 >= dd and any(num):
        d = len(num) - 1
        if num[-1] == 0:
            num.pop()
            continue
        c = num[-1] / den[-1]
        q[d - dd] = c
        for k in range(dd + 1):
            num[d - dd + k] -= c * den[k]
        num.pop()
    return q, num


def exp_px_truncation(p, degree):
    """Truncation of exp(p*x) with its certified tail line."""
    terms = {(k,): F(p) ** k / math_factorial(k) for k in range(degree + 1)}
    if p == 2:
        slope, offset = F(1), F(1)
    else:
        slope, offset = F(p - 2, p - 1), F(1, p - 1)
    return RestrictedSeries(p, 1, terms, tail=TailBound(degree, slope, offset))


def math_factorial(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


# --------------------------------------------------------------- evaluate


def test_evaluate_constant():
    f = RestrictedSeries.constant(5, 1, nvars=2)
    assert evaluate(f, (ex(5, 3), ex(5, 10))).rational_value() == 1


def test_evaluate_linear():
    f = poly(5, 2, {(1, 0): 1, (0, 1): 1})
    assert evaluate(f, (ex(5, 5), ex(5, 5))).rational_value() == 10


def test_evaluate_exp_truncation_against_partial_sum_oracle():
    p, degree = 5, 12
    f = exp_px_truncation(p, degree)
    # independent oracle: exact rational partial sum reduced mod 5^6
    total = sum(F(p) ** k / math_factorial(k) for k in range(degree + 1))
    num, den = total.numerator, total.denominator
    oracle = num * pow(den, -1, p**6) % p**6
    got = evaluate(f, (ex(p, 1),))
    assert got.valuation() == 0
    assert got.unit_digits(6) == oracle


def test_evaluate_domain_violation():
    f = exp_px_truncation(5, 6)
    with pytest.raises(DomainViolation):
        evaluate(f, (ex(5, F(1, 5)),))


# --------------------------------------------------------------- derivative


def test_derivative_monomial_rule():
    f = poly(5, 2, {(2, 1): 1})
    g = derivative(f, 0)
    assert g.terms == poly(5, 2, {(1, 1): 2}).terms


def test_derivative_of_exp_is_p_times_exp():
    p, degree = 5, 10
    f = exp_px_truncation(p, degree)
    g = derivative(f, 0)
    pf = f.scalar_mul(ex(p, p))
    for k in range(degree):  # agree up to degree D-1
        assert difference_floor(g.coeff((k,)), pf.coeff((k,))) is INF


def test_derivative_tail_transform():
    f = RestrictedSeries(5, 1, {(0,): 1}, tail=TailBound(10, F(1), F(0)))
    g = derivative(f, 0, 1)
    assert g.tail == TailBound(9, F(1), F(-1))


def test_derivative_leibniz_on_random_polys():
    rng = random.Random(5)
    for _ in range(30):
        p = 5
        f = poly(p, 2, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9) for _ in range(3)})
        g = poly(p, 2, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9) for _ in range(3)})
        lhs = derivative(f * g, 0)
        rhs = derivative(f, 0) * g + f * derivative(g, 0)
        assert lhs.terms == rhs.terms


# --------------------------------------------------------------- substitutions


def test_shift_binomial():
    f = poly(5, 1, {(2,): 1})
    g = shift_variable(f, 0, ex(5, 5))
    assert g.terms == poly(5, 1, {(2,): 1, (1,): -10, (0,): 25}).terms


def test_scale_moves_valuations():
    f = poly(5, 1, {(1,): 5, (5,): 1})
    g = scale_variable(f, 0, F(1))
    assert g.coeff((1,)).valuation() == 0
    assert g.coeff((5,)).valuation() == -5


def test_scale_valuation_shift_property():
    rng = random.Random(11)
    for _ in range(40):
        p = 5
        f = poly(p, 2, {(rng.randint(0, 4), rng.randint(0, 4)): p ** rng.randint(0, 3) for _ in range(4)},
                 domain=(None, None))
        t = F(rng.randint(1, 6), rng.randint(1, 3))
        g = scale_variable(f, 1, t)
        for exps, c in f.terms.items():
            assert g.coeff(exps).valuation() == c.valuation() - exps[1] * t


def test_shift_with_a_tail_unbounded_below_on_the_unit_polydisc_raises():
    # slope -1/2 converges on [1, oo), but not at valuation 0, where the
    # expanded tail terms would land on the stored coefficients
    f = RestrictedSeries(5, 1, {(1,): 1}, tail=TailBound(1, F(-1, 2), F(0)), domain=(F(1),))
    with pytest.raises(PrecisionExhausted):
        shift_variable(f, 0, ex(5, 5))


def test_monomial_substitution_example():
    # X1*X2^2 with d=3, n=2: X1 -> Z1 - Z2^3 gives Z1 Z2^2 - Z2^5
    f = poly(5, 2, {(1, 2): 1})
    g = monomial_substitution(f, 3, 30)
    assert g.terms == poly(5, 2, {(1, 2): 1, (0, 5): -1}).terms
    assert regular_order(g) == 5


def test_monomial_substitution_budget():
    f = poly(5, 2, {(1, 2): 1})
    with pytest.raises(BudgetExceeded):
        monomial_substitution(f, 3, 4)


# --------------------------------------------------------------- regularity


def test_regular_order_examples():
    assert regular_order(poly(5, 1, {(2,): 1, (0,): -5})) == 2
    assert regular_order(poly(5, 1, {(1,): 5, (3,): 1})) == 3
    with pytest.raises(NotRegular):
        regular_order(poly(5, 1, {(0,): 5, (1,): 5}))
    with pytest.raises(ZeroSeries):
        regular_order(poly(5, 1, {}))


# --------------------------------------------------------------- division


def test_divide_y3_by_y2_minus_p():
    # oracle: univariate long division Y^3 = Y*(Y^2 - 5) + 5Y
    q_o, r_o = long_division([F(0)] * 3 + [F(1)], [F(-5), F(0), F(1)])
    assert q_o == [F(0), F(1)] and r_o[:2] == [F(0), F(5)]
    f = poly(5, 1, {(2,): 1, (0,): -5})
    g = poly(5, 1, {(3,): 1})
    q, a = weierstrass_divide(f, g, Budget(10, 8))
    assert q.terms == poly(5, 1, {(1,): 1}).terms
    assert a[0].is_certified_zero()
    assert a[1].coeff(()).rational_value() == 5


def test_divide_self():
    f = poly(5, 1, {(2,): 1, (0,): -5})
    q, a = weierstrass_divide(f, f, Budget(10, 8))
    assert q.terms == poly(5, 1, {(0,): 1}).terms
    assert all(x.is_certified_zero() for x in a)


def test_divide_order_one_bivariate():
    # f = Y - x regular of order 1; Y^2 = (Y + x) f + x^2
    f = poly(5, 2, {(0, 1): 1, (1, 0): -1})
    g = poly(5, 2, {(0, 2): 1})
    q, a = weierstrass_divide(f, g, Budget(10, 8))
    assert q.terms == poly(5, 2, {(0, 1): 1, (1, 0): 1}).terms
    assert a[0].terms == poly(5, 1, {(2,): 1}).terms


def test_divide_rejects_nonrestricted_divisor():
    # Y + Y^2 admits no restricted quotient: the contraction cannot certify
    f = poly(5, 1, {(1,): 1, (2,): 1})
    g = poly(5, 1, {(1,): 1})
    with pytest.raises(BudgetExceeded):
        weierstrass_divide(f, g, Budget(6, 8))


def _random_regular(rng, p, d, nx=1):
    """A series in (x, Y) regular of order d, suitable for division."""
    terms = {(0,) * nx + (d,): rng.choice([1, 2, 3, 4, 6])}
    for _ in range(rng.randint(1, 5)):
        i = rng.randint(0, 3)
        j = rng.randint(0, d + 2)
        c = rng.randint(-20, 20)
        if c == 0:
            continue
        if i == 0:
            if j == d:
                continue  # never disturb the unit coefficient
            c *= p  # pure-axis terms off the order must be non-units
        key = (i,) + (0,) * (nx - 1) + (j,)
        terms[key] = terms.get(key, 0) + c
    return RestrictedSeries(p, nx + 1, terms)


def test_division_residue_and_uniqueness_property():
    rng = random.Random(424242)
    p = 5
    budget = Budget(8, 8)
    for _ in range(25):
        d = rng.randint(1, 4)
        f = _random_regular(rng, p, d)
        if regular_order(f) != d:
            continue
        g = poly(p, 2, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-30, 30) for _ in range(4)})
        q1, a1 = weierstrass_divide(f, g, budget)
        q2, a2 = weierstrass_divide(f, g, budget)
        assert q1.terms == q2.terms and all(x.terms == y.terms for x, y in zip(a1, a2))
        # residue below budget degree vanishes to budget precision
        rem = RestrictedSeries(p, 2, {exps + (j,): c for j, aj in enumerate(a1) for exps, c in aj.terms.items()})
        res = g - q1 * f - rem
        for exps, c in res.terms.items():
            if sum(exps) < budget.degree:
                assert c.valuation() >= budget.prec


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(3, 14))
def test_approximate_division_agrees_with_exact_lifts(rng, d, digits):
    p = 5
    budget = Budget(8, 8)
    f = _random_regular(rng, p, d)
    g = poly(p, 2, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-30, 30) for _ in range(4)})

    def blur(s):
        # about half of the coefficients keep only `digits` unit digits;
        # s itself is an exact lift of the result
        terms = {k: c.to_precision(digits) if rng.random() < 0.5 else c for k, c in s.terms.items()}
        return RestrictedSeries(p, s.nvars, terms)

    try:
        q_approx, a_approx = weierstrass_divide(blur(f), blur(g), budget)
    except (BudgetExceeded, PrecisionExhausted):
        return  # not certifiable from the digits given: allowed
    q, a = weierstrass_divide(f, g, budget)
    for approx, exact in [(q_approx, q), *zip(a_approx, a)]:
        for k in set(approx.terms) | set(exact.terms):
            got = approx.coeff(k)
            assert difference_floor(got, exact.coeff(k)) >= got.valuation() + got.precision()


# --------------------------------------------------------------- preparation


def test_prepare_already_distinguished():
    f = poly(5, 1, {(2,): 1, (0,): -5})
    a, u = weierstrass_prepare(f, Budget(10, 8))
    assert a[0].coeff(()).rational_value() == -5
    assert a[1].is_certified_zero()
    assert u.terms == poly(5, 1, {(0,): 1}).terms


def test_prepare_recovers_unit_factor():
    p = 5
    budget = Budget(8, 10)
    # f = (1 + pY)(Y^2 - p)
    f = poly(p, 1, {(3,): p, (2,): 1, (1,): -p * p, (0,): -p})
    a, u = weierstrass_prepare(f, budget)
    assert difference_floor(a[0].coeff(()), ex(p, -p)) >= budget.prec
    assert difference_floor(a[1].coeff(()), PadicScaled.zero(p)) >= budget.prec
    # multiply back and compare coefficientwise to budget
    dist = poly(p, 1, {(2,): 1})
    dist = dist + RestrictedSeries(p, 1, {(1,): a[1].coeff(()), (0,): a[0].coeff(())})
    back = dist * u
    for j in range(budget.degree):
        assert difference_floor(back.coeff((j,)), f.coeff((j,))) >= budget.prec


def test_prepare_5x_plus_x5():
    p = 5
    budget = Budget(8, 10)
    f = poly(p, 1, {(1,): 5, (5,): 1})
    a, u = weierstrass_prepare(f, budget)
    assert len(a) == 5
    dist = RestrictedSeries(p, 1, {(5,): 1, **{(j,): a[j].coeff(()) for j in range(5)}})
    back = dist * u
    for j in range(budget.degree):
        assert difference_floor(back.coeff((j,)), f.coeff((j,))) >= budget.prec
    assert difference_floor(u.coeff((0,)), ex(p, 1)) >= budget.prec


# --------------------------------------------------------------- strassmann


def test_strassmann_examples():
    assert strassmann_count(poly(5, 1, {(1,): 5, (5,): 1})) == 5
    assert strassmann_count(poly(5, 1, {(0,): 1, (1,): 5})) == 0
    assert strassmann_count(poly(5, 1, {(2,): 1, (1,): -1})) == 2


def test_strassmann_zero_and_precision_errors():
    with pytest.raises(ZeroSeries):
        strassmann_count(poly(5, 1, {}))
    f = RestrictedSeries(5, 1, {(0,): 5}, tail=TailBound(0, F(1, 2), F(0)))
    with pytest.raises(PrecisionExhausted):
        strassmann_count(f)


def test_strassmann_multiplicative_property():
    rng = random.Random(7)
    p = 5
    for _ in range(40):
        f = poly(p, 1, {(rng.randint(0, 3),): rng.randint(1, 20) for _ in range(2)})
        g = poly(p, 1, {(rng.randint(0, 3),): rng.randint(1, 20) for _ in range(2)})
        if not f.terms or not g.terms:
            continue
        assert strassmann_count(f * g) == strassmann_count(f) + strassmann_count(g)


# --------------------------------------------------------------- tail algebra


def test_add_mul_tail_soundness():
    p = 5
    f = exp_px_truncation(p, 8)
    g = poly(p, 1, {(1,): 1, (9,): 5})
    s = f + g
    assert not s.tail.is_empty
    assert s.tail.cutoff == 8
    # the folded degree-9 stored term must be dominated by the new tail
    assert s.tail.slope * 9 + s.tail.offset <= 1
    prod = f * g
    assert not prod.tail.is_empty


def test_series_constructor_rejects_bad_tail():
    with pytest.raises(DomainViolation):
        RestrictedSeries(5, 1, {(0,): 1}, tail=TailBound(3, F(-1), F(0)))
