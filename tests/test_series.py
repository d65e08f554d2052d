import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from series_helpers import (
    derivative,
    difference_floor,
    monomial_substitution,
    scalar_mul,
    scale_variable,
    to_precision,
)
from troppadic import series, terms
from troppadic.errors import (
    BudgetExceeded,
    DomainViolation,
    NotRegular,
    PrecisionExhausted,
    ZeroSeries,
)
from troppadic.padic import INF, PadicScaled, sum_floor, val_min
from troppadic.series import (
    Budget,
    RestrictedSeries,
    TailBound,
    compose_univariate,
    evaluate,
    regular_order,
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


def _oracle_mul(a, b, cap):
    """Product of two PadicScaled term dicts below a total-degree cap."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if sum(i) + sum(j) <= cap:
                k = tuple(map(add, i, j))
                out[k] = out[k] + x * y if k in out else x * y
    return {k: v for k, v in out.items() if not v.is_zero()}


def _oracle_split(terms, axis, d):
    low, high = {}, {}
    for exps, c in terms.items():
        if exps[axis] < d:
            low[exps] = c
        else:
            high[exps[:axis] + (exps[axis] - d,) + exps[axis + 1:]] = c
    return low, high


def oracle_divide(f, g, budget):
    """The reference for weierstrass_divide: its Neumann loop and residue
    check in PadicScaled arithmetic on every input, exact or not.  The
    input checks before the loop are the library's.  Returns ({key: Q_key},
    [{key: A_j_key}]) with zero coefficients dropped, in insertion order."""
    d = series.regular_order(f)
    series._check_division_inputs(f, g, d, budget)
    p, axis = f.p, f.nvars - 1
    top = (0,) * axis + (d,)
    one_over = PadicScaled.exact(p, 1) / f.terms[top]
    minus_e = {k: -c for k, c in f.terms.items() if k != top}
    q = {}
    r, high = _oracle_split(g.terms, axis, d)
    term = {k: c * one_over for k, c in high.items()}
    for _ in range(budget.prec + budget.degree + 2):
        if not term:
            break
        for k, c in term.items():
            q[k] = q[k] + c if k in q else c
        low, high = _oracle_split(_oracle_mul(term, minus_e, budget.degree), axis, d)
        for k, c in low.items():
            r[k] = r[k] + c if k in r else c
        term = {k: c * one_over for k, c in high.items()}
    residue = {k: [c] for k, c in g.terms.items()}
    for i, x in q.items():
        for j, y in f.terms.items():
            k = tuple(map(add, i, j))
            if sum(k) < budget.degree:
                residue.setdefault(k, []).append(-(x * y))
    for k, c in r.items():
        residue.setdefault(k, []).append(-c)
    for exps in sorted(residue):
        if sum(exps) < budget.degree:
            v = sum_floor(residue[exps])
            if v < budget.prec:
                raise BudgetExceeded(
                    f"division residue at {exps} has valuation {v} < {budget.prec}"
                )
    nonzero = {k: c for k, c in q.items() if not c.is_zero()}
    rems = [
        {k[:axis]: c for k, c in r.items() if k[axis] == j and not c.is_zero()}
        for j in range(d)
    ]
    return nonzero, rems


def _oracle_split_p(r, p):
    """(v, num, den): r = (num/den)*p^v with num and den prime to p, for a
    nonzero Fraction r."""
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v, num, den


def oracle_finish(p, acc, cutoff, floor):
    """(kept, folds): the nonzero terms of degree <= cutoff, each cut to
    the error floor the base tail leaves, and the (degree, valuation capped
    at the floor) of the nonzero terms beyond the cutoff.  Valuations and
    unit digits of exact coefficients come from their Fractions."""
    kept, folds = {}, []
    for k, c in acc.items():
        if c.is_zero():
            continue
        if c.is_exact:
            v, num, den = _oracle_split_p(c.rational_value(), p)
        else:
            v = c.valuation()
        if sum(k) > cutoff:
            folds.append((sum(k), min(F(v), floor)))
        elif floor is INF:
            kept[k] = c
        elif v >= floor:
            raise PrecisionExhausted(
                "value is indistinguishable from zero at the certified floor", floor=floor
            )
        elif math.floor(floor - v) < 1:
            raise PrecisionExhausted("no certified digit", floor=floor)
        else:
            digits = math.floor(floor - v)
            unit = num * pow(den, -1, p**digits) if c.is_exact else c.unit_digits(digits)
            kept[k] = PadicScaled.approx(p, v, unit, digits)
    return kept, folds


def oracle_compose(base, g, budget):
    """The reference for compose_univariate: its power loop in PadicScaled
    arithmetic on every input, exact or not, and its fold and floor cut in
    oracle_finish.  The tail line merge is the library's."""
    if base.nvars != 1:
        raise ValueError("base must be univariate")
    if not g.tail.is_empty:
        raise BudgetExceeded("composition with a non-polynomial argument")
    p = g.p
    m = val_min(*(c.valuation() for c in g.terms.values()))
    r0 = base.domain[0]
    if m is not INF and (m < 0 or (r0 is not None and m < r0)):
        raise DomainViolation("argument values leave the base domain")
    deg_g = g.max_degree()
    k_max, floor_beyond = base.tail.cutoff, INF
    if not base.tail.is_empty:
        while base.tail.slope * (k_max + 1) + base.tail.offset < budget.prec:
            if base.tail.slope <= 0:
                raise BudgetExceeded("base tail slope too small to certify the precision")
            k_max += 1
        floor_beyond = base.tail.slope * (k_max + 1) + base.tail.offset
    acc = {}
    power = {(0,) * g.nvars: PadicScaled.exact(p, 1)}
    for k in range(k_max + 1):
        a_k = base.coeff((k,))
        if not a_k.is_zero():
            for exps, c in power.items():
                acc[exps] = acc[exps] + c * a_k if exps in acc else c * a_k
        if k < k_max:
            power = _oracle_mul(power, g.terms, max(k_max * deg_g, budget.degree))
            if len(power) > 20000:
                raise BudgetExceeded("composition expansion too large for the budget")
    kept, folds = oracle_finish(p, acc, budget.degree, floor_beyond)
    pieces = []
    if floor_beyond is not INF and deg_g > 0:
        pieces.append((base.tail.slope / deg_g, base.tail.offset))
    tail = series._merge_tail_pieces(budget.degree, pieces, folds)
    return RestrictedSeries(p, g.nvars, kept, tail=tail, domain=g.domain)


def outcome(fn, *args):
    """fn(*args), or the type, message and floor of the exception it raises."""
    try:
        return fn(*args)
    except (BudgetExceeded, DomainViolation, PrecisionExhausted, NotRegular, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "floor", None)


def same_series(a, b):
    """Equal terms in the same order, tail and domain; or equal failures."""
    if not isinstance(a, RestrictedSeries) or not isinstance(b, RestrictedSeries):
        return a == b
    same_terms = list(a.terms.items()) == list(b.terms.items())
    return same_terms and (a.tail, a.domain) == (b.tail, b.domain)


def vp(r, p):
    return INF if r == 0 else _oracle_split_p(F(r), p)[0]


def power_sum(coeffs, g, n, maxdeg):
    """sum_k coeffs[k] * g^k up to total degree maxdeg, in Fractions."""
    out, power = {}, {(0,) * n: F(1)}
    for k, a in enumerate(coeffs):
        if k:
            power = naive_mul(power, g, maxdeg)
        for e, c in power.items():
            out[e] = out.get(e, 0) + a * c
    return out


def exp_truth(p, g, n):
    """The truth of Ep(g) for g with p-integral Fraction coefficients: the
    sum of (m*g)^k/k!, m = p (4 at p = 2), to the first K whose remainder
    has valuation >= the accuracy.  For v(k!) <= (k - 1)/(p - 1), so
    v(m^k/k!) >= k*v(m) - (k - 1)/(p - 1) grows with k."""
    m = 4 if p == 2 else p
    vm = 2 if p == 2 else 1

    def truth(maxdeg, accuracy):
        K = 0
        while (K + 1) * vm - F(K, p - 1) < accuracy:
            K += 1
        coeffs = [F(m) ** k / math.factorial(k) for k in range(K + 1)]
        return power_sum(coeffs, g, n, maxdeg), accuracy

    return truth


def completion_truth(base, g, n):
    """The truth of base(g) for one series the base certifies: each stored
    coefficient's representative, zero where none is stored up to the
    cutoff, and a_k = p^ceil(c*k + b) beyond it for a tail line (c, b), so
    each unknown coefficient sits at its bound.  The terms beyond K have
    valuation >= c*(K + 1) + b, as g has p-integral coefficients; without
    a tail the sum is exact."""
    p, tail = base.p, base.tail
    known = {k: claimed(c)[0] for (k,), c in base.terms.items()}

    def truth(maxdeg, accuracy):
        coeffs = [known.get(k, 0) for k in range(tail.cutoff + 1)]
        if tail.is_empty:
            return power_sum(coeffs, g, n, maxdeg), INF
        K = tail.cutoff
        while tail.slope * (K + 1) + tail.offset < accuracy:
            K += 1
        for k in range(tail.cutoff + 1, K + 1):
            coeffs.append(F(p) ** math.ceil(tail.slope * k + tail.offset))
        return power_sum(coeffs, g, n, maxdeg), accuracy

    return truth


def claimed(c):
    """(value, absolute precision) of a coefficient: a representative of
    its certified digits, and the valuation to which they are certified."""
    if c.is_exact:
        return c.rational_value(), INF
    v = c.valuation()
    assert v.denominator == 1
    return c.unit_digits(c.precision()) * F(c.p) ** int(v), v + c.precision()


def assert_certified(got, truth, prec):
    """Every digit that the series got certifies agrees with the truth:
    each stored coefficient to its precision, each one missing up to the
    cutoff as zero to the least precision of the stored ones, and the tail
    line up to two degrees beyond the cutoff.  truth(maxdeg, accuracy)
    gives the true coefficients up to total degree maxdeg, each known to
    valuation accuracy (INF: exactly), and that accuracy."""
    p = got.p
    precisions = [claimed(c)[1] for c in got.terms.values()]
    missing = min(precisions, default=INF)
    maxdeg = got.tail.cutoff + 2
    true, accuracy = truth(maxdeg, max([prec] + [a for a in precisions if a is not INF]) + 1)
    for exps in product(range(maxdeg + 1), repeat=got.nvars):
        deg = sum(exps)
        if deg > maxdeg:
            continue
        if deg <= got.tail.cutoff:
            value, known = claimed(got.terms[exps]) if exps in got.terms else (0, missing)
            assert vp(true.get(exps, 0) - value, p) >= min(known, accuracy), exps
        else:
            line = INF if got.tail.is_empty else got.tail.slope * deg + got.tail.offset
            assert vp(true.get(exps, 0), p) >= min(line, accuracy), exps


# --------------------------------------------------------------- packed products


def naive_mul(a, b, cap):
    """The product of two tuple-keyed term dicts without terms of total
    degree above cap (None: no cap), zero coefficients dropped."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if cap is None or sum(i) + sum(j) <= cap:
                k = tuple(map(add, i, j))
                out[k] = out[k] + x * y if k in out else x * y
    return {k: v for k, v in out.items() if v}


@st.composite
def packed_operands(draw):
    """(n, w, a, b): two term dicts in 0-4 variables whose exponents fill
    fields of width w, with int or PadicScaled coefficients."""
    n, w = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 2**w - 1) | st.just(2**w - 1)] * n)
    if draw(st.booleans()):
        coeffs = st.integers(-3, 3)
    else:
        p = draw(st.sampled_from(PRIMES))
        exact = rationals(p).map(lambda r: ex(p, r))
        coeffs = exact | st.builds(to_precision, exact, st.integers(1, 4))
    a, b = (draw(st.dictionaries(exps, coeffs, max_size=6)) for _ in range(2))
    return n, w, a, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(packed_operands(), st.sampled_from(["none", "below", "max", "max+1", "field"]))
# every field full: the products carry between fields and are all dropped
@example((2, 2, {(3, 3): 1, (3, 0): 2}, {(3, 0): 1, (0, 3): -1}), "field")
def test_packed_product_matches_the_tuple_product(operands, which):
    n, w, a, b = operands
    degrees = [sum(i) + sum(j) for i in a for j in b]
    cap = {
        "none": None,
        "below": min(degrees, default=0) - 1,
        "max": max(degrees, default=0),
        "max+1": max(degrees, default=0) + 1,
        "field": 2**w - 1,
    }[which]
    # widen the field until 2^w exceeds the cap (the lemma's condition)
    w = max(w, (max(degrees, default=0) if cap is None else cap).bit_length())
    lim = 1 << w * (n + 1) if cap is None else (cap + 1) << w * n
    pa, pb = series._pack(a, n, w), series._pack(b, n, w)
    assert series._unpack(pa, n, w) == a
    # approximate sums that cancel raise, at the same pair on both sides
    got = outcome(lambda: list(series._dict_mul(pa, pb, lim).items()))
    want = outcome(lambda: list(series._pack(naive_mul(a, b, cap), n, w).items()))
    assert got == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(packed_operands(), st.integers(0, 15))
def test_packed_split_matches_the_tuple_split(operands, d):
    n, w, terms_, _ = operands
    if n == 0:
        return
    d %= 2**w
    low, high = series._split_high(series._pack(terms_, n, w), d, n, w)
    want_low, want_high = _oracle_split(terms_, n - 1, d)
    assert list(low.items()) == list(series._pack(want_low, n, w).items())
    assert list(high.items()) == list(series._pack(want_high, n, w).items())


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
    pf = scalar_mul(f, ex(p, p))
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
        terms = {k: to_precision(c, digits) if rng.random() < 0.5 else c for k, c in s.terms.items()}
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


PRIMES = [2, 3, 5, 7]
DENOMINATORS = [1, 1, 1, 2, 3, 4, 5, 7, 9, 11]


def rationals(p, unit=False):
    """Nonzero rationals whose denominators are prime to p; units if asked."""
    return st.builds(
        F,
        st.integers(-40, 40).filter(lambda v: v and not (unit and v % p == 0)),
        st.sampled_from([q for q in DENOMINATORS if q % p]),
    )


def blurred(draw, p, terms, digits):
    """The coefficients, about half of them cut to `digits` unit digits when
    digits is not None; exact otherwise."""
    out = {}
    for k, c in terms.items():
        c = PadicScaled.exact(p, c)
        out[k] = to_precision(c, digits) if digits and draw(st.booleans()) else c
    return out


@st.composite
def division_inputs(draw):
    p = draw(st.sampled_from(PRIMES))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    last = (0,) * (n - 1)
    fterms = {last + (d,): draw(rationals(p, unit=True))}
    for j in draw(st.lists(st.integers(0, d + 2).filter(lambda j: j != d), max_size=3)):
        fterms[last + (j,)] = p * draw(rationals(p))  # pure-axis: not units
    for e in draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4)):
        if any(e[:-1]):
            fterms[e] = draw(rationals(p))
    gterms = {
        e: draw(rationals(p))
        for e in draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6))
    }
    digits = draw(st.none() | st.integers(2, 12))
    f, g = (
        # a tail makes the budget checks pass or raise before the loop
        RestrictedSeries(p, n, blurred(draw, p, t, digits), tail=draw(tails(t)))
        for t in (fterms, gterms)
    )
    return f, g, Budget(draw(st.integers(1, 12)), draw(st.integers(1, 8)))


def tails(terms):
    """No tail, or a tail line beyond the stored terms."""
    cutoff = max(map(sum, terms), default=0)
    return st.none() | st.builds(
        TailBound,
        st.integers(cutoff, cutoff + 3),
        st.sampled_from([F(1, 2), F(1), F(2)]),
        st.sampled_from([F(-1), F(0), F(1), F(4), F(9)]),
    )


def division_outcome(divide, f, g, budget):
    """(Q items, [A_j items]) in insertion order, or the failure raised."""
    try:
        q, rems = divide(f, g, budget)
    except (BudgetExceeded, PrecisionExhausted) as exc:
        return type(exc), str(exc)
    if isinstance(q, RestrictedSeries):
        q, rems = q.terms, [a.terms for a in rems]
    return list(q.items()), [list(a.items()) for a in rems]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(division_inputs())
def test_division_matches_the_padicscaled_oracle(inputs):
    f, g, budget = inputs
    lifted = [series._numerators(s.terms) for s in (f, g)]
    if all(c.is_exact for s in (f, g) for c in s.terms.values()):
        assert None not in lifted  # the integer ring
    else:
        assert None in lifted  # the PadicScaled ring
    got = division_outcome(weierstrass_divide, f, g, budget)
    assert got == division_outcome(oracle_divide, f, g, budget)


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


# --------------------------------------------------------------- composition


@st.composite
def compositions(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    budget = Budget(draw(st.integers(1, 14)), draw(st.integers(1, 10)))
    if draw(st.booleans()):
        base = terms._exp_p_build(p, budget)
    else:
        cutoff = draw(st.integers(0, 5))
        coeffs = {(k,): draw(rationals(p)) for k in range(cutoff + 1) if draw(st.booleans())}
        tail = draw(st.sampled_from(
            [None, TailBound(cutoff, F(1), F(0)), TailBound(cutoff, F(1, 2), F(1))]
        ))
        base = RestrictedSeries(p, 1, coeffs, tail=tail)
    digits = draw(st.none() | st.integers(2, 12))
    exact = {k: c.rational_value() for k, c in base.terms.items()}
    base = RestrictedSeries(p, 1, blurred(draw, p, exact, digits), tail=base.tail)
    gterms = {
        e: p ** draw(st.integers(0, 2)) * draw(rationals(p))
        for e in draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=3))
    }
    return base, RestrictedSeries(p, n, gterms), budget


EP_BUDGET = Budget(16, 12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(compositions())
# Ep(5*y) and Ep(x*x+5*y): both raise PrecisionExhausted at this budget
@example((terms._exp_p_build(5, EP_BUDGET), poly(5, 1, {(1,): 5}), EP_BUDGET))
@example((terms._exp_p_build(5, EP_BUDGET), poly(5, 2, {(2, 0): 1, (0, 1): 5}), EP_BUDGET))
# an empty base tail: exact coefficients, the terms beyond degree 2 folded
@example((
    poly(5, 1, {(0,): F(1, 3), (1,): 2, (2,): F(-5, 7), (3,): 1}),
    poly(5, 2, {(1, 0): F(1, 2), (0, 1): 5}),
    Budget(8, 2),
))
# the floor 3/2 leaves one digit at valuation 0 and none at valuation 1
@example((
    RestrictedSeries(5, 1, {(0,): 1, (1,): 5}, tail=TailBound(1, F(1, 2), F(1, 2))),
    poly(5, 1, {(1,): 1}),
    Budget(1, 4),
))
def test_composition_matches_the_padicscaled_oracle(inputs):
    base, g, budget = inputs
    if not all(c.is_exact for c in base.terms.values()):
        assert series._numerators(base.terms) is None  # the PadicScaled ring
    got = outcome(compose_univariate, base, g, budget)
    if isinstance(got, RestrictedSeries):
        exact_g = {k: c.rational_value() for k, c in g.terms.items()}
        assert_certified(got, completion_truth(base, exact_g, g.nvars), budget.prec)
    # the replay reads a coefficient beyond the base cutoff as zero, which
    # is right only when its a_k g^k reaches no kept degree
    order = min(map(sum, g.terms), default=None)
    if base.tail.is_empty or order is None or (base.tail.cutoff + 1) * order > budget.degree:
        assert same_series(got, outcome(oracle_compose, base, g, budget))


@st.composite
def ep_arguments(draw):
    """(p, g, budget): g with p-integral coefficients, mostly with a
    constant term."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 2))
    budget = Budget(draw(st.integers(1, 16)), draw(st.integers(1, 12)))
    gterms = {}
    if draw(st.integers(0, 3)):
        gterms[(0,) * n] = p ** draw(st.integers(0, 2)) * draw(rationals(p))
    for e in draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=2)):
        gterms[e] = p ** draw(st.integers(0, 2)) * draw(rationals(p))
    return p, poly(p, n, gterms), budget


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ep_arguments())
# Ep(1+x): the partial sum to a_12 is off at valuation 11, not 16
@example((5, poly(5, 1, {(0,): 1, (1,): 1}), EP_BUDGET))
@example((5, poly(5, 1, {(0,): 1, (1,): 1}), Budget(4, 1)))
@example((3, poly(3, 2, {(0, 0): F(1, 2), (1, 1): 3}), Budget(6, 4)))
def test_ep_composition_matches_the_exp_truth(inputs):
    p, g, budget = inputs
    got = outcome(compose_univariate, terms._exp_p_build(p, budget), g, budget)
    if isinstance(got, RestrictedSeries):
        exact_g = {k: c.rational_value() for k, c in g.terms.items()}
        assert_certified(got, exp_truth(p, exact_g, g.nvars), budget.prec)


def test_compose_with_a_falling_floor_raises_at_once():
    """A base tail of slope <= 0 whose floor is below the precision at the
    cutoff never certifies it: composition raises instead of widening its
    partial sum forever.  Run in a subprocess, so a hang fails the test."""
    code = (
        "from fractions import Fraction as F\n"
        "from troppadic.errors import BudgetExceeded\n"
        "from troppadic.series import Budget, RestrictedSeries, TailBound, compose_univariate\n"
        "base = RestrictedSeries(5, 1, {(0,): 1}, tail=TailBound(0, F(-1, 2), F(0)), domain=(1,))\n"
        "g = RestrictedSeries(5, 1, {(1,): 5}, domain=(1,))\n"
        "try:\n"
        "    compose_univariate(base, g, Budget(4, 4))\n"
        "except BudgetExceeded:\n"
        "    print('BudgetExceeded')\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(series.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "BudgetExceeded\n"


EP_TERMS = [
    "Ep({a}*x)",
    "Ep({a}*x + {b}*y)",
    "Ep({a}*x^2 + {b}*y)",
    "Ep({a}*x*y + {b}*z)",
    "Ep({a}*x + {b}*y + {c}*z)",
    "Ep({a}*x + {b}*y^2)",
    "x*Ep({a}*x + {b}*y) + Ep({c}*y*y)",
    "Ep({a}*x - {b}*x*x + {c})",
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(EP_TERMS),
    st.lists(st.integers(-24, 24), min_size=3, max_size=3),
    st.sampled_from(DENOMINATORS),
    st.integers(0, 2),
    st.sampled_from([Budget(8, 6), Budget(12, 8), Budget(16, 12)]),
)
# arguments with a constant term, Ep(1) among them
@example(EP_TERMS[-1], [0, 0, 1], 1, 0, EP_BUDGET)
@example(EP_TERMS[-1], [2, 3, 1], 3, 1, Budget(12, 8))
@example(EP_TERMS[-1], [-3, 7, 10], 1, 2, Budget(8, 6))
def test_ep_realization_matches_the_padicscaled_oracle(template, abc, den, order, budget):
    p = 5
    registry = terms.default_registry(p)
    t, names = terms.parse_term(template.format(a=abc[0], b=abc[1], c=abc[2]), registry=registry)
    if den % p:  # divide every Ep argument by den: the argument's D_g
        t = terms.simplify(scale_arguments(t, F(1, den)))
    t = terms.derive_term(t, 0, order, registry=registry)
    ctx = terms.RealizeContext(p, len(names), budget, registry=registry)
    got = outcome(terms.realize, t, ctx)
    if template != EP_TERMS[-1] or not abc[2]:
        with mock.patch.object(terms, "compose_univariate", oracle_compose):
            assert same_series(got, outcome(terms.realize, t, ctx))
    elif isinstance(got, RestrictedSeries):
        # an argument with a constant term: the replay reads the a_k beyond
        # the base cutoff as zero, so the truth is the order-th x-derivative
        # of exp(5*g) for g = (c + a*x - b*x^2)/den
        scale = F(1, den) if den % p else 1
        g = {(0,): abc[2] * scale, (1,): abc[0] * scale, (2,): -abc[1] * scale}
        exp_g = exp_truth(p, g, 1)

        def truth(maxdeg, accuracy):
            out, _ = exp_g(maxdeg + order, accuracy)
            return {
                (j,): math.perm(j + order, order) * out.get((j + order,), 0)
                for j in range(maxdeg + 1)
            }, accuracy

        assert_certified(got, truth, budget.prec)


def test_exact_ep_terms_finish_in_integers():
    """Exact Ep terms never reach the PadicScaled finish: with it made to
    raise, they realize to the same series as before."""
    reg = terms.default_registry(5)
    for text in ("Ep(3*x + 7*y)", "x*Ep(2*x^2 - 11*y*z)"):
        t, names = terms.parse_term(text, registry=reg)
        ctx = terms.RealizeContext(5, len(names), EP_BUDGET, registry=reg)
        todo = [t, terms.derive_term(t, 0, 1, registry=reg)]
        want = [terms.realize(u, ctx) for u in todo]
        with mock.patch.object(series, "_with_tail_error", side_effect=AssertionError):
            got = [terms.realize(u, ctx) for u in todo]
        assert all(same_series(a, b) for a, b in zip(got, want))


def scale_arguments(t, r):
    """The term with the argument of every Ep multiplied by r."""
    if isinstance(t, terms.App):
        return terms.App(t.symbol, tuple(terms.Mul((terms.Const(r), a)) for a in t.args))
    if isinstance(t, (terms.Add, terms.Mul)):
        return type(t)(tuple(scale_arguments(a, r) for a in t.args))
    return t


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
