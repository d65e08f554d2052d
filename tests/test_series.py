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
    composed_apps,
    derivative,
    difference_floor,
    monomial_substitution,
    scalar_mul,
    scale_variable,
    to_precision,
)
from test_padic import fraction_total
from troppadic import series, terms
from troppadic.errors import (
    BudgetExceeded,
    DomainViolation,
    NotRegular,
    PrecisionExhausted,
    ZeroSeries,
)
from troppadic.padic import INF, PadicScaled, val_min
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


def naive_mul(a, b, cap):
    """The product of two tuple-keyed term dicts without terms of total
    degree above cap (None: no cap), zero coefficients dropped.  Each key's
    products are summed once: by fraction_total, the Fraction oracle of the
    sum rule, for PadicScaled values, and by sum otherwise."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if cap is None or sum(i) + sum(j) <= cap:
                out.setdefault(tuple(map(add, i, j)), []).append(x * y)
    if out and isinstance(x, PadicScaled):
        return summed_once(x.p, out)
    return {k: s for k, v in out.items() if (s := sum(v))}


def summed_once(p, parts):
    """{k: the sum of the PadicScaled list parts[k]} by fraction_total,
    without the zero sums."""
    return {k: s for k, v in parts.items() if (s := fraction_total(p, v))}


def _oracle_split(terms, axis, d):
    low, high = {}, {}
    for exps, c in terms.items():
        if exps[axis] < d:
            low[exps] = c
        else:
            high[exps[:axis] + (exps[axis] - d,) + exps[axis + 1:]] = c
    return low, high


def oracle_divide(f, g, budget):
    """The reference for weierstrass_divide: its rounds and residue check in
    PadicScaled arithmetic on every input, exact or not.  The rounds are
    (L_0, T_0) = split(g) and (L_{k+1}, T_{k+1}) = split(-T_k*E), and each
    coefficient of Q = sum T_k/c^(k+1) and R = sum L_k/c^k is one sum of its
    contributions.  The input checks before the loop are the library's.
    Returns ({key: Q_key}, [{key: A_j_key}]) with zero coefficients dropped,
    in insertion order."""
    d = series.regular_order(f)
    series._check_division_inputs(f, g, d, budget)
    p, axis = f.p, f.nvars - 1
    top = (0,) * axis + (d,)
    c = f.terms[top]
    minus_e = {k: -x for k, x in f.terms.items() if k != top}
    low, high = _oracle_split(g.terms, axis, d)
    q_parts, r_parts = {}, {k: [x] for k, x in low.items()}
    for k in range(budget.prec + budget.degree + 2):
        if not high:
            break
        for key, x in high.items():
            q_parts.setdefault(key, []).append(x / c ** (k + 1))
        low, high = _oracle_split(naive_mul(high, minus_e, budget.degree), axis, d)
        for key, x in low.items():
            r_parts.setdefault(key, []).append(x / c ** (k + 1))
    q, r = summed_once(p, q_parts), summed_once(p, r_parts)
    residue = {k: [x] for k, x in g.terms.items()}
    for i, x in q.items():
        for j, y in f.terms.items():
            k = tuple(map(add, i, j))
            if sum(k) < budget.degree:
                residue.setdefault(k, []).append(-(x * y))
    for k, x in r.items():
        residue.setdefault(k, []).append(-x)
    for exps in sorted(residue):
        if sum(exps) < budget.degree:
            try:
                v = fraction_total(p, residue[exps]).valuation()
            except PrecisionExhausted as exc:
                if exc.floor < budget.prec:
                    raise PrecisionExhausted(
                        f"division residue at {exps} is certified only to valuation "
                        f"{exc.floor} < {budget.prec}",
                        floor=exc.floor,
                    ) from None
                continue
            if v < budget.prec:
                raise BudgetExceeded(
                    f"division residue at {exps} has valuation {v} < {budget.prec}"
                )
    rems = [{k[:axis]: x for k, x in r.items() if k[axis] == j} for j in range(d)]
    return q, rems


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
    top, floor_beyond = base.tail.cutoff, INF
    if not base.tail.is_empty:
        c_b, b_b = base.tail.slope, base.tail.offset
        if c_b <= 0 and c_b * (top + 1) + b_b < budget.prec:
            raise BudgetExceeded("base tail slope too small to certify the precision")
        # a_k g^k starts at degree k*ord(g): the a_k past the cutoff reach a
        # kept degree only when (top + 1)*ord(g) <= budget.degree
        order = min(map(sum, g.terms), default=None)
        if order is not None and (top + 1) * order <= budget.degree:
            floor_beyond = c_b * (top + 1) + b_b
    parts = {}
    power = {(0,) * g.nvars: PadicScaled.exact(p, 1)}
    for k in range(top + 1):
        a_k = base.coeff((k,))
        if not a_k.is_zero():
            for exps, c in power.items():
                parts.setdefault(exps, []).append(c * a_k)
        if k < top:
            power = naive_mul(power, g.terms, max(top * deg_g, budget.degree))
            if len(power) > 20000:
                raise BudgetExceeded("composition expansion too large for the budget")
    # each coefficient is one sum of its a_k*(g^k)[key]
    kept, folds = oracle_finish(p, summed_once(p, parts), budget.degree, floor_beyond)
    pieces = []
    if not base.tail.is_empty and deg_g > 0:
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
    # a key whose products certify no digit raises, at the same key on both sides
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


# --------------------------------------------------------------- order-free sums


def test_product_with_a_cancelling_partial_sum_is_order_free():
    # at X^4, b*a once summed 17 + 7758 (0 mod 25, where two floors lie)
    # before -5 arrived; the three products sum to 4*5 + O(5^2)
    p = 5
    a = poly(p, 1, {(1,): PadicScaled.approx(p, 1, 1, 1), (2,): PadicScaled.approx(p, 0, 431, 4), (3,): 1})
    b = poly(p, 1, {(1,): PadicScaled.approx(p, 0, 17, 2), (2,): 18, (3,): -1})
    assert a * b == b * a
    assert (b * a).coeff((4,)) == PadicScaled.approx(p, 1, 4, 1)


def test_product_at_third_valuations_is_order_free():
    # exact values at shift 1/3 meet an approximate one at valuation -1
    p, third = 5, F(1, 3)
    a = poly(p, 1, {(1,): PadicScaled.exact(p, 6, third), (2,): PadicScaled.exact(p, 13, third), (3,): 5})
    b = poly(p, 1, {(1,): 28, (2,): 4, (3,): PadicScaled.approx(p, -1, 2476, 5)})
    assert a * b == b * a
    assert (b * a).coeff((4,)) == PadicScaled.approx(p, F(-2, 3), 1, 1)


def test_evaluate_and_shift_variable_ignore_insertion_order():
    p, one = 5, ex(5, 1)
    seven = PadicScaled.approx(p, 0, 7, 3)
    for terms_, c in (({(0,): seven, (1,): -7, (2,): 5}, "evaluate"), ({(0,): seven, (1,): 7, (2,): 5}, "shift")):
        fwd, back = poly(p, 1, terms_), poly(p, 1, dict(reversed(terms_.items())))
        assert fwd == back
        if c == "evaluate":
            assert evaluate(fwd, [one]) == evaluate(back, [one]) == PadicScaled.approx(p, 1, 1, 2)
        else:
            assert shift_variable(fwd, 0, one) == shift_variable(back, 0, one)
            assert shift_variable(fwd, 0, one).coeff((0,)) == PadicScaled.approx(p, 1, 1, 2)


def test_evaluate_raises_with_the_lower_of_the_sum_and_tail_floors():
    # the stored terms cancel to O(5^3), and the tail allows v(a_2) = 1
    seven = PadicScaled.approx(5, 0, 7, 3)
    f = RestrictedSeries(5, 1, {(0,): seven, (1,): -7}, tail=TailBound(1, F(1), F(-1)))
    with pytest.raises(PrecisionExhausted) as exc:
        evaluate(f, [ex(5, 1)])
    assert exc.value.floor == 1


@st.composite
def approximate_pairs(draw):
    """Two series in X of degree <= 3 at one prime, each coefficient exact
    (denominator 1, p or p^2; at shift 0 or, with thirds, 1/3) or
    approximate to 1-5 digits at valuations -1 to 2 (in thirds, if drawn)."""
    p, thirds = draw(st.sampled_from([3, 5])), draw(st.booleans())

    def coeff():
        if draw(st.booleans()):
            r = F(draw(st.integers(-30, 30)), draw(st.sampled_from([1, p, p * p])))
            return PadicScaled.exact(p, r, draw(st.sampled_from([0, F(1, 3)])) if thirds else 0)
        v = F(draw(st.integers(-3, 6)), 3) if thirds else F(draw(st.integers(-1, 2)))
        n = draw(st.integers(1, 5))
        return PadicScaled.approx(p, v, draw(st.integers(1, p**n - 1).filter(lambda u: u % p)), n)

    return tuple(poly(p, 1, {(k,): coeff() for k in range(draw(st.integers(0, 1)), 4)}) for _ in "ab")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(approximate_pairs())
def test_products_do_not_depend_on_operand_order(pair):
    a, b = pair
    assert outcome(lambda: a * b) == outcome(lambda: b * a)


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
    assert_agrees([q_approx, *a_approx], [q, *a])


def assert_agrees(approx, exact):
    """Every certified digit of the approximate series is the exact one's,
    and a coefficient the approximate series does not store is exactly 0."""
    for s, t in zip(approx, exact, strict=True):
        for k in set(s.terms) | set(t.terms):
            got = s.coeff(k)
            assert difference_floor(got, t.coeff(k)) >= got.valuation() + got.precision()


def exact_lift(s, rng):
    """s with each approximate coefficient u*p^v + O(p^(v+N)), v an integer,
    replaced by the exact u*p^v + t*p^(v+N), t a random integer."""
    terms = {}
    for k, c in s.terms.items():
        if not c.is_exact:
            n, v = c.precision(), int(c.valuation())
            c = (c.unit_digits(n) + rng.randint(-99, 99) * s.p**n) * F(s.p) ** v
        terms[k] = c
    return RestrictedSeries(s.p, s.nvars, terms, tail=s.tail, domain=s.domain)


def two_adic(v, unit, digits):
    return PadicScaled.approx(2, v, unit, digits)


def test_division_sums_each_coefficient_once():
    """The rounds are not divided by c = 1 + O(2), which would cut each to
    one digit, so that the next round's product cancels below its floor;
    each coefficient of Q and R is one sum of its weighed round terms."""
    f = poly(2, 1, {(0,): two_adic(1, 1, 2), (1,): 196, (2,): two_adic(0, 1, 1)})
    g = poly(2, 1, {(0,): two_adic(0, 3, 2), (1,): 126, (2,): 42, (3,): two_adic(2, 5, 4)})
    budget = Budget(2, 2)
    q, (a0, a1) = weierstrass_divide(f, g, budget)
    assert q.terms == {(0,): two_adic(1, 1, 1), (1,): two_adic(2, 1, 1)}
    assert a0.terms == {(): two_adic(0, 3, 2)}
    assert a1.terms == {(): two_adic(1, 7, 4)}
    rng = random.Random(32)
    for _ in range(300):
        exact_q, exact_a = weierstrass_divide(exact_lift(f, rng), exact_lift(g, rng), budget)
        assert_agrees([q, a0, a1], [exact_q, *exact_a])


def test_composition_sums_each_coefficient_once():
    """base(23) is one sum of its a_k*23^k; the running sum 4 + 2300
    cancelled below its floor 2^3 and raised."""
    base = poly(2, 1, {(0,): two_adic(2, 1, 1), (1,): 100, (2,): two_adic(0, 13, 4)})
    g, budget = poly(2, 1, {(0,): 23}), Budget(7, 3)
    got = compose_univariate(base, g, budget)
    assert got.terms == {(0,): two_adic(0, 5, 3)}
    rng = random.Random(32)
    for _ in range(300):
        assert_agrees([got], [compose_univariate(exact_lift(base, rng), g, budget)])


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
    """(Q items, [A_j items]) in insertion order, or the failure raised;
    a series result must be one the checking constructor accepts."""
    try:
        q, rems = divide(f, g, budget)
    except (BudgetExceeded, PrecisionExhausted) as exc:
        return type(exc), str(exc)
    if isinstance(q, RestrictedSeries):
        for s in (q, *rems):
            assert_rebuilds(s)
        q, rems = q.terms, [a.terms for a in rems]
    return list(q.items()), [list(a.items()) for a in rems]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(division_inputs())
# rounds divided by c = 1 + O(2) would cancel below their floor
@example((
    poly(2, 1, {(0,): two_adic(1, 1, 2), (1,): 196, (2,): two_adic(0, 1, 1)}),
    poly(2, 1, {(0,): two_adic(0, 3, 2), (1,): 126, (2,): 42, (3,): two_adic(2, 5, 4)}),
    Budget(2, 2),
))
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
# Ep(5*y) and Ep(x*x+5*y): no unknown a_k reaches a kept degree, so exact
@example((terms._exp_p_build(5, EP_BUDGET), poly(5, 1, {(1,): 5}), EP_BUDGET))
@example((terms._exp_p_build(5, EP_BUDGET), poly(5, 2, {(2, 0): 1, (0, 1): 5}), EP_BUDGET))
# an empty base tail: exact coefficients, the terms beyond degree 2 folded
@example((
    poly(5, 1, {(0,): F(1, 3), (1,): 2, (2,): F(-5, 7), (3,): 1}),
    poly(5, 2, {(1, 0): F(1, 2), (0, 1): 5}),
    Budget(8, 2),
))
# the running sum 4 + O(2^3) + 2300 cancels below its floor
@example((
    poly(2, 1, {(0,): two_adic(2, 1, 1), (1,): 100, (2,): two_adic(0, 13, 4)}),
    poly(2, 1, {(0,): 23}),
    Budget(7, 3),
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
        if min(map(sum, g.terms), default=0) >= 1:
            # the base is cut at budget.degree, so the a_k past it start
            # beyond every kept degree: each kept coefficient is exact
            assert all(c.is_exact for c in got.terms.values())


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

    def fresh():  # a context's realizations are its own: replay in a new one
        return terms.RealizeContext(p, len(names), budget, registry=registry)

    got = outcome(terms.realize, t, fresh())
    if template != EP_TERMS[-1] or not abc[2]:
        with mock.patch.object(terms, "compose_univariate", wraps=oracle_compose) as spy:
            assert same_series(got, outcome(terms.realize, t, fresh()))
        assert spy.called == bool(composed_apps(t))
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
        ctx = terms.RealizeContext(5, len(names), EP_BUDGET, registry=reg)  # composes anew
        with mock.patch.object(series, "_with_tail_error", side_effect=AssertionError), \
                mock.patch.object(terms, "compose_univariate", wraps=compose_univariate) as spy:
            got = [terms.realize(u, ctx) for u in todo]
        assert spy.call_count == 1  # one Ep(g), shared by t and its derivative
        assert all(same_series(a, b) for a, b in zip(got, want))


def test_compose_forms_no_power_past_the_base_cutoff():
    """The base coefficients past its cutoff are never multiplied out: at
    Budget(16, 12) exp(5x) is cut off at degree 12 while its tail line
    reaches the precision only at degree 21, and composition makes
    g^1 .. g^12, twelve products."""
    base = terms._exp_p_build(5, EP_BUDGET)
    k_max = base.tail.cutoff
    while base.tail.slope * (k_max + 1) + base.tail.offset < EP_BUDGET.prec:
        k_max += 1
    assert (base.tail.cutoff, k_max) == (12, 20)
    g = poly(5, 2, {(1, 0): 3, (0, 1): 7})
    with mock.patch.object(series, "_dict_mul", wraps=series._dict_mul) as spy:
        got = compose_univariate(base, g, EP_BUDGET)
    assert spy.call_count == 12
    assert_certified(got, exp_truth(5, {(1, 0): F(3), (0, 1): F(7)}, 2), EP_BUDGET.prec)


def test_compose_of_a_dense_argument_fits_the_expansion_limit():
    """A dense 3-variable argument whose powers past the base cutoff exceed
    the expansion limit: with those powers unformed, it realizes, and every
    certified digit agrees with exp(5g)."""
    reg = terms.default_registry(5)
    text = "x^3 + y^3 + z^3 + x*y + y*z + x*z + x + y + z"
    t, names = terms.parse_term(f"Ep({text})", registry=reg)
    got = terms.realize(t, terms.RealizeContext(5, 3, EP_BUDGET, registry=reg))
    g = {e: F(1) for e in [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1),
                           (1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]}
    assert_certified(got, exp_truth(5, g, 3), EP_BUDGET.prec)


def realized_ep(text):
    """(realize(t), g, n) at EP_BUDGET for a term t with one Ep(g), g as a
    dict of Fraction coefficients in the term's n variables."""
    reg = terms.default_registry(5)
    t, names = terms.parse_term(text, registry=reg)
    ctx = terms.RealizeContext(5, len(names), EP_BUDGET, registry=reg)
    app = next(a for a in (t, *t.args) if isinstance(a, terms.App))
    arg = terms.realize(app.args[0], ctx)
    g = {k: c.rational_value() for k, c in arg.terms.items()}
    return terms.realize(t, ctx), g, len(names)


@pytest.mark.parametrize("text", ["Ep(5*x)", "Ep(25*x)", "Ep(5*y)", "Ep(x*x+5*y)"])
def test_ep_of_a_p_divisible_argument_realizes_to_the_exp_truth(text):
    """exp(5u) is cut off at degree 12 at Budget(16, 12), so its unknown
    coefficients reach no kept degree of exp(5g) for ord(g) >= 1: these
    terms realize, though their high coefficients have valuation >= 16."""
    got, g, n = realized_ep(text)
    assert all(c.is_exact for c in got.terms.values())
    assert_certified(got, exp_truth(5, g, n), EP_BUDGET.prec)


@pytest.mark.parametrize("text", ["Ep(x*y) - 1", "Ep(2*x) - 1", "Ep(x+y) - 1", "Ep(x*x) - 1"])
def test_ep_minus_one_realizes_with_no_constant_term(text):
    """The constant term of Ep(g) is exactly 1 when g(0) = 0, so
    Ep(g) - 1 cancels it to an exact zero, which the series does not store."""
    got, g, n = realized_ep(text)
    assert (0,) * n not in got.terms
    exp_g = exp_truth(5, g, n)

    def truth(maxdeg, accuracy):
        out, _ = exp_g(maxdeg, accuracy)
        return {**out, (0,) * n: out[(0,) * n] - 1}, accuracy

    assert_certified(got, truth, EP_BUDGET.prec)


@pytest.mark.parametrize("base, g, budget, raises", [
    # v(a_k) >= k + 5 past a_2: x^3 .. x^5 are unknown, v >= 8
    (RestrictedSeries(5, 1, {(0,): 1, (1,): 1, (2,): 1}, tail=TailBound(2, F(1), F(5))),
     poly(5, 1, {(1,): 1}), Budget(16, 5), True),
    (RestrictedSeries(5, 1, {(0,): 1, (1,): 1, (2,): 1}, tail=TailBound(2, F(1), F(5))),
     poly(5, 1, {(1,): 1}), Budget(16, 2), False),
    # no stored term, and base(1) is only known to be O(2)
    (RestrictedSeries(2, 1, {}, tail=TailBound(0, F(1), F(0))),
     poly(2, 1, {(0,): 1}), Budget(1, 1), True),
    # Ep(1+x): the floor 10 leaves no digit of the coefficient at x^12
    (terms._exp_p_build(5, EP_BUDGET), poly(5, 1, {(0,): 1, (1,): 1}), EP_BUDGET, True),
])
def test_compose_raises_where_unknown_base_coefficients_reach(base, g, budget, raises):
    """Where the unknown a_k g^k past the base cutoff reach a kept degree,
    each kept coefficient is known only to the floor, and a kept monomial
    they reach that the partial sum does not store is not a certified zero:
    composition raises.  Below the degree they reach, it certifies."""
    got = outcome(compose_univariate, base, g, budget)
    if raises:
        assert got[0] is PrecisionExhausted
    else:
        exact_g = {k: c.rational_value() for k, c in g.terms.items()}
        assert_certified(got, completion_truth(base, exact_g, g.nvars), budget.prec)


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


# --------------------------------------------------------------- constant factors and constructors


def assert_rebuilds(s):
    """The checking constructor accepts s as it stands: the same terms in
    the same order, tail and domain."""
    again = RestrictedSeries(s.p, s.nvars, s.terms, tail=s.tail, domain=s.domain)
    assert again == s and list(again.terms) == list(s.terms)


def oracle_product(a, b):
    """a*b by the tuple-key product, then the cutoff, fold and tail pieces
    of RestrictedSeries.__mul__, built through the checking constructor."""
    ta, tb = a.tail, b.tail
    mf = min(map(sum, a.terms), default=None)
    mg = min(map(sum, b.terms), default=None)
    bounds = []
    if not ta.is_empty:
        bounds.append(ta.cutoff + tb.cutoff if not tb.is_empty else None)
        if mg is not None:
            bounds.append(ta.cutoff + mg)
    if not tb.is_empty and mf is not None:
        bounds.append(tb.cutoff + mf)
    bounds = [x for x in bounds if x is not None]
    cutoff = min(bounds) if bounds else ta.cutoff + tb.cutoff
    kept, folds = series._fold(naive_mul(a.terms, b.terms, None), cutoff)
    pieces = []
    if not tb.is_empty:
        h = val_min(*(c.valuation() - tb.slope * sum(i) for i, c in a.terms.items()))
        if h is not INF:
            pieces.append((tb.slope, tb.offset + h))
    if not ta.is_empty:
        h = val_min(*(c.valuation() - ta.slope * sum(j) for j, c in b.terms.items()))
        if h is not INF:
            pieces.append((ta.slope, ta.offset + h))
    if not ta.is_empty and not tb.is_empty:
        pieces.append((min(ta.slope, tb.slope), ta.offset + tb.offset))
    tail = series._merge_tail_pieces(cutoff, pieces, folds)
    return RestrictedSeries(a.p, a.nvars, kept, tail=tail, domain=a._common_domain(b))


def coefficients(p):
    """Exact values, exact values at a fractional shift, and approximate
    values at 1-6 digits, so one series mixes several precisions."""
    exact = rationals(p).map(lambda r: ex(p, r))
    shifted = st.builds(
        lambda r, s: PadicScaled.exact(p, r, s), rationals(p), st.sampled_from([F(1, 3), F(1, 2)])
    )
    return exact | shifted | st.builds(to_precision, exact, st.integers(1, 6))


@st.composite
def constant_products(draw):
    """(constant, series, constant on the left): a constant polynomial at
    p, with no tail (the scalar path) or with one (the packed kernel), and
    a series in 0-3 variables with or without a tail."""
    p, n = draw(st.sampled_from(PRIMES)), draw(st.integers(0, 3))
    zero = (0,) * n
    c = RestrictedSeries(p, n, {zero: draw(coefficients(p))})
    if draw(st.integers(0, 3)) == 0:
        c = RestrictedSeries(p, n, c.terms, tail=draw(tails(c.terms).filter(bool)))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms_ = draw(st.dictionaries(exps, coefficients(p), max_size=8))
    s = RestrictedSeries(p, n, terms_, tail=draw(tails(terms_)))
    return c, s, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(constant_products())
# an exact unit times digits at three precisions: a reused digit count fails
@example((
    poly(5, 1, {(0,): 7}),
    poly(5, 1, {(0,): PadicScaled.approx(5, 0, 1234, 2), (1,): PadicScaled.approx(5, 1, 1234, 5),
                (2,): PadicScaled.approx(5, 0, 3, 1)}),
    True,
))
def test_a_constant_factor_scales_like_the_tuple_product(operands):
    c, s, left = operands
    a, b = (c, s) if left else (s, c)
    zero = (0,) * s.nvars
    scalar = any(x.tail.is_empty and list(x.terms) == [zero] for x in (c, s))
    with mock.patch.object(series, "_dict_mul", wraps=series._dict_mul) as spy:
        got = outcome(lambda: a * b)
    assert spy.called != scalar
    want = outcome(oracle_product, a, b)
    assert same_series(got, want)
    if isinstance(got, RestrictedSeries):
        assert_rebuilds(got)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((5, 2, {(1,): 1}), {}, "bad exponent vector"),
        ((5, 2, {(1, -1): 1}), {}, "bad exponent vector"),
        ((5, 1, {(1,): PadicScaled.exact(3, 1)}), {}, "coefficient prime mismatch"),
        ((5, 2, {(1, 0): 1}), {"domain": (0,)}, "domain length mismatch"),
        ((5, 1, {(3,): 1}), {"tail": TailBound(2, F(1), F(0))}, "stored term beyond the tail cutoff"),
    ],
)
def test_series_constructor_rejects_bad_input(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        RestrictedSeries(*args, **kwargs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(constant_products(), st.integers(0, 2), st.integers(-30, 30))
def test_every_internal_result_is_one_the_constructor_accepts(operands, i, shift):
    c, s, _ = operands
    ops = [
        lambda: c * s,
        lambda: s * c,
        lambda: s * s * s,
        lambda: s + c,
        lambda: -s,
        lambda: s * s - s,
    ]
    if s.nvars:
        ops.append(lambda: shift_variable(s * s, i % s.nvars, ex(s.p, s.p * shift)))
    for op in ops:
        r = outcome(op)  # sums may cancel below their certified digits
        if isinstance(r, RestrictedSeries):
            assert_rebuilds(r)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(compositions())
def test_every_composition_is_one_the_constructor_accepts(inputs):
    got = outcome(compose_univariate, *inputs)
    if isinstance(got, RestrictedSeries):
        assert_rebuilds(got)


def test_dividing_a_series_by_itself_stores_no_cancelled_remainder():
    """f/f, in integers and in PadicScaled (a shifted coefficient): the
    remainder accumulator cancels to exact zeros, which no result stores."""
    for f in (poly(5, 2, {(0, 2): 1, (0, 0): 5, (1, 1): 3}),
              poly(5, 2, {(0, 2): 1, (0, 0): 5, (1, 0): PadicScaled.exact(5, 2, F(1, 2))})):
        q, rems = weierstrass_divide(f, f, Budget(8, 6))
        assert list(q.terms.items()) == [((0, 0), ex(5, 1))]
        assert all(not a.terms for a in rems)
        for r in (q, *rems):
            assert_rebuilds(r)
