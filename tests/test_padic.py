import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from series_helpers import difference_floor, sum_floor, to_precision
from troppadic.errors import DivisionByZero, PrecisionExhausted
from troppadic.formats import series_from_dict, series_to_dict
from troppadic.padic import (
    _ZERO,
    INF,
    PadicScaled,
    total,
    vp_fraction,
)
from troppadic.series import RestrictedSeries

F = Fraction


def ex(v, p=5):
    return PadicScaled.exact(p, v)


def test_valuation_examples():
    assert ex(50).valuation() == 2  # 50 = 2*5^2
    assert PadicScaled.zero(5).valuation() is INF
    assert PadicScaled.approx(5, F(-1), 3, 4).valuation() == -1


def test_add_carry_across_uniformizer():
    s = ex(2) + ex(3)
    assert s.rational_value() == 5
    assert s.valuation() == 1
    assert s.unit_digits(3) == 1


def test_mul_valuations_add():
    a = PadicScaled.approx(5, 2, 7, 6)
    b = PadicScaled.approx(5, 3, 11, 6)
    assert (a * b).valuation() == 5


def test_div_geometric_series_digits():
    # oracle: 1/(1-5) has unit digits sum(5^k, k<4) * (unit of -1/4 inverse);
    # directly: -1/4 mod 5^4 computed with modular inverse
    got = ex(1) / (ex(1) - ex(5))
    oracle = (-pow(4, -1, 5**4)) % 5**4
    assert got.unit_digits(4) == oracle == 156


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ex(1) / PadicScaled.zero(5)


def test_precision_exhausted_on_full_cancellation():
    a = PadicScaled.approx(5, 0, 7, 4)
    b = PadicScaled.approx(5, 0, 7, 4)
    with pytest.raises(PrecisionExhausted) as exc:
        a - b
    assert exc.value.floor == 4
    assert difference_floor(a, b) == 4


def test_exact_cancellation_is_exact_zero():
    a = ex(F(7, 3))
    assert (a - a).is_zero()
    assert difference_floor(a, a) is INF


def test_product_valuation_property():
    rng = random.Random(20260810)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        x = ex(rng.randint(1, 10**6) * rng.choice([1, -1]), p)
        y = ex(F(rng.randint(1, 10**5), rng.randint(1, 10**5)), p)
        if y.is_zero():
            continue
        assert (x * y).valuation() == x.valuation() + y.valuation()


def test_ultrametric_add_property():
    rng = random.Random(8)
    for _ in range(200):
        p = rng.choice([3, 5])
        x = ex(rng.randint(-10**4, 10**4), p)
        y = ex(rng.randint(-10**4, 10**4), p)
        if x.is_zero() or y.is_zero():
            continue
        s = x + y
        lo = min(x.valuation(), y.valuation())
        assert s.is_zero() or s.valuation() >= lo
        if x.valuation() != y.valuation():
            assert s.valuation() == lo


def test_div_mul_roundtrip_within_precision():
    rng = random.Random(99)

    def unit(p):
        while True:
            u = rng.randrange(1, p**6)
            if u % p:
                return u

    for _ in range(100):
        p = 5
        a = PadicScaled.approx(p, rng.randint(-3, 3), unit(p), 6)
        b = PadicScaled.approx(p, rng.randint(-3, 3), unit(p), 6)
        back = (a / b) * b
        assert difference_floor(back, a) >= a.valuation() + 6


def test_valuation_invariant_under_refinement():
    x = ex(F(250, 3))
    assert to_precision(x, 2).valuation() == to_precision(x, 9).valuation() == x.valuation()


def test_mixed_exact_approx_add():
    # 5 + (3*5^2 + O(5^6)): valuation 1, digits 1 + 3*5 = 16 mod ...
    a = ex(5)
    b = PadicScaled.approx(5, 2, 3, 4)
    s = a + b
    assert s.valuation() == 1
    assert s.unit_digits(2) == 16 % 25


def test_fractional_valuation_bookkeeping():
    x = ex(10).shift_valuation(F(1, 2))
    assert x.valuation() == F(3, 2)
    y = x * x
    assert y.valuation() == 3
    assert y.rational_value() == 500


def test_pow():
    assert (ex(2) ** 10).rational_value() == 1024
    assert (ex(2) ** 0).rational_value() == 1
    assert (ex(2) ** -2).rational_value() == F(1, 4)


def test_sum_floor_keeps_the_floor_of_a_cancelling_partial_sum():
    a = PadicScaled.approx(5, 0, 7, 3)  # 7 + O(5^3)
    assert sum_floor([a, -a, ex(5**5)]) == 3
    assert sum_floor([ex(5**5), a, -a]) == 3
    assert sum_floor([a, -a, ex(5)]) == 1
    assert sum_floor([ex(3), ex(-3)]) is INF
    assert sum_floor([ex(3), ex(22)]) == 2


@st.composite
def approx_with_lift(draw, p):
    """(x, lift): x approximate with certified digits, lift an exact value
    in its ball; or an exact value twice."""
    v = draw(st.integers(-3, 3))
    n = draw(st.integers(1, 6))
    u = draw(st.integers(1, p**n - 1).filter(lambda u: u % p))
    lift = PadicScaled.exact(p, F(u + draw(st.integers(-(p**3), p**3)) * p**n) * F(p) ** v)
    if draw(st.booleans()):
        return lift, lift
    return PadicScaled.approx(p, v, u, n), lift


OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda p: st.tuples(approx_with_lift(p), approx_with_lift(p))
    ),
    st.sampled_from(sorted(OPS)),
)
def test_approximate_arithmetic_agrees_with_exact_lifts(operands, op):
    (a, a_lift), (b, b_lift) = operands
    try:
        got = OPS[op](a, b)
    except PrecisionExhausted:
        return  # no certified digit survives: allowed, never a wrong one
    certified = got.valuation() + got.precision()
    assert difference_floor(got, OPS[op](a_lift, b_lift)) >= certified


# ------------------------------------------------ exact arithmetic, oracle
# A value r * p**s is kept as the pair (r, s) of plain Fractions with s in
# [0, 1) and zero as (0, 0); the library must agree on value, valuation and
# its canonical forms (zero and shift 0 both stored as the _ZERO object).

SHIFTS = [F(0), F(1, 2), F(1, 3)]


def _pair(p, r, s):
    if r == 0:
        return F(0), F(0)
    k = math.floor(s)
    return r * F(p) ** k, s - k


def _pair_valuation(p, pair):
    r, s = pair
    if r == 0:
        return INF
    num, den, v = r.numerator, r.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v + s


@st.composite
def exact_operand(draw, p):
    """(PadicScaled, oracle pair); the shift is passed with an integer part
    that the constructor must fold into the rational."""
    r = draw(st.just(F(0)) | st.fractions(-30, 30, max_denominator=30))
    r *= F(p) ** draw(st.integers(-2, 2))
    s = draw(st.sampled_from(SHIFTS))
    k = draw(st.integers(-2, 2))
    if draw(st.booleans()):
        x = PadicScaled.exact(p, r / F(p) ** k, s + k)
    else:
        x = PadicScaled.exact(p, r).shift_valuation(s)
    return x, _pair(p, r, s)


def _assert_canonical(p, x, pair):
    assert x.is_exact
    assert (x._r, x._shift) == pair
    assert x.valuation() == _pair_valuation(p, pair)
    if pair[1] == 0:
        assert x._shift is _ZERO
    if pair[0] == 0:
        zero = PadicScaled.zero(p)
        assert x.is_zero() and x._r is _ZERO
        assert x == zero and hash(x) == hash(zero)
        assert (-x).is_zero()
    else:
        assert not x.is_zero()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(st.just(p), exact_operand(p))))
def test_a_read_valuation_changes_no_value(operand):
    """The valuation an exact value keeps once read leaves its equality,
    hash, repr and JSON as they are on a twin whose valuation is unread."""
    p, (x, (r, s)) = operand
    twin = PadicScaled.exact(p, r, s)
    v = x.valuation()
    assert v == vp_fraction(r, p) + s and x.valuation() is v
    assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
    doc = series_to_dict(RestrictedSeries(p, 1, {(1,): x}))
    assert doc == series_to_dict(RestrictedSeries(p, 1, {(1,): twin}))
    assert series_from_dict(doc) == RestrictedSeries(p, 1, {(1,): twin})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.tuples(st.just(p), exact_operand(p), exact_operand(p))
    ),
    st.sampled_from(["+", "-", "*", "/", "shift"]),
    st.sampled_from(SHIFTS + [-F(1, 2), F(2, 3), F(1), F(-2), F(5, 3)]),
)
def test_exact_arithmetic_agrees_with_a_fraction_oracle(operands, op, delta):
    p, (a, (ra, sa)), (b, (rb, sb)) = operands
    for x, pair in ((a, (ra, sa)), (b, (rb, sb))):
        _assert_canonical(p, x, pair)
        _assert_canonical(p, x - x, (F(0), F(0)))
        _assert_canonical(p, -x, _pair(p, -pair[0], pair[1]))
    if op == "shift":
        _assert_canonical(p, a.shift_valuation(delta), _pair(p, ra, sa + delta))
    elif op == "*":
        _assert_canonical(p, a * b, _pair(p, ra * rb, sa + sb))
    elif op == "/":
        if rb == 0:
            with pytest.raises(DivisionByZero):
                a / b
        else:
            _assert_canonical(p, a / b, _pair(p, ra / rb, sa - sb))
    else:
        sign = 1 if op == "+" else -1
        if ra == 0:
            _assert_canonical(p, OPS[op](a, b), _pair(p, sign * rb, sb))
        elif rb == 0 or sa == sb:
            _assert_canonical(p, OPS[op](a, b), _pair(p, ra + sign * rb, sa))
        else:
            # incommensurable valuations: an approximate value at the
            # smaller one, or no certified digit at all
            try:
                got = OPS[op](a, b)
            except PrecisionExhausted:
                return
            assert not got.is_exact
            assert got.valuation() == min(
                _pair_valuation(p, (ra, sa)), _pair_valuation(p, (rb, sb))
            )


# ------------------------------------------------------- sums, Fraction oracle
# total(p, values) sums by the rule of the padic docstring.  The oracle below
# reads each value's representative and floor, adds them per class
# s = v mod 1 in Fractions, and builds its result with the constructors only.


def _class_rep(p, x):
    """(s, r, floor): x is r*p^s with s = v(x) mod 1, exactly (floor +oo),
    or up to an error of valuation >= floor."""
    if x.is_exact:
        return x._shift, x._r, INF
    v, n = x.valuation(), x.precision()
    s = v - math.floor(v)
    return s, x.unit_digits(n) * F(p) ** int(v - s), v + n


def fraction_total(p, values):
    """The sum of the values by the class-wise rule, in Fractions; raises
    PrecisionExhausted with the floor as padic.total does."""
    classes, floor = {}, INF
    for x in values:
        if not x.is_zero():
            s, r, f = _class_rep(p, x)
            classes[s], floor = classes.get(s, 0) + r, min(floor, f)
    levels = sorted((_pair_valuation(p, (r, s)), s, r) for s, r in classes.items() if r)
    if not levels or levels[0][0] >= floor:
        if floor is INF:
            return PadicScaled.zero(p)
        raise PrecisionExhausted("cancellation below certified precision", floor=floor)
    (w, s, r), cap = levels[0], min([floor] + [t[0] for t in levels[1:2]])
    if cap is INF:
        return PadicScaled.exact(p, r, s)
    n = math.floor(cap - w)
    if n < 1:
        raise PrecisionExhausted("no certified digit at incommensurable valuations", floor=w)
    unit = r / F(p) ** int(w - s)
    return PadicScaled.approx(p, w, unit.numerator * pow(unit.denominator, -1, p**n), n)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted as exc:
        return type(exc), str(exc), exc.floor


@st.composite
def sum_lists(draw):
    """(p, values): exact values at shifts 0, 1/3 and 1/2 or approximate
    values at integer or third valuations, then cancelling partners: values
    near the negatives of drawn ones, exact or approximate."""
    p, thirds = draw(st.sampled_from([2, 3, 5])), draw(st.booleans())
    values = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            r = F(draw(st.integers(-60, 60)), draw(st.sampled_from([1, 7, p, p * p])))
            values.append(PadicScaled.exact(p, r, draw(st.sampled_from(SHIFTS)) if thirds else 0))
        else:
            v = F(draw(st.integers(-3, 6)), 3) if thirds else F(draw(st.integers(-1, 2)))
            n = draw(st.integers(1, 5))
            u = draw(st.integers(1, p**n - 1).filter(lambda u: u % p))
            values.append(PadicScaled.approx(p, v, u, n))
    for x in draw(st.lists(st.sampled_from(values), max_size=3)) if values else []:
        s, r, _ = _class_rep(p, x)
        q = -r + draw(st.integers(-3, 3)) * F(p) ** draw(st.integers(1, 4))
        if q and draw(st.booleans()):
            n = draw(st.integers(1, 5))
            k = _pair_valuation(p, (q, 0))
            unit = q / F(p) ** k
            digits = unit.numerator * pow(unit.denominator, -1, p**n)
            values.append(PadicScaled.approx(p, k + s, digits, n))
        else:
            values.append(PadicScaled.exact(p, q, s))
    return p, values


def _completion(draw, p, values):
    """{class: rational}: the class-wise exact sum of one completion of the
    values, each approximate one moved within its ball by t*p^(v+N) and by
    a term of valuation >= v + N in a class of its own."""
    classes = {}
    for x in values:
        s, r, floor = _class_rep(p, x)
        parts = [(s, r)]
        if floor is not INF:
            parts.append((s, draw(st.integers(-(p**2), p**2)) * F(p) ** int(floor - s)))
            e = floor + draw(st.sampled_from([F(0), F(1, 3), F(1, 2)]))
            parts.append((e - math.floor(e), draw(st.integers(-9, 9)) * F(p) ** math.floor(e)))
        for c, q in parts:
            classes[c] = classes.get(c, 0) + q
    return classes


def _class_floor(p, classes):
    """The valuation of a class-wise sum: classes never cancel each other."""
    return min([INF] + [_pair_valuation(p, (r, s)) for s, r in classes.items() if r])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sum_lists(), st.data())
def test_total_is_a_sound_function_of_the_multiset(case, data):
    p, values = case
    want = _outcome(total, p, values)
    assert _outcome(fraction_total, p, values) == want
    assert _outcome(total, p, data.draw(st.permutations(values))) == want
    if len(values) == 2:
        assert _outcome(lambda: values[0] + values[1]) == want
    for _ in range(3):
        truth = _completion(data.draw, p, values)
        if isinstance(want, tuple):  # a raise: the sum has valuation >= its floor
            assert _class_floor(p, truth) >= want[2]
        elif want.is_exact:
            assert {s: r for s, r in truth.items() if r} == (
                {} if want.is_zero() else {want._shift: want._r}
            )
        else:  # every certified digit agrees with the truth
            s, r, floor = _class_rep(p, want)
            truth[s] = truth.get(s, 0) - r
            assert _class_floor(p, truth) >= floor


def test_total_of_no_values_is_exact_zero():
    assert total(5, []).is_zero()
    assert sum_floor([]) is INF
