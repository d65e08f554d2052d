"""Series operations that only the tests use: derivation, substitutions,
scalar products, truncation and valuation floors.  Used by tests only."""

import math
from fractions import Fraction

from troppadic.errors import BudgetExceeded, DomainViolation
from troppadic.padic import PadicScaled, sum_floor
from troppadic.series import RestrictedSeries, TailBound
from troppadic.series import _acc, _coerce_coeff, _dict_mul, _pack, _unpack, _with_tail_error

F = Fraction


def derivative(f: RestrictedSeries, i: int, k: int = 1) -> RestrictedSeries:
    """k-th formal partial derivative in variable i.

    The tail transform keeps the slope, lowers the offset by k*slope and
    the cutoff by k; this is the contracted (sound, not tight) bound.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    if k == 0:
        return f
    terms = {}
    for exps, c in f.terms.items():
        if exps[i] < k:
            continue
        mult = math.perm(exps[i], k)
        new = list(exps)
        new[i] -= k
        terms[tuple(new)] = c * PadicScaled.exact(f.p, mult)
    cutoff = max(f.tail.cutoff - k, 0)
    if f.tail.is_empty:
        tail = TailBound.empty(cutoff)
    else:
        tail = TailBound(cutoff, f.tail.slope, f.tail.offset - k * f.tail.slope)
    return RestrictedSeries(f.p, f.nvars, terms, tail=tail, domain=f.domain)


def scale_variable(f: RestrictedSeries, i: int, t) -> RestrictedSeries:
    """Valuation bookkeeping for X_i -> X_i*xi^{-1}, v(xi) = t.

    Coefficient valuations drop by I_i*t; the domain coordinate rises by t.
    """
    t = F(t)
    terms = {
        exps: c.shift_valuation(-exps[i] * t) for exps, c in f.terms.items()
    }
    dom = list(f.domain)
    if dom[i] is not None:
        dom[i] = dom[i] + t
    tail = f.tail
    if not tail.is_empty:
        tail = TailBound(tail.cutoff, tail.slope - max(t, F(0)), tail.offset)
    return RestrictedSeries(f.p, f.nvars, terms, tail=tail, domain=tuple(dom))


def monomial_substitution(f: RestrictedSeries, d: int, degree_budget: int) -> RestrictedSeries:
    """Substitute X_i -> Z_i - Z_n^(d^(n-i)) for i < n (X_n fixed).

    Raises BudgetExceeded as soon as the expansion would create a term of
    total degree above the budget.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    n = f.nvars
    for r in f.domain:
        if r is not None and r > 0:
            raise DomainViolation("monomial substitution needs domain containing [0,oo)^n")
    exps_of_i = [d ** (n - 1 - i) for i in range(n - 1)]  # Z_n exponent per variable
    w = degree_budget.bit_length()  # every product below has degree <= the budget
    lim = 1 << w * (n + 1)
    out = {}
    for exps, a in f.terms.items():
        partial = {(0,) * (n - 1) + (exps[-1],): a}
        for i, e in enumerate(exps[:-1]):
            if e == 0:
                continue
            # (Z_i - Z_n^m)^e reaches total degree e*m (m >= 1) at j = 0
            if max(map(sum, partial)) + e * exps_of_i[i] > degree_budget:
                raise BudgetExceeded(
                    f"monomial substitution exceeds degree budget {degree_budget}"
                )
            binomial = {
                (0,) * i + (j,) + (0,) * (n - 2 - i) + ((e - j) * exps_of_i[i],):
                PadicScaled.exact(f.p, math.comb(e, j) * (-1) ** (e - j))
                for j in range(e + 1)
            }
            partial = _unpack(_dict_mul(_pack(partial, n, w), _pack(binomial, n, w), lim), n, w)
        for k, c in partial.items():
            _acc(out, k, c)
    out = {k: v for k, v in out.items() if not v.is_zero()}
    dom = tuple(F(0) for _ in range(n))
    if f.tail.is_empty:
        return RestrictedSeries(f.p, n, out, tail=TailBound.empty(degree_budget), domain=dom)
    # tail terms land at degree > cutoff with slope divided by the largest
    # exponent the substitution can multiply a degree by
    emax = max(exps_of_i, default=1)
    tail = TailBound(degree_budget, f.tail.slope / emax, f.tail.offset)
    return RestrictedSeries(
        f.p, n, _with_tail_error(out, f.tail.floor_at(F(0))), tail=tail, domain=dom
    )


def shift_trop(f: RestrictedSeries, t, direction) -> RestrictedSeries:
    """Coefficient-valuation bookkeeping moving the complex by t*direction."""
    t = F(t)
    out = f
    for i, vi in enumerate(direction):
        if vi:
            out = scale_variable(out, i, t * vi)
    return out


def scalar_mul(f: RestrictedSeries, c) -> RestrictedSeries:
    c = _coerce_coeff(f.p, c)
    if c.is_zero():
        return RestrictedSeries(f.p, f.nvars, {}, domain=f.domain)
    tail = f.tail
    if not tail.is_empty:
        tail = TailBound(tail.cutoff, tail.slope, tail.offset + c.valuation())
    return RestrictedSeries(
        f.p,
        f.nvars,
        {i: a * c for i, a in f.terms.items()},
        tail=tail,
        domain=f.domain,
    )


def to_precision(x: PadicScaled, prec: int) -> PadicScaled:
    """Forget digits beyond prec (turns an exact value approximate)."""
    if x.is_zero():
        raise ValueError("cannot truncate exact zero to finite precision")
    return PadicScaled.approx(x.p, x.valuation(), x.unit_digits(prec), prec)


def difference_floor(a: PadicScaled, b: PadicScaled):
    """A certified lower bound for v(a - b): sum_floor of a and -b."""
    return sum_floor([a, -b])
