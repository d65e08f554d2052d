"""Restricted power series with certified tail bounds.

A series is stored as finitely many terms up to a total-degree cutoff plus
a linear *tail bound* certifying ``v(a_I) >= slope*|I| + offset`` for every
exponent vector beyond the cutoff.  An offset of +Infinity is the exact
witness that no terms exist beyond the cutoff (polynomials).  The domain is
a product of valuation half-lines ``[r_i, oo)``; ``None`` stands for an
unbounded coordinate (all of R), which forces an empty tail.

Everything downstream (tropicalization, root counting, effective bounds)
rests on the operations here, so every transform recomputes a *sound* tail
bound and every certification failure raises instead of degrading.

A series stores sparse term dicts ``{exponents: coefficient}``; products
run on *packed* keys (Monagan and Pearce, CASC 2007).  With field width w,
exponents ``(e_0, ..., e_{n-1})`` pack to the integer ``deg << w*n | ... |
e_1 << w | e_0``, with the total degree ``deg`` on top (``_pack``,
``_unpack``).

Lemma.  Let i and j pack monomials whose exponents are below 2^w, and let
2^w > cap.  Then ``i + j < (cap + 1) << w*n`` exactly when the product
monomial has total degree at most cap, and then ``i + j`` packs it.  For
the lower fields of i and j add up to a nonnegative number, so ``i + j`` is
at least its degree field; and a degree at most cap bounds every field of
the product below 2^w, so no field carries.

So a caller packs its dicts once, with 2^w above every degree it stores or
keeps, and ``_dict_mul`` multiplies with one add and one compare per pair.
Products, sums, shifts, the Weierstrass rounds and composition list each
key's contributions, and ``_summed`` sums each list once, with ``sum`` on
Python integers and ``padic.total`` on ``PadicScaled`` values, so no
coefficient depends on the order of its contributions.  ``_fold`` splits a
tuple-keyed dict at a degree cutoff into kept terms and the (degree,
valuation) points that the tail bound must absorb.  A product with a
constant polynomial (one term, at the zero exponent, and no tail) skips the
kernel: ``_times_constant`` scales the other side's terms in their order,
finding the constant's valuation and unit digits once per precision, and the
cutoff, fold and tail pieces are those of any product.

A series has two constructors, which end in the same tail rule
(``_finish``).  ``RestrictedSeries(...)`` checks and cleans outside input.
``RestrictedSeries._made``, which only this module calls, takes the
results of the algebra as they stand: tuple keys, nonzero ``PadicScaled``
values and a normalized domain.

Weierstrass division and composition run on integer numerators when every
input coefficient is an exact rational (shift 0), and on ``PadicScaled``
otherwise; ``_numerators`` makes that choice from the inputs.  A term dict
``h`` becomes ``h = h'/D`` with ``D`` the lcm of its denominators and
``h'`` integral.  The loop is written once for both rings, and the
numerators are turned back into ``PadicScaled`` once, at the end, so exact
results are the same rationals as in field arithmetic and nothing is
truncated.  Each exact result coefficient is built as one
``Fraction(n*num, den)`` (``_over``).

Weierstrass division is a contraction in the (p, X')-filtration: with
``f = c*Y^d + E`` (c the unit coefficient of the regularity order), the
quotient is the fixed point of ``Q <- c^{-1} * high_part(g - Q*E)``, the sum
of the Neumann series ``Q_0 + L(Q_0) + ...`` with ``Q_0 = c^{-1} *
high_part(g)`` and ``L(x) = -c^{-1} * high_part(x*E)``; the low parts of the
same products sum to the remainder.  The iteration contracts exactly when
every pure-Y coefficient of ``E`` has positive valuation; that condition
(plus the matching tail certificate) is checked up front and its failure
raises BudgetExceeded, because without it no restricted quotient exists
(e.g. dividing by ``Y + Y^2``).

No round divides.  With ``(L_0, T_0) = split(g)`` and
``(L_{k+1}, T_{k+1}) = split(-T_k*E)`` (``_split_high``), the Neumann terms
are ``c^-(k+1)*T_k`` with low parts ``c^-(k+1)*L_{k+1}``, by linearity.  So
on ``PadicScaled`` values ``Q = sum c^-(k+1)*T_k`` and ``R = sum c^-k*L_k``
over K rounds, with residue ``g - Q*f - R``.  On numerators ``f' = D_f*f``
and ``g' = D_g*g`` (c the integer top coefficient of ``f'``), c^K times
these sums are ``Q' = sum c^(K-1-k)*T_k`` and ``R' = sum c^(K-k)*L_k``, with
``Q = Q'*D_f/(D_g*c^K)``, ``R = R'/(D_g*c^K)`` and residue ``N/(D_g*c^K)``,
``N = c^K*g' - Q'*f' - R'``.  Each coefficient is one sum of its weighed
round terms; on exact input both rings give the Neumann iteration's
rationals, as the weights only move its powers of c out of the rounds and
exact sums ignore grouping.  (Weighing the ``PadicScaled`` rounds by c^K
and dividing back would make the exact low(g) approximate when c is.)
Integral series make ``D_g`` prime to p, and c is a unit, so
``v(residue) = v_p(N)``, checked in integers key by key.  On
``PadicScaled`` values each residue key is one ``padic.total``: a
certified valuation below the precision budget raises BudgetExceeded, and
a sum that cancels below the inputs' digits raises PrecisionExhausted when
its floor lies below the budget, since more input digits could decide it.

Lemma (preparation).  Let f be regular of order d, and let the divisions
``Y^d = Q*f + R`` and ``1 = U*Q`` pass their residue checks.  Then
``P = Y^d - R`` has ``f - P*U = f*(1 - Q*U) - (P - Q*f)*U``.  Both
brackets are the residues of the two divisions, so they vanish to budget,
and f and U are integral, so ``f = P*U`` to budget.  Modulo p and the other
variables, f is ``c*Y^d``, so ``c*Q(0) = 1`` and ``R(0,...,0,Y) =
Y^d*(1 - c*Q(0,...,0,Y))``; R has Y-degree below d, so both sides vanish
mod p.  Hence P is distinguished of order d, and Q(0) is a unit, so the
second division is an inversion (regular order 0); ``weierstrass_prepare``
raises unless the computed Q(0) certifies that.

Composition sums ``a_k*g^k`` the same way, over the one denominator
``D_a*D_g^K`` of the base coefficients ``a_k = n_k/D_a`` and the powers of
``g = g'/D_g`` up to ``K``, the base cutoff; no higher power is formed.

Lemma.  Let the base tail certify ``v(a_k) >= c*k + b`` for k > K, and let
g have p-integral coefficients and order ``ord(g)``, the least total degree
of its terms.  Then ``a_k*g^k`` has no term below degree ``k*ord(g)``, so
the unknown ``a_k`` reach no degree below ``(K + 1)*ord(g)``.  When that
exceeds the degree budget, every kept coefficient of ``base(g)`` is the
partial sum's own, exact when the stored ``a_k`` and g are.  Otherwise
each kept coefficient is known to the floor ``c*(K + 1) + b``, and a kept
monomial that the unknown ``a_k*g^k`` reach but the partial sum does not
store raises instead of reading as zero.  Past the degree budget, the
piece ``(c/deg(g), b)`` bounds every unexpanded term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import (
    BudgetExceeded,
    DomainViolation,
    NotRegular,
    PrecisionExhausted,
    ZeroSeries,
)
from .padic import INF, PadicScaled, total, val_min, vp_int

F = Fraction


# ---------------------------------------------------------------------------
# tail bounds


@dataclass(frozen=True)
class TailBound:
    """Certifies v(a_I) >= slope*|I| + offset for every |I| > cutoff."""

    cutoff: int
    slope: Fraction
    offset: object  # Fraction, or INF for "no terms beyond the cutoff"

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")

    @property
    def is_empty(self) -> bool:
        return self.offset is INF

    def floor_at(self, nu_min):
        """Certified infimum of v(a_I) + <I, nu> over the tail,
        for any nu with all coordinates >= nu_min.

        Returns INF for an empty tail, None when the infimum is -oo
        (uncertifiable).
        """
        if self.is_empty:
            return INF
        if nu_min is INF:
            return INF
        rate = self.slope + nu_min
        if rate < 0:
            return None
        if rate == 0:
            return self.offset
        return (self.cutoff + 1) * rate + self.offset

    @staticmethod
    def empty(cutoff: int = 0) -> "TailBound":
        return TailBound(cutoff, F(1), INF)


def _merge_tail_pieces(cutoff, pieces, fold_points):
    """Build one TailBound(cutoff, c, b) dominating several linear pieces
    plus finitely many (degree, valuation) point constraints."""
    pieces = [pc for pc in pieces if pc[1] is not INF]
    if not pieces and not fold_points:
        return TailBound.empty(cutoff)
    c = min((s for s, _ in pieces), default=F(1))
    b = INF
    for s, o in pieces:
        b = val_min(b, o + (s - c) * (cutoff + 1))
    for deg, val in fold_points:
        b = val_min(b, val - c * deg)
    return TailBound(cutoff, c, b)


# ---------------------------------------------------------------------------
# sparse term dicts


def _summed(parts):
    """{k: the sum of the list parts[k]}, without the zero sums.  Each list
    is summed once, by ``sum`` on Python integers and by ``padic.total`` on
    PadicScaled values, so no coefficient depends on the order of its
    contributions."""
    if not parts:
        return {}
    x = next(iter(parts.values()))[0]
    add = partial(total, x.p) if isinstance(x, PadicScaled) else sum
    return {k: s for k, v in parts.items() if (s := add(v))}


def _pack(terms, n, w):
    """The term dict in n variables with packed keys of field width w."""
    return {
        sum(e << w * i for i, e in enumerate(k)) | sum(k) << w * n: c
        for k, c in terms.items()
    }


def _unpack(terms, n, w):
    """The packed term dict with exponent tuples as keys."""
    mask = (1 << w) - 1
    return {tuple(k >> w * i & mask for i in range(n)): c for k, c in terms.items()}


def _dict_mul(a, b, lim):
    """Product of two packed term dicts, without keys of lim or above:
    ``(cap + 1) << w*n`` drops the terms of total degree above cap."""
    out = {}
    bs = list(b.items())
    for i, x in a.items():
        for j, y in bs:
            if i + j < lim:
                out.setdefault(i + j, []).append(x * y)
    return _summed(out)


def _times_constant(terms, c):
    """{k: a*c} in the order of terms, for a nonzero PadicScaled c whose
    valuation and unit digits are found once per precision, not per term."""
    p, v_c, n_c, exact = c.p, c.valuation(), c.precision(), c.is_exact
    digits = {}  # precision n -> (p^n, unit digits of c mod p^n)
    out = {}
    for k, a in terms.items():
        if exact and a.is_exact:
            out[k] = a * c
            continue
        n = int(min(a.precision(), n_c))
        if n not in digits:
            digits[n] = p**n, c.unit_digits(n)
        mod, u = digits[n]
        out[k] = PadicScaled.approx(p, a.valuation() + v_c, a.unit_digits(n) * u % mod, n)
    return out


def _numerators(terms):
    """(D, {k: D*c}): integer numerators over D, the lcm of the denominators,
    when every coefficient is an exact rational; None when any coefficient
    is approximate or carries a fractional shift."""
    try:
        rs = [(k, c.rational_value()) for k, c in terms.items()]
    except ValueError:
        return None
    den = math.lcm(*(r.denominator for _, r in rs))
    return den, {k: r.numerator * (den // r.denominator) for k, r in rs}


def _over(p, terms, num, den):
    """Integer numerators times num/den, as exact coefficients."""
    return {k: PadicScaled.exact(p, F(n * num, den)) for k, n in terms.items()}


def _fold(terms, cutoff):
    """(terms of total degree <= cutoff, [(degree, valuation)] of the
    terms beyond it), for a term dict without zero coefficients."""
    kept, folds = {}, []
    for k, c in terms.items():
        if sum(k) > cutoff:
            folds.append((sum(k), c.valuation()))
        else:
            kept[k] = c
    return kept, folds


# ---------------------------------------------------------------------------
# the series type


def _coerce_coeff(p, c):
    if isinstance(c, PadicScaled):
        if c.p != p:
            raise ValueError("coefficient prime mismatch")
        return c
    return PadicScaled.exact(p, c)


class RestrictedSeries:
    """Finitely many certified terms plus a tail bound, over a domain."""

    __slots__ = ("p", "nvars", "terms", "tail", "domain")

    def __init__(self, p, nvars, terms, tail=None, domain=None):
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            c = _coerce_coeff(p, c)
            if not c.is_zero():
                clean[exps] = c
        if domain is None:
            domain = tuple(F(0) for _ in range(nvars))
        else:
            domain = tuple(None if r is None else F(r) for r in domain)
            if len(domain) != nvars:
                raise ValueError("domain length mismatch")
        self._finish(p, nvars, clean, tail, domain)

    @classmethod
    def _made(cls, p, nvars, terms, tail, domain):
        """A series from data the algebra built, which it trusts: tuple keys
        of nvars integers >= 0, nonzero PadicScaled values at p and a
        normalized domain tuple.  The tail rule still runs."""
        self = cls.__new__(cls)
        self._finish(p, nvars, terms, tail, domain)
        return self

    def _finish(self, p, nvars, terms, tail, domain):
        """The tail rule of both constructors: an empty tail's cutoff rises
        to the max degree, no stored term lies beyond the cutoff, and a
        tail converges on the domain."""
        self.p, self.nvars, self.terms, self.domain = p, nvars, terms, domain
        maxdeg = max(map(sum, terms), default=0)
        if tail is None or tail.is_empty and tail.cutoff < maxdeg:
            tail = TailBound.empty(maxdeg)
        if maxdeg > tail.cutoff:
            raise ValueError("stored term beyond the tail cutoff")
        if not tail.is_empty:
            rmin = self._domain_min()
            if rmin is None or tail.slope + rmin <= 0:
                raise DomainViolation(
                    "tail bound does not certify convergence on the domain"
                )
        self.tail = tail

    def _domain_min(self):
        if any(r is None for r in self.domain):
            return None
        if not self.domain:
            return F(0)
        return min(self.domain)

    # -- constructors --

    @classmethod
    def constant(cls, p, value, nvars=1, domain=None):
        return cls(p, nvars, {(0,) * nvars: value}, domain=domain)

    @classmethod
    def variable(cls, p, i, nvars, domain=None):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(p, nvars, {exps: 1}, domain=domain)

    # -- queries --

    def coeff(self, exps) -> PadicScaled:
        return self.terms.get(tuple(exps), PadicScaled.zero(self.p))

    def max_degree(self) -> int:
        return max((sum(i) for i in self.terms), default=0)

    def is_certified_zero(self) -> bool:
        return not self.terms and self.tail.is_empty

    def axis_coeffs(self):
        """Coefficients of pure powers of the last variable: {j: a_(0,...,0,j)}."""
        return {exps[-1]: c for exps, c in self.terms.items() if not any(exps[:-1])}

    def __eq__(self, other):
        if not isinstance(other, RestrictedSeries):
            return NotImplemented
        return (
            self.p == other.p
            and self.nvars == other.nvars
            and self.terms == other.terms
            and self.tail == other.tail
            and self.domain == other.domain
        )

    def __repr__(self):
        body = " + ".join(
            f"{c!r}*X^{list(i)}" for i, c in sorted(self.terms.items())
        ) or "0"
        return f"RestrictedSeries({body}; p={self.p}, tail={self.tail})"

    # -- ring operations --

    def _common_domain(self, other):
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("series are not over the same ring")
        dom = []
        for a, b in zip(self.domain, other.domain):
            if a is None:
                dom.append(b)
            elif b is None:
                dom.append(a)
            else:
                dom.append(max(a, b))
        return tuple(dom)

    def __neg__(self):
        terms = {i: -c for i, c in self.terms.items()}
        return RestrictedSeries._made(self.p, self.nvars, terms, self.tail, self.domain)

    def __add__(self, other):
        dom = self._common_domain(other)
        ta, tb = self.tail, other.tail
        # a coefficient is fully known exactly where both sides are, so only
        # sides with genuine tails constrain the cutoff
        live = [t.cutoff for t in (ta, tb) if not t.is_empty]
        cutoff = min(live) if live else max(ta.cutoff, tb.cutoff)
        parts = {i: [c] for i, c in self.terms.items()}
        for i, c in other.terms.items():
            parts.setdefault(i, []).append(c)
        kept, folds = _fold(_summed(parts), cutoff)
        tail = _merge_tail_pieces(
            cutoff, [(ta.slope, ta.offset), (tb.slope, tb.offset)], folds
        )
        return RestrictedSeries._made(self.p, self.nvars, kept, tail, dom)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        dom = self._common_domain(other)
        ta, tb = self.tail, other.tail
        # unknown contributions to the coefficient at K need a tail factor,
        # so they first appear above cutoff_tail + mindeg(other side)
        mf = min((sum(i) for i in self.terms), default=None)
        mg = min((sum(j) for j in other.terms), default=None)
        bounds = []
        if not ta.is_empty:
            bounds.append(ta.cutoff + tb.cutoff if not tb.is_empty else None)
            if mg is not None:
                bounds.append(ta.cutoff + mg)
        if not tb.is_empty and mf is not None:
            bounds.append(tb.cutoff + mf)
        bounds = [b for b in bounds if b is not None]
        cutoff = min(bounds) if bounds else ta.cutoff + tb.cutoff
        # a constant polynomial scales the other side's terms in their order
        n, zero = self.nvars, (0,) * self.nvars
        if ta.is_empty and len(self.terms) == 1 and zero in self.terms:
            prod = _times_constant(other.terms, self.terms[zero])
        elif tb.is_empty and len(other.terms) == 1 and zero in other.terms:
            prod = _times_constant(self.terms, other.terms[zero])
        else:
            w = (self.max_degree() + other.max_degree()).bit_length()
            prod = _dict_mul(_pack(self.terms, n, w), _pack(other.terms, n, w), 1 << w * (n + 1))
            prod = _unpack(prod, n, w)
        kept, folds = _fold(prod, cutoff)
        pieces = []
        if not tb.is_empty:
            h = val_min(*(a.valuation() - tb.slope * sum(i) for i, a in self.terms.items()))
            if h is not INF:
                pieces.append((tb.slope, tb.offset + h))
        if not ta.is_empty:
            h = val_min(*(b.valuation() - ta.slope * sum(j) for j, b in other.terms.items()))
            if h is not INF:
                pieces.append((ta.slope, ta.offset + h))
        if not ta.is_empty and not tb.is_empty:
            pieces.append((min(ta.slope, tb.slope), ta.offset + tb.offset))
        tail = _merge_tail_pieces(cutoff, pieces, folds)
        return RestrictedSeries._made(self.p, self.nvars, kept, tail, dom)


# ---------------------------------------------------------------------------
# evaluation


def trop_point(xs):
    """The tuple of coordinate valuations."""
    return tuple(x.valuation() for x in xs)


def _with_error_floor(x: PadicScaled, floor):
    """x + O(p^floor) as a PadicScaled; raises when no digit survives."""
    if floor is INF:
        return x
    v = x.valuation()
    if v is INF or v >= floor:
        raise PrecisionExhausted(
            "value is indistinguishable from zero at the certified floor",
            floor=floor,
        )
    digits = int(floor - v)
    if digits < 1:
        raise PrecisionExhausted("no certified digit", floor=floor)
    return PadicScaled.approx(x.p, v, x.unit_digits(digits), digits)


def _with_tail_error(terms, floor):
    """Every coefficient + O(p^floor), the error that unexpanded tail terms
    leave on the stored ones; a floor of None (unbounded below) raises."""
    if floor is None:
        raise PrecisionExhausted("tail valuations are unbounded below on the unit polydisc")
    return {k: _with_error_floor(v, floor) for k, v in terms.items()}


def evaluate(f: RestrictedSeries, xs) -> PadicScaled:
    """Value of f at a point, certified to the provable precision."""
    if len(xs) != f.nvars:
        raise ValueError("point dimension mismatch")
    nu = trop_point(xs)
    for v, r in zip(nu, f.domain):
        if r is not None and not (v is INF or v >= r):
            raise DomainViolation(f"trop {nu} outside the domain {f.domain}")
    values = [
        math.prod((x**e for x, e in zip(xs, exps) if e), start=c)
        for exps, c in f.terms.items()
    ]
    live = [v for v in nu if v is not INF]
    nu_min = min(live) if live else INF
    floor = f.tail.floor_at(nu_min)
    if floor is None:
        raise PrecisionExhausted("tail sum valuation unbounded below at this point")
    try:
        value = total(f.p, values)
    except PrecisionExhausted as exc:  # the tail terms can lie below the sum's floor
        raise PrecisionExhausted(str(exc), floor=val_min(exc.floor, floor)) from None
    return _with_error_floor(value, floor)


# ---------------------------------------------------------------------------
# substitutions


def shift_variable(f: RestrictedSeries, i: int, c: PadicScaled) -> RestrictedSeries:
    """Substitute X_i -> X_i - c; requires v(c) >= r_i so the domain holds."""
    c = _coerce_coeff(f.p, c)
    r = f.domain[i]
    if r is not None and not (c.is_zero() or c.valuation() >= r):
        raise DomainViolation("shift constant leaves the domain")
    if not f.tail.is_empty and not (c.is_zero() or c.valuation() >= 0):
        raise DomainViolation("shift with v(c) < 0 cannot keep the tail bound")
    out = {}
    for exps, a in f.terms.items():
        e = exps[i]
        for j in range(e + 1):
            coeff = a * PadicScaled.exact(f.p, math.comb(e, j)) * (-c) ** (e - j)
            out.setdefault(exps[:i] + (j,) + exps[i + 1:], []).append(coeff)
    out = _summed(out)
    if not f.tail.is_empty:
        out = _with_tail_error(out, f.tail.floor_at(F(0)))
    return RestrictedSeries._made(f.p, f.nvars, out, f.tail, f.domain)


# ---------------------------------------------------------------------------
# Weierstrass calculus


@dataclass(frozen=True)
class Budget:
    """Certification targets: valuation prec, total-degree cutoff degree."""

    prec: int
    degree: int


def regular_order(f: RestrictedSeries) -> int:
    """Smallest d with f(0,...,0,Y) = sum b_i Y^i, v(b_i) > 0 below d and
    b_d a unit, certified from stored terms and the tail."""
    if f.is_certified_zero():
        raise ZeroSeries("zero series has no regularity order")
    by_j = f.axis_coeffs()
    for j in sorted(by_j):
        v = by_j[j].valuation()
        if v < 0:
            raise NotRegular(f"pure-axis coefficient at {j} has negative valuation")
        if v == 0:
            return j
    raise NotRegular("no unit pure-axis coefficient within the cutoff")


def _split_high(terms, d, n, w):
    """(low, high) of a packed term dict: last exponent < d, and >= d
    shifted down by d, in the last field and the degree field."""
    at, mask = w * (n - 1), (1 << w) - 1
    down = d << at | d << w * n
    low, high = {}, {}
    for k, c in terms.items():
        if k >> at & mask < d:
            low[k] = c
        else:
            high[k - down] = c
    return low, high


def _check_division_inputs(f, g, d, budget):
    for s in (f, g):
        for exps, c in s.terms.items():
            if c.valuation() < 0:
                raise ValueError("division requires integral series")
        if not s.tail.is_empty:
            fl = s.tail.floor_at(F(0))
            if fl is None or (s.tail.cutoff + 1 <= budget.degree - 1 and fl < budget.prec):
                raise BudgetExceeded(
                    "tail terms below the degree budget are not certified to the precision budget"
                )
    for j, c in f.axis_coeffs().items():
        if j != d and c.valuation() == 0:
            raise BudgetExceeded(
                f"contraction cannot certify the budget: unit pure-axis coefficient at Y^{j}"
            )
    if not f.tail.is_empty:
        fl = f.tail.floor_at(F(0))
        if fl is None or fl <= 0:
            raise BudgetExceeded("tail cannot exclude unit pure-axis coefficients")


def weierstrass_divide(f: RestrictedSeries, g: RestrictedSeries, budget: Budget):
    """Division g = Q*f + (A_{d-1} Y^{d-1} + ... + A_0), certified to budget.

    Returns (Q, [A_0, ..., A_{d-1}]) with Q a series in all variables and
    A_j series in the first n-1 variables.  The identity holds up to terms
    of valuation >= budget.prec or total degree >= budget.degree.
    """
    if f.p != g.p or f.nvars != g.nvars:
        raise ValueError("series are not over the same ring")
    d = regular_order(f)
    _check_division_inputs(f, g, d, budget)
    p, n = f.p, f.nvars
    axis = n - 1
    top = (0,) * axis + (d,)
    lifted = _numerators(f.terms), _numerators(g.terms)
    ints = all(lifted)
    if ints:
        # integers f' = D_f*f and g' = D_g*g; the top coefficient c of f'
        # is a unit, and the rounds are weighed by its powers, not divided
        (d_f, fs), (d_g, gs) = lifted
    else:
        fs, gs = f.terms, g.terms
    c = fs[top]
    # packed keys, with 2^w above every stored degree and the degree budget
    w = max(budget.degree, f.max_degree(), g.max_degree()).bit_length()
    minus_e = _pack({k: -v for k, v in fs.items() if k != top}, n, w)
    fs, gs = _pack(fs, n, w), _pack(gs, n, w)

    # the rounds of the module docstring; T_k weighs as L_{k+1}
    low, high = _split_high(gs, d, n, w)
    lows, highs = [low], []
    while high and len(highs) < budget.prec + budget.degree + 2:
        highs.append(high)
        low, high = _split_high(_dict_mul(high, minus_e, (budget.degree + 1) << w * n), d, n, w)
        lows.append(low)
    rounds = len(highs)
    weights = [c ** (rounds - k) if ints else c**-k for k in range(rounds + 1)]

    def weighed(parts, ws):
        out = {}
        for terms, s in zip(parts, ws):
            for k, v in terms.items():
                out.setdefault(k, []).append(v * s)
        return _summed(out)

    q_cur, r_low = weighed(highs, weights[1:]), weighed(lows, weights)

    # residue check: weights[0]*g - Q*f - R vanishes to budget below the
    # degree cutoff, each key summed once
    lim = budget.degree << w * n
    residue = {k: [v * weights[0]] for k, v in gs.items()}
    for i, x in q_cur.items():
        for j, y in fs.items():
            if i + j < lim:
                residue.setdefault(i + j, []).append(-(x * y))
    for k, v in r_low.items():
        residue.setdefault(k, []).append(-v)
    residue = _unpack({k: v for k, v in residue.items() if k < lim}, n, w)
    for exps in sorted(residue):
        if ints:
            s = sum(residue[exps])
            v = vp_int(s, p) if s else INF
        else:
            try:
                v = total(p, residue[exps]).valuation()
            except PrecisionExhausted as exc:  # the inputs' digits end at exc.floor
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

    q_cur, r_low = _unpack(q_cur, n, w), _unpack(r_low, n, w)
    if ints:
        den = d_g * weights[0]  # c^K
        q_cur, r_low = _over(p, q_cur, d_f, den), _over(p, r_low, 1, den)
    dom, tail = f._common_domain(g), TailBound.empty(budget.degree)
    q_series = RestrictedSeries._made(p, n, q_cur, tail, dom)
    a_list = []
    for j in range(d):
        a_terms = {
            exps[:axis]: v for exps, v in r_low.items() if exps[axis] == j
        }
        a_list.append(RestrictedSeries._made(p, axis, a_terms, tail, dom[:axis]))
    return q_series, a_list


def weierstrass_prepare(f: RestrictedSeries, budget: Budget):
    """f = (Y^d + A_{d-1} Y^{d-1} + ... + A_0) * U with U a unit, to budget.

    Returns ([A_0, ..., A_{d-1}], U): Y^d = Q*f + R gives the A_j as -R,
    and U is the inverse of Q (the preparation lemma of the module
    docstring).
    """
    d = regular_order(f)
    p, n = f.p, f.nvars
    y_d = RestrictedSeries(p, n, {(0,) * (n - 1) + (d,): 1}, domain=f.domain)
    q, rem = weierstrass_divide(f, y_d, budget)
    # a quotient of regular order 0 makes the second division an inversion
    const = q.coeff((0,) * n)
    if const.is_zero() or const.valuation() != 0:
        raise BudgetExceeded("quotient has no certified unit constant term")
    one = RestrictedSeries.constant(p, 1, nvars=n, domain=f.domain)
    return [-a for a in rem], weierstrass_divide(q, one, budget)[0]


def strassmann_count(f: RestrictedSeries) -> int:
    """Largest coefficient index attaining the minimal valuation.

    Counts the zeros of f in the closed unit ball (with multiplicity) and
    upper-bounds the zeros over the base ring.
    """
    if f.nvars != 1:
        raise ValueError("strassmann_count needs a univariate series")
    if f.is_certified_zero():
        raise ZeroSeries("cannot count zeros of the zero series")
    if not f.terms:
        raise PrecisionExhausted("no stored terms: minimum not certified")
    m = min(c.valuation() for c in f.terms.values())
    n = max(i[0] for i, c in f.terms.items() if c.valuation() == m)
    floor = f.tail.floor_at(F(0))
    if floor is None or floor <= m:
        raise PrecisionExhausted(
            "tail bound cannot exclude the minimum beyond the cutoff", floor=floor
        )
    return n


# ---------------------------------------------------------------------------
# composition (used by the term language)


def _reached(gs, skip, lim):
    """The packed keys below lim of the products of k monomials of gs, for
    every k > skip."""
    reached, level = set(), {0}
    for k in itertools.count(1):
        prev, level = level, {i + j for i in level for j in gs if i + j < lim}
        if level == prev:  # every later product is one of these
            return reached | level
        if k > skip:
            reached |= level


def compose_univariate(base: RestrictedSeries, g: RestrictedSeries, budget: Budget):
    """base(g) for univariate base and polynomial g, certified to budget."""
    if base.nvars != 1:
        raise ValueError("base must be univariate")
    if not g.tail.is_empty:
        raise BudgetExceeded("composition with a non-polynomial argument")
    if base.p != g.p:
        raise ValueError("prime mismatch")
    p = g.p
    m = val_min(*(c.valuation() for c in g.terms.values()))
    r0 = base.domain[0]
    if m is not INF and (m < 0 or (r0 is not None and m < r0)):
        raise DomainViolation("argument values leave the base domain")
    deg_g = g.max_degree()
    # the lemma of the module docstring: the unknown a_k past the cutoff
    # reach a kept degree only when (cutoff + 1)*ord(g) <= budget.degree
    top, order = base.tail.cutoff, min(map(sum, g.terms), default=None)  # None: g = 0
    floor_beyond = INF
    if not base.tail.is_empty:
        c_b, b_b = base.tail.slope, base.tail.offset
        if c_b <= 0 and c_b * (top + 1) + b_b < budget.prec:
            raise BudgetExceeded("base tail slope too small to certify the precision")
        if order is not None and (top + 1) * order <= budget.degree:
            floor_beyond = c_b * (top + 1) + b_b
    weights = {k: base.coeff((k,)) for k in range(top + 1)}
    lifted_a, lifted_g = _numerators(weights), _numerators(g.terms)
    if lifted_a and lifted_g:
        # a_k = n_k/D_a and g = g'/D_g: sum a_k g^k is sum n_k D_g^(K-k) g'^k
        # over M = D_a D_g^K, with K = top, summed in integers
        (d_a, weights), (d_g, gs) = lifted_a, lifted_g
        weights = {k: w * d_g ** (top - k) for k, w in weights.items()}
        one, den = 1, d_a * d_g**top
    else:
        gs, one, den = g.terms, PadicScaled.exact(p, 1), None
    parts, power = {}, {0: one}
    full_degree = max(top * deg_g, budget.degree)
    n, w = g.nvars, max(full_degree, deg_g).bit_length()
    gs, lim = _pack(gs, n, w), (full_degree + 1) << w * n
    for k, a_k in weights.items():
        if a_k:
            for exps, c in power.items():
                parts.setdefault(exps, []).append(c * a_k)
        if k < top:
            # powers are never truncated below their true degree, so every
            # overflow term is computed and folded into the tail soundly
            power = _dict_mul(power, gs, lim)
            if len(power) > 20000:
                raise BudgetExceeded("composition expansion too large for the budget")
    acc = _summed(parts)  # each coefficient is one sum of its a_k*(g^k)[key]
    if floor_beyond is not INF:
        # a kept monomial that only unknown a_k reach would read as exactly 0
        kept_lim = (budget.degree + 1) << w * n
        if any(not acc.get(k) for k in _reached(gs, top, kept_lim)):
            raise PrecisionExhausted(
                "value is indistinguishable from zero at the certified floor",
                floor=floor_beyond,
            )
    acc = _unpack(acc, n, w)
    if den is not None:
        acc = _over(p, acc, 1, den)
    kept, folds = _fold(acc, budget.degree)
    if floor_beyond is not INF:
        kept = _with_tail_error(kept, floor_beyond)
    # a_k g^k for k > cutoff has valuation >= (c_b + v(g))k + b_b at each
    # degree j <= k deg_g, and c_b + v(g) > 0 on the base domain: so the
    # piece (c_b/deg_g, b_b) bounds every unexpanded term
    pieces = []
    if not base.tail.is_empty and deg_g > 0:
        pieces.append((base.tail.slope / deg_g, base.tail.offset))
    tail = _merge_tail_pieces(budget.degree, pieces, folds)
    return RestrictedSeries._made(p, g.nvars, kept, tail, g.domain)


# ---------------------------------------------------------------------------
# parameterized series


class ParamSeries:
    """A series in X whose coefficients are series in parameters Y.

    The X-support is finite (polynomial in X over series coefficients);
    that is what every finite-generation verification below needs.
    """

    __slots__ = ("p", "nx", "nparams", "coeffs")

    def __init__(self, p, nx, nparams, coeffs):
        self.p = p
        self.nx = nx
        self.nparams = nparams
        clean = {}
        for exps, s in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nx:
                raise ValueError("X-exponent length mismatch")
            if not isinstance(s, RestrictedSeries):
                s = RestrictedSeries.constant(p, s, nvars=nparams)
            if s.p != p or s.nvars != nparams:
                raise ValueError("coefficient series over the wrong parameter ring")
            if s.is_certified_zero():
                continue
            clean[exps] = s
        self.coeffs = clean

    @classmethod
    def from_series(cls, f: RestrictedSeries) -> "ParamSeries":
        if not f.tail.is_empty:
            raise ValueError("parameter-free ParamSeries needs a polynomial")
        coeffs = {i: RestrictedSeries(f.p, 0, {(): c}) for i, c in f.terms.items()}
        return cls(f.p, f.nvars, 0, coeffs)

    def support(self):
        return sorted(self.coeffs)

    def is_identically_zero(self) -> bool:
        return not self.coeffs

    def specialize(self, ys, x_domain=None) -> RestrictedSeries:
        """Evaluate every coefficient at parameters ys."""
        terms = {exps: evaluate(s, ys) for exps, s in self.coeffs.items()}
        return RestrictedSeries(self.p, self.nx, terms, domain=x_domain)

    def slice_at_zero(self, s: int, k: int) -> "ParamSeries":
        """(1/s!) d^s/dX_k^s at X_k = 0: keeps X_k-exponent == s terms."""
        coeffs = {}
        for exps, c in self.coeffs.items():
            if exps[k] != s:
                continue
            rest = exps[:k] + exps[k + 1:]
            coeffs[rest] = c
        return ParamSeries(self.p, self.nx - 1, self.nparams, coeffs)

    def canonical_key(self):
        """Hashable key of the exact coefficient data: every stored
        coefficient of every coefficient series, and its tail bound."""
        parts = tuple(
            (exps, tuple(sorted(s.terms.items())), None if s.tail.is_empty else s.tail)
            for exps, s in sorted(self.coeffs.items())
        )
        return (self.p, self.nx, self.nparams, parts)

    def __repr__(self):
        return f"ParamSeries(p={self.p}, nx={self.nx}, nparams={self.nparams}, support={self.support()})"
