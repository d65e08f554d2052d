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
``_acc`` adds a coefficient at a key, and ``_fold`` splits a tuple-keyed
dict at a degree cutoff into kept terms and the (degree, valuation) points
that the tail bound must absorb.  ``_acc`` and ``_dict_mul`` work on any
coefficient ring with ``+``, ``*`` and a zero that is false: the
``PadicScaled`` values of a series, or Python integers.

Weierstrass division and composition run on integer numerators when every
input coefficient is an exact rational (shift 0), and on ``PadicScaled``
otherwise; ``_numerators`` makes that choice from the inputs.  A term dict
``h`` becomes ``h = h'/D`` with ``D`` the lcm of its denominators and
``h'`` integral.  The loop is written once for both rings, and the
numerators are turned back into ``PadicScaled`` once, at the end, so exact
results are the same rationals as in field arithmetic and nothing is
truncated.  Division builds each exact ``Q`` and ``R`` coefficient as one
``Fraction(n*num, den)``.  Composition finishes in integers too
(``_finish_numerators``): a coefficient ``n/M`` with ``n = n_u*p^a`` and
``M = M_u*p^b`` (``n_u``, ``M_u`` prime to p) has valuation ``a - b``
whether or not the fraction is reduced, since a common factor adds the
same power of p to both, and unit digits ``n_u*M_u^{-1}`` mod ``p^digits``.
So its fold and its cut to the tail's error floor read both off the
numerator, with one modular inverse of ``M_u`` per digit count, and a
``Fraction`` is built only for a coefficient kept exact.

Weierstrass division is a contraction in the (p, X')-filtration: with
``f = c*Y^d + E`` (c the unit coefficient of the regularity order), the
quotient is the fixed point of ``Q <- c^{-1} * high_part(g - Q*E)``.  Its
iterates are the partial sums of the Neumann series
``Q_0 + L(Q_0) + L^2(Q_0) + ...`` with ``Q_0 = c^{-1} * high_part(g)`` and
``L(x) = -c^{-1} * high_part(x*E)``, so each round multiplies only the
newest term by E; the low parts of the same products sum to the remainder.
The iteration contracts exactly when every pure-Y coefficient of ``E`` has
positive valuation; that condition (plus the matching tail certificate) is
checked up front and its failure raises BudgetExceeded, because without it
no restricted quotient exists (e.g. dividing by ``Y + Y^2``).

On numerators ``f' = D_f*f`` and ``g' = D_g*g``, with c now the integer top
coefficient of ``f'``, no round divides: ``T <- high(-T*E')`` from
``T = high(g')``, while ``Q' <- c*Q' + T`` and ``R' <- c*R' + low(-T*E')``
from ``R' = low(g')``.  After K rounds ``Q = Q'*D_f/(D_g*c^K)`` and
``R = R'/(D_g*c^K)``.  The residue ``g - Q*f - R`` is
``N/(D_g*c^K)`` with ``N = c^K*g' - Q'*f' - R'``.  Division needs integral
series, so ``D_g`` is prime to p, and c is a unit; the denominator is then
a unit and ``v(residue) = v_p(N)``, checked in integers key by key.
Composition sums ``a_k*g^k`` the same way, over the one denominator
``D_a*D_g^K`` of the base coefficients ``a_k = n_k/D_a`` and the powers of
``g = g'/D_g`` up to ``K = k_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    DomainViolation,
    NotRegular,
    PrecisionExhausted,
    ZeroSeries,
)
from .padic import INF, PadicScaled, sum_floor, val_min, vp_int

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
    if pieces:
        c = min(s for s, _ in pieces)
    else:
        c = F(1)
    b = INF
    for s, o in pieces:
        b = val_min(b, o + (s - c) * (cutoff + 1))
    for deg, val in fold_points:
        b = val_min(b, val - c * deg)
    if b is INF:
        return TailBound.empty(cutoff)
    return TailBound(cutoff, c, b)


# ---------------------------------------------------------------------------
# sparse term dicts


def _acc(terms, k, c):
    """Add the coefficient c at key k of a sparse term dict."""
    cur = terms.get(k)
    terms[k] = c if cur is None else cur + c


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
    get = out.get
    bs = list(b.items())
    for i, x in a.items():
        for j, y in bs:
            k = i + j
            if k < lim:
                c = get(k)
                out[k] = x * y if c is None else c + x * y
    return {k: v for k, v in out.items() if v}


def _scaled(terms, s):
    """The term dict times the scalar s; None stands for 1."""
    return terms if s is None else {k: c * s for k, c in terms.items()}


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
    """(nonzero terms of total degree <= cutoff, [(degree, valuation)] of
    the nonzero terms beyond it)."""
    kept, folds = {}, []
    for k, c in terms.items():
        if c.is_zero():
            continue
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
        self.p = p
        self.nvars = nvars
        clean = {}
        maxdeg = 0
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            c = _coerce_coeff(p, c)
            if c.is_zero():
                continue
            clean[exps] = c
            maxdeg = max(maxdeg, sum(exps))
        self.terms = clean
        if domain is None:
            domain = tuple(F(0) for _ in range(nvars))
        else:
            domain = tuple(None if r is None else F(r) for r in domain)
            if len(domain) != nvars:
                raise ValueError("domain length mismatch")
        self.domain = domain
        if tail is None:
            tail = TailBound.empty(maxdeg)
        if tail.is_empty and tail.cutoff < maxdeg:
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
        return RestrictedSeries(
            self.p,
            self.nvars,
            {i: -c for i, c in self.terms.items()},
            tail=self.tail,
            domain=self.domain,
        )

    def __add__(self, other):
        dom = self._common_domain(other)
        ta, tb = self.tail, other.tail
        # a coefficient is fully known exactly where both sides are, so only
        # sides with genuine tails constrain the cutoff
        live = [t.cutoff for t in (ta, tb) if not t.is_empty]
        cutoff = min(live) if live else max(ta.cutoff, tb.cutoff)
        merged = dict(self.terms)
        for i, c in other.terms.items():
            _acc(merged, i, c)
        kept, folds = _fold(merged, cutoff)
        tail = _merge_tail_pieces(
            cutoff, [(ta.slope, ta.offset), (tb.slope, tb.offset)], folds
        )
        return RestrictedSeries(self.p, self.nvars, kept, tail=tail, domain=dom)

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
        n, w = self.nvars, (self.max_degree() + other.max_degree()).bit_length()
        prod = _dict_mul(_pack(self.terms, n, w), _pack(other.terms, n, w), 1 << w * (n + 1))
        kept, folds = _fold(_unpack(prod, n, w), cutoff)
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
        return RestrictedSeries(self.p, self.nvars, kept, tail=tail, domain=dom)

    def embed(self, nvars_new, var_map) -> "RestrictedSeries":
        """Reindex variables: old variable k becomes var_map[k]."""
        if len(set(var_map)) != self.nvars:
            raise ValueError("variable map must be injective")
        terms = {}
        for i, c in self.terms.items():
            exps = [0] * nvars_new
            for k, e in enumerate(i):
                exps[var_map[k]] = e
            terms[tuple(exps)] = c
        dom = [F(0)] * nvars_new
        for k in range(self.nvars):
            dom[var_map[k]] = self.domain[k]
        return RestrictedSeries(self.p, nvars_new, terms, tail=self.tail, domain=tuple(dom))


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


def _finish_numerators(p, nums, den, cutoff, floor):
    """_fold and _with_tail_error of the exact coefficients n/den, read off
    the integer numerators n (see the module docstring): (kept terms,
    [(degree, valuation)] of the terms beyond the cutoff).  The same
    values, order and exceptions as the two helpers."""
    b = vp_int(den, p)
    den_u = den // p**b
    if floor is not INF:
        top, low = math.ceil(floor), math.floor(floor)
    inverses = {}  # digits -> (p^digits, den_u^-1 mod p^digits)
    kept, folds = {}, []
    for k, n in nums.items():
        if not n:
            continue
        deg = sum(k)
        if floor is INF and deg <= cutoff:
            kept[k] = PadicScaled.exact(p, F(n, den))
            continue
        a = vp_int(n, p)
        v = a - b
        if deg > cutoff:
            folds.append((deg, F(v)))
            continue
        if v >= top:
            raise PrecisionExhausted(
                "value is indistinguishable from zero at the certified floor",
                floor=floor,
            )
        digits = low - v
        if digits < 1:
            raise PrecisionExhausted("no certified digit", floor=floor)
        if digits not in inverses:
            mod = p**digits
            inverses[digits] = mod, pow(den_u, -1, mod)
        mod, inv = inverses[digits]
        kept[k] = PadicScaled.approx(p, F(v), n // p**a * inv, digits)
    return kept, folds


def evaluate(f: RestrictedSeries, xs) -> PadicScaled:
    """Value of f at a point, certified to the provable precision."""
    if len(xs) != f.nvars:
        raise ValueError("point dimension mismatch")
    nu = trop_point(xs)
    for v, r in zip(nu, f.domain):
        if r is not None and not (v is INF or v >= r):
            raise DomainViolation(f"trop {nu} outside the domain {f.domain}")
    total = PadicScaled.zero(f.p)
    for exps, c in f.terms.items():
        term = c
        skip = False
        for x, e in zip(xs, exps):
            if e == 0:
                continue
            if x.is_zero():
                skip = True
                break
            term = term * x ** e
        if not skip:
            total = total + term
    live = [v for v in nu if v is not INF]
    nu_min = min(live) if live else INF
    floor = f.tail.floor_at(nu_min)
    if floor is None:
        raise PrecisionExhausted("tail sum valuation unbounded below at this point")
    return _with_error_floor(total, floor)


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
            if not coeff.is_zero():
                _acc(out, exps[:i] + (j,) + exps[i + 1:], coeff)
    out = {k: v for k, v in out.items() if not v.is_zero()}
    if not f.tail.is_empty:
        out = _with_tail_error(out, f.tail.floor_at(F(0)))
    return RestrictedSeries(f.p, f.nvars, out, tail=f.tail, domain=f.domain)


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
    lifted_f, lifted_g = _numerators(f.terms), _numerators(g.terms)
    if lifted_f and lifted_g:
        # integers f' = D_f*f and g' = D_g*g; the top coefficient c of f'
        # is a unit, so it scales the accumulators instead of dividing
        (d_f, fs), (d_g, gs) = lifted_f, lifted_g
        c, over_c = fs[top], None

        def floor(parts):
            total = sum(parts)
            return vp_int(total, p) if total else INF
    else:
        fs, gs = f.terms, g.terms
        c, over_c, floor = None, PadicScaled.exact(p, 1) / fs[top], sum_floor
    # packed keys, with 2^w above every stored degree and the degree budget
    w = max(budget.degree, f.max_degree(), g.max_degree()).bit_length()
    minus_e = _pack({k: -v for k, v in fs.items() if k != top}, n, w)
    fs, gs = _pack(fs, n, w), _pack(gs, n, w)

    # Q is the Neumann sum of term <- c^{-1} * high(-term*E) from
    # c^{-1} * high(g); the low parts of the same products sum to R - low(g).
    # On numerators each round multiplies Q and R by c instead.
    q_cur = {}
    r_low, term = _split_high(gs, d, n, w)
    term = _scaled(term, over_c)
    rounds = 0
    while term and rounds < budget.prec + budget.degree + 2:
        q_cur, r_low = _scaled(q_cur, c), _scaled(r_low, c)
        for k, v in term.items():
            _acc(q_cur, k, v)
        low, high = _split_high(_dict_mul(term, minus_e, (budget.degree + 1) << w * n), d, n, w)
        for k, v in low.items():
            _acc(r_low, k, v)
        term = _scaled(high, over_c)
        rounds += 1

    # residue check against f itself: c^K g - Q f - R must vanish to budget
    # below the degree cutoff.  Its terms are listed per key, not summed,
    # so that a sum cancelling below its certified digits keeps its floor.
    lim = budget.degree << w * n
    scaled_g = _scaled(gs, None if c is None else c**rounds)
    residue = {k: [v] for k, v in scaled_g.items()}
    for i, x in q_cur.items():
        for j, y in fs.items():
            if i + j < lim:
                residue.setdefault(i + j, []).append(-(x * y))
    for k, v in r_low.items():
        residue.setdefault(k, []).append(-v)
    residue = _unpack({k: v for k, v in residue.items() if k < lim}, n, w)
    q_cur, r_low = _unpack(q_cur, n, w), _unpack(r_low, n, w)
    for exps in sorted(residue):
        v = floor(residue[exps])
        if v < budget.prec:
            raise BudgetExceeded(
                f"division residue at {exps} has valuation {v} < {budget.prec}"
            )

    if c is not None:
        den = d_g * c**rounds
        q_cur, r_low = _over(p, q_cur, d_f, den), _over(p, r_low, 1, den)
    dom = f._common_domain(g)
    q_series = RestrictedSeries(p, n, q_cur, tail=TailBound.empty(budget.degree), domain=dom)
    a_list = []
    for j in range(d):
        a_terms = {
            exps[:axis]: v for exps, v in r_low.items() if exps[axis] == j
        }
        a_list.append(
            RestrictedSeries(
                p,
                axis,
                a_terms,
                tail=TailBound.empty(budget.degree),
                domain=dom[:axis],
            )
        )
    return q_series, a_list


def weierstrass_prepare(f: RestrictedSeries, budget: Budget):
    """f = (Y^d + A_{d-1} Y^{d-1} + ... + A_0) * U with U a unit, to budget.

    Returns ([A_0, ..., A_{d-1}], U).
    """
    d = regular_order(f)
    p, n = f.p, f.nvars
    axis = n - 1
    y_d = RestrictedSeries(p, n, {(0,) * axis + (d,): 1}, domain=f.domain)
    _, a1 = weierstrass_divide(f, y_d, budget)
    a_list = [-a for a in a1]
    dist_terms = {(0,) * axis + (d,): PadicScaled.exact(p, 1)}
    for j, a in enumerate(a_list):
        for exps, c in a.terms.items():
            dist_terms[exps + (j,)] = c
    dist = RestrictedSeries(p, n, dist_terms, domain=f.domain)
    if regular_order(dist) != d:
        raise BudgetExceeded("distinguished part is not regular of the same order")
    u_series, rem = weierstrass_divide(dist, f, budget)
    for a in rem:
        for exps, c in a.terms.items():
            if c.valuation() < budget.prec:
                raise BudgetExceeded("unit division remainder not certified to budget")
    const = u_series.coeff((0,) * n)
    if const.is_zero() or const.valuation() != 0:
        raise BudgetExceeded("unit part has no certified unit constant term")
    return a_list, u_series


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
    # partial sum bound: stop once the base tail certifies the precision
    if base.tail.is_empty:
        k_max = base.tail.cutoff
        floor_beyond = INF
    else:
        c_b, b_b = base.tail.slope, base.tail.offset
        k_max = base.tail.cutoff
        while c_b * (k_max + 1) + b_b < budget.prec:
            if c_b <= 0:  # the floor never rises with k_max
                raise BudgetExceeded("base tail slope too small to certify the precision")
            k_max += 1
        floor_beyond = c_b * (k_max + 1) + b_b
        # the a_k with cutoff < k <= k_max are unknown, not zero, and a_k g^k
        # starts at degree k*ord(g): when that reaches a kept degree, their
        # error c_b*k + b_b >= c_b*(cutoff + 1) + b_b lands on kept terms
        order = min(map(sum, g.terms), default=None)  # None: g = 0
        if order is not None and (base.tail.cutoff + 1) * order <= budget.degree:
            floor_beyond = min(floor_beyond, c_b * (base.tail.cutoff + 1) + b_b)
    weights = {k: base.coeff((k,)) for k in range(k_max + 1)}
    lifted_a, lifted_g = _numerators(weights), _numerators(g.terms)
    if lifted_a and lifted_g:
        # a_k = n_k/D_a and g = g'/D_g: sum a_k g^k is sum n_k D_g^(K-k) g'^k
        # over M = D_a D_g^K, with K = k_max, summed in integers
        (d_a, weights), (d_g, gs) = lifted_a, lifted_g
        weights = {k: w * d_g ** (k_max - k) for k, w in weights.items()}
        one, den = 1, d_a * d_g**k_max
    else:
        gs, one, den = g.terms, PadicScaled.exact(p, 1), None
    acc, power = {}, {0: one}
    full_degree = max(k_max * deg_g, budget.degree)
    n, w = g.nvars, max(full_degree, deg_g).bit_length()
    gs, lim = _pack(gs, n, w), (full_degree + 1) << w * n
    for k, a_k in weights.items():
        if a_k:
            for exps, c in power.items():
                _acc(acc, exps, c * a_k)
        if k < k_max:
            # powers are never truncated below their true degree, so every
            # overflow term is computed and folded into the tail soundly
            power = _dict_mul(power, gs, lim)
            if len(power) > 20000:
                raise BudgetExceeded("composition expansion too large for the budget")
    acc = _unpack(acc, n, w)
    if den is None:
        kept, folds = _fold(acc, budget.degree)
        kept = _with_tail_error(kept, floor_beyond)
    else:
        kept, folds = _finish_numerators(p, acc, den, budget.degree, floor_beyond)
    # a_k g^k for k > k_max has valuation >= (c_b + v(g))k + b_b at each
    # degree j <= k deg_g, and c_b + v(g) > 0 on the base domain: so the
    # piece (c_b/deg_g, b_b) bounds every unexpanded term, and a folded
    # valuation needs no cap at the floor
    pieces = []
    if floor_beyond is not INF and deg_g > 0:
        pieces.append((base.tail.slope / deg_g, base.tail.offset))
    tail = _merge_tail_pieces(budget.degree, pieces, folds)
    return RestrictedSeries(p, g.nvars, kept, tail=tail, domain=g.domain)


# ---------------------------------------------------------------------------
# parameterized series


class ParamSeries:
    """A series in X whose coefficients are series in parameters Y.

    The X-support is finite (polynomial in X over series coefficients);
    that is what every finite-generation verification below needs.
    """

    __slots__ = ("p", "nx", "nparams", "coeffs", "param_domain")

    def __init__(self, p, nx, nparams, coeffs, param_domain=None):
        self.p = p
        self.nx = nx
        self.nparams = nparams
        clean = {}
        for exps, s in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nx:
                raise ValueError("X-exponent length mismatch")
            if not isinstance(s, RestrictedSeries):
                s = RestrictedSeries.constant(p, s, nvars=nparams) if nparams else \
                    RestrictedSeries(p, 0, {(): s})
            if s.p != p or s.nvars != nparams:
                raise ValueError("coefficient series over the wrong parameter ring")
            if s.is_certified_zero():
                continue
            clean[exps] = s
        self.coeffs = clean
        if param_domain is None:
            param_domain = tuple(F(0) for _ in range(nparams))
        self.param_domain = tuple(param_domain)

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
        terms = {}
        for exps, s in self.coeffs.items():
            terms[exps] = evaluate(s, ys) if self.nparams else s.coeff(())
        return RestrictedSeries(self.p, self.nx, terms, domain=x_domain)

    def slice_at_zero(self, s: int, k: int) -> "ParamSeries":
        """(1/s!) d^s/dX_k^s at X_k = 0: keeps X_k-exponent == s terms."""
        coeffs = {}
        for exps, c in self.coeffs.items():
            if exps[k] != s:
                continue
            rest = exps[:k] + exps[k + 1:]
            coeffs[rest] = c
        return ParamSeries(self.p, self.nx - 1, self.nparams, coeffs, self.param_domain)

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
