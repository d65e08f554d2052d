"""Exact p-adic scaled arithmetic with explicit precision tracking.

A nonzero value is stored in one of two forms:

* exact: a nonzero rational ``r`` together with a fractional uniformizer
  offset ``shift`` in [0,1); the value is formally ``r * p**shift``.  Every
  digit of an exact value is recoverable at any precision, so integer
  literals stay exact through +, -, *, / and only genuinely approximate
  inputs introduce uncertainty.  ``shift`` is 0 except after valuation
  bookkeeping with fractional scalings (ramified uniformizer powers).
* approximate: unit digits ``u`` known modulo ``p**N`` at a certified
  valuation ``v`` (a rational); the value is ``u * p**v`` up to an error of
  valuation >= v + N.

Zero is a distinguished exact value of valuation +oo.  Values are
immutable and all operations are pure functions.

Every exact value is built by one normalizer, ``_exact``, which keeps two
invariants that the arithmetic relies on:

* zero is stored as the module constant ``_ZERO`` (a ``Fraction(0)``) with
  shift ``_ZERO``, so ``is_zero()`` is the identity test ``_r is _ZERO``;
* a shift of 0 is stored as that same ``_ZERO`` object, so the common case
  of two shift-0 operands is recognised by identity and skips the shift sum
  and the fold of its integer part.

Lemma (the sum rule of ``total``).  Group a list of values by valuation mod
1, and let F be the lowest absolute floor v + N of its approximate values
(+oo when every value is exact).  Values in distinct classes have distinct
valuations, so class sums never cancel one another.  Within a class, each
value is its representative (the exact rational, or u*p^v) up to an error
of valuation >= F, so the representatives add exactly modulo p^F.  Hence a
class whose representative sum reaches F leaves only F; the lowest class
below F has the valuation of the whole sum and certifies its digits below
the next class and below F; and when no class is below F, the sum is known
only to have valuation >= F.  The result is a function of the multiset of
values, so no sum depends on the order of its terms.
"""

from __future__ import annotations

from fractions import Fraction


class _Infinity:
    """The +oo valuation; absorbs addition, exceeds every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+Infinity"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("troppadic-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate +Infinity")


INF = _Infinity()  # a valuation is either a Fraction or INF

_ZERO = Fraction(0)  # the rational of exact zero and every shift of 0


def val_min(*vals):
    m = INF
    for v in vals:
        if v is INF:
            continue
        if m is INF or v < m:
            m = v
    return m


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is +Infinity")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(r: Fraction, p: int):
    if r == 0:
        return INF
    return Fraction(vp_int(r.numerator, p) - vp_int(r.denominator, p))


def _unit_digits_of_rational(r: Fraction, p: int, n_digits: int) -> int:
    """Digits of the unit part of a nonzero rational, modulo p**n_digits."""
    v = vp_fraction(r, p)
    num, den = r.numerator, r.denominator
    if v > 0:
        num //= p ** int(v)
    elif v < 0:
        den //= p ** int(-v)
    m = p ** n_digits
    return (num * pow(den, -1, m)) % m


from .errors import DivisionByZero, PrecisionExhausted  # noqa: E402


class PadicScaled:
    """A p-adic number as unit-times-p^v, exact or precision-tracked."""

    __slots__ = ("p", "_r", "_shift", "_v", "_u", "_N")

    def __init__(self, p, _r=None, _shift=None, _v=None, _u=None, _N=None):
        # Internal; use the exact()/approx()/zero() constructors.
        self.p = p
        self._r = _r
        self._shift = _shift
        self._v = _v
        self._u = _u
        self._N = _N

    # -- constructors ------------------------------------------------

    @classmethod
    def exact(cls, p: int, value, shift=_ZERO) -> "PadicScaled":
        """An exactly known rational value (times p**shift, shift in [0,1))."""
        if p < 2:
            raise ValueError("prime must be >= 2")
        if type(value) is not Fraction:
            value = Fraction(value)
        return _exact(p, value, shift if shift is _ZERO else Fraction(shift))

    @classmethod
    def zero(cls, p: int) -> "PadicScaled":
        return cls.exact(p, 0)

    @classmethod
    def approx(cls, p: int, v, unit: int, prec: int) -> "PadicScaled":
        """A value known to be unit*p^v + O(p^(v+prec)), prec >= 1 digits."""
        if prec < 1:
            raise PrecisionExhausted("cannot construct a value with no certified digit")
        if type(v) is not Fraction:
            v = Fraction(v)
        m = p ** prec
        u = unit % m
        if u % p == 0:
            raise ValueError("unit digits must be coprime to p")
        return cls(p, _v=v, _u=u, _N=prec)

    # -- basic queries -----------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._r is not None

    def is_zero(self) -> bool:
        return self._r is _ZERO

    def __bool__(self):
        return self._r is not _ZERO

    def valuation(self):
        """The valuation v(self); +Infinity for exact zero.  An exact value
        keeps it in the ``_v`` slot, which only approximate values set."""
        v = self._v
        if v is None:
            v = self._v = vp_fraction(self._r, self.p) + self._shift
        return v

    def precision(self):
        """Number of certified unit digits (+Infinity when exact)."""
        return INF if self.is_exact else self._N

    def rational_value(self) -> Fraction:
        """The exact rational value; only for exact values with shift 0."""
        if not self.is_exact or self._shift is not _ZERO:
            raise ValueError("not an exact rational value")
        return self._r

    def unit_digits(self, n_digits: int) -> int:
        """The unit part modulo p**n_digits."""
        if self.is_zero():
            raise ValueError("zero has no unit part")
        if self.is_exact:
            return _unit_digits_of_rational(self._r, self.p, n_digits)
        if n_digits > self._N:
            raise PrecisionExhausted(
                f"only {self._N} digits certified, {n_digits} requested",
                floor=self._v + self._N,
            )
        return self._u % self.p ** n_digits

    # -- arithmetic --------------------------------------------------

    def _check_same(self, other):
        if not isinstance(other, PadicScaled):
            raise TypeError("operands must be PadicScaled")
        if other.p != self.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def __neg__(self):
        if self.is_exact:
            return _exact(self.p, -self._r, self._shift)
        m = self.p ** self._N
        return PadicScaled(self.p, _v=self._v, _u=(-self._u) % m, _N=self._N)

    def __add__(self, other):
        self._check_same(other)
        if self._r is not None and other._r is not None:
            s = self._shift
            if s is other._shift or s == other._shift:
                return _exact(self.p, self._r + other._r, s)
        return total(self.p, [self, other])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same(other)
        p = self.p
        if self._r is _ZERO or other._r is _ZERO:
            return _exact(p, _ZERO, _ZERO)
        if self._r is not None and other._r is not None:
            s, t = self._shift, other._shift
            return _exact(p, self._r * other._r, s if t is _ZERO else s + t)
        n = min(self.precision(), other.precision())
        n = int(n)
        mod = p ** n
        u = (self.unit_digits(n) * other.unit_digits(n)) % mod
        return PadicScaled.approx(p, self.valuation() + other.valuation(), u, n)

    def __truediv__(self, other):
        self._check_same(other)
        p = self.p
        if other.is_zero():
            raise DivisionByZero("division by exact zero")
        if self._r is _ZERO:
            return _exact(p, _ZERO, _ZERO)
        if self._r is not None and other._r is not None:
            s, t = self._shift, other._shift
            return _exact(p, self._r / other._r, s if t is _ZERO else s - t)
        n = int(min(self.precision(), other.precision()))
        mod = p ** n
        u = (self.unit_digits(n) * pow(other.unit_digits(n), -1, mod)) % mod
        return PadicScaled.approx(p, self.valuation() - other.valuation(), u, n)

    def __pow__(self, k: int):
        if k < 0:
            return PadicScaled.exact(self.p, 1) / self ** (-k)
        out = PadicScaled.exact(self.p, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def shift_valuation(self, delta) -> "PadicScaled":
        """Multiply by a formal uniformizer power p**delta (delta rational)."""
        delta = Fraction(delta)
        if self.is_zero():
            return self
        if self.is_exact:
            return _exact(self.p, self._r, self._shift + delta)
        return PadicScaled.approx(self.p, self._v + delta, self._u, self._N)

    # -- comparisons and helpers -------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PadicScaled) or other.p != self.p:
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self._r == other._r and self._shift == other._shift
        if self.is_exact or other.is_exact:
            return False
        return (self._v, self._u, self._N) == (other._v, other._u, other._N)

    def __hash__(self):
        if self.is_exact:
            return hash((self.p, self._r, self._shift))
        return hash((self.p, self._v, self._u, self._N))

    def __repr__(self):
        if self.is_zero():
            return f"PadicScaled(0; p={self.p})"
        if self.is_exact:
            s = f"*{self.p}^{self._shift}" if self._shift else ""
            return f"PadicScaled({self._r}{s}; p={self.p})"
        return f"PadicScaled({self._u}*{self.p}^{self._v} + O({self.p}^{self._v + self._N}))"


def _exact(p, r, shift):
    """The canonical exact value r * p**shift (r, shift Fractions; p >= 2)."""
    if not r:
        return PadicScaled(p, _r=_ZERO, _shift=_ZERO)
    if shift is not _ZERO:
        # fold the integer part of the shift into the rational
        k = shift.numerator // shift.denominator
        if k:
            r *= Fraction(p) ** k
            shift -= k
        if not shift:
            shift = _ZERO
    return PadicScaled(p, _r=r, _shift=shift)


def total(p, values):
    """The certified sum of a list of values at the prime p, a function of
    their multiset (the sum rule of the module docstring); exact zero for
    an empty list.  Raises PrecisionExhausted, with the floor, when no digit
    of the sum is certified."""
    if len(values) == 1:
        return values[0]
    acc = None  # values exact at one shift add exactly, in any order
    for x in values:
        if x._r is None or acc is not None and x._shift != acc._shift:
            break
        acc = x if acc is None else acc + x
    else:
        return _exact(p, _ZERO, _ZERO) if acc is None else acc
    classes, floor = {}, INF  # valuation mod 1 -> exact sum of representatives
    for x in values:
        if x._r is None:
            v = x._v
            k = v.numerator // v.denominator
            key = 0 if v.denominator == 1 else v - k
            r = x._u * p**k if k >= 0 else Fraction(x._u, p**-k)
            if floor is INF or v + x._N < floor:
                floor = v + x._N
        elif x._r is _ZERO:
            continue
        else:
            key, r = (0 if x._shift is _ZERO else x._shift), x._r
        classes[key] = classes.get(key, 0) + r
    # distinct classes have distinct valuations, so no tie is ever compared
    sums = sorted((vp_fraction(r, p) + s, s, r) for s, r in classes.items() if r)
    if not sums or sums[0][0] >= floor:
        if floor is INF:
            return _exact(p, _ZERO, _ZERO)
        raise PrecisionExhausted("cancellation below certified precision", floor=floor)
    w, s, r = sums[0]
    top = val_min(floor, *(t[0] for t in sums[1:2]))
    if top is INF:
        return _exact(p, r, s or _ZERO)
    n = int(top - w)
    if n < 1:
        raise PrecisionExhausted("no certified digit at incommensurable valuations", floor=w)
    return PadicScaled(p, _v=w, _u=_unit_digits_of_rational(r, p, n), _N=n)
