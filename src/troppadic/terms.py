"""The term language: ASTs over +, *, integer constants and registered
function symbols, with derivative rewriting and series realization.

Symbols carry a base series builder and a derivative rule that rewrites to
another term over the same symbols, so the language is closed under
derivation by construction; a symbol without a rule raises
NotClosedUnderDerivation when differentiated.

The normal form is an invariant of construction: derivation and
substitution build through `_mul` and `_add`, which take and return normal
forms; `simplify` is one bottom-up pass through them for trees built
elsewhere.  Each node computes its sort key once, when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
import operator
from functools import cached_property, reduce

from .errors import BudgetExceeded, FormatError, NotClosedUnderDerivation
from .series import Budget, RestrictedSeries, TailBound, compose_univariate

F = Fraction

MAX_EXPONENT = 256  # the largest '^' exponent: a power parses as that many factors
MAX_LEAVES = 1024  # the most leaves of a parsed term, written or built by powers
MAX_LITERAL_DIGITS = 4300  # CPython's default limit on int() of a digit string
MAX_NESTING = 100  # the deepest nest of parentheses, unary minuses and call arguments
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS


# ---------------------------------------------------------------------------
# AST


class _Node:
    """Base of the term nodes: `key` is the sort key that orders terms, and
    each node computes it once, when it is first read."""

    @cached_property
    def key(self):
        # the nested key (tag, payload, (child key, ...)) flattened to
        # (tag, payload, 1, child key..., 1, child key..., 0): keys compare
        # in the nested order without recursing
        if isinstance(self, Const):
            return (0, self.value)
        if isinstance(self, Var):
            return (1, self.index)
        out = [2, self.symbol] if isinstance(self, App) else [3 if isinstance(self, Mul) else 4]
        for a in self.args:
            out.append(1)
            out += a.key
        out.append(0)
        return tuple(out)


@dataclass(frozen=True)
class Var(_Node):
    index: int


@dataclass(frozen=True)
class Const(_Node):
    value: int


@dataclass(frozen=True)
class Add(_Node):
    args: tuple


@dataclass(frozen=True)
class Mul(_Node):
    args: tuple


@dataclass(frozen=True)
class App(_Node):
    symbol: str
    args: tuple


Term = object
_KEY = operator.attrgetter("key")


def _fold(value: int) -> int:
    """A folded integer constant, refused past MAX_LITERAL_DIGITS digits."""
    if abs(value) >= _LITERAL_BOUND:
        raise FormatError(f"a folded constant exceeds {MAX_LITERAL_DIGITS} digits")
    return value


def _mul(args) -> Term:
    """The normal form of the product of normal-form terms: flat, with the
    folded constant first and the other factors sorted by key."""
    coeff = 1
    factors = []
    for a in args:
        for b in a.args if isinstance(a, Mul) else (a,):
            if isinstance(b, Const):
                coeff = _fold(coeff * b.value)
            else:
                factors.append(b)
    if coeff == 0:
        return Const(0)
    factors.sort(key=_KEY)
    if coeff != 1 or not factors:
        factors.insert(0, Const(coeff))
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


def _add(args) -> Term:
    """The normal form of the sum of normal-form terms: flat, with the
    folded constant first and equal summands collected, sorted by key."""
    const = 0
    counts = {}
    reps = {}
    for a in args:
        for b in a.args if isinstance(a, Add) else (a,):
            if isinstance(b, Const):
                const = _fold(const + b.value)
                continue
            c, core = 1, b
            if isinstance(b, Mul) and isinstance(b.args[0], Const):
                c, rest = b.args[0].value, b.args[1:]
                core = rest[0] if len(rest) == 1 else Mul(rest)
            k = core.key
            counts[k] = counts.get(k, 0) + c
            reps[k] = core
    out = [
        reps[k] if counts[k] == 1 else _mul((Const(counts[k]), reps[k]))
        for k in sorted(counts)
        if counts[k] != 0
    ]
    if const != 0 or not out:
        out.insert(0, Const(const))
    return out[0] if len(out) == 1 else Add(tuple(out))


def subst_vars(t: Term, mapping) -> Term:
    """The normal form of t with Var(i) replaced by mapping[i], a term in
    normal form; a mapping of None replaces nothing."""
    if isinstance(t, Var):
        return t if mapping is None else mapping[t.index]
    if isinstance(t, Const):
        return t
    args = tuple(subst_vars(a, mapping) for a in t.args)
    if isinstance(t, App):
        return App(t.symbol, args)
    return _mul(args) if isinstance(t, Mul) else _add(args)


def simplify(t: Term) -> Term:
    """Conservative syntactic normal form: flatten, fold integer constants,
    collect equal summands; no analytic identities.  One bottom-up pass
    through the constructors, for terms built elsewhere.  A folded constant
    of more than MAX_LITERAL_DIGITS digits raises FormatError."""
    return subst_vars(t, None)


# ---------------------------------------------------------------------------
# function symbols


@dataclass(frozen=True)
class FunctionSymbol:
    """A named restricted-analytic symbol with its derivative rewrite."""

    name: str
    arity: int
    build: object  # (p, Budget) -> RestrictedSeries in `arity` variables
    derivative_rule: object = None  # (args, k) -> Term, d(sym)/d(arg_k)


def _exp_p_build(p: int, budget: Budget) -> RestrictedSeries:
    mult = 4 if p == 2 else p
    terms = {(k,): F(mult) ** k / math.factorial(k) for k in range(budget.degree + 1)}
    if p == 2:
        tail = TailBound(budget.degree, F(1), F(1))
    else:
        tail = TailBound(budget.degree, F(p - 2, p - 1), F(1, p - 1))
    return RestrictedSeries(p, 1, terms, tail=tail)


@dataclass(frozen=True)
class _EpRule:
    """d Ep(u)/du = mult*Ep(u).  A value, so the symbols of two default
    registries at one p are equal and key a context's compositions alike."""

    mult: int

    def __call__(self, args, k):
        return Mul((Const(self.mult), App("Ep", args)))


def default_registry(p: int):
    """The bundled symbol family: Ep(x) = exp(p*x) (exp(4x) at p = 2)."""
    return {"Ep": FunctionSymbol("Ep", 1, _exp_p_build, _EpRule(4 if p == 2 else p))}


# ---------------------------------------------------------------------------
# derivation


def derive_term(t: Term, var: int, order: int = 1, registry=None) -> Term:
    """A term whose realization is the order-th partial derivative: the
    derivative of simplify(t), in normal form.  It stops once it is zero."""
    if registry is None:
        registry = {}
    out = simplify(t)
    for _ in range(order):
        if out == Const(0):
            break
        out = _derive1(out, var, registry)
    return out


def _derive1(t, var, registry):
    """The derivative of a normal-form term, built in normal form."""
    if isinstance(t, Var):
        return Const(1 if t.index == var else 0)
    if isinstance(t, Const):
        return Const(0)
    if isinstance(t, Add):
        return _add(_derive1(a, var, registry) for a in t.args)
    if isinstance(t, Mul):
        # generators: _add holds one product-rule term at a time
        return _add(
            _mul(t.args[:k] + (dk,) + t.args[k + 1:])
            for k, dk in enumerate(_derive1(a, var, registry) for a in t.args)
            if dk != Const(0)
        )
    if isinstance(t, App):
        sym = registry.get(t.symbol)
        if sym is None or sym.derivative_rule is None:
            raise NotClosedUnderDerivation(t.symbol)
        return _add(
            _mul((simplify(sym.derivative_rule(t.args, k)), _derive1(arg, var, registry)))
            for k, arg in enumerate(t.args)
        )
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# realization


@dataclass(frozen=True)
class RealizeContext:
    """Where terms are realized.  A context composes each symbol
    application once and hands the same series to every later occurrence,
    so a term and its partials share their Ep(g): realized series are
    shared values, never to be edited in place."""

    p: int
    nvars: int
    budget: Budget
    domain: tuple = None
    registry: dict = None
    # (symbol, App key) -> series: the symbol object keys it, so an edited
    # registry never returns a stale series
    _apps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def symbols(self):
        return self.registry if self.registry is not None else default_registry(self.p)


def realize(t: Term, ctx: RealizeContext) -> RestrictedSeries:
    """The series a term denotes, certified to the context budget."""
    p, n = ctx.p, ctx.nvars
    dom = ctx.domain if ctx.domain is not None else tuple(F(0) for _ in range(n))
    if isinstance(t, Const):
        return RestrictedSeries.constant(p, t.value, nvars=n, domain=dom)
    if isinstance(t, Var):
        if not 0 <= t.index < n:
            raise ValueError(f"variable index {t.index} out of range")
        return RestrictedSeries.variable(p, t.index, n, domain=dom)
    if isinstance(t, (Add, Mul)):
        op = operator.add if isinstance(t, Add) else operator.mul
        return reduce(op, (realize(a, ctx) for a in t.args))
    if isinstance(t, App):
        sym = ctx.symbols().get(t.symbol)
        if sym is None:
            raise FormatError(f"unknown symbol {t.symbol!r}")
        if len(t.args) != sym.arity:
            raise FormatError(f"{t.symbol} expects {sym.arity} arguments")
        if sym.arity != 1:
            raise BudgetExceeded("only unary symbols are realizable")
        key = (sym, t.key)
        out = ctx._apps.get(key)
        if out is None:
            base = sym.build(p, ctx.budget)
            out = ctx._apps[key] = compose_univariate(base, realize(t.args[0], ctx), ctx.budget)
        return out
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# parsing and printing


def parse_term(text: str, registry=None):
    """Parse infix syntax (+, -, *, ^, integer literals, symbol calls).

    Returns (term, var_names).  Unknown identifiers become variables, with
    indices in alphabetical order.  A chain of + and - parses to one Add, a
    chain of * to one Mul, and a nest of parentheses, unary minuses and call
    arguments deeper than MAX_NESTING raises FormatError, so no term is
    deeper than its nesting.
    A term of more than MAX_LEAVES leaves (constants and variables, the -1
    of each minus and the copies a power makes among them) raises
    FormatError as soon as the count passes the limit.
    """
    if registry is None:
        registry = default_registry(2)
    toks = _tokenize(text)
    names = sorted({tok[1] for tok in toks if tok[0] == "name" and tok[1] not in registry})
    index = {nm: i for i, nm in enumerate(names)}
    pos = 0
    leaves = 0  # leaves of the raw tree parsed so far
    depth = 0  # open parentheses, unary minuses and call argument lists

    def peek():
        return toks[pos] if pos < len(toks) else ("end", "")

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if kind and tok[0] != kind:
            raise FormatError(f"expected {kind}, found {tok[1]!r} at token {pos}")
        pos += 1
        return tok

    def count(n):
        nonlocal leaves
        leaves += n
        if leaves > MAX_LEAVES:
            raise FormatError(f"term of {leaves} leaves, above the limit {MAX_LEAVES}")

    def nested(parse):
        nonlocal depth
        depth += 1
        if depth > MAX_NESTING:
            raise FormatError(f"term nested deeper than the limit {MAX_NESTING}")
        node = parse()
        depth -= 1
        return node

    def parse_expr():
        args = [parse_mul()]
        while peek()[0] in ("+", "-"):
            op = take()[0]
            if op == "-":
                count(1)
            rhs = parse_mul()
            args.append(Mul((Const(-1), rhs)) if op == "-" else rhs)
        return args[0] if len(args) == 1 else Add(tuple(args))

    def parse_mul():
        args = [parse_pow()]
        while peek()[0] == "*":
            take()
            args.append(parse_pow())
        return args[0] if len(args) == 1 else Mul(tuple(args))

    def parse_pow():
        before = leaves
        node = parse_atom()
        if peek()[0] == "^":
            take()
            e = take("int")[1]
            if e < 0:
                raise FormatError("negative powers are not terms")
            if e > MAX_EXPONENT:
                raise FormatError(f"exponent {e} is above the limit {MAX_EXPONENT}")
            base = leaves - before
            count((e - 1) * base if e else 1 - base)
            node = _power(node, e)
        return node

    def parse_atom():
        tok = peek()
        if tok[0] == "int":
            take()
            count(1)
            return Const(tok[1])
        if tok[0] == "-":
            take()
            count(1)
            return Mul((Const(-1), nested(parse_atom)))
        if tok[0] == "(":
            take()
            node = nested(parse_expr)
            take(")")
            return node
        if tok[0] == "name":
            take()
            name = tok[1]
            if name in registry:
                take("(")
                args = [nested(parse_expr)]
                while peek()[0] == ",":
                    take()
                    args.append(nested(parse_expr))
                take(")")
                if len(args) != registry[name].arity:
                    raise FormatError(
                        f"{name} expects {registry[name].arity} arguments, got {len(args)}"
                    )
                return App(name, tuple(args))
            count(1)
            return Var(index[name])
        raise FormatError(f"unexpected token {tok[1]!r}")

    node = parse_expr()
    if peek()[0] != "end":
        raise FormatError(f"trailing input at token {pos}")
    return simplify(node), names


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise FormatError(
                    f"integer literal of {j - i} digits, above the limit {MAX_LITERAL_DIGITS}"
                )
            toks.append(("int", int(text[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        elif c in "+-*^(),":
            toks.append((c, c))
            i += 1
        else:
            raise FormatError(f"bad character {c!r} in term")
    return toks


def print_term(t: Term, var_names) -> str:
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, Var):
        return var_names[t.index]
    if isinstance(t, App):
        inner = ", ".join(print_term(a, var_names) for a in t.args)
        return f"{t.symbol}({inner})"
    if isinstance(t, Mul):
        return "*".join(_wrap(a, var_names) for a in t.args)
    return " + ".join(print_term(a, var_names) for a in t.args)


def _wrap(t, var_names):
    s = print_term(t, var_names)
    return f"({s})" if isinstance(t, Add) else s


def _power(base: Term, e: int) -> Term:
    if e == 0:
        return Const(1)
    if e == 1:
        return base
    return Mul(tuple([base] * e))
