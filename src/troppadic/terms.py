"""The term language: ASTs over +, *, integer constants and registered
function symbols, with derivative rewriting and series realization.

Symbols carry a base series builder and a derivative rule that rewrites to
another term over the same symbols, so the language is closed under
derivation by construction; a symbol without a rule raises
NotClosedUnderDerivation when differentiated.

Defining systems (the Vandermonde-style systems pinning division
coefficients, and the distinctness-augmented root systems) are emitted as
plain equation terms over a named unknown space, so one evaluator checks
all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, FormatError, NotClosedUnderDerivation
from .padic import PadicScaled
from .series import (
    Budget,
    RestrictedSeries,
    TailBound,
    compose_univariate,
    evaluate,
)

F = Fraction

MAX_EXPONENT = 256  # the largest '^' exponent: a power parses as that many factors
MAX_POWER_LEAVES = 1024  # the most leaves the powers of one term build, in all
MAX_LITERAL_DIGITS = 4300  # CPython's default limit on int() of a digit string
MAX_NESTING = 100  # the deepest nest of parentheses, unary minuses and call arguments
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Add:
    args: tuple


@dataclass(frozen=True)
class Mul:
    args: tuple


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple


Term = object


def _key(t):
    if isinstance(t, Const):
        return (0, t.value)
    if isinstance(t, Var):
        return (1, t.index)
    if isinstance(t, App):
        return (2, t.symbol, tuple(_key(a) for a in t.args))
    if isinstance(t, Mul):
        return (3, tuple(_key(a) for a in t.args))
    return (4, tuple(_key(a) for a in t.args))


def _fold(value: int) -> int:
    """A folded integer constant, refused past MAX_LITERAL_DIGITS digits."""
    if abs(value) >= _LITERAL_BOUND:
        raise FormatError(f"a folded constant exceeds {MAX_LITERAL_DIGITS} digits")
    return value


def simplify(t: Term) -> Term:
    """Conservative syntactic normal form: flatten, fold integer constants,
    collect equal summands; no analytic identities.  A folded constant of
    more than MAX_LITERAL_DIGITS digits raises FormatError."""
    if isinstance(t, (Var, Const)):
        return t
    if isinstance(t, App):
        return App(t.symbol, tuple(simplify(a) for a in t.args))
    if isinstance(t, Mul):
        coeff = 1
        factors = []
        for a in (simplify(x) for x in t.args):
            for b in a.args if isinstance(a, Mul) else (a,):
                if isinstance(b, Const):
                    coeff = _fold(coeff * b.value)
                else:
                    factors.append(b)
        if coeff == 0:
            return Const(0)
        factors.sort(key=_key)
        if coeff != 1:
            factors = [Const(coeff)] + factors
        if not factors:
            return Const(1)
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))
    # Add
    const = 0
    counts = {}
    reps = {}
    for a in (simplify(x) for x in t.args):
        for b in a.args if isinstance(a, Add) else (a,):
            if isinstance(b, Const):
                const = _fold(const + b.value)
                continue
            c = 1
            core = b
            if isinstance(b, Mul) and isinstance(b.args[0], Const):
                c = b.args[0].value
                rest = b.args[1:]
                core = rest[0] if len(rest) == 1 else Mul(rest)
            k = _key(core)
            counts[k] = counts.get(k, 0) + c
            reps[k] = core
    out = []
    for k in sorted(counts):
        c = counts[k]
        if c == 0:
            continue
        out.append(reps[k] if c == 1 else simplify(Mul((Const(c), reps[k]))))
    if const != 0 or not out:
        out = [Const(const)] + out
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def subst_vars(t: Term, mapping) -> Term:
    """Replace Var(i) by mapping[i] (a term) everywhere."""
    if isinstance(t, Var):
        return mapping[t.index]
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(t.symbol, tuple(subst_vars(a, mapping) for a in t.args))
    cls = type(t)
    return cls(tuple(subst_vars(a, mapping) for a in t.args))


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


def default_registry(p: int):
    """The bundled symbol family: Ep(x) = exp(p*x) (exp(4x) at p = 2)."""
    mult = 4 if p == 2 else p

    def ep_rule(args, k):
        return Mul((Const(mult), App("Ep", args)))

    return {"Ep": FunctionSymbol("Ep", 1, _exp_p_build, ep_rule)}


# ---------------------------------------------------------------------------
# derivation


def derive_term(t: Term, var: int, order: int = 1, registry=None, p=None) -> Term:
    """A term whose realization is the order-th partial derivative."""
    if registry is None:
        registry = default_registry(p) if p is not None else {}
    out = t
    for _ in range(order):
        out = simplify(_derive1(out, var, registry))
    return out


def _derive1(t, var, registry):
    if isinstance(t, Var):
        return Const(1 if t.index == var else 0)
    if isinstance(t, Const):
        return Const(0)
    if isinstance(t, Add):
        return Add(tuple(_derive1(a, var, registry) for a in t.args))
    if isinstance(t, Mul):
        parts = []
        for k in range(len(t.args)):
            dk = _derive1(t.args[k], var, registry)
            parts.append(Mul(t.args[:k] + (dk,) + t.args[k + 1:]))
        return Add(tuple(parts))
    if isinstance(t, App):
        sym = registry.get(t.symbol)
        if sym is None or sym.derivative_rule is None:
            raise NotClosedUnderDerivation(t.symbol)
        parts = []
        for k, arg in enumerate(t.args):
            outer = sym.derivative_rule(t.args, k)
            inner = _derive1(arg, var, registry)
            parts.append(Mul((outer, inner)))
        return Add(tuple(parts))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# realization


@dataclass(frozen=True)
class RealizeContext:
    p: int
    nvars: int
    budget: Budget
    domain: tuple = None
    registry: dict = None

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
    if isinstance(t, Add):
        out = realize(t.args[0], ctx)
        for a in t.args[1:]:
            out = out + realize(a, ctx)
        return out
    if isinstance(t, Mul):
        out = realize(t.args[0], ctx)
        for a in t.args[1:]:
            out = out * realize(a, ctx)
        return out
    if isinstance(t, App):
        sym = ctx.symbols().get(t.symbol)
        if sym is None:
            raise FormatError(f"unknown symbol {t.symbol!r}")
        if len(t.args) != sym.arity:
            raise FormatError(f"{t.symbol} expects {sym.arity} arguments")
        base = sym.build(p, ctx.budget)
        if sym.arity == 1:
            arg = t.args[0]
            if isinstance(arg, Var):
                emb = base.embed(n, (arg.index,))
                return RestrictedSeries(p, n, emb.terms, tail=emb.tail, domain=dom)
            inner = realize(arg, ctx)
            return compose_univariate(base, inner, ctx.budget)
        raise BudgetExceeded("only unary symbols are realizable")
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# parsing and printing


def parse_term(text: str, var_names=None, registry=None, p=None):
    """Parse infix syntax (+, -, *, ^, integer literals, symbol calls).

    Returns (term, var_names).  Unknown identifiers become variables; when
    var_names is None they are assigned indices in alphabetical order.  A
    chain of + and - parses to one Add, a chain of * to one Mul, and a nest
    of parentheses, unary minuses and call arguments deeper than
    MAX_NESTING raises FormatError, so no term is deeper than its nesting.
    """
    if registry is None:
        registry = default_registry(p) if p is not None else default_registry(2)
    toks = _tokenize(text)
    if var_names is None:
        names = sorted(
            {
                tok[1]
                for tok in toks
                if tok[0] == "name" and tok[1] not in registry
            }
        )
    else:
        names = list(var_names)
    index = {nm: i for i, nm in enumerate(names)}
    pos = 0
    built = 0  # leaves built by the powers so far: e copies of the base each
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
        nonlocal built
        node = parse_atom()
        if peek()[0] == "^":
            take()
            e = take("int")[1]
            if e < 0:
                raise FormatError("negative powers are not terms")
            if e > MAX_EXPONENT:
                raise FormatError(f"exponent {e} is above the limit {MAX_EXPONENT}")
            built += e * _leaves(node)
            if built > MAX_POWER_LEAVES:
                raise FormatError(
                    f"powers build {built} leaves, above the limit {MAX_POWER_LEAVES}"
                )
            node = _power(node, e)
        return node

    def parse_atom():
        tok = peek()
        if tok[0] == "int":
            take()
            return Const(tok[1])
        if tok[0] == "-":
            take()
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
            if name not in index:
                raise FormatError(f"unknown variable {name!r}")
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


# ---------------------------------------------------------------------------
# defining systems


@dataclass(frozen=True)
class DefiningSystem:
    """Equations (terms that must vanish) over a named unknown space."""

    config: str
    var_names: tuple
    equations: tuple  # terms over Var-indices matching var_names
    rows: tuple = ()  # ((root_index, derivative_order), ...) matrix metadata

    @property
    def unknown_count(self):
        return len(self.var_names)

    def residuals(self, values, ctx: RealizeContext):
        """Evaluate every equation at the named point; zero means satisfied."""
        point = tuple(values[nm] for nm in self.var_names)
        dom = tuple(
            min(F(0), x.valuation()) if not x.is_zero() else F(0) for x in point
        )
        ectx = RealizeContext(ctx.p, len(point), ctx.budget, dom, ctx.registry)
        out = []
        for eq in self.equations:
            s = realize(eq, ectx)
            out.append(evaluate(s, point))
        return out


def _leaves(t: Term) -> int:
    """The constants and variables of a term, counted with repetition."""
    if isinstance(t, (Var, Const)):
        return 1
    return sum(_leaves(a) for a in t.args)


def _power(base: Term, e: int) -> Term:
    if e == 0:
        return Const(1)
    if e == 1:
        return base
    return Mul(tuple([base] * e))


def _inverse_equation(w: Term, a: Term, b: Term) -> Term:
    """w*(a - b) - 1: a != b, witnessed by the explicit inverse w."""
    return simplify(Add((Mul((w, Add((a, Mul((Const(-1), b)))))), Const(-1))))


def _partitions_desc(d):
    """Partitions of d ordered by decreasing largest part (reverse lex)."""

    def gen(n, maxpart):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    return list(gen(d, d))


def coefficient_defining_systems(f: Term, g: Term, d: int, nx: int, registry=None):
    """One system per multiplicity configuration of d roots.

    ``f`` and ``g`` are terms in nx+1 variables (the last one the division
    variable).  Unknown space: x_1..x_nx, alpha_1..alpha_r, A_0..A_{d-1}.
    Root blocks contribute vanishing derivatives of f; matrix rows are the
    derivative rows of Y^i against the matching derivatives of g.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    registry = registry if registry is not None else {}
    out = []
    yvar = nx
    for part in _partitions_desc(d):
        r = len(part)
        names = tuple(
            [f"x{i + 1}" for i in range(nx)]
            + [f"alpha{j + 1}" for j in range(r)]
            + [f"A{i}" for i in range(d)]
        )
        x_idx = list(range(nx))
        a_idx = [nx + j for j in range(r)]
        c_idx = [nx + r + i for i in range(d)]
        eqs = []
        rows = []
        for j, mult in enumerate(part):
            at_root = {i: Var(x_idx[i]) for i in range(nx)}
            at_root[yvar] = Var(a_idx[j])
            for t in range(mult):
                ft = derive_term(f, yvar, t, registry)
                eqs.append(simplify(subst_vars(ft, at_root)))
            for t in range(mult):
                # sum_i A_i * (i)_t * alpha^(i-t) = d^t g / dY^t (alpha)
                lhs = []
                for i in range(d):
                    c = math.perm(i, t)
                    if c == 0:
                        continue
                    lhs.append(
                        Mul((Const(c), Var(c_idx[i]), _power(Var(a_idx[j]), i - t)))
                    )
                gt = derive_term(g, yvar, t, registry)
                rhs = simplify(subst_vars(gt, at_root))
                eqs.append(simplify(Add(tuple(lhs) + (Mul((Const(-1), rhs)),))))
                rows.append((j, t))
        for j1 in range(r):
            for j2 in range(j1 + 1, r):
                # alpha_j1 != alpha_j2, witnessed by an explicit inverse
                names = names + (f"w{j1 + 1}{j2 + 1}",)
                eqs.append(_inverse_equation(Var(len(names) - 1), Var(a_idx[j1]), Var(a_idx[j2])))
        config = "multiplicities " + "+".join(str(m) for m in part)
        out.append(DefiningSystem(config, names, tuple(eqs), tuple(rows)))
    return out


def matrix_row_values(d: int, t: int, alpha: PadicScaled):
    """The derivative row ((i)_t alpha^(i-t))_{i<d} used by the systems."""
    row = []
    for i in range(d):
        c = math.perm(i, t)
        if c == 0:
            row.append(PadicScaled.zero(alpha.p))
        else:
            row.append(PadicScaled.exact(alpha.p, c) * alpha ** (i - t))
    return row


def distinctness_root_system(P: Term, f: Term, g: Term, s: int):
    """The augmented root system: s+1 root equations, the Vandermonde block,
    the P-equation, and one explicit-inverse distinctness equation per pair.

    ``f`` and ``g`` are terms in the variables (T, Z); ``P`` is a term in
    (Z, A_0..A_s).  Unknowns: z, t_0..t_s, a_0..a_s, t_ij for i<j.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    names = (
        ["z"]
        + [f"t{i}" for i in range(s + 1)]
        + [f"a{i}" for i in range(s + 1)]
        + [f"t{i}{j}" for i in range(s + 1) for j in range(i + 1, s + 1)]
    )
    z = Var(0)
    t_idx = [1 + i for i in range(s + 1)]
    a_idx = [2 + s + i for i in range(s + 1)]
    ij_base = 3 + 2 * s
    eqs = []
    for i in range(s + 1):
        eqs.append(simplify(subst_vars(f, {0: Var(t_idx[i]), 1: z})))
    for i in range(s + 1):
        lhs = [Mul((Var(a_idx[k]), _power(Var(t_idx[i]), k))) for k in range(s + 1)]
        rhs = subst_vars(g, {0: Var(t_idx[i]), 1: z})
        eqs.append(simplify(Add(tuple(lhs) + (Mul((Const(-1), rhs)),))))
    p_map = {0: z}
    for k in range(s + 1):
        p_map[1 + k] = Var(a_idx[k])
    eqs.append(simplify(subst_vars(P, p_map)))
    k = 0
    for i in range(s + 1):
        for j in range(i + 1, s + 1):
            eqs.append(_inverse_equation(Var(ij_base + k), Var(t_idx[i]), Var(t_idx[j])))
            k += 1
    return DefiningSystem(f"distinct-roots s={s}", tuple(names), tuple(eqs))
