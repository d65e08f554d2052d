"""The paper's defining systems of Weierstrass data (division coefficients
and distinct roots), as equation terms over a named unknown space, so one
evaluator checks all of them.  Used by tests only."""

import math
from dataclasses import dataclass
from fractions import Fraction

from troppadic.padic import PadicScaled
from troppadic.series import evaluate
from troppadic.terms import Const, RealizeContext, Term, Var, derive_term, realize, subst_vars
from troppadic.terms import _add, _mul, _power

F = Fraction


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
        dom = tuple(F(0) if x.is_zero() else min(F(0), x.valuation()) for x in point)
        ectx = RealizeContext(ctx.p, len(point), ctx.budget, dom, ctx.registry)
        return [evaluate(realize(eq, ectx), point) for eq in self.equations]


def _inverse_equation(w: Term, a: Term, b: Term) -> Term:
    """w*(a - b) - 1: a != b, witnessed by the explicit inverse w."""
    return _add((_mul((w, _add((a, _mul((Const(-1), b)))))), Const(-1)))


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
                eqs.append(subst_vars(ft, at_root))
            for t in range(mult):
                # sum_i A_i * (i)_t * alpha^(i-t) = d^t g / dY^t (alpha)
                lhs = []
                for i in range(d):
                    c = math.perm(i, t)
                    if c == 0:
                        continue
                    lhs.append(
                        _mul((Const(c), Var(c_idx[i]), _power(Var(a_idx[j]), i - t)))
                    )
                gt = derive_term(g, yvar, t, registry)
                rhs = subst_vars(gt, at_root)
                eqs.append(_add(lhs + [_mul((Const(-1), rhs))]))
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
        eqs.append(subst_vars(f, {0: Var(t_idx[i]), 1: z}))
    for i in range(s + 1):
        lhs = [_mul((Var(a_idx[k]), _power(Var(t_idx[i]), k))) for k in range(s + 1)]
        rhs = subst_vars(g, {0: Var(t_idx[i]), 1: z})
        eqs.append(_add(lhs + [_mul((Const(-1), rhs))]))
    p_map = {0: z}
    for k in range(s + 1):
        p_map[1 + k] = Var(a_idx[k])
    eqs.append(subst_vars(P, p_map))
    k = 0
    for i in range(s + 1):
        for j in range(i + 1, s + 1):
            eqs.append(_inverse_equation(Var(ij_base + k), Var(t_idx[i]), Var(t_idx[j])))
            k += 1
    return DefiningSystem(f"distinct-roots s={s}", tuple(names), tuple(eqs))
