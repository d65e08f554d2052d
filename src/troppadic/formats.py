"""JSON exchange formats: series, polytopes, tropical reports.

Every format carries a schema_version field and round-trips bit-exactly;
rationals travel as "num/den" strings (plain integers allowed), +oo as
"inf".  Matching JSON-schema documents ship under data/.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import tempfile
from fractions import Fraction

from .errors import FormatError, Unbounded
from .padic import INF, PadicScaled
from .polyhedra import QPolyhedron
from .series import RestrictedSeries, TailBound

F = Fraction

SCHEMA_VERSION = 1


def frac_str(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the schemas' rational pattern


def parse_frac(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return F(s)
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise FormatError(f"bad rational {s!r}")
    num, _, den = s.partition("/")
    try:
        return F(int(num), int(den or 1))
    except ZeroDivisionError as exc:
        raise FormatError(f"bad rational {s!r}") from exc


def _int(x, what, minimum=None) -> int:
    """An integer field: a JSON integer (never a float, bool or string),
    at least ``minimum`` when one is given."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    if minimum is not None and x < minimum:
        raise ValueError(f"{what} must be at least {minimum}, not {x}")
    return x


def _check_version(obj):
    if _int(obj["schema_version"], "schema_version") != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}")


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _coeff_to_json(c: PadicScaled):
    if c.is_exact:
        if c._shift == 0:
            r = c.rational_value()
            if r.denominator == 1:
                return str(r.numerator)
            return frac_str(r)
        return {"rational": frac_str(c._r), "shift": frac_str(c._shift)}
    return {"unit": c._u, "val": frac_str(c._v), "prec": c._N}


def _coeff_from_json(p, obj) -> PadicScaled:
    if isinstance(obj, str):
        return PadicScaled.exact(p, parse_frac(obj))
    if not isinstance(obj, dict):
        raise FormatError(f"bad coefficient {obj!r}")
    if "rational" in obj:
        return PadicScaled.exact(p, parse_frac(obj["rational"]), parse_frac(obj["shift"]))
    try:
        return PadicScaled.approx(
            p, parse_frac(obj["val"]), _int(obj["unit"], "unit"), _int(obj["prec"], "prec", 1)
        )
    except KeyError as exc:
        raise FormatError(f"bad coefficient {obj!r}: missing {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"bad coefficient {obj!r}: {exc}") from exc


def series_to_dict(f: RestrictedSeries) -> dict:
    terms = [
        {"exps": list(exps), "coeff": _coeff_to_json(c)}
        for exps, c in sorted(f.terms.items())
    ]
    tail = {
        "cutoff": f.tail.cutoff,
        "slope": frac_str(f.tail.slope),
        "offset": "inf" if f.tail.is_empty else frac_str(f.tail.offset),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "prime": f.p,
        "nvars": f.nvars,
        "domain": [None if r is None else frac_str(r) for r in f.domain],
        "terms": terms,
        "tail": tail,
    }


def series_from_dict(obj) -> RestrictedSeries:
    try:
        _check_version(obj)
        p = _int(obj["prime"], "prime")
        if not is_prime(p):
            raise ValueError(f"prime {p} is not a prime")
        nvars = _int(obj["nvars"], "nvars", 0)
        domain = tuple(
            None if r is None else parse_frac(r) for r in obj["domain"]
        )
        terms = {}
        for item in obj["terms"]:
            exps = tuple(_int(e, "exponent", 0) for e in item["exps"])
            if exps in terms:
                raise ValueError(f"exponent vector {list(exps)} listed twice")
            terms[exps] = _coeff_from_json(p, item["coeff"])
        t = obj["tail"]
        offset = INF if t["offset"] == "inf" else parse_frac(t["offset"])
        tail = TailBound(_int(t["cutoff"], "cutoff", 0), parse_frac(t["slope"]), offset)
        return RestrictedSeries(p, nvars, terms, tail=tail, domain=domain)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed series document: {exc}") from exc


def polytope_from_dict(obj) -> QPolyhedron:
    """The hull of a polytope document's vertices.  Its rays and lines are
    checked like the rest, then a nonzero one is refused: every reader of a
    polytope needs it bounded."""
    try:
        _check_version(obj)
        dim = _int(obj["dim"], "dim", 1)
        vertices = [tuple(parse_frac(x) for x in v) for v in obj["vertices"]]
        rays = [tuple(_int(x, "ray entry") for x in r) for r in obj.get("rays", [])]
        lines = [tuple(_int(x, "line entry") for x in l) for l in obj.get("lines", [])]
        for v in vertices + rays + lines:
            if len(v) != dim:
                raise ValueError("point or direction dimension mismatch")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed polytope document: {exc}") from exc
    if not vertices:
        raise FormatError("polytope needs at least one vertex")
    if any(any(d) for d in rays + lines):  # a zero direction adds nothing
        raise Unbounded("mixed volume needs bounded polytopes")
    return QPolyhedron.from_points(vertices)


def trop_data_to_dict(data) -> dict:
    cells = []
    for k, c in enumerate(data.cells):
        cells.append(
            {
                "index": k,
                "witness": [frac_str(x) for x in c.witness],
                "vert": [
                    {"exps": list(i), "val": frac_str(v)}
                    for i, v in sorted(c.vert)
                ],
                "dim": c.dim(),
                "vertices": [[frac_str(x) for x in v] for v in c.cell.vertices],
                "rays": [list(r) for r in c.cell.rays],
                "lines": [list(l) for l in c.cell.lines],
            }
        )
    newton = []
    for k, c in enumerate(data.cells):
        nc = c.newton()
        newton.append(
            {
                "index": k,
                "dim": nc.affine_dim(),
                "vertices": [[frac_str(x) for x in v] for v in nc.vertices],
            }
        )
    support = data.newton_support()
    if support is not None:
        support = {"vertices": [[frac_str(x) for x in v] for v in support.vertices]}
    return {
        "schema_version": SCHEMA_VERSION,
        "prime": data.series.p,
        "nvars": data.series.nvars,
        "domain": [None if r is None else frac_str(r) for r in data.series.domain],
        "cells": cells,
        "newton_cells": newton,
        "newton_support": support,
    }


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_atomic(path: str, content: str):
    """Write via a same-directory temp file and an atomic replace; a path
    that cannot be written raises FormatError and leaves no temp file."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-troppadic-")
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise FormatError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
