"""JSON exchange formats: series, polytopes, tropical reports.

Every format carries a schema_version field and round-trips bit-exactly;
rationals travel as "num/den" strings (plain integers allowed), +oo as
"inf".  Matching JSON-schema documents ship under data/.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from .errors import FormatError
from .padic import INF, PadicScaled
from .polyhedra import QPolyhedron
from .series import RestrictedSeries, TailBound

F = Fraction

SCHEMA_VERSION = 1


def frac_str(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    try:
        if isinstance(s, int):
            return F(s)
        if "/" in s:
            num, den = s.split("/")
            return F(int(num), int(den))
        return F(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


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
        return PadicScaled.approx(p, parse_frac(obj["val"]), int(obj["unit"]), int(obj["prec"]))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad coefficient {obj!r}") from exc


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
        p = int(obj["prime"])
        if not is_prime(p):
            raise ValueError(f"prime {p} is not a prime")
        nvars = int(obj["nvars"])
        domain = tuple(
            None if r is None else parse_frac(r) for r in obj["domain"]
        )
        terms = {}
        for item in obj["terms"]:
            exps = tuple(int(e) for e in item["exps"])
            terms[exps] = _coeff_from_json(p, item["coeff"])
        t = obj["tail"]
        offset = INF if t["offset"] == "inf" else parse_frac(t["offset"])
        tail = TailBound(int(t["cutoff"]), parse_frac(t["slope"]), offset)
        return RestrictedSeries(p, nvars, terms, tail=tail, domain=domain)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed series document: {exc}") from exc


def polytope_to_dict(poly: QPolyhedron) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": poly.ambient,
        "vertices": [[frac_str(x) for x in v] for v in poly.vertices],
        "rays": [list(r) for r in poly.rays],
        "lines": [list(l) for l in poly.lines],
    }


def polytope_from_dict(obj) -> QPolyhedron:
    try:
        dim = int(obj["dim"])
        vertices = [tuple(parse_frac(x) for x in v) for v in obj["vertices"]]
        rays = [tuple(int(x) for x in r) for r in obj.get("rays", [])]
        lines = [tuple(int(x) for x in l) for l in obj.get("lines", [])]
        for v in vertices:
            if len(v) != dim:
                raise ValueError("vertex dimension mismatch")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed polytope document: {exc}") from exc
    if not vertices:
        raise FormatError("polytope needs at least one vertex")
    return QPolyhedron.from_points(vertices, rays=rays, lines=lines)


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
    for k, nc in enumerate(data.newton_cells):
        newton.append(
            {
                "index": k,
                "dim": nc.dim(),
                "vertices": [[frac_str(x) for x in v] for v in nc.poly.vertices],
            }
        )
    support = None
    if data.newton_support is not None:
        support = {
            "vertices": [
                [frac_str(x) for x in v] for v in data.newton_support.vertices
            ]
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "prime": data.series.p,
        "nvars": data.series.nvars,
        "domain": [None if r is None else frac_str(r) for r in data.domain],
        "cells": cells,
        "newton_cells": newton,
        "newton_support": support,
    }


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_atomic(path: str, content: str):
    """Write via a same-directory temp file and an atomic replace."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-troppadic-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
