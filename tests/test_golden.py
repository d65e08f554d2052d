"""Golden outputs: the SHA-256 of every bundled command's output bytes, and
of the JSON of series that no command prints (realized `Ep` terms and
their derivatives, a Weierstrass division at a larger budget).

The manifest `golden_sha256.json` records the hashes.  A change that is
meant to keep every output the same keeps this test green; a change that
alters an output on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

and says which entries moved and why.
"""

import hashlib
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from troppadic import terms
from troppadic.cli import main
from troppadic.formats import dump_json, series_to_dict
from troppadic.series import Budget, RestrictedSeries, weierstrass_divide

MANIFEST = Path(__file__).with_name("golden_sha256.json")
FIXTURES = Path(__file__).with_name("data")
DOMAINS = [None, "0,0", "-1,none", "1/2,-1/3", "none,1"]


def data_path(name):
    return str(resources.files("troppadic") / "data" / name)


def golden_commands():
    """{name: (argv, names of the files it writes)}; the argv's {out} and
    {svg} are output paths."""
    cmds = {}
    for name in ("fig1_p5", "line_a", "line_b"):
        for dom in DOMAINS:
            argv = ["trop", data_path(f"{name}.series"), "-o", "{out}", "--svg", "{svg}"]
            if dom is not None:
                argv += ["--domain", dom]
            cmds[f"trop {name} domain={dom}"] = (argv, ("out", "svg"))
    for dom in (None, "0", "-1", "none"):
        argv = ["trop", data_path("strassmann_5x_x5.series"), "-o", "{out}"]
        if dom is not None:
            argv += ["--domain", dom]
        cmds[f"trop strassmann_5x_x5 domain={dom}"] = (argv, ("out",))
    # a support on a line and one in a plane: cells with lines, except
    # where the clip normals span the rest
    for name, doms, outputs in (
        ("diagonal_2v", (None, "0,none"), ("out", "svg")),
        ("plane_3v", (None,), ("out",)),
    ):
        for dom in doms:
            argv = ["trop", str(FIXTURES / f"{name}.series"), "-o", "{out}"]
            if "svg" in outputs:
                argv += ["--svg", "{svg}"]
            if dom is not None:
                argv += ["--domain", dom]
            cmds[f"trop {name} domain={dom}"] = (argv, outputs)
    cmds["strassmann strassmann_5x_x5"] = (
        ["strassmann", data_path("strassmann_5x_x5.series"), "-o", "{out}"],
        ("out",),
    )
    cmds["wdiv wdiv_divisor wdiv_dividend"] = (
        ["wdiv", data_path("wdiv_divisor.series"), data_path("wdiv_dividend.series"), "-o", "{out}"],
        ("out",),
    )
    cmds["bound-system line_a line_b seed 42"] = (
        ["bound-system", data_path("line_a.series"), data_path("line_b.series"),
         "--seed", "42", "-o", "{out}"],
        ("out",),
    )
    # integer polytopes, denominators 2 and 3 in one sum, and a 3-D set
    for names in (
        ("int_pentagon", "int_triangle"),
        ("half_quad", "third_triangle"),
        ("box_3d", "half_simplex_3d", "third_octahedron_3d"),
    ):
        for norm in ("coefficient", "normalized"):
            argv = ["mixed-volume", *(str(FIXTURES / f"{n}.polytope") for n in names)]
            argv += ["--normalization", norm, "-o", "{out}"]
            cmds[f"mixed-volume {' '.join(names)} {norm}"] = (argv, ("out",))
    cmds["term-deriv Ep(x)"] = (["term-deriv", "Ep(x)", "-o", "{out}"], ("out",))
    for name, argv in [
        ("Ep(-...) nested 20", ["Ep(-" * 20 + "x" + ")" * 20]),
        ("x*y*Ep(x+y)*Ep(x*y-3) order 2", ["x*y*Ep(x+y)*Ep(x*y-3)", "--order", "2"]),
        ("(x+y)^5*Ep(2*x)", ["(x+y)^5*Ep(2*x)"]),
    ]:
        cmds[f"term-deriv {name}"] = (["term-deriv", *argv, "-o", "{out}"], ("out",))
    return cmds


def golden_series():
    """{name: () -> [RestrictedSeries]} for series no command prints: three
    exact Ep terms (one with a rational argument) and their x-derivatives,
    realized at Budget(16, 12), and one division at Budget(24, 20)."""
    reg = terms.default_registry(5)
    eps = {
        text: terms.parse_term(text, registry=reg)
        for text in ("Ep(3*x + 7*y)", "Ep(2*x^2 - 11*y*z)")
    }
    x, y = terms.Var(0), terms.Var(1)
    rational = terms.Add((  # built by hand: the parser reads integer literals only
        terms.Mul((terms.Const(Fraction(2, 3)), x)),
        terms.Mul((terms.Const(Fraction(-1, 7)), y, y)),
    ))
    eps["Ep(2/3*x - 1/7*y^2)"] = terms.simplify(terms.App("Ep", (rational,))), ["x", "y"]
    cases = {}
    for text, (t, names) in eps.items():
        ctx = terms.RealizeContext(5, len(names), Budget(16, 12), registry=reg)
        dt = terms.derive_term(t, 0, 1, registry=reg)
        cases[f"realize {text}"] = lambda t=t, ctx=ctx: [terms.realize(t, ctx)]
        cases[f"realize d/dx {text}"] = lambda dt=dt, ctx=ctx: [terms.realize(dt, ctx)]

    def divide():
        f = RestrictedSeries(
            5, 2, {(0, 2): 3, (0, 1): 10, (0, 0): -15, (1, 3): 7, (2, 1): -2, (2, 2): 4}
        )
        g = RestrictedSeries(
            5, 2, {(i, j): (-1) ** i * (2 * i + 3 * j + 1) for i in range(5) for j in range(5 - i)}
        )
        q, rems = weierstrass_divide(f, g, Budget(24, 20))
        return [q, *rems]

    cases["weierstrass_divide Budget(24, 20)"] = divide
    return cases


def series_golden(build):
    """{"json": SHA-256 of the JSON documents of the series build returns}."""
    text = "".join(dump_json(series_to_dict(s)) for s in build())
    return {"json": hashlib.sha256(text.encode()).hexdigest()}


def run_golden(argv, outputs, workdir: Path):
    """Run one command and return {output name: SHA-256 of its bytes}."""
    paths = {k: workdir / f"golden.{k}" for k in ("out", "svg")}
    code = main([a.format(**paths) for a in argv])
    assert code == 0, argv
    return {k: hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in outputs}


def _manifest():
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("name", sorted(golden_commands()))
def test_golden_output(name, tmp_path):
    argv, outputs = golden_commands()[name]
    assert run_golden(argv, outputs, tmp_path) == _manifest()[name]


@pytest.mark.parametrize("name", sorted(golden_series()))
def test_golden_series(name):
    assert series_golden(golden_series()[name]) == _manifest()[name]


def test_manifest_lists_every_command():
    assert sorted(_manifest()) == sorted([*golden_commands(), *golden_series()])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            name: run_golden(argv, outputs, Path(tmp))
            for name, (argv, outputs) in sorted(golden_commands().items())
        }
    doc.update((name, series_golden(build)) for name, build in golden_series().items())
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
