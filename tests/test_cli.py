import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from polyhedra_helpers import polytope_to_dict
from troppadic.cli import build_parser, main
from troppadic.errors import FormatError, TropPadicError
from troppadic.formats import (
    dump_json,
    is_prime,
    polytope_from_dict,
    series_from_dict,
    series_to_dict,
)
from troppadic.padic import PadicScaled
from troppadic.polyhedra import convex_hull
from troppadic.series import RestrictedSeries, TailBound
from troppadic.terms import MAX_EXPONENT

F = Fraction


def data_path(name):
    return str(resources.files("troppadic") / "data" / name)


def schema(name):
    with open(data_path(name)) as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv):
    """`python -m troppadic ARGV` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(resources.files("troppadic").parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "troppadic", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


# --------------------------------------------------------------- formats


def test_series_roundtrip_bit_exact(tmp_path):
    f = RestrictedSeries(
        5,
        2,
        {
            (1, 0): F(3, 4),
            (0, 2): PadicScaled.approx(5, F(1, 2), 7, 3),
            (2, 1): PadicScaled.exact(5, 10).shift_valuation(F(1, 3)),
        },
        tail=TailBound(3, F(2, 3), F(-1, 2)),
        domain=(F(-1, 2), F(0)),
    )
    doc = series_to_dict(f)
    jsonschema.validate(doc, schema("series.schema.json"))
    back = series_from_dict(json.loads(dump_json(doc)))
    assert back == f
    assert dump_json(series_to_dict(back)) == dump_json(doc)


def test_polytope_roundtrip():
    p = convex_hull([(0, 0), (2, 0), (0, 2), (F(1, 3), F(1, 3))])
    doc = polytope_to_dict(p)
    jsonschema.validate(doc, schema("polytope.schema.json"))
    back = polytope_from_dict(doc)
    assert back == list(p.vertices)


# --------------------------------------------------------------- trop


def test_cmd_trop_figure(capsys, tmp_path):
    svg_path = tmp_path / "fig.svg"
    code, out, err = run(
        capsys, "trop", data_path("fig1_p5.series"), "--svg", str(svg_path)
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("tropreport.schema.json"))
    vertex_cells = [c for c in doc["cells"] if c["dim"] == 0]
    assert len(vertex_cells) == 1
    assert vertex_cells[0]["vertices"] == [["1/4", "1/4"]]
    rays = sorted(tuple(r) for c in doc["cells"] for r in c["rays"])
    assert rays == sorted([(0, 1), (5, 1), (-1, -1)])
    assert svg_path.exists()


def test_cmd_trop_monomial_empty(capsys, tmp_path):
    p = tmp_path / "mono.series"
    p.write_text(
        dump_json(
            {
                "schema_version": 1,
                "prime": 5,
                "nvars": 2,
                "domain": [None, None],
                "terms": [{"exps": [2, 1], "coeff": "7"}],
                "tail": {"cutoff": 3, "slope": "1", "offset": "inf"},
            }
        )
    )
    code, out, _ = run(capsys, "trop", str(p))
    assert code == 0
    assert json.loads(out)["cells"] == []


def test_cmd_trop_svg_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "trop", data_path("fig1_p5.series"), "--svg", str(a))
    run(capsys, "trop", data_path("fig1_p5.series"), "--svg", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cmd_trop_unwritable_svg_writes_no_report(capsys, tmp_path):
    report, svg = tmp_path / "r.json", tmp_path / "missing" / "x.svg"
    code, out, err = run(
        capsys, "trop", data_path("fig1_p5.series"), "-o", str(report), "--svg", str(svg)
    )
    assert (code, out) == (2, "")
    assert err == f"input error: cannot write {svg}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_cmd_trop_svg_of_one_variable_writes_nothing(capsys, tmp_path):
    report, svg = tmp_path / "r2.json", tmp_path / "y.svg"
    code, out, err = run(
        capsys, "trop", data_path("strassmann_5x_x5.series"), "-o", str(report), "--svg", str(svg)
    )
    assert (code, out, err) == (2, "", "input error: SVG output needs a two-variable series\n")
    assert list(tmp_path.iterdir()) == []


def test_cmd_trop_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.series"
    p.write_text("{not json")
    code, _, err = run(capsys, "trop", str(p))
    assert code == 2
    assert err


@pytest.mark.parametrize("exps", [[-1, 0], [1, 0, 0]])
def test_cmd_trop_malformed_series_exit_code(capsys, tmp_path, exps):
    # a negative exponent, an exponent vector of the wrong length
    p = tmp_path / "bad.series"
    p.write_text(
        dump_json(
            {
                "schema_version": 1,
                "prime": 5,
                "nvars": 2,
                "domain": [None, None],
                "terms": [{"exps": [0, 0], "coeff": "1"}, {"exps": exps, "coeff": "1"}],
                "tail": {"cutoff": 0, "slope": "1", "offset": "inf"},
            }
        )
    )
    code, out, err = run(capsys, "trop", str(p))
    assert code == 2
    assert not out
    assert err.startswith("input error: malformed series document")
    assert "Traceback" not in err


def one_var_series(prime):
    return {
        "schema_version": 1,
        "prime": prime,
        "nvars": 1,
        "domain": ["0"],
        "terms": [{"exps": [0], "coeff": "1"}, {"exps": [1], "coeff": "1"}],
        "tail": {"cutoff": 1, "slope": "1", "offset": "inf"},
    }


@pytest.mark.parametrize("command", ["trop", "strassmann"])
def test_non_prime_series_exit_code(capsys, tmp_path, command):
    # 2021 = 43 * 47 has no factor that trial division by the bases finds
    for prime in (4, 2021):
        p = tmp_path / f"p{prime}.series"
        p.write_text(dump_json(one_var_series(prime)))
        code, out, err = run(capsys, command, str(p))
        assert code == 2
        assert not out
        assert "not a prime" in err


def trial_division_prime(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(-10, 10**5))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_prime(n)


@pytest.mark.parametrize(
    "n",
    # strong pseudoprimes to every prime base up to 7, 31 and 37, with no
    # factor below 42: the last is rejected only by the base 41
    [3215031751, 3825123056546413051, 318665857834031151167461],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_prime_past_trial_division_loads():
    assert series_from_dict(one_var_series(43)).p == 43


def test_cmd_strassmann_precision_exit_code(capsys, tmp_path):
    # the tail line sits below the stored minimum: counting must refuse
    p = tmp_path / "shallow.series"
    p.write_text(
        dump_json(
            {
                "schema_version": 1,
                "prime": 5,
                "nvars": 1,
                "domain": ["0"],
                "terms": [{"exps": [0], "coeff": "5"}],
                "tail": {"cutoff": 0, "slope": "1/2", "offset": "0"},
            }
        )
    )
    code, _, err = run(capsys, "strassmann", str(p))
    assert code == 3
    assert "precision" in err


@pytest.mark.parametrize(
    "argv, domain",
    [
        (["trop", data_path("fig1_p5.series")], "-1,none"),
        (["strassmann", data_path("strassmann_5x_x5.series")], "-1/2"),
        (["wdiv", data_path("wdiv_divisor.series"), data_path("wdiv_dividend.series")], "-1/2"),
    ],
)
def test_domain_starting_with_minus_may_follow_a_space(capsys, argv, domain):
    attached = run(capsys, *argv, f"--domain={domain}")
    assert attached[0] == 0
    assert run(capsys, *argv, "--domain", domain) == attached


@pytest.mark.parametrize(
    "command, shapes, culprit",
    [
        ("strassmann", [(5, 2)], 0),
        ("wdiv", [(5, 1), (5, 2)], 1),
        ("wdiv", [(5, 1), (7, 1)], 1),
        ("wdiv", [(5, 0), (5, 0)], 0),
        ("bound-system", [(5, 2)], 0),
        ("bound-system", [(5, 2), (5, 2), (5, 2)], 0),
        ("bound-system", [(5, 2), (5, 1)], 1),
        ("bound-system", [(5, 2), (7, 2)], 1),
    ],
)
def test_series_that_do_not_fit_the_command_are_input_errors(
    capsys, tmp_path, command, shapes, culprit
):
    # one file per (prime, nvars) shape, holding 1 + x_1 + ... + x_n;
    # bound-system takes only unbounded domains
    paths = []
    for k, (prime, nvars) in enumerate(shapes):
        path = tmp_path / f"s{k}.series"
        exps = [[0] * nvars] + [[int(j == i) for j in range(nvars)] for i in range(nvars)]
        doc = {
            "schema_version": 1,
            "prime": prime,
            "nvars": nvars,
            "domain": [None if command == "bound-system" else "0"] * nvars,
            "terms": [{"exps": e, "coeff": "1"} for e in exps],
            "tail": {"cutoff": 3, "slope": "1", "offset": "inf"},
        }
        path.write_text(dump_json(doc))
        paths.append(str(path))
    seed = ["--seed", "1"] if command == "bound-system" else []
    code, out, err = run(capsys, command, *paths, *seed)
    assert code == 2
    assert not out
    assert err.startswith("input error: ")
    assert paths[culprit] in err


@pytest.mark.parametrize("culprit", [0, 1])
def test_wdiv_non_integral_series_is_an_input_error(capsys, tmp_path, culprit):
    # divisor Y^2 - 5 and dividend x*Y^3 in (x, Y); the culprit gains the
    # coefficient 1/5 at x, off the pure Y axis that regularity reads
    terms = [
        [{"exps": [0, 2], "coeff": "1"}, {"exps": [0, 0], "coeff": "-5"}],
        [{"exps": [1, 3], "coeff": "1"}],
    ]
    terms[culprit].append({"exps": [1, 0], "coeff": "1/5"})
    paths = []
    for k, ts in enumerate(terms):
        path = tmp_path / f"s{k}.series"
        doc = {
            "schema_version": 1,
            "prime": 5,
            "nvars": 2,
            "domain": ["0", "0"],
            "terms": ts,
            "tail": {"cutoff": 4, "slope": "1", "offset": "inf"},
        }
        path.write_text(dump_json(doc))
        paths.append(str(path))
    code, out, err = run(capsys, "wdiv", *paths)
    assert code == 2
    assert not out
    assert err.startswith("input error: " + paths[culprit])
    assert "needs integral coefficients" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["Ep(x, y)"], "Ep expects 1 arguments, got 2"),
        (["Ep(x)", "--order", "-1"], "--order must be >= 0"),
        ([f"x^{MAX_EXPONENT + 1}"], f"exponent {MAX_EXPONENT + 1} is above the limit"),
        (["7" * 5000], "integer literal of 5000 digits"),
    ],
)
def test_cmd_term_deriv_rejects_malformed_terms(capsys, argv, message):
    code, out, err = run(capsys, "term-deriv", *argv)
    assert code == 2
    assert not out
    assert message in err


@pytest.mark.parametrize(
    "expr",
    [
        "*".join(["x"] * 1500),
        "+".join(["x"] * 1500),
        "(" * 1200 + "x" + ")" * 1200,
        "99999999999999999^256*x",
        "*".join(["x"] * 3000),
        "*".join(["x"] * 20000),
    ],
    ids=[
        "long-product",
        "long-sum",
        "deep-parentheses",
        "huge-folded-constant",
        "3000-factor-product",
        "20000-factor-product",
    ],
)
def test_cmd_term_deriv_big_terms_exit_cleanly(expr):
    proc = run_module("term-deriv", expr)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bound-system", data_path("line_a.series"), data_path("line_b.series"), "--seed", "42"], "-o"),
        (["trop", data_path("fig1_p5.series")], "--svg"),
    ],
    ids=["bound-system-output", "trop-svg"],
)
def test_unwritable_outputs_are_input_errors(capsys, tmp_path, argv, flag):
    taken = tmp_path / "taken"
    taken.mkdir()
    for target, reason in [
        (str(tmp_path / "missing" / "x.out"), "No such file or directory"),
        (str(taken), "Is a directory"),
    ]:
        code, _, err = run(capsys, *argv, flag, target)
        assert (code, err) == (2, f"input error: cannot write {target}: {reason}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert not list(taken.iterdir())


# --------------------------------------------------------------- parser and writer


FIXTURES = Path(__file__).with_name("data")
README = Path(__file__).parents[1] / "README.md"

# one run of every subcommand on bundled inputs
BUNDLED_RUNS = {
    "trop": ["trop", data_path("fig1_p5.series")],
    "bound-system": [
        "bound-system", data_path("line_a.series"), data_path("line_b.series"), "--seed", "42",
    ],
    "strassmann": ["strassmann", data_path("strassmann_5x_x5.series")],
    "wdiv": ["wdiv", data_path("wdiv_divisor.series"), data_path("wdiv_dividend.series")],
    "mixed-volume": [
        "mixed-volume",
        str(FIXTURES / "int_pentagon.polytope"),
        str(FIXTURES / "int_triangle.polytope"),
    ],
    "term-deriv": ["term-deriv", "Ep(x)"],
}


def subparsers():
    """{subcommand: its parser}, read off the one parser table."""
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_bundled_runs_cover_every_subcommand():
    assert sorted(BUNDLED_RUNS) == sorted(subparsers())


@pytest.mark.parametrize("name", sorted(BUNDLED_RUNS))
def test_one_writer_for_stdout_and_output_file(capsys, tmp_path, name):
    # main writes every report: stdout and -o get the same bytes, and an
    # -o that cannot be written is an input error that writes nothing
    argv = BUNDLED_RUNS[name]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    report = tmp_path / "report.json"
    assert run(capsys, *argv, "-o", str(report)) == (0, "", "")
    assert report.read_bytes() == out.encode()
    missing = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, *argv, "-o", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {missing}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def readme_flags():
    """{subcommand: set of flags} from the README's subcommand/flags table."""
    lines = README.read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    table = {}
    for line in itertools.takewhile(lambda x: x.startswith("|"), lines[start:]):
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = set(re.findall(r"`(--[a-z-]+)`", flags))
    return table


def test_readme_flag_table_matches_the_parser():
    # every option a subcommand takes is documented, except -h and -o
    common = {"-h", "--help", "-o", "--output"}
    parsed = {
        name: {s for a in sp._actions for s in a.option_strings} - common
        for name, sp in subparsers().items()
    }
    assert readme_flags() == parsed


# --------------------------------------------------------------- misc


def test_cmd_strassmann(capsys):
    code, out, _ = run(capsys, "strassmann", data_path("strassmann_5x_x5.series"))
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_cmd_wdiv(capsys):
    code, out, _ = run(
        capsys,
        "wdiv",
        data_path("wdiv_divisor.series"),
        data_path("wdiv_dividend.series"),
    )
    assert code == 0
    doc = json.loads(out)
    q = series_from_dict(doc["quotient"])
    assert q.coeff((1,)).rational_value() == 1
    a0 = series_from_dict(doc["remainders"][0])
    a1 = series_from_dict(doc["remainders"][1])
    assert a0.is_certified_zero()
    assert a1.coeff(()).rational_value() == 5


@pytest.mark.parametrize("flag", ["--prec", "--deg"])
@pytest.mark.parametrize("value", ["0", "-1", "-5"])
def test_cmd_wdiv_rejects_budgets_below_one(capsys, flag, value):
    code, out, err = run(
        capsys,
        "wdiv",
        data_path("wdiv_divisor.series"),
        data_path("wdiv_dividend.series"),
        flag,
        value,
    )
    assert (code, out) == (2, "")
    assert err == f"input error: {flag} must be >= 1, got {value}\n"


def test_one_parser_per_process_keeps_no_state(capsys):
    # main reuses one parser: flags of an earlier call, another subcommand
    # and an argument error (exit 2) must not change a later call
    assert build_parser() is build_parser()
    divisor, dividend = data_path("wdiv_divisor.series"), data_path("wdiv_dividend.series")
    code, plain, _ = run(capsys, "wdiv", divisor, dividend)
    assert code == 0
    flagged = ("--prec", "4", "--deg", "3", "--domain", "1")
    code, out, _ = run(capsys, "wdiv", divisor, dividend, *flagged)
    assert code == 0 and out != plain
    code, out, _ = run(capsys, "strassmann", data_path("strassmann_5x_x5.series"))
    assert (code, json.loads(out)) == (0, {"schema_version": 1, "count": 5})
    with pytest.raises(SystemExit) as exc:
        main(["wdiv", divisor, dividend, "--prec", "four"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(capsys, "wdiv", divisor, dividend) == (0, plain, "")


def test_cmd_wdiv_approximate_divisor(capsys, tmp_path):
    # the divisor's unit coefficient 1 + O(5^12): the residue of the right
    # quotient cancels below its certified digits, and only its floor counts;
    # a floor below --prec is a precision error, as more digits could pass
    doc = json.loads(open(data_path("wdiv_divisor.series")).read())
    for t in doc["terms"]:
        if t["exps"] == [2]:
            t["coeff"] = {"unit": 1, "val": "0", "prec": 12}
    divisor = tmp_path / "divisor.series"
    divisor.write_text(json.dumps(doc))
    argv = ["wdiv", str(divisor), data_path("wdiv_dividend.series")]
    code, out, _ = run(capsys, *argv, "--prec", "10")
    assert code == 0
    doc = json.loads(out)
    q = series_from_dict(doc["quotient"])
    assert q.coeff((1,)) == PadicScaled.approx(5, 0, 1, 12)
    assert series_from_dict(doc["remainders"][1]).coeff(()) == PadicScaled.approx(5, 1, 1, 12)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "division residue at (1,) is certified only to valuation 13 < 16" in err


def test_cmd_mixed_volume(capsys, tmp_path):
    seg_x = tmp_path / "sx.json"
    seg_y = tmp_path / "sy.json"
    seg_x.write_text(
        dump_json({"schema_version": 1, "dim": 2, "vertices": [["0", "0"], ["1", "0"]], "rays": []})
    )
    seg_y.write_text(
        dump_json({"schema_version": 1, "dim": 2, "vertices": [["0", "0"], ["0", "1"]], "rays": []})
    )
    code, out, _ = run(capsys, "mixed-volume", str(seg_x), str(seg_y))
    assert code == 0
    assert json.loads(out)["value"] == "1"
    code, out, _ = run(
        capsys, "mixed-volume", str(seg_x), str(seg_y), "--normalization", "normalized"
    )
    assert json.loads(out)["value"] == "1/2"


def test_cmd_mixed_volume_count_must_match_dimension(capsys, tmp_path):
    tri = tmp_path / "tri.json"
    tri.write_text(
        dump_json(
            {"schema_version": 1, "dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
        )
    )
    code, out, err = run(capsys, "mixed-volume", str(tri))
    assert code == 2
    assert not out
    assert err.startswith("input error: mixed volume needs n polytopes")


@pytest.mark.parametrize("key", ["rays", "lines"])
def test_cmd_mixed_volume_refuses_unbounded_polytopes(capsys, tmp_path, key):
    square = tmp_path / "square.json"
    square.write_text(
        dump_json(
            {"schema_version": 1, "dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
        )
    )
    unbounded = tmp_path / "unbounded.json"
    unbounded.write_text(
        dump_json({"schema_version": 1, "dim": 2, "vertices": [["0", "0"]], key: [[1, 1]]})
    )
    code, out, err = run(capsys, "mixed-volume", str(square), str(unbounded))
    assert (code, out) == (2, "")
    assert err == "error: mixed volume needs bounded polytopes\n"


def test_cmd_term_deriv(capsys):
    code, out, _ = run(capsys, "term-deriv", "Ep(x)", "--prime", "5")
    assert code == 0
    assert json.loads(out)["derivative"] == "5*Ep(x)"


def test_cmd_term_deriv_rejects_non_prime(capsys):
    code, out, err = run(capsys, "term-deriv", "Ep(x)", "--prime", "4")
    assert code == 2
    assert not out
    assert "not a prime" in err


# --------------------------------------------------------------- bound-system


def test_cmd_bound_system_requires_seed(capsys, monkeypatch):
    monkeypatch.delenv("TROPPADIC_SEED", raising=False)
    code, _, err = run(
        capsys, "bound-system", data_path("line_a.series"), data_path("line_b.series")
    )
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-system", "a", "b", "--seed", "1", "--prime", "7"],
        ["bound-system", "a", "b", "--seed", "1", "--domain", "0,0"],
        ["trop", "a", "--seed", "1"],
        ["mixed-volume", "a", "--prec", "3"],
        ["term-deriv", "Ep(x)", "--domain", "0"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cmd_bound_system_deterministic(capsys, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run(
            capsys,
            "bound-system",
            data_path("line_a.series"),
            data_path("line_b.series"),
            "--seed",
            "42",
            "-o",
            str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    jsonschema.validate(doc, schema("boundreport.schema.json"))
    assert doc["s_bound"] >= 1
    # env fallback seed
    monkeypatch.setenv("TROPPADIC_SEED", "42")
    code, _, _ = run(
        capsys,
        "bound-system",
        data_path("line_a.series"),
        data_path("line_b.series"),
        "-o",
        str(out2),
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_bound_system_missing_variable_transcript(capsys, tmp_path):
    miss = tmp_path / "missing.series"
    miss.write_text(
        dump_json(
            {
                "schema_version": 1,
                "prime": 5,
                "nvars": 2,
                "domain": [None, None],
                "terms": [
                    {"exps": [0, 0], "coeff": "1"},
                    {"exps": [1, 0], "coeff": "1"},
                ],
                "tail": {"cutoff": 1, "slope": "1", "offset": "inf"},
            }
        )
    )
    code, out, _ = run(
        capsys, "bound-system", str(miss), data_path("line_a.series"), "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert any(uf["variable"] == 1 for uf in doc["transforms"]["unit_factors"])


@pytest.mark.parametrize("domain", [["1", "1"], [None, "0"], ["-1/2", None]])
def test_cmd_bound_system_rejects_finite_domain(capsys, tmp_path, domain):
    with open(data_path("line_a.series")) as fh:
        doc = json.load(fh)
    doc["domain"] = domain
    bounded = tmp_path / "bounded.series"
    bounded.write_text(dump_json(doc))
    code, out, err = run(
        capsys, "bound-system", str(bounded), data_path("line_b.series"), "--seed", "3"
    )
    assert code == 2
    assert out == ""
    assert "domain" in err and "Traceback" not in err


@pytest.mark.parametrize("index", [0, 1])
def test_cmd_bound_system_zero_series_is_an_input_error(capsys, tmp_path, index):
    # a zero series has no isolated roots: refused before any redraw
    with open(data_path("line_a.series")) as fh:
        doc = json.load(fh)
    doc["terms"] = []
    zero = tmp_path / "zero.series"
    zero.write_text(dump_json(doc))
    inputs = [data_path("line_b.series")]
    inputs.insert(index, str(zero))
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "bound-system", *inputs, "--seed", "3", "-o", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert f"series {index} " in err and "zero" in err and "Traceback" not in err


def test_cmd_bound_system_shifted_coefficient_has_no_oracle(capsys, tmp_path):
    # an exact coefficient with a fractional valuation shift is no rational
    # monomial vector, so the finite-generation oracle cannot verify it
    with open(data_path("line_a.series")) as fh:
        doc = json.load(fh)
    doc["terms"][0]["coeff"] = {"rational": "1", "shift": "1/2"}
    shifted = tmp_path / "shifted.series"
    shifted.write_text(dump_json(doc))
    code, out, err = run(
        capsys, "bound-system", str(shifted), data_path("line_b.series"), "--seed", "3"
    )
    assert (code, out) == (2, "")
    assert err == "error: no registered constant and the representation is not verifiable\n"


def _reorderings(terms):
    """The terms as listed, reversed, every rotation and with the first two
    swapped."""
    out = [terms, terms[::-1], terms[1::-1] + terms[2:]]
    return out + [terms[k:] + terms[:k] for k in range(1, len(terms))]


def _bound_system_report(capsys, tmp_path, system):
    """The bound-system report of planar series at p = 5, each given as its
    (exps, coeff) terms in document order."""
    paths = []
    for j, terms in enumerate(system):
        path = tmp_path / f"s{j}.series"
        path.write_text(dump_json({
            "schema_version": 1, "prime": 5, "nvars": 2, "domain": [None, None],
            "terms": [{"exps": list(e), "coeff": str(c)} for e, c in terms],
            "tail": {"cutoff": max(sum(e) for e, _ in terms), "slope": "1", "offset": "inf"},
        }))
        paths.append(str(path))
    code, out, _ = run(capsys, "bound-system", *paths, "--seed", "3")
    assert code == 0
    return out


def test_cmd_bound_system_report_ignores_the_order_of_terms(capsys, tmp_path):
    # the finite-generation constant of f = 1 + 5x + y + 5x^2 + 25y^2 once
    # read the first lower coefficient in document order: with its first
    # two terms swapped the report had e_boxes [3, 2] and t_cross 9504
    f = [((0, 0), 1), ((1, 0), 5), ((0, 1), 1), ((2, 0), 5), ((0, 2), 25)]
    g = [((0, 0), 2), ((1, 0), 1), ((0, 1), 3)]
    lines = []
    for name in ("line_a.series", "line_b.series"):
        with open(data_path(name)) as fh:
            lines.append([(tuple(t["exps"]), t["coeff"]) for t in json.load(fh)["terms"]])
    for system in [(f, g), tuple(lines)]:
        want = _bound_system_report(capsys, tmp_path, system)
        for i, terms in enumerate(system):
            for order in _reorderings(terms):
                moved = system[:i] + (order,) + system[i + 1 :]
                assert _bound_system_report(capsys, tmp_path, moved) == want
    doc = json.loads(_bound_system_report(capsys, tmp_path, (f, g)))
    assert (doc["e_boxes"], doc["t_cross"]) == ([2, 2], 2048)


# --------------------------------------------------------------- loaders


def _line_a():
    with open(data_path("line_a.series")) as fh:
        return json.load(fh)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("terms", 1, "exps"), [1.9, 0]),
        (("terms", 1, "exps"), ["1", 0]),
        (("prime",), 5.7),
        (("prime",), 5.0),
        (("tail", "cutoff"), 1.5),
        (("tail", "cutoff"), True),
        (("tail", "slope"), "1_0"),
        (("domain",), [True, None]),
        (("schema_version",), 2),
        (("terms", 0, "coeff"), {"unit": 3, "val": "0", "prec": 0}),
        (("terms", 0, "coeff"), {"unit": 3.0, "val": "0", "prec": 2}),
    ],
    ids=[
        "exps-float", "exps-string", "prime-float", "prime-integral-float",
        "cutoff-float", "cutoff-bool", "slope-underscore", "domain-bool",
        "schema-version", "prec-zero", "unit-float",
    ],
)
def test_series_fields_outside_the_schema_are_input_errors(capsys, tmp_path, path, value):
    doc = _line_a()
    _set(doc, path, value)
    bad = tmp_path / "bad.series"
    bad.write_text(dump_json(doc))
    code, out, err = run(capsys, "trop", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "Traceback" not in err


def test_series_with_a_repeated_exponent_vector_is_an_input_error(capsys, tmp_path):
    doc = _line_a()
    doc["terms"].append({"exps": [1, 0], "coeff": "2"})
    bad = tmp_path / "twice.series"
    bad.write_text(dump_json(doc))
    code, out, err = run(capsys, "trop", str(bad))
    assert (code, out) == (2, "")
    assert "[1, 0] listed twice" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"schema_version": 1, "dim": 1.0, "vertices": [["0"], ["2"]]},
        {"schema_version": 1, "dim": True, "vertices": [["0"], ["2"]]},
        {"schema_version": 1, "dim": 1, "vertices": [["0"], ["2"]], "lines": [[0.0]]},
        {"schema_version": 1, "dim": 1, "vertices": [["0"], ["2"]], "rays": [[0, 0]]},
    ],
)
def test_polytope_fields_outside_the_schema_are_input_errors(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(doc))
    code, out, err = run(capsys, "mixed-volume", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("input error: malformed polytope document")


RATIONAL = st.integers(-9, 9).map(str) | st.builds(
    "{}/{}".format, st.integers(-9, 9), st.integers(1, 4)
)
COEFF = st.one_of(
    RATIONAL,
    st.fixed_dictionaries(
        {"unit": st.integers(-30, 30), "val": RATIONAL, "prec": st.integers(1, 4)}
    ),
    st.fixed_dictionaries({"rational": RATIONAL, "shift": RATIONAL}),
)


@st.composite
def series_docs(draw):
    nvars = draw(st.integers(0, 2))
    exps = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)
    keys = draw(st.lists(exps, max_size=4, unique_by=tuple))
    return {
        "schema_version": 1,
        "prime": draw(st.sampled_from([2, 3, 5])),
        "nvars": nvars,
        "domain": draw(st.lists(st.none() | RATIONAL, min_size=nvars, max_size=nvars)),
        "terms": [{"exps": e, "coeff": draw(COEFF)} for e in keys],
        "tail": {
            "cutoff": draw(st.integers(0, 6)),
            "slope": draw(RATIONAL),
            "offset": draw(st.just("inf") | RATIONAL),
        },
    }


@st.composite
def polytope_docs(draw):
    dim = draw(st.integers(1, 3))
    vec = lambda elems: st.lists(elems, min_size=dim, max_size=dim)  # noqa: E731
    doc = {
        "schema_version": 1,
        "dim": dim,
        "vertices": draw(st.lists(vec(RATIONAL), min_size=1, max_size=5)),
    }
    for key in ("rays", "lines"):
        if draw(st.booleans()):
            doc[key] = draw(st.lists(vec(st.integers(-2, 2)), max_size=2))
    return doc


def _integer_fields(doc):
    """(path, schema minimum or None) of every integer field of a document."""
    if "dim" in doc:
        out = [(("dim",), 1)]
        for key in ("rays", "lines"):
            out += [((key, i, j), None) for i, v in enumerate(doc.get(key, [])) for j in range(len(v))]
        return out
    out = [(("prime",), 2), (("nvars",), 0), (("tail", "cutoff"), 0)]
    for i, term in enumerate(doc["terms"]):
        out += [(("terms", i, "exps", j), 0) for j in range(len(term["exps"]))]
        if isinstance(term["coeff"], dict) and "prec" in term["coeff"]:
            out += [(("terms", i, "coeff", "unit"), None), (("terms", i, "coeff", "prec"), 1)]
    return out


def _required_keys(doc):
    if "dim" in doc:
        return [("schema_version",), ("dim",), ("vertices",)]
    out = [(k,) for k in doc] + [("tail", k) for k in doc["tail"]]
    for i, term in enumerate(doc["terms"]):
        out += [("terms", i, "exps"), ("terms", i, "coeff")]
        if isinstance(term["coeff"], dict):
            out += [("terms", i, "coeff", k) for k in term["coeff"]]
    return out


@st.composite
def mutated(draw, docs):
    """(document, mutation): a schema-valid document, or one with a single
    field changed so that the schema rejects it."""
    doc = draw(docs)
    kinds = ["none", "float", "bool", "string", "negative", "missing"]
    if "terms" in doc:
        kinds.append("duplicate")
    kind = draw(st.sampled_from(kinds))
    fields = _integer_fields(doc)
    if kind == "negative":
        fields = [(path, m) for path, m in fields if m is not None]
    if kind in ("float", "bool", "string", "negative"):
        path, _ = draw(st.sampled_from(fields))
        old = doc
        for key in path:
            old = old[key]
        new = {
            "float": draw(st.sampled_from([float(old), old + 0.5])),
            "bool": draw(st.booleans()),
            "string": str(old),
            "negative": -1 - draw(st.integers(0, 3)),
        }[kind]
        _set(doc, path, new)
    elif kind == "missing":
        path = draw(st.sampled_from(_required_keys(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    elif kind == "duplicate":
        if not doc["terms"]:
            doc["terms"].append({"exps": [0] * doc["nvars"], "coeff": "1"})
        term = draw(st.sampled_from(doc["terms"]))
        doc["terms"].append({"exps": list(term["exps"]), "coeff": "1"})
    return doc, kind


def _check_loader(doc, kind, schema_name, loader, argv):
    """The loader raises only library errors, and a FormatError for every
    mutation; the CLI exits 0, 2 or 3 (2 for every mutation), never with a
    traceback."""
    if kind == "none":
        jsonschema.validate(doc, schema(schema_name))
    try:
        loader(json.loads(dump_json(doc)))
    except FormatError:
        pass
    except TropPadicError:
        assert kind == "none"
    else:
        assert kind == "none"
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with open(path, "w") as fh:
            fh.write(dump_json(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv(path))
    assert code in ((0, 2, 3) if kind == "none" else (2,)), err.getvalue()
    assert "Traceback" not in err.getvalue()


LOADER_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@LOADER_PROPERTY
@given(mutated(series_docs()))
def test_series_loader_property(case):
    doc, kind = case
    _check_loader(doc, kind, "series.schema.json", series_from_dict, lambda path: ["trop", path])


@LOADER_PROPERTY
@given(mutated(polytope_docs()))
def test_polytope_loader_property(case):
    doc, kind = case
    n = doc["dim"] if kind == "none" else 1
    _check_loader(
        doc, kind, "polytope.schema.json", polytope_from_dict,
        lambda path: ["mixed-volume"] + [path] * n,
    )


@settings(LOADER_PROPERTY, max_examples=300)
@given(series_docs())
def test_bound_system_loader_property(doc):
    # bound-system takes only unbounded domains; the one document stands
    # for every series of the system.  Most draws stop at a nonempty tail
    # or a zero series, so this takes more draws than the other loaders.
    doc["domain"] = [None] * doc["nvars"]
    n = max(doc["nvars"], 1)
    _check_loader(
        doc, "none", "series.schema.json", series_from_dict,
        lambda path: ["bound-system"] + [path] * n + ["--seed", "1"],
    )


def test_python_dash_m_runs_the_cli():
    proc = run_module("strassmann", data_path("strassmann_5x_x5.series"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"count": 5, "schema_version": 1}
