import json
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from troppadic.cli import main
from troppadic.formats import (
    dump_json,
    polytope_from_dict,
    polytope_to_dict,
    series_from_dict,
    series_to_dict,
)
from troppadic.padic import PadicScaled
from troppadic.polyhedra import convex_hull
from troppadic.series import RestrictedSeries, TailBound

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
    assert back.same_set(p)


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


@pytest.mark.parametrize("command", ["trop", "strassmann"])
def test_non_prime_series_exit_code(capsys, tmp_path, command):
    p = tmp_path / "four.series"
    p.write_text(
        dump_json(
            {
                "schema_version": 1,
                "prime": 4,
                "nvars": 1,
                "domain": ["0"],
                "terms": [{"exps": [0], "coeff": "1"}, {"exps": [1], "coeff": "1"}],
                "tail": {"cutoff": 1, "slope": "1", "offset": "inf"},
            }
        )
    )
    code, out, err = run(capsys, command, str(p))
    assert code == 2
    assert not out
    assert "not a prime" in err


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
