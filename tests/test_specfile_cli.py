"""Spec-file parsing, round-trip serialization, and the CLI contract."""

import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from latring import EvSeq, FinVec, MatrixHom, Neighborhood, SeqHom, Space, SpecFileError
from latring.cli import main
from latring.homs import ORACLE_DIM_CAP
from latring.specfile import (
    MAX_COORD_INDEX,
    element_to_obj,
    hom_to_obj,
    nbhd_to_obj,
    parse_element,
    parse_hom,
    parse_nbhd,
    parse_specdoc,
    set_to_obj,
)

_REPO = Path(__file__).resolve().parents[1]
QN2_SPEC = str(_REPO / "specs" / "qn2_demo.json")
EVSEQ_SPEC = str(_REPO / "specs" / "evseq_demo.json")


def test_hom_round_trip():
    space = Space.evseq()
    homs = [
        SeqHom.diagonal(EvSeq.of(1, F(-2, 3), tail=F(1, 2))),
        SeqHom.diag_plus_block(EvSeq.of(1, tail=0), ((F(0), F(2)), (F(-1), F(0)))),
    ]
    for h in homs:
        assert parse_hom(hom_to_obj(h), space, "t") == h
    m = MatrixHom(((F(1), F(-2)), (F(3, 7), F(0))))
    assert parse_hom(hom_to_obj(m), Space.qn(2), "t") == m


def test_element_round_trip():
    space = Space.qn(3)
    x = FinVec.of(F(1, 3), -2, 0)
    assert parse_element(element_to_obj(x), space, "e") == x
    s = EvSeq.of(F(-5, 4), tail=F(2))
    assert parse_element(element_to_obj(s), Space.evseq(), "e") == s


def test_nbhd_round_trip():
    for U in (
        Neighborhood.box((F(1), F(1, 2))),
        Neighborhood.product({0, 3}, F(2, 5)),
        Neighborhood.sup_ball(F(7)),
        Neighborhood.discrete_zero(),
    ):
        assert parse_nbhd(nbhd_to_obj(U), "u") == U


def test_set_round_trip_through_doc():
    text = json.dumps(
        {
            "space": {"kind": "qn", "dim": 2},
            "elements": {"a": {"entries": ["-1", "0"]}, "b": {"entries": ["2", "3"]}},
            "sets": {
                "iv": {"kind": "interval", "lo": "a", "hi": "b"},
                "fin": {"kind": "finite", "elements": ["a", "b"]},
                "hull": {"kind": "solid_hull", "generators": [{"entries": ["1/2", "-3"]}]},
                "box": {"kind": "nbhd", "nbhd": {"topology": "qn_box", "radii": ["1", "2/5"]}},
                "img": {
                    "kind": "image",
                    "hom": {"kind": "matrix", "rows": [["1", "0"], ["0", "2"]]},
                    "base": "iv",
                },
            },
        }
    )
    doc = parse_specdoc(text)
    # Serialize each set, splice it back into a fresh document, and compare.
    for name in ("iv", "fin", "hull", "box", "img"):
        obj = set_to_obj(doc.sets[name])
        round_doc = parse_specdoc(json.dumps({
            "space": {"kind": "qn", "dim": 2},
            "sets": {"again": obj},
        }))
        assert round_doc.sets["again"] == doc.sets[name]


def test_unknown_key_names_section():
    with pytest.raises(SpecFileError, match="homs.t"):
        parse_specdoc(json.dumps({
            "space": {"kind": "qn", "dim": 1},
            "homs": {"t": {"kind": "matrix", "rows": [["1"]], "extra": 1}},
        }))
    with pytest.raises(SpecFileError, match="top level"):
        parse_specdoc(json.dumps({"space": {"kind": "qn", "dim": 1}, "bogus": {}}))


def test_bad_rational_and_float_rejected():
    with pytest.raises(SpecFileError):
        parse_specdoc(json.dumps({
            "space": {"kind": "qn", "dim": 1},
            "elements": {"x": {"entries": ["not-a-number"]}},
        }))
    with pytest.raises(SpecFileError):
        parse_specdoc(json.dumps({
            "space": {"kind": "qn", "dim": 1},
            "elements": {"x": {"entries": [0.5]}},
        }))


@pytest.mark.parametrize("value", [1.5, True, "abc"])
def test_non_integer_z_element_exits_2(value, tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"space": {"kind": "z"}, "elements": {"a": {"int": value}}}))
    assert main(["run", "--spec", str(path)]) == 2
    assert "elements.a" in capsys.readouterr().err


@pytest.mark.parametrize(
    "space, hom",
    [
        ({"kind": "qn", "dim": 2}, {"kind": "matrix", "rows": [["1", "0", "0"]] * 3}),
        ({"kind": "qn", "dim": 2}, {"kind": "matrix", "rows": [["1", "0"], ["0"]]}),
        ({"kind": "qn", "dim": 2}, {"kind": "matrix", "rows": "12"}),
        ({"kind": "evseq"}, {"kind": "matrix", "rows": [["1"]]}),
        ({"kind": "qn", "dim": 2}, {"kind": "diagonal", "prefix": ["1"], "tail": "1"}),
        ({"kind": "qn", "dim": 2}, {"kind": "diag_plus_finite", "tail": "1", "block": [["0"]]}),
        ({"kind": "z"}, {"kind": "diagonal", "tail": "1"}),
        ({"kind": "evseq"}, {"kind": "diag_plus_finite", "tail": "1", "block": [["0", "1"], ["1"]]}),
    ],
)
@pytest.mark.parametrize("command", ["posp", "classify"])
def test_hom_that_does_not_fit_the_space_exits_2(space, hom, command, tmp_path, capsys):
    path = tmp_path / "misfit.json"
    path.write_text(json.dumps({"space": space, "homs": {"t": hom}}))
    assert main([command, "t", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert "homs.t" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "nbhd",
    [
        {"topology": "qn_box", "radii": ["1"]},
        {"topology": "qn_box", "radii": ["1", "1", "1"]},
        {"topology": "qn_box", "radii": ["1", "-1"]},
        {"topology": "evseq_supnorm", "radius": "1"},
    ],
)
def test_neighborhood_that_does_not_fit_the_space_exits_2(nbhd, tmp_path, capsys):
    spec = json.loads(Path(QN2_SPEC).read_text())
    spec["sets"]["unit_box"]["nbhd"] = nbhd
    path = tmp_path / "misfit.json"
    path.write_text(json.dumps(spec))
    argv = ["converge", "shrinking", "--mode", "nr", "--region", "unit_box", "--spec", str(path)]
    assert main(argv) == 2
    assert "sets.unit_box" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, section",
    [
        ({"space": {"kind": "qn", "dim": 2}, "elements": {"x": {"entries": ["1", "2", "3"]}}}, "elements.x"),
        ({"space": {"kind": "qn", "dim": 2}, "elements": {"x": {"entries": []}}}, "elements.x"),
        ({"space": {"kind": "qn", "dim": 2}, "elements": {"x": {}}}, "elements.x"),
        ({"space": {"kind": "evseq"}, "elements": {"x": {"prefix": ["1"]}}}, "elements.x"),
        ({"space": {"kind": "evseq"}, "homs": {"t": {"kind": "diagonal", "prefix": ["1"]}}}, "homs.t"),
    ],
)
def test_element_or_coefficients_of_wrong_shape_exit_2(spec, section, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(path)]) == 2
    assert section in capsys.readouterr().err


def test_net_on_integers_exits_2(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({
        "space": {"kind": "z"},
        "homs": {"ident": {"kind": "identity"}},
        "nets": {"n": {"kind": "constant", "term": "ident"}},
    }))
    assert main(["converge", "n", "--mode", "cr", "--spec", str(path)]) == 2
    assert "nets.n" in capsys.readouterr().err


def test_unresolved_name():
    from latring import UnknownName

    doc = parse_specdoc(json.dumps({"space": {"kind": "qn", "dim": 1}}))
    with pytest.raises(UnknownName):
        doc.hom("ghost")


def test_malformed_json_reports_position():
    with pytest.raises(SpecFileError, match="line"):
        parse_specdoc("{\n  broken\n}")


# ---------------------------------------------------------------------------
# CLI contract.

def test_cli_laws_exit_codes(capsys):
    assert main(["laws", "q3_pointwise", "--cases", "60"]) == 0
    capsys.readouterr()
    assert main(["laws", "matrix2_entrywise", "--cases", "60"]) == 1
    out = capsys.readouterr().out
    assert "f-ring-axiom" in out and "FAIL" in out
    assert main(["laws", "no_such_instance"]) == 2
    assert main(["laws", "q3_pointwise", "--cases", "0"]) == 2


def test_cli_classify_matches_gallery_labels(capsys):
    code = main(["classify", "ident", "--spec", EVSEQ_SPEC, "--format", "machine"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    flags = report["results"]["classify:ident"]["flags"]
    assert flags["order_bounded"] and not flags["nr_group"] and flags["br_group"] and flags["continuous"]


def test_cli_identity_on_integers(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"space": {"kind": "z"}, "homs": {"ident": {"kind": "identity"}}}))
    assert main(["classify", "ident", "--spec", str(path), "--format", "machine"]) == 0
    capsys.readouterr()
    # No oracle cross-check exists on Z: an input error with a message, not a traceback.
    assert main(["posp", "ident", "--spec", str(path)]) == 2
    assert "'ident'" in capsys.readouterr().err


def test_cli_posp_oracle_agreement(capsys):
    assert main(["posp", "t", "--spec", QN2_SPEC, "--cases", "200", "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    result = report["results"]["posp:t"]
    assert result["positive_part"]["rows"] == [["1", "0"], ["0", "4"]]
    assert result["oracle_agreement"] == "200/200"


def test_cli_decompose(capsys):
    assert main(["decompose", "x", "y1", "y2", "--spec", QN2_SPEC, "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    result = report["results"]["decompose:x"]
    assert result["x1"] == {"entries": ["1", "0"]} and result["x2"] == {"entries": ["0", "1"]}


def test_cli_converge_modes(capsys):
    assert main(["converge", "shrinking", "--spec", QN2_SPEC, "--mode", "br",
                 "--region", "probe_interval", "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["converge:shrinking:br"]["verdict"] == "CONVERGENT"
    assert main(["converge", "vanishing", "--spec", EVSEQ_SPEC, "--mode", "cr"]) == 0
    capsys.readouterr()
    # A non-vanishing net reports NOT_CONVERGENT with a verified witness.
    assert main(["converge", "stuck_identity", "--spec", EVSEQ_SPEC, "--mode", "nr",
                 "--region", "u0", "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    result = report["results"]["converge:stuck_identity:nr"]
    assert result["verdict"] == "NOT_CONVERGENT"
    assert result["witness"] == {"topology": "evseq_product", "coords": [1], "radius": "1"}
    # nr without a region is an input error.
    assert main(["converge", "vanishing", "--spec", EVSEQ_SPEC, "--mode", "nr"]) == 2


def test_cli_run_executes_tasks(capsys):
    assert main(["run", "--spec", QN2_SPEC, "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert any(key.startswith("split_x") for key in report["results"])
    assert report["passed"]


def test_cli_run_laws_task(tmp_path, capsys):
    spec = {
        "space": {"kind": "qn", "dim": 2},
        "tasks": [{"name": "core", "op": "laws", "instance": "q2_pointwise", "cases": 40}],
    }
    path = tmp_path / "laws.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(path), "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert any(key.startswith("core:laws:q2_pointwise") for key in report["results"])


def test_cli_gallery_four_pass_lines(capsys):
    assert main(["gallery", "--cases", "60"]) == 0
    out = capsys.readouterr().out
    for case_id in ("A_product_identity", "B_zero_mult_identity", "C_linfty_product_vs_norm", "D_fring_failure_matrix"):
        assert f"case:{case_id}: PASS" in out


def test_cli_missing_spec_is_input_error(capsys):
    assert main(["classify", "ident", "--spec", "/nonexistent.json"]) == 2


def test_reused_parser_after_argument_error(capsys):
    # The parser is built once per process; a rejected argument must not leave state behind.
    with pytest.raises(SystemExit) as exc:
        main(["converge", "net", "--mode", "bogus", "--spec", QN2_SPEC])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["run", "--spec", QN2_SPEC, "--format", "machine"]) == 0
    golden = _REPO / "tests" / "golden" / "run_qn2_demo.json"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def _assert_input_error(argv, section, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert section in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


# Strings outside the literal grammar [+-]?[0-9]+(/[0-9]+)?: exponents that a
# general-purpose parser would expand digit by digit, decimals, spaces,
# underscores, a non-ASCII digit, zero or signed denominators, and digit
# strings beyond the 4300 digits that int() converts.
BAD_LITERALS = (
    "1e10000000", "1e100000", "1.5", " 3", "3 / 4", "3_000", "\u0663", "1/0", "/3", "1/-2", "",
    "9" * 5000, "1/" + "7" * 5000,
)


def _literal_cases():
    """Each bad literal in five places that take a literal, with the section it must name."""
    qn2, seq = {"kind": "qn", "dim": 2}, {"kind": "evseq"}
    for i, bad in enumerate(BAD_LITERALS):
        places = [
            ("matrix", {"space": qn2, "homs": {"t": {"kind": "matrix", "rows": [["1", bad], ["0", "1"]]}}},
             "homs.t"),
            ("entries", {"space": qn2, "elements": {"x": {"entries": ["0", bad]}}}, "elements.x"),
            ("block", {"space": seq, "homs": {"b": {"kind": "diag_plus_finite", "tail": "1",
                                                    "block": [["0", bad], ["1", "0"]]}}}, "homs.b"),
            ("tail", {"space": seq, "elements": {"s": {"prefix": ["1"], "tail": bad}}}, "elements.s"),
            ("radius", {"space": seq, "sets": {"u": {"kind": "nbhd",
                                                     "nbhd": {"topology": "evseq_supnorm", "radius": bad}}}},
             "sets.u"),
        ]
        for place, spec, section in places:
            yield pytest.param(spec, f"bad rational literal in {section!r}", id=f"literal{i}-{place}")


@pytest.mark.parametrize(
    "spec, section",
    [
        ({"space": {"kind": "qn", "dim": 2, "topology": "bogus"}}, "space: topology"),
        ({"space": {"kind": "qn", "dim": "2"}}, "space: dim"),
        ({"space": {"kind": "qn", "dim": 2}, "codomain_space": {"kind": "evseq", "topology": 3}},
         "codomain_space: topology"),
        ({"space": {"kind": "qn", "dim": 2}, "elements": []}, "'elements'"),
        ({"space": {"kind": "evseq"}, "homs": "t"}, "'homs'"),
        ({"space": {"kind": "evseq"},
          "sets": {"u": {"kind": "nbhd", "nbhd": {"topology": "evseq_product", "coords": "ab", "radius": "1"}}}},
         "sets.u: 'coords'"),
        ({"space": {"kind": "evseq"},
          "sets": {"u": {"kind": "nbhd", "nbhd": {"topology": "evseq_product", "coords": [-1], "radius": "1"}}}},
         "sets.u: 'coords'"),
        ({"space": {"kind": "qn", "dim": 2},
          "sets": {"u": {"kind": "nbhd", "nbhd": {"topology": "qn_box", "radii": "12"}}}}, "sets.u: 'radii'"),
        ({"space": {"kind": "qn", "dim": 2}, "sets": {"u": {"kind": "finite"}}}, "sets.u: missing 'elements'"),
        ({"space": {"kind": "evseq"}, "elements": {"x": {"prefix": "12", "tail": "0"}}}, "elements.x: 'prefix'"),
        ({"space": {"kind": "evseq"}, "sets": {"u": {"kind": "nbhd", "nbhd": {"topology": "evseq_supnorm"}}}},
         "sets.u: missing 'radius'"),
        ({"space": {"kind": "qn", "dim": 1}, "nets": {"n": {"kind": "constant"}}}, "nets.n: missing 'term'"),
        ({"space": {"kind": "qn", "dim": 1}, "nets": {"n": {"kind": "constant", "term": "ghost"}}},
         "nets.n: no homomorphism named 'ghost'"),
        ({"space": {"kind": "qn", "dim": 1}, "sets": {"u": {"kind": "finite", "elements": ["ghost"]}}},
         "sets.u: no element named 'ghost'"),
        ({"space": {"kind": "qn", "dim": 1}, "sets": {"u": {"kind": "finite", "elements": []}}},
         "sets.u: finite set needs at least one element"),
        ({"space": {"kind": "qn", "dim": 1},
          "sets": {"u": {"kind": "interval", "lo": {"entries": ["2"]}, "hi": {"entries": ["1"]}}}},
         "sets.u: interval needs lo <= hi"),
        ({"space": {"kind": "evseq"},
          "sets": {"u": {"kind": "nbhd", "nbhd": {"topology": "evseq_product", "coords": [0, 10**9],
                                                  "radius": "1"}}}},
         f"sets.u: coordinate index 1000000000 is above the cap of {MAX_COORD_INDEX}"),
        ({"space": {"kind": "qn", "dim": 1}, "codomain_space": {"kind": "z"}},
         "codomain_space: must have the kind and dim of 'space'"),
        ({"space": {"kind": "qn", "dim": 1}, "codomain_space": {"kind": "qn", "dim": 2}},
         "codomain_space: must have the kind and dim of 'space'"),
        *_literal_cases(),
    ],
)
def test_space_and_section_types_exit_2(spec, section, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    _assert_input_error(["run", "--spec", str(path)], section, capsys)


def test_json_integer_beyond_the_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"space": {"kind": "qn", "dim": 1}, "elements": {"x": {"entries": [%s]}}}' % ("9" * 5000))
    _assert_input_error(["run", "--spec", str(path)], "not valid JSON", capsys)


@pytest.mark.parametrize(
    "task, message",
    [
        ({"op": "classify"}, "tasks[0]: a classify task needs 'hom'"),
        ({"op": "posp"}, "tasks[0]: a posp task needs 'hom'"),
        ({"op": "converge", "net": "n"}, "tasks[0]: a converge task needs 'mode'"),
        ({"op": "decompose", "x": "x", "y1": "y1"}, "tasks[0]: a decompose task needs 'y2'"),
        ({"op": "laws"}, "tasks[0]: a laws task needs 'instance'"),
        ({"op": "classify", "hom": ["t"]}, "tasks[0]: 'hom' must be a name"),
        ({"op": "laws", "instance": "q2_pointwise", "cases": "5"}, "tasks[0]: 'cases' must be a JSON integer"),
        ({"op": ["classify"]}, "tasks[0]: unknown op"),
    ],
)
def test_task_missing_or_mistyped_argument_exits_2(task, message, tmp_path, capsys):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"space": {"kind": "qn", "dim": 2}, "tasks": [task]}))
    _assert_input_error(["run", "--spec", str(path)], message, capsys)


@pytest.mark.parametrize(
    "space, hom, dim",
    [
        ({"kind": "qn", "dim": 17}, {"kind": "matrix", "rows": [["1"] * 17] * 17}, 17),
        ({"kind": "evseq"}, {"kind": "diag_plus_finite", "tail": "1", "block": [["0", "1"] * 9] * 18}, 18),
    ],
)
def test_posp_beyond_the_oracle_cap_exits_2(space, hom, dim, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"space": space, "homs": {"big": hom}}))
    message = f"posp 'big' needs the vertex oracle at dimension {dim}, above its cap of {ORACLE_DIM_CAP}"
    _assert_input_error(["posp", "big", "--spec", str(path)], message, capsys)


def _with_coords(coords, tmp_path):
    spec = json.loads(Path(EVSEQ_SPEC).read_text())
    spec["sets"]["u0"]["nbhd"]["coords"] = coords
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec))
    return ["converge", "vanishing", "--mode", "nr", "--region", "u0", "--spec", str(path)]


def test_far_product_coordinate_exits_2_at_once(tmp_path, capsys):
    start = time.perf_counter()
    _assert_input_error(_with_coords([1000000], tmp_path), f"above the cap of {MAX_COORD_INDEX}", capsys)
    assert time.perf_counter() - start < 1.0


def test_product_coordinate_at_the_cap_is_decided(tmp_path, capsys):
    assert main(_with_coords([MAX_COORD_INDEX], tmp_path)) == 0
    assert "PASS" in capsys.readouterr().out


def test_result_beyond_the_printable_digit_limit_exits_2(tmp_path, capsys):
    # 10^4000 + 1 and 10^4000 + 3 are odd and differ by 2, so they are coprime:
    # the order witness |T| 1 then has a denominator of about 8000 digits.
    a, b = "1" + "0" * 3999 + "1", "1" + "0" * 3999 + "3"
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "space": {"kind": "qn", "dim": 2},
        "homs": {"t": {"kind": "matrix", "rows": [[f"1/{a}", f"1/{b}"], ["0", "1"]]}},
    }))
    _assert_input_error(["classify", "t", "--spec", str(path)], "4300-digit limit", capsys)
