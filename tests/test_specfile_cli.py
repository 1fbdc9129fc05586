"""Spec-file parsing, round-trip serialization, and the CLI contract."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from latring import EvSeq, FinVec, MatrixHom, Neighborhood, SeqHom, Space, SpecFileError
from latring.cli import main
from latring.specfile import (
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
