"""Spec-file parsing, round-trip serialization, and the CLI contract."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from latring import (
    InputError,
    LatringError,
    EvSeq,
    FinVec,
    MatrixHom,
    Neighborhood,
    SeqHom,
    SoundnessBug,
    Space,
    SpecFileError,
    ZInt,
)
from latring import errors
from latring.cli import COMMANDS, main
from latring.homs import ORACLE_DIM_CAP
from latring.specfile import (
    MAX_COORD_INDEX,
    MAX_DIM,
    MAX_SET_DEPTH,
    element_to_obj,
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
        assert parse_hom(h.render(), space, "t") == h
    m = MatrixHom(((F(1), F(-2)), (F(3, 7), F(0))))
    assert parse_hom(m.render(), Space.qn(2), "t") == m


def test_element_round_trip():
    space = Space.qn(3)
    x = FinVec.of(F(1, 3), -2, 0)
    assert parse_element(element_to_obj(x), space, "e") == x
    s = EvSeq.of(F(-5, 4), tail=F(2))
    assert parse_element(element_to_obj(s), Space.evseq(), "e") == s
    assert parse_element(element_to_obj(ZInt(-7)), Space.z_discrete(), "e") == ZInt(-7)


def test_nbhd_round_trip():
    for U in (
        Neighborhood.box((F(1), F(1, 2))),
        Neighborhood.product({0, 3}, F(2, 5)),
        Neighborhood.sup_ball(F(7)),
        Neighborhood.discrete_zero(),
    ):
        assert parse_nbhd(U.render(), "u") == U


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


def test_z_sets_round_trip():
    # The demo spec holds one set of each kind, the identity image among them.
    doc = parse_specdoc((_REPO / "specs" / "z_demo.json").read_text())
    for S in doc.sets.values():
        again = parse_specdoc(json.dumps({"space": {"kind": "z"}, "sets": {"again": set_to_obj(S)}}))
        assert again.sets["again"] == S


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
    err = capsys.readouterr().err
    assert "nets.n" in err and "nets are shipped for the matrix and sequence forms only" in err


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
    # posp draws rational probes, which are not elements of Z: an input error
    # with a message, not a traceback.
    assert main(["posp", "ident", "--spec", str(path)]) == 2
    assert "'ident' acts on the integers" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "codomain, argv",
    [
        # cr needs one base on both sides of V*W.
        ({"kind": "evseq", "topology": "evseq_supnorm"}, ["--mode", "cr"]),
        ({"kind": "evseq", "topology": "evseq_product", "multiplication": "zero"}, ["--mode", "cr"]),
        # cr chooses its own U for each W, so a region is refused, not ignored.
        (None, ["--mode", "cr", "--region", "u0"]),
    ],
)
def test_cr_input_it_cannot_use_exits_2(codomain, argv, tmp_path, capsys):
    spec = json.loads(Path(EVSEQ_SPEC).read_text())
    if codomain is not None:
        spec["codomain_space"] = codomain
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["converge", "vanishing", *argv, "--spec", str(path)]) == 2
    assert "mode" in capsys.readouterr().err


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


# Each op's positional arguments on the command line, in order.
_TASK_POSITIONAL = {"classify": ("hom",), "posp": ("hom",), "decompose": ("x", "y1", "y2"),
                    "converge": ("net",), "laws": ("instance",)}


def _standalone_argv(task: dict, spec: str) -> list[str]:
    op = task["op"]
    argv = [op, *(task[key] for key in _TASK_POSITIONAL[op])]
    if op == "converge":
        argv += ["--mode", task["mode"], *(["--region", task["region"]] if "region" in task else [])]
    if op != "laws":
        argv += ["--spec", spec]
    return [*argv, "--seed", str(task.get("seed", 0)), "--cases", str(task.get("cases", 1000))]


def _machine_results(argv, capsys) -> dict:
    capsys.readouterr()
    main([*argv, "--format", "machine"])
    return json.loads(capsys.readouterr().out)["results"]


@pytest.mark.parametrize(
    "spec",
    [
        "qn2_demo.json", "evseq_demo.json", "evseq_supnorm_demo.json", "z_demo.json", "q12_literals.json",
        "qn2_nets.json", None,
    ],
    ids=lambda spec: spec or "laws-task",
)
def test_a_task_runs_the_same_command_as_the_command_line(spec, tmp_path, capsys):
    if spec is None:
        path = tmp_path / "laws.json"
        task = {"name": "core", "op": "laws", "instance": "q2_pointwise", "cases": 50}
        path.write_text(json.dumps({"space": {"kind": "qn", "dim": 2}, "tasks": [task]}))
    else:
        path = _REPO / "specs" / spec
    tasks = json.loads(path.read_text())["tasks"]
    merged = _machine_results(["run", "--spec", str(path)], capsys)
    expected = {}
    for i, task in enumerate(tasks):
        name = task.get("name", f"{task['op']}[{i}]")
        for key, value in _machine_results(_standalone_argv(task, str(path)), capsys).items():
            expected[f"{name}:{key}"] = value
    assert merged == expected


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
        ({"space": {"kind": "z", "topology": "evseq_product"}}, "space: evseq_product does not fit carrier z"),
        ({"space": {"kind": "z", "dim": 1}}, "space: z carries no dimension"),
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
    "data, message",
    [(b"\xff\xfe{}", "error: cannot read"), (b"[" * 200_000 + b"]" * 200_000, "error: not valid JSON")],
    ids=["not-utf8", "nested-200000-deep"],
)
def test_unreadable_spec_text_exits_2_at_once(data, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    start = time.perf_counter()
    _assert_input_error(["run", "--spec", str(path)], message, capsys)
    assert time.perf_counter() - start < 1.0


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
    "task, message",
    [
        ({"op": "posp", "hom": "t", "cases": 0}, "tasks[4]: 'cases' must be a positive integer, got 0"),
        ({"op": "converge", "net": "shrinking", "mode": "xr", "region": "unit_box"}, "tasks[4]: unknown mode 'xr'"),
        ({"op": "laws", "instance": "no_such_instance"}, "tasks[4]: no instance named 'no_such_instance'"),
        ({"op": "converge", "net": "shrinking", "mode": "nr", "region": "no_such_set"},
         "tasks[4]: no set named 'no_such_set'"),
        # A key that belongs to another op is refused, not ignored.
        ({"op": "classify", "hom": "t", "net": "shrinking"}, "unknown key(s) ['net'] in section 'tasks[4]'"),
        ({"op": "decompose", "x": "x", "y1": "y1", "y2": "y2", "region": "unit_box"},
         "unknown key(s) ['region'] in section 'tasks[4]'"),
        ({"op": "posp", "hom": "t", "mode": "nr"}, "unknown key(s) ['mode'] in section 'tasks[4]'"),
    ],
    ids=["cases", "mode", "instance", "region", "classify-net", "decompose-region", "posp-mode"],
)
def test_task_input_error_names_its_task(task, message, tmp_path, capsys):
    spec = json.loads(Path(QN2_SPEC).read_text())
    spec["tasks"].append(task)
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps(spec))
    _assert_input_error(["run", "--spec", str(path)], message, capsys)


def test_an_unmet_decompose_prerequisite_is_bad_input(tmp_path, capsys):
    _assert_input_error(["decompose", "y1", "x", "y2", "--spec", QN2_SPEC], "error: |FinVec(2, 0)|", capsys)
    spec = json.loads(Path(QN2_SPEC).read_text())
    spec["tasks"] = [{"op": "decompose", "x": "y1", "y1": "x", "y2": "y2"}]
    path = tmp_path / "prereq.json"
    path.write_text(json.dumps(spec))
    _assert_input_error(["run", "--spec", str(path)], "error: tasks[0]: |FinVec(2, 0)|", capsys)


@pytest.mark.parametrize(
    "tasks, message",
    [
        ([{"name": "a", "op": "decompose", "x": "x", "y1": "y1", "y2": "y2"},
          {"name": "a", "op": "decompose", "x": "y1", "y1": "x", "y2": "y2"}],
         "error: tasks[1]: an earlier task is already named 'a'"),
        ([{"op": "classify", "hom": "t"}, {"name": "classify[0]", "op": "classify", "hom": "m"}],
         "error: tasks[1]: an earlier task is already named 'classify[0]'"),
    ],
    ids=["explicit", "default"],
)
def test_a_repeated_task_name_exits_2(tasks, message, tmp_path, capsys):
    spec = json.loads(Path(QN2_SPEC).read_text())
    spec["tasks"] = tasks
    path = tmp_path / "names.json"
    path.write_text(json.dumps(spec))
    _assert_input_error(["run", "--spec", str(path)], message, capsys)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"space": {"kind": "qn", "dim": 2}, "homs": {"t": "bad", "t": {"kind": "identity"}}, '
         '"tasks": [{"op": "classify", "hom": "t"}]}',
         "error: repeated key(s) ['t'] in section 'homs'"),
        ('{"space": {"kind": "qn", "dim": 1}, "homs": {"t": {"kind": "matrix", "rows": "bad", "rows": [["1"]]}}}',
         "error: repeated key(s) ['rows'] in section 'homs.t'"),
        ('{"space": {"kind": "qn", "dim": 2}, "space": {"kind": "qn", "dim": 3}}',
         "error: repeated key(s) ['space'] in section 'top level'"),
    ],
    ids=["homs", "one-hom", "top-level"],
)
def test_a_repeated_spec_key_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    _assert_input_error(["run", "--spec", str(path)], message, capsys)


def test_run_checks_its_own_cases_before_any_task(capsys):
    _assert_input_error(["run", "--spec", EVSEQ_SPEC, "--cases", "0"], "error: --cases must be a positive integer", capsys)


@pytest.mark.parametrize("cases", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["laws", "q3_pointwise"],
        ["classify", "t", "--spec", QN2_SPEC],
        ["posp", "t", "--spec", QN2_SPEC],
        ["decompose", "x", "y1", "y2", "--spec", QN2_SPEC],
        ["converge", "shrinking", "--mode", "br", "--region", "probe_interval", "--spec", QN2_SPEC],
        ["gallery"],
        ["run", "--spec", QN2_SPEC],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_refuses_cases_below_one(argv, cases, capsys):
    message = f"error: --cases must be a positive integer, got {cases}"
    _assert_input_error([*argv, "--cases", cases], message, capsys)


def test_converge_on_a_net_without_target_exits_2(tmp_path, capsys):
    spec = json.loads(Path(QN2_SPEC).read_text())
    spec["nets"]["aimless"] = {"kind": "closed", "base": "t", "decay": "m"}
    path = tmp_path / "aimless.json"
    path.write_text(json.dumps(spec))
    message = "net 'aimless' carries no target to converge to"
    _assert_input_error(["converge", "aimless", "--mode", "cr", "--spec", str(path)], message, capsys)


def _converge_report(spec, argv, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["converge", *argv, "--spec", str(path), "--format", "machine"]) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"].values()
    return result


def test_table_nets_read_from_a_spec_file(tmp_path, capsys):
    # Q^2 in cr: term 1 (m - t has row sums 4 and 8) escapes the unit box, terms 2 on equal t.
    spec = json.loads(Path(QN2_SPEC).read_text())
    spec["nets"]["settling"] = {"kind": "table", "terms": ["m", "t", "t"], "target": "t"}
    result = _converge_report(spec, ["settling", "--mode", "cr"], tmp_path, capsys)
    assert (result["verdict"], result["alpha0"], result["recheck_at_alpha0_and_plus7"]) == ("CONVERGENT", 2, "PASS")
    # Sequences in br on an image set: d - b puts 4 * 5 + 1 * 0 at coordinate 0, so term 1 escapes.
    spec = {
        "space": {"kind": "evseq"},
        "homs": {
            "d": {"kind": "diagonal", "prefix": ["5"], "tail": "0"},
            "b": {"kind": "diag_plus_finite", "prefix": ["1"], "tail": "0", "block": [["0", "1"], ["0", "0"]]},
        },
        "sets": {
            "iv": {"kind": "interval", "lo": {"prefix": [], "tail": "-1"}, "hi": {"prefix": [], "tail": "1"}},
            "img": {"kind": "image", "hom": "d", "base": "iv"},
        },
        "nets": {"table": {"kind": "table", "terms": ["d", "b", "b"], "target": "b"}},
    }
    result = _converge_report(spec, ["table", "--mode", "br", "--region", "img"], tmp_path, capsys)
    assert (result["verdict"], result["alpha0"], result["recheck_at_alpha0_and_plus7"]) == ("CONVERGENT", 2, "PASS")


@pytest.mark.parametrize(
    "hom, positive_part",
    [
        # A block: the window covers the support plus one coordinate of the tail.
        ({"kind": "diag_plus_finite", "prefix": ["1", "-2"], "tail": "-1/2", "block": [["0", "3"], ["-1", "0"]]},
         {"kind": "diag_plus_finite", "prefix": ["1"], "tail": "0", "block": [["0", "3"], ["0", "0"]]}),
        # A diagonal longer than the window of 8 coordinates.
        ({"kind": "diagonal", "prefix": ["1", "-1", "2", "-2", "3", "-3", "4", "-4", "5", "-5"], "tail": "7"},
         {"kind": "diagonal", "prefix": ["1", "0", "2", "0", "3", "0", "4", "0", "5", "0"], "tail": "7"}),
    ],
    ids=["block", "long-diagonal"],
)
def test_posp_on_a_sequence_operator(hom, positive_part, tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"space": {"kind": "evseq"}, "homs": {"h": hom}}))
    assert main(["posp", "h", "--cases", "20", "--spec", str(path), "--format", "machine"]) == 0
    result = json.loads(capsys.readouterr().out)["results"]["posp:h"]
    assert result["positive_part"] == positive_part
    assert result["oracle_agreement"] == "20/20" and result["tail_agreement"] is True


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
    # the row's common denominator has about 8000 digits and is refused on reading.
    a, b = "1" + "0" * 3999 + "1", "1" + "0" * 3999 + "3"
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "space": {"kind": "qn", "dim": 2},
        "homs": {"t": {"kind": "matrix", "rows": [[f"1/{a}", f"1/{b}"], ["0", "1"]]}},
    }))
    _assert_input_error(["classify", "t", "--spec", str(path)], "4300-digit limit", capsys)


def test_a_result_computed_beyond_the_digit_limit_exits_2_at_render(tmp_path, capsys):
    # Every literal fits, but alpha0 for a decay of 10^4000 on a box of radius
    # 10^4000 is about 10^8000: only rendering the report finds it too long.
    big = "1" + "0" * 4000
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({
        "space": {"kind": "qn", "dim": 1},
        "homs": {"t": {"kind": "matrix", "rows": [["1"]]}, "m": {"kind": "matrix", "rows": [[big]]}},
        "sets": {"box": {"kind": "nbhd", "nbhd": {"topology": "qn_box", "radii": [big]}}},
        "nets": {"n": {"kind": "closed", "base": "t", "decay": "m", "target": "t"}},
    }))
    message = f"error: a result has an integer beyond the {sys.get_int_max_str_digits()}-digit limit for printing"
    _assert_input_error(["converge", "n", "--mode", "nr", "--region", "box", "--spec", str(path)], message, capsys)


def test_an_audit_failure_exits_1_with_nothing_on_stdout(monkeypatch, capsys):
    def broken(*args):
        raise SoundnessBug("planted")

    monkeypatch.setattr("latring.cli.classify", broken)
    assert main(["classify", "t", "--spec", QN2_SPEC]) == 1
    captured = capsys.readouterr()
    assert captured.err == "audit failure: planted\n"
    assert captured.out == ""


# Every error type of the library, each raised from inside a command below.
_ERROR_TYPES = sorted(
    (v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, LatringError)), key=lambda c: c.__name__
)


def test_the_input_errors_are_the_bad_input_types():
    assert {c.__name__ for c in _ERROR_TYPES if issubclass(c, InputError)} == {
        "InputError", "SpecFileError", "UnknownName", "UnknownInstance", "UnknownCase", "InvalidArgument",
        "VacuousProduct", "NotBounded", "DecompositionPrereqViolated",
    }


@pytest.mark.parametrize("error", _ERROR_TYPES, ids=lambda c: c.__name__)
def test_the_exit_code_of_an_error_comes_from_its_type(error, monkeypatch, capsys):
    def raises(doc, args):
        # The two witness-carrying types take the witness first; every message says "planted".
        raise error("planted", "planted") if error is errors.NotAdditiveOnCone else error("planted")

    monkeypatch.setitem(COMMANDS, "laws", COMMANDS["laws"]._replace(run=raises))
    code = main(["laws", "q2_pointwise"])
    captured = capsys.readouterr()
    bad_input = issubclass(error, InputError)
    assert code == (2 if bad_input else 1)
    assert captured.err.startswith("error: " if bad_input else "audit failure: ") and "planted" in captured.err
    assert captured.out == ""


def _deep_image_spec(depth: int) -> str:
    """A spec whose set `deep` is `depth` inline identity images of the unit box (written without recursion)."""
    box = '{"kind": "nbhd", "nbhd": {"topology": "qn_box", "radii": ["1", "1"]}}'
    deep = '{"kind": "image", "hom": {"kind": "identity"}, "base": ' * depth + box + "}" * depth
    return ('{"space": {"kind": "qn", "dim": 2}, "homs": {"t": {"kind": "identity"}}, "sets": {"deep": %s}, '
            '"nets": {"n": {"kind": "table", "terms": ["t"], "target": "t"}}}' % deep)


def test_input_nested_near_the_decoder_limit_exits_0_or_2(tmp_path, capsys):
    def decodes(depth: int) -> bool:
        try:
            json.loads(_deep_image_spec(depth))
        except RecursionError:
            return False
        return True

    # The deepest nesting the decoder accepts from this stack; `main` decodes a few frames deeper,
    # so the depths below it run from a decoded spec up to one the decoder refuses.
    lo, hi = 1, sys.getrecursionlimit()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if decodes(mid) else (lo, mid - 1)
    path = tmp_path / "deep.json"
    for depth in range(lo - 29, lo + 1):
        path.write_text(_deep_image_spec(depth))
        code = main(["converge", "n", "--mode", "br", "--region", "deep", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 2), depth
        if code == 2:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert captured.out == ""


def test_parse_specdoc_refuses_inline_sets_past_the_depth_cap():
    # `_deep_image_spec(d)` nests d images over a box: d + 1 inline sets.
    assert parse_specdoc(_deep_image_spec(MAX_SET_DEPTH - 1)).set_desc("deep").space == Space.qn(2)
    # 600 levels decode, and overflowed the reader's stack before the cap.
    for depth in (MAX_SET_DEPTH, 600):
        with pytest.raises(SpecFileError, match=rf"^sets\.deep: inline sets nest deeper than {MAX_SET_DEPTH} levels$"):
            parse_specdoc(_deep_image_spec(depth))


def _named_image_chain(links: int) -> str:
    """A spec whose sets s0 (the unit box) .. s<links> each name the one before as an identity image's base."""
    sets = {"s0": {"kind": "nbhd", "nbhd": {"topology": "qn_box", "radii": ["1", "1"]}}}
    sets.update({f"s{i}": {"kind": "image", "hom": "t", "base": f"s{i - 1}"} for i in range(1, links + 1)})
    return json.dumps({"space": {"kind": "qn", "dim": 2}, "homs": {"t": {"kind": "identity"}}, "sets": sets,
                       "nets": {"n": {"kind": "table", "terms": ["t"], "target": "t"}}})


def test_named_image_chains_count_toward_the_depth_cap(tmp_path, capsys):
    # s<MAX_SET_DEPTH - 1> stacks MAX_SET_DEPTH sets, as deep as an inline chain may go.
    top = f"s{MAX_SET_DEPTH - 1}"
    assert parse_specdoc(_named_image_chain(MAX_SET_DEPTH - 1)).set_desc(top).space == Space.qn(2)
    message = rf"^sets\.s{MAX_SET_DEPTH}: image sets stack deeper than {MAX_SET_DEPTH} levels$"
    with pytest.raises(SpecFileError, match=message):
        parse_specdoc(_named_image_chain(MAX_SET_DEPTH))
    # A 2000-link chain is refused while it is read, naming the first set past the cap.
    with pytest.raises(SpecFileError, match=message):
        parse_specdoc(_named_image_chain(2000))
    path = tmp_path / "chain.json"
    path.write_text(_named_image_chain(2000))
    argv = ["converge", "n", "--mode", "br", "--region", "s1999", "--spec", str(path)]
    _assert_input_error(argv, f"sets.s{MAX_SET_DEPTH}: image sets stack deeper", capsys)


def test_an_inline_set_on_a_named_chain_counts_both():
    spec = json.loads(_named_image_chain(MAX_SET_DEPTH - 2))
    inline = {"kind": "image", "hom": "t", "base": f"s{MAX_SET_DEPTH - 2}"}
    spec["sets"]["top"] = {"kind": "image", "hom": "t", "base": inline}
    with pytest.raises(SpecFileError, match=rf"^sets\.top: image sets stack deeper than {MAX_SET_DEPTH} levels$"):
        parse_specdoc(json.dumps(spec))
    spec["sets"]["top"] = inline
    assert parse_specdoc(json.dumps(spec)).set_desc("top").space == Space.qn(2)


def _dim_spec(dim: int, section: str) -> dict:
    """A spec with `section` of dimension `dim`, the other space at the cap, and the identity.

    A reader without the cap would build the identity densely, dim^2 entries, so a spec far past the cap
    leaves it out.
    """
    spec = {"space": {"kind": "qn", "dim": MAX_DIM}, section: {"kind": "qn", "dim": dim}}
    if dim <= 2 * MAX_DIM:
        spec["homs"] = {"t": {"kind": "identity"}}
    return spec


def test_qn_dimension_at_the_cap_loads():
    assert parse_specdoc(json.dumps(_dim_spec(MAX_DIM, "space"))).hom("t").n == MAX_DIM


@pytest.mark.parametrize("section", ["space", "codomain_space"])
@pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**12])
def test_qn_dimension_past_the_cap_exits_2_at_once(dim, section, tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_dim_spec(dim, section)))
    start = time.perf_counter()
    _assert_input_error(["run", "--spec", str(path)], f"{section}: dim {dim} is above the cap of {MAX_DIM}", capsys)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["run", "--spec", QN2_SPEC, "--format", "machine"], 0),
        (["laws", "matrix2_entrywise"], 1),
        (["classify", "ghost", "--spec", QN2_SPEC], 2),
    ],
    ids=["pass", "audit-failure", "bad-input"],
)
def test_the_module_entry_point_in_a_subprocess(argv, exit_code):
    env = {**os.environ, "PYTHONPATH": str(_REPO / "src")}
    done = subprocess.run([sys.executable, "-m", "latring.cli", *argv], capture_output=True, env=env, timeout=120)
    assert done.returncode == exit_code, done.stderr
    if exit_code == 0:
        assert done.stdout == (_REPO / "tests" / "golden" / "run_qn2_demo.json").read_bytes()
    if exit_code == 2:
        assert done.stderr.startswith(b"error: ") and done.stdout == b""


def _coprime_odd(count: int, digits: int) -> list[int]:
    """`count` pairwise coprime odd integers of `digits` digits or one more.

    With m a multiple of every integer up to `count`, gcd(2im + 1, 2jm + 1)
    divides j - i, whose prime factors all divide m and so none of 2im + 1.
    """
    m = math.lcm(*range(1, count + 1)) * 10 ** (digits - 6)
    return [2 * i * m + 1 for i in range(1, count + 1)]


@pytest.mark.parametrize("digits", [500, 2000])
@pytest.mark.parametrize("argv", [["classify", "t"], ["posp", "t", "--cases", "1"]], ids=["classify", "posp"])
def test_long_literal_matrix_exits_2_at_once(argv, digits, tmp_path, capsys):
    # Each row of 1/d entries has a common denominator of about 16 * digits digits.
    row = [f"1/{d}" for d in _coprime_odd(16, digits)]
    path = tmp_path / "long.json"
    spec = {"space": {"kind": "qn", "dim": 16}, "homs": {"t": {"kind": "matrix", "rows": [row] * 16}}}
    path.write_text(json.dumps(spec))
    message = f"homs.t: a row has an integer beyond the {sys.get_int_max_str_digits()}-digit limit"
    start = time.perf_counter()
    _assert_input_error([*argv, "--spec", str(path)], message, capsys)
    assert time.perf_counter() - start < 1.0
