"""Golden machine reports: refactors must leave the canonical output byte-identical.

The stored files are the `--format machine` output of `run` on the four demo
specs (the sup-norm one prints `nr` certificates and sup-norm witnesses, and
the integer one the discrete topology's verdicts and integer elements) and on
`specs/qn2_nets.json` (table and constant nets on Q^2 in all three modes), and
of `classify`, `posp`, `converge --mode br` and `decompose` on
`specs/q12_literals.json`, whose literals are written unreduced, signed,
zero-padded and over coprime denominators, and of the NOT_CONVERGENT cr
verdict on `specs/evseq_demo.json`; the gallery reports and the `laws`
report of every instance are pinned by their sha256.  The `.txt` files pin
the default `--format text` output of `run` on `specs/qn2_demo.json`, of a
failing `laws` report, and of `classify` on `specs/q12_literals.json`.  If a change alters one
of these on purpose, regenerate the file (or digest) with the command in the
test and say why in the change description.
"""

import hashlib
from pathlib import Path

import pytest

from latring.cli import main

_REPO = Path(__file__).resolve().parents[1]
_GOLDEN = Path(__file__).resolve().parent / "golden"

# sha256 of `latring gallery --seed 0 --cases 50 --format machine`.
GALLERY_SEED0_CASES50_SHA256 = "7dd24b8f812e6a807002b2ffc3ef64ab677f424cac30507409f8cfd1906958f6"

# sha256 of `latring gallery --seed <s> --cases 300 --format machine`.
GALLERY_CASES300_SHA256 = {
    1: "375d52a4ec7f8ed0cfc1204b686d99e9d56ee58b20dd19a8b5eaaa8321786c9d",
    2: "c144087e90619a87f3131e9dd470f50dcec432e2491adab679b1036a8e7efcea",
    3: "1515b060d22f44e8b6c821166654dcdf19fcb48763f9895e3fd7cc410b4b03fd",
}

# sha256 of `latring laws <instance> --seed 5 --cases 400 --format machine`,
# with its exit code: the flattened matrix ring fails the disjointness axiom.
LAWS_SEED5_CASES400 = {
    "evseq_product_pointwise": (0, "65e2b81d7c63bf7e6920de6f72ff46878321b8b621589fde2b82c13ca604ec9c"),
    "evseq_product_zero": (0, "372c14a8808bda5dd63778745dede55de4433147f27a24a822eb33014207c9bd"),
    "evseq_supnorm_pointwise": (0, "b796d3673eed9ec5c25d5bcb11c7b99a327190cbfa0aad34461fe4a3d8d21de0"),
    "matrix2_entrywise": (1, "c3653ef6ac835c8375ca5805bf6c8c0657926742d65dead527a7fc3aa7e9636e"),
    "q1_pointwise": (0, "e918fe1f5074d3cd1982e0aa3e889cc946a329e08919fe33b983e47fcb82ec91"),
    "q2_pointwise": (0, "f7a8c274c902d39aca7b0932e0afdd025ee88103061b00fc59ac72575c0cac88"),
    "q3_pointwise": (0, "d012d2eb20d9d712bb025b0665df1f66709a202365b8de50ac0aaf7e175339b4"),
    "q5_pointwise": (0, "e39b7cf8182d9961c2df6c81507ef4ecb8c8b3f42224d7d76b9f12283c450707"),
    "z_discrete": (0, "65c6b98bd4c284184571df2f7d10218bfcec6b3d5bc0a824598a5539b51dc909"),
}


def _machine_report(argv, capsys, exit_code: int = 0) -> bytes:
    capsys.readouterr()
    assert main([*argv, "--format", "machine"]) == exit_code
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize(
    "spec, golden",
    [
        ("qn2_demo.json", "run_qn2_demo.json"),
        ("evseq_demo.json", "run_evseq_demo.json"),
        ("evseq_supnorm_demo.json", "run_evseq_supnorm_demo.json"),
        ("z_demo.json", "run_z_demo.json"),
        ("qn2_nets.json", "run_qn2_nets.json"),
    ],
)
def test_run_demo_spec_matches_golden(spec, golden, capsys):
    out = _machine_report(["run", "--spec", str(_REPO / "specs" / spec)], capsys)
    assert out == (_GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["classify", "t"], "q12_literals_classify.json"),
        (["posp", "t", "--cases", "1"], "q12_literals_posp.json"),
        (["converge", "shrinking", "--mode", "br", "--region", "probe_interval"], "q12_literals_converge_br.json"),
        (["decompose", "x", "y1", "y2"], "q12_literals_decompose.json"),
    ],
)
def test_q12_literal_spec_matches_golden(argv, golden, capsys):
    out = _machine_report([*argv, "--spec", str(_REPO / "specs" / "q12_literals.json")], capsys)
    assert out == (_GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["converge", "stuck_identity", "--mode", "cr"], "evseq_demo_converge_stuck_cr.json"),
    ],
)
def test_evseq_demo_spec_matches_golden(argv, golden, capsys):
    out = _machine_report([*argv, "--spec", str(_REPO / "specs" / "evseq_demo.json")], capsys)
    assert out == (_GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, exit_code, golden",
    [
        (["run", "--spec", str(_REPO / "specs" / "qn2_demo.json")], 0, "run_qn2_demo.txt"),
        (["laws", "matrix2_entrywise", "--cases", "60"], 1, "laws_matrix2_entrywise.txt"),
        (["classify", "t", "--spec", str(_REPO / "specs" / "q12_literals.json")], 0, "q12_literals_classify.txt"),
    ],
)
def test_text_report_matches_golden(argv, exit_code, golden, capsys):
    capsys.readouterr()
    assert main(argv) == exit_code
    assert capsys.readouterr().out.encode("utf-8") == (_GOLDEN / golden).read_bytes()


def test_gallery_report_digest(capsys):
    out = _machine_report(["gallery", "--seed", "0", "--cases", "50"], capsys)
    assert hashlib.sha256(out).hexdigest() == GALLERY_SEED0_CASES50_SHA256


@pytest.mark.parametrize("seed", sorted(GALLERY_CASES300_SHA256))
def test_gallery_cases300_digest(seed, capsys):
    out = _machine_report(["gallery", "--seed", str(seed), "--cases", "300"], capsys)
    assert hashlib.sha256(out).hexdigest() == GALLERY_CASES300_SHA256[seed]


@pytest.mark.parametrize("instance", sorted(LAWS_SEED5_CASES400))
def test_laws_report_digest(instance, capsys):
    exit_code, digest = LAWS_SEED5_CASES400[instance]
    out = _machine_report(["laws", instance, "--seed", "5", "--cases", "400"], capsys, exit_code)
    assert hashlib.sha256(out).hexdigest() == digest
