"""Golden machine reports: refactors must leave the canonical output byte-identical.

The stored files are the `--format machine` output of `run` on the two demo
specs; the gallery report is pinned by its sha256.  If a change alters one of
these on purpose, regenerate the file (or digest) with the command in the
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


def _machine_report(argv, capsys) -> bytes:
    capsys.readouterr()
    assert main([*argv, "--format", "machine"]) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize(
    "spec, golden",
    [("qn2_demo.json", "run_qn2_demo.json"), ("evseq_demo.json", "run_evseq_demo.json")],
)
def test_run_demo_spec_matches_golden(spec, golden, capsys):
    out = _machine_report(["run", "--spec", str(_REPO / "specs" / spec)], capsys)
    assert out == (_GOLDEN / golden).read_bytes()


def test_gallery_report_digest(capsys):
    out = _machine_report(["gallery", "--seed", "0", "--cases", "50"], capsys)
    assert hashlib.sha256(out).hexdigest() == GALLERY_SEED0_CASES50_SHA256
