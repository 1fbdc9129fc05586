"""Named, self-checking counterexamples, runnable as a regression suite.

Expected outcomes live in a data file, not in code, so a classifier
regression surfaces as a diff against recorded labels rather than a silent
behavior change.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Callable

from .audits import FRING_PLANTED_TRIPLE, all_suites
from .errors import UnknownCase
from .homs import identity_on
from .homspaces import classify
from .records import Record
from .spaces import (
    Multiplication,
    Space,
    TopologyId,
    check_f_ring,
    matrix2_mul,
    meet,
)


def render_nbhd(nbhd) -> dict | None:
    return None if nbhd is None else nbhd.render()


def _classify_case(domain: Space, codomain: Space) -> dict:
    label = classify(identity_on(domain), domain, codomain)
    return {
        "flags": label.flags(),
        "nr_group_refuting": render_nbhd(label.nr.group.refuting),
        "continuity_witness": render_nbhd(label.continuity_witness),
    }


def _case_d() -> dict:
    space = Space.qn(4)
    a, b, c = FRING_PLANTED_TRIPLE
    verdict = check_f_ring(space, [(a, b, c)], mul=matrix2_mul)
    ca = matrix2_mul(c, a)
    ac = matrix2_mul(a, c)
    zero = space.zero()
    return {
        "f_ring_holds": verdict.holds,
        "witness_is_planted_triple": verdict.witness == (a, b, c),
        "ca_equals_b": ca == b,
        "ca_meet_b_nonzero": meet(space, ca, b) != zero,
        "ac_meet_b_zero": meet(space, ac, b) == zero,
    }


_PRODUCT = Space.evseq(TopologyId.EVSEQ_PRODUCT)
_PRODUCT_ZERO = Space.evseq(TopologyId.EVSEQ_PRODUCT, Multiplication.ZERO)

# Each case id's narrative, the function that computes its recorded facts, and that function's arguments.
_REGISTRY: dict[str, tuple[str, Callable[..., dict], tuple]] = {
    "A_product_identity": (
        "On eventually constant rational sequences with the product topology and "
        "pointwise multiplication, the identity map carries order intervals into "
        "order intervals, yet the image of every base neighborhood leaves all but "
        "finitely many coordinates unconstrained, so none of those images is bounded.",
        _classify_case,
        (_PRODUCT, _PRODUCT),
    ),
    "B_zero_mult_identity": (
        "Replacing pointwise multiplication with the zero product makes every set "
        "multiplicatively bounded, trivializing that reading; under the "
        "multiple-of-a-neighborhood reading the identity map is bounded in neither "
        "sense, while remaining order bounded.",
        _classify_case,
        (_PRODUCT_ZERO, _PRODUCT_ZERO),
    ),
    "C_linfty_product_vs_norm": (
        "Between the product topology and the sup-norm topology on the same "
        "sequences, the identity map is order bounded but not continuous: a "
        "sup-norm ball constrains every coordinate and no product-base "
        "neighborhood does.",
        _classify_case,
        (_PRODUCT, Space.evseq(TopologyId.EVSEQ_SUPNORM)),
    ),
    "D_fring_failure_matrix": (
        "Flattened 2x2 rational matrices under the entrywise order form a lattice "
        "ring that fails the disjointness axiom: with a the (1,1) unit and b = c "
        "the (2,1) unit, a and b are disjoint and c is positive, yet c*a equals b, "
        "so (c*a) meet b is nonzero.",
        _case_d,
        (),
    ),
}

CASE_IDS = tuple(_REGISTRY)


def load_expected() -> dict:
    text = resources.files("latring").joinpath("data/gallery_expected.json").read_text()
    return json.loads(text)


class CaseReport(Record):
    case_id: str
    passed: bool
    expected: dict
    actual: dict
    diffs: tuple[str, ...]
    narrative: str

    def render(self) -> dict:
        return {
            "case": self.case_id,
            "status": "PASS" if self.passed else "FAIL",
            "expected": self.expected,
            "actual": self.actual,
            "diffs": list(self.diffs),
            "summary": self.narrative,
        }


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


def run_case(case_id: str, expected: dict | None = None) -> CaseReport:
    """Re-derive one case and diff it against the recorded expectation."""
    if case_id not in _REGISTRY:
        raise UnknownCase(f"no case named {case_id!r}; known: {', '.join(CASE_IDS)}")
    narrative, compute, args = _REGISTRY[case_id]
    expected_all = expected if expected is not None else load_expected()
    want = dict(expected_all[case_id])
    want.pop("headline", None)
    got = compute(*args)
    flat_want, flat_got = _flatten(want), _flatten(got)
    diffs = []
    for key in sorted(set(flat_want) | set(flat_got)):
        if flat_want.get(key) != flat_got.get(key):
            diffs.append(f"{key}: expected {flat_want.get(key)!r}, got {flat_got.get(key)!r}")
    return CaseReport(case_id, not diffs, want, got, tuple(diffs), narrative)


def run_cases() -> list[CaseReport]:
    expected = load_expected()
    return [run_case(case_id, expected) for case_id in _REGISTRY]


class SuiteReport(Record):
    cases: tuple[CaseReport, ...]
    law_results: tuple
    passed: bool


def run_all(seed: int = 0, cases: int = 1000) -> SuiteReport:
    """All named cases plus the randomized law suites of every module."""
    case_reports = run_cases()
    laws = all_suites(seed=seed, cases=cases)
    passed = all(c.passed for c in case_reports) and all(r.passed for r in laws)
    return SuiteReport(tuple(case_reports), tuple(laws), passed)
