"""Acceptance gate: one test per criterion, all exact, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
from fractions import Fraction as F

from latring import (
    FinVec,
    FiniteSet,
    MatrixHom,
    NotAdditiveOnCone,
    Space,
    directed_sup,
    hom_join,
    hom_meet,
    hull_bounded_preservation,
    modulus,
    negative_part,
    positive_part,
    riesz_decompose,
    sup_over_interval_oracle,
)
from latring.audits import INSTANCES, lattice_continuity_suite
from latring.cli import main
from latring.gallery import CASE_IDS, run_case
from latring.homs import ConeMap, extend_from_cone
from latring.sampling import rand_element, rand_matrix_rows, rand_pos_element, rng_for


def _verdict(number: int, name: str, passed: bool, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_positive_part_oracle_agreement():
    rng = rng_for(101)
    t0 = time.monotonic()
    ok = True
    for _ in range(500):
        n = rng.randint(1, 6)
        T = MatrixHom(rand_matrix_rows(rng, n))
        x = rand_pos_element(rng, Space.qn(n))
        ok = ok and positive_part(T).apply(x) == sup_over_interval_oracle(T, x)
    _verdict(1, "positive-part vs 2^n vertex oracle, exact", ok, time.monotonic() - t0, 10)


def test_criterion_2_decomposition_postconditions():
    space = Space.qn(5)
    rng = rng_for(102)
    t0 = time.monotonic()
    ok = True
    for i in range(1000):
        y1, y2 = rand_element(rng, Space.qn(5)), rand_element(rng, Space.qn(5))
        cap = abs(y1) + abs(y2)
        scale = F(rng.randint(0, 24), 24) if i % 2 else F(rng.randint(-24, 24), 24)
        x = FinVec(tuple(scale * c for c in cap))
        x1, x2 = riesz_decompose(space, x, y1, y2)
        ok = ok and x1 + x2 == x and abs(x1) <= abs(y1) and abs(x2) <= abs(y2)
        if FinVec.zero(5) <= x:
            ok = ok and FinVec.zero(5) <= x1 and FinVec.zero(5) <= x2
    _verdict(2, "decomposition postconditions, exact", ok, time.monotonic() - t0, 5)


def test_criterion_3_cone_extension():
    rng = rng_for(103)
    t0 = time.monotonic()
    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        T = MatrixHom(rand_matrix_rows(rng, n))
        ext = extend_from_cone(ConeMap(Space.qn(n), T, ()), samples=3, seed=rng.randint(0, 999))
        x = rand_element(rng, Space.qn(n))  # mixed-sign input
        ok = ok and ext.apply(x) == T.apply(x)
    planted = ConeMap(
        Space.qn(2),
        None,
        (
            (FinVec.of(1, 0), FinVec.of(1, 0)),
            (FinVec.of(0, 1), FinVec.of(0, 0)),
            (FinVec.of(1, 1), FinVec.of(5, 5)),
        ),
    )
    try:
        extend_from_cone(planted)
        ok = False
    except NotAdditiveOnCone as exc:
        ok = ok and set(exc.witness) == {FinVec.of(1, 0), FinVec.of(0, 1)}
    _verdict(3, "cone extension reproduces sources; non-additive table rejected", ok, time.monotonic() - t0, 5)


def test_criterion_4_hom_lattice_laws():
    rng = rng_for(104)
    t0 = time.monotonic()
    ok = True
    for _ in range(500):
        n = rng.randint(1, 5)
        T = MatrixHom(rand_matrix_rows(rng, n))
        S = MatrixHom(rand_matrix_rows(rng, n))
        zero = MatrixHom.zero(n)
        ok = ok and positive_part(T) - negative_part(T) == T
        ok = ok and positive_part(T) + negative_part(T) == modulus(T)
        ok = ok and hom_meet(positive_part(T), negative_part(T)) == zero
        ok = ok and hom_join(T, S) + hom_meet(T, S) == T + S
    _verdict(4, "operator lattice laws on 500 random pairs, exact", ok, time.monotonic() - t0, 5)


def test_criterion_5_directed_sup():
    rng = rng_for(105)
    t0 = time.monotonic()
    ok = True
    for _ in range(100):
        n = rng.randint(2, 4)
        family = [MatrixHom(rand_matrix_rows(rng, n)) for _ in range(rng.randint(2, 5))]
        envelope = family[0]
        for T in family[1:]:
            envelope = hom_join(envelope, T)
        bound = envelope + MatrixHom(rand_matrix_rows(rng, n)).positive_part()
        S = directed_sup(family, bound)
        ok = ok and all((S - T).positive_part() == S - T for T in family)
        upper = S + MatrixHom(rand_matrix_rows(rng, n)).positive_part()
        ok = ok and (upper - S).positive_part() == upper - S
        ok = ok and (bound - S).positive_part() == bound - S
    _verdict(5, "finite directed suprema dominate members and respect bounds", ok, time.monotonic() - t0, 5)


def test_criterion_6_gallery():
    t0 = time.monotonic()
    reports = [run_case(case_id) for case_id in CASE_IDS]
    ok = all(r.passed for r in reports)
    _verdict(6, "gallery cases A, B, C, D reproduce their recorded labels", ok, time.monotonic() - t0, 2)


def test_criterion_7_lattice_continuity_three_modes():
    t0 = time.monotonic()
    result = lattice_continuity_suite(seed=107)
    _verdict(7, "positive-part continuity inequality and target membership, nr/br/cr",
             result.passed, time.monotonic() - t0, 10)


def test_criterion_8_solid_hull():
    rng = rng_for(108)
    names = ("q2_pointwise", "q5_pointwise", "evseq_product_pointwise", "evseq_supnorm_pointwise")
    t0 = time.monotonic()
    ok = True
    for i in range(500):
        inst = INSTANCES[names[i % len(names)]]
        pts = tuple(rand_element(rng, inst.space) for _ in range(rng.randint(1, 4)))
        S = FiniteSet(inst.space, pts)
        ok = ok and hull_bounded_preservation(S)
    _verdict(8, "solid hulls of bounded finite sets stay bounded, same bounds", ok, time.monotonic() - t0, 5)


def test_criterion_9_recheck_and_uniqueness():
    from latring.audits import convergence_recheck_suite, uniqueness_suite

    t0 = time.monotonic()
    recheck = convergence_recheck_suite()
    uniq = uniqueness_suite(seed=109, cases=50)
    ok = recheck.passed and uniq.passed and uniq.cases == 50
    _verdict(9, "certificates recheck at threshold and +7; 50 paired-limit audits",
             ok, time.monotonic() - t0, 10)


def test_criterion_10_report_determinism(capsys):
    t0 = time.monotonic()
    main(["gallery", "--seed", "0", "--cases", "120", "--format", "machine"])
    first = capsys.readouterr().out
    main(["gallery", "--seed", "0", "--cases", "120", "--format", "machine"])
    second = capsys.readouterr().out
    main(["laws", "q3_pointwise", "--seed", "0", "--cases", "120", "--format", "machine"])
    laws_first = capsys.readouterr().out
    main(["laws", "q3_pointwise", "--seed", "0", "--cases", "120", "--format", "machine"])
    laws_second = capsys.readouterr().out
    ok = first == second and laws_first == laws_second and first and laws_first
    with capsys.disabled():
        _verdict(10, "byte-identical machine reports for fixed seeds", bool(ok), time.monotonic() - t0, 30)
