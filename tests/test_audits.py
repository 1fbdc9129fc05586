"""The law suites' failure path: a broken law fails its suite with the first
failing case as the detail, counts every case, and leaves the other laws alone."""

import itertools

from latring import audits, homs, homspaces
from latring.elements import EvSeq, FinVec


def _perturb_call(monkeypatch, name, at, bump):
    """Replace `audits.<name>` so that call number `at` (from 0) returns
    `bump(result, *args)`; returns the arguments of that call once it is made."""
    real = getattr(audits, name)
    calls = []

    def patched(*args):
        calls.append(args)
        result = real(*args)
        return bump(result, *args) if len(calls) == at + 1 else result

    monkeypatch.setattr(audits, name, patched)
    return lambda: calls[at]


def test_a_broken_oracle_fails_the_vertex_suite_at_its_first_bad_case(monkeypatch):
    clean = audits.rk_agreement_suite(seed=4, cases=40)
    assert clean.passed and clean.detail == ""
    args = _perturb_call(monkeypatch, "sup_over_interval_oracle", 2, lambda v, T, x: v + FinVec.constant(T.n, 1))
    broken = audits.rk_agreement_suite(seed=4, cases=40)
    T, x = args()
    assert (broken.passed, broken.cases) == (False, 40)
    assert broken.detail == f"disagreement for {T!r} at {x!r}"
    assert (broken.name, broken.provenance) == (clean.name, clean.provenance)


def test_a_broken_join_fails_only_the_join_meet_law(monkeypatch):
    inst = audits.INSTANCES["q3_pointwise"]
    clean = audits.lattice_law_suite(inst, seed=2, cases=60)
    assert all(r.passed for r in clean)
    args = _perturb_call(monkeypatch, "join", 5, lambda v, space, x, y: v + FinVec.of(1, 0, 0))
    broken = audits.lattice_law_suite(inst, seed=2, cases=60)
    _, x, y = args()
    assert [r.name for r in broken] == [r.name for r in clean]
    assert [r.cases for r in broken] == [r.cases for r in clean]
    first, *rest = broken
    assert (first.name, first.passed, first.detail) == ("join-meet-sum", False, f"{x!r}, {y!r}")
    assert rest == clean[1:]


def test_a_broken_split_names_only_x(monkeypatch):
    inst = audits.INSTANCES["evseq_product_pointwise"]
    args = _perturb_call(monkeypatch, "neg_part", 3, lambda v, space, x: v + EvSeq.constant(1))
    results = {r.name: r for r in audits.lattice_law_suite(inst, seed=1, cases=30)}
    _, x = args()
    assert not results["pos-neg-split"].passed
    assert results["pos-neg-split"].detail == f"{x!r}"
    assert all(r.passed for name, r in results.items() if name != "pos-neg-split")


def test_an_unstable_canonical_form_names_its_sequence(monkeypatch):
    # A drifting index value, then a drifting tail that breaks the rebuild, each fail every case.
    real_at, real_tail = EvSeq.at, EvSeq.tail
    seen = []

    def drifting_at(self, i):
        seen.append(self)
        return real_at(self, i) + 1

    def drifting_tail(self):
        seen.append(self)
        return real_tail.fget(self) + 1

    for name, drift in (("at", drifting_at), ("tail", property(drifting_tail))):
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(EvSeq, name, drift)
            result = audits.canonical_idempotence_suite(seed=0, cases=12)
            assert (result.passed, result.cases) == (False, 12)
            assert result.detail == f"canonical form unstable for {seen[0]!r}"


def test_a_divergent_sample_net_fails_the_recheck_suite(monkeypatch):
    clean = audits.convergence_recheck_suite()
    assert clean.passed
    nets = audits._sample_nets()
    net, limit, region, pairs = nets["br"]
    # The br net's terms tend to its nonzero base, so it does not converge to zero; nr's four rechecks come first.
    monkeypatch.setattr(audits, "_sample_nets", lambda: {**nets, "br": (net, limit.scale(0), region, pairs)})
    broken = audits.convergence_recheck_suite()
    assert (broken.passed, broken.cases, broken.detail) == (False, 4, "br net unexpectedly divergent")
    assert (broken.name, broken.provenance) == (clean.name, clean.provenance)


def test_a_cone_extension_that_accepts_a_non_additive_table_fails_its_suite(monkeypatch):
    clean = audits.cone_extension_suite(seed=1, cases=20)
    assert all(r.passed for r in clean)
    real = homs.extend_from_cone
    # Extends a homomorphism as before, and accepts every table without auditing it.
    monkeypatch.setattr(homs, "extend_from_cone", lambda f: real(f) if f.hom is not None else None)
    reproduce, rejected = audits.cone_extension_suite(seed=1, cases=20)
    assert reproduce == clean[0]
    assert (rejected.name, rejected.passed, rejected.cases, rejected.detail) == (
        "cone-extension-rejects-non-additive", False, 1, "no rejection")


def test_a_planted_positive_part_fails_the_continuity_suite(monkeypatch):
    clean = audits.lattice_continuity_suite(seed=0)
    assert clean.passed and clean.cases == 72
    # A million times each positive part of T_a - S_a, the third of the audit's three per entry.
    calls = itertools.count()
    monkeypatch.setattr(
        homspaces, "positive_part",
        lambda T: T.positive_part().scale(10**6) if next(calls) % 3 == 2 else T.positive_part(),
    )
    broken = audits.lattice_continuity_suite(seed=0)
    assert (broken.passed, broken.cases) == (False, 0)
    assert broken.detail.startswith("positive-part difference escaped the target at alpha=")
    assert (broken.name, broken.provenance) == (clean.name, clean.provenance)
