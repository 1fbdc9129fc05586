"""The law suites' failure path: a broken law fails its suite with the first
failing case as the detail, counts every case, and leaves the other laws alone."""

from latring import audits
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
