"""Randomized law suites: reproducible, exact, and shared by the CLI, the
gallery aggregate, and the test suite.

Every check is an exact identity or an exact inequality over seeded samples;
there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from typing import Callable

from .elements import EvSeq, FinVec
from .errors import UnknownInstance
from .homs import (
    MatrixHom,
    SeqHom,
    decomposition_failure,
    directed_sup,
    hom_join,
    hom_meet,
    modulus,
    negative_part,
    positive_part,
    sup_over_interval_oracle,
)
from .homspaces import HomNet, converges, lattice_continuity_audit
from .records import Record
from .sampling import rand_element, rand_matrix_rows, rand_pos_element, rand_rat, rng_for
from .spaces import (
    Multiplication,
    Space,
    SpaceKind,
    TopologyId,
    abs_val,
    archimedean_witness,
    check_f_ring,
    join,
    matrix2_mul,
    meet,
    neg_part,
    pos_part,
    ring_mul,
)
from .topology import (
    FiniteSet,
    ImageSet,
    Interval,
    Neighborhood,
    NbhdSet,
    SetDesc,
    SolidHull,
    coordinate_bounds,
    element_bounds,
    fatou_check,
    hull_bounded_preservation,
    set_group_bounded,
    set_ring_bounded,
)


class CheckResult(Record):
    name: str
    passed: bool
    cases: int
    detail: str
    provenance: str

    def render(self) -> dict:
        return {
            "check": self.name,
            "status": "PASS" if self.passed else "FAIL",
            "cases": self.cases,
            "detail": self.detail,
            "provenance": self.provenance,
        }


class LawInstance(Record):
    name: str
    space: Space
    mul_override: Callable | None

    def product(self, a, b):
        if self.mul_override is not None:
            return self.mul_override(a, b)
        return ring_mul(self.space, a, b)


INSTANCES: dict[str, LawInstance] = {
    inst.name: inst
    for inst in (
        LawInstance("q1_pointwise", Space.qn(1), None),
        LawInstance("q2_pointwise", Space.qn(2), None),
        LawInstance("q3_pointwise", Space.qn(3), None),
        LawInstance("q5_pointwise", Space.qn(5), None),
        LawInstance("evseq_product_pointwise", Space.evseq(TopologyId.EVSEQ_PRODUCT), None),
        LawInstance("evseq_product_zero", Space.evseq(TopologyId.EVSEQ_PRODUCT, Multiplication.ZERO), None),
        LawInstance("evseq_supnorm_pointwise", Space.evseq(TopologyId.EVSEQ_SUPNORM), None),
        LawInstance("z_discrete", Space.z_discrete(), None),
        LawInstance("matrix2_entrywise", Space.qn(4), matrix2_mul),
    )
}

FRING_PLANTED_TRIPLE = (FinVec.of(1, 0, 0, 0), FinVec.of(0, 0, 1, 0), FinVec.of(0, 0, 1, 0))


def get_instance(name: str) -> LawInstance:
    if name not in INSTANCES:
        raise UnknownInstance(f"no instance named {name!r}; known: {', '.join(sorted(INSTANCES))}")
    return INSTANCES[name]


def _tally(name: str, provenance: str, outcomes: list[str | None]) -> CheckResult:
    """One result over a suite's cases: each outcome is None where the law held,
    or a description of the case where it failed; the first one is the detail."""
    failures = [o for o in outcomes if o is not None]
    return CheckResult(name, not failures, len(outcomes), failures[0] if failures else "", provenance)


# ---------------------------------------------------------------------------
# Element-level law suites.

# Each element law with its provenance, in report order.
_ELEMENT_LAWS = (
    ("join-meet-sum", "lattice identities"),
    ("triangle-inequality", "lattice identities"),
    ("ring-compatibility", "lattice-ring axiom"),
    ("pos-neg-split", "lattice identities"),
    ("archimedean-witness", "archimedean order"),
)


def lattice_law_suite(instance: LawInstance, seed: int = 0, cases: int = 1000) -> list[CheckResult]:
    space = instance.space
    rng = rng_for(seed)
    zero = space.zero()

    def case() -> tuple:
        x = rand_element(rng, space)
        y = rand_element(rng, space)
        xp, xn = pos_part(space, x), neg_part(space, x)
        held = (
            join(space, x, y) + meet(space, x, y) == x + y,
            abs_val(space, x + y) <= abs_val(space, x) + abs_val(space, y),
            abs_val(space, instance.product(x, y)) <= instance.product(abs_val(space, x), abs_val(space, y)),
            xp - xn == x and xp + xn == abs_val(space, x) and meet(space, xp, xn) == zero,
            _archimedean_holds(space, zero, x, y),
        )
        if all(held):
            return (None,) * len(held)
        pair = f"{x!r}, {y!r}"
        return tuple([None if good else ctx for good, ctx in zip(held, (pair, pair, pair, f"{x!r}", pair))])

    outcomes = [case() for _ in range(cases)]
    results = [_tally(law, provenance, [o[k] for o in outcomes]) for k, (law, provenance) in enumerate(_ELEMENT_LAWS)]
    results.append(f_ring_suite(instance, seed, max(cases // 4, 8)))
    if space.kind is SpaceKind.EVSEQ:
        results.append(canonical_idempotence_suite(seed, max(cases // 4, 8)))
    return results


def _archimedean_holds(space: Space, zero, x, y) -> bool:
    """Whether the Archimedean witness for (x, y) is right: the least n with
    n*x not <= y, or, when it reports x <= 0, x <= 0 indeed."""
    n = archimedean_witness(space, x, y)
    if n is None:
        return x <= zero
    escaped = not (x.scale(n) <= y)
    minimal = n == 1 or x.scale(n - 1) <= y
    return escaped and minimal


def f_ring_suite(instance: LawInstance, seed: int = 0, cases: int = 250) -> CheckResult:
    """Disjointness axiom on generated a = z+, b = z-, c = |w| triples.

    The flattened matrix ring gets the planted counterexample triple first,
    so its failure (and witness) is deterministic.
    """
    space = instance.space
    rng = rng_for(seed)
    samples = []
    if instance.mul_override is not None:
        samples.append(FRING_PLANTED_TRIPLE)
    for _ in range(cases):
        z = rand_element(rng, space)
        w = rand_element(rng, space)
        samples.append((pos_part(space, z), neg_part(space, z), abs_val(space, w)))
    verdict = check_f_ring(space, samples, mul=instance.mul_override)
    detail = "" if verdict.holds else f"witness {verdict.witness!r}"
    return CheckResult("f-ring-axiom", verdict.holds, verdict.checked, detail, "disjointness axiom")


def canonical_idempotence_suite(seed: int = 0, cases: int = 250) -> CheckResult:
    """A sequence rebuilt from its Fraction prefix and tail is itself, and keeps every raw value."""
    rng = rng_for(seed)

    def case() -> str | None:
        tail = rand_rat(rng)
        raw = tuple(rand_rat(rng) for _ in range(rng.randint(0, 4))) + (tail,) * rng.randint(0, 3)
        s = EvSeq(raw, tail)
        rebuilt = EvSeq(s.prefix, s.tail)  # through the Fraction views: a second path to the row
        good = rebuilt == s and all(s.at(i) == (raw[i] if i < len(raw) else tail) for i in range(len(raw) + 2))
        return None if good else f"canonical form unstable for {s!r}"

    return _tally("evseq-canonical-idempotence", "canonical forms", [case() for _ in range(cases)])


# ---------------------------------------------------------------------------
# Homomorphism-level suites.

def rk_agreement_suite(seed: int = 0, cases: int = 500) -> CheckResult:
    """Closed-form positive part against the vertex-enumeration oracle."""
    rng = rng_for(seed)

    def case() -> str | None:
        n = rng.randint(1, 6)
        T = MatrixHom(rand_matrix_rows(rng, n))
        x = rand_pos_element(rng, Space.qn(n))
        good = positive_part(T).apply(x) == sup_over_interval_oracle(T, x)
        return None if good else f"disagreement for {T!r} at {x!r}"

    return _tally("positive-part-vertex-oracle", "positive-part formula", [case() for _ in range(cases)])


def decomposition_suite(seed: int = 0, cases: int = 1000) -> CheckResult:
    """Split x = x1 + x2 against |y1|, |y2|; postconditions checked exactly."""
    from .homs import riesz_decompose

    space = Space.qn(5)
    rng = rng_for(seed)

    def case(i: int) -> str | None:
        y1 = rand_element(rng, space)
        y2 = rand_element(rng, space)
        cap = abs(y1) + abs(y2)
        # Odd cases draw a positive x, which must split into positive parts.
        low = -24 if i % 2 == 0 else 0
        x = FinVec(tuple(Fraction(rng.randint(low, 24), 24) * c for c in cap))
        x1, x2 = riesz_decompose(space, x, y1, y2)
        return None if decomposition_failure(space, x, y1, y2, x1, x2) is None else f"postcondition failed at x={x!r}"

    return _tally("interval-decomposition", "decomposition postconditions", [case(i) for i in range(cases)])


def cone_extension_suite(seed: int = 0, cases: int = 200) -> list[CheckResult]:
    """Matrix-derived cone maps extend back to the matrix; a planted
    non-additive table is rejected with a witness."""
    from .errors import NotAdditiveOnCone
    from .homs import ConeMap, extend_from_cone

    rng = rng_for(seed)

    def case() -> str | None:
        n = rng.randint(1, 4)
        T = MatrixHom(rand_matrix_rows(rng, n))
        space = Space.qn(n)
        ext = extend_from_cone(ConeMap(space, T, ()))
        x = rand_element(rng, space)
        return None if ext.apply(x) == T.apply(x) else f"extension drifted from {T!r} at {x!r}"

    reproduce = _tally("cone-extension-reproduces", "cone extension", [case() for _ in range(cases)])

    space = Space.qn(2)
    bad = ConeMap(
        space,
        None,
        (
            (FinVec.of(1, 0), FinVec.of(1, 0)),
            (FinVec.of(0, 1), FinVec.of(0, 0)),
            (FinVec.of(1, 1), FinVec.of(5, 5)),
        ),
    )
    try:
        extend_from_cone(bad)
        rejected = CheckResult("cone-extension-rejects-non-additive", False, 1, "no rejection", "cone extension")
    except NotAdditiveOnCone as exc:
        witness_ok = set(exc.witness) == {FinVec.of(1, 0), FinVec.of(0, 1)}
        rejected = CheckResult(
            "cone-extension-rejects-non-additive", witness_ok, 1, f"witness {exc.witness!r}", "cone extension"
        )
    return [reproduce, rejected]


def hom_lattice_suite(seed: int = 0, cases: int = 500) -> CheckResult:
    """T = T+ - T-, |T| = T+ + T-, T+ /\\ T- = 0, and modularity for joins/meets."""
    rng = rng_for(seed)

    def case() -> str | None:
        n = rng.randint(1, 5)
        T = MatrixHom(rand_matrix_rows(rng, n))
        S = MatrixHom(rand_matrix_rows(rng, n))
        zero = MatrixHom.zero(n)
        good = (
            positive_part(T) - negative_part(T) == T
            and positive_part(T) + negative_part(T) == modulus(T)
            and hom_meet(positive_part(T), negative_part(T)) == zero
            and hom_join(T, S) + hom_meet(T, S) == T + S
        )
        return None if good else f"law failed for {T!r}, {S!r}"

    return _tally("hom-lattice-laws", "operator lattice identities", [case() for _ in range(cases)])


def directed_sup_suite(seed: int = 0, cases: int = 100) -> CheckResult:
    """The finite directed supremum dominates members and respects upper bounds."""
    rng = rng_for(seed)

    def case() -> str | None:
        n = rng.randint(2, 4)
        family = [MatrixHom(rand_matrix_rows(rng, n)) for _ in range(rng.randint(2, 5))]
        envelope = family[0]
        for T in family[1:]:
            envelope = hom_join(envelope, T)
        bound = envelope + MatrixHom(rand_matrix_rows(rng, n)).positive_part()
        S = directed_sup(family, bound)
        upper = S + MatrixHom(rand_matrix_rows(rng, n)).positive_part()
        x = rand_pos_element(rng, Space.qn(n))
        dominates = all((S - T).positive_part() == S - T for T in family)
        below = (upper - S).positive_part() == upper - S
        pointwise = S.apply(x) == reduce(FinVec.join, (T.apply(x) for T in family + [S]))
        return None if dominates and below and pointwise else f"supremum audit failed for a family of {len(family)}"

    return _tally("directed-sup", "finite directed suprema", [case() for _ in range(cases)])


# ---------------------------------------------------------------------------
# Topology suites.

_BOX_INSTANCE_NAMES = ("q2_pointwise", "q5_pointwise", "evseq_product_pointwise", "evseq_supnorm_pointwise")


def solid_hull_suite(seed: int = 0, cases: int = 500) -> CheckResult:
    """Hulls of bounded finite sets stay bounded with identical coordinate bounds."""
    rng = rng_for(seed)

    def case(i: int) -> str | None:
        inst = INSTANCES[_BOX_INSTANCE_NAMES[i % len(_BOX_INSTANCE_NAMES)]]
        pts = tuple(rand_element(rng, inst.space) for _ in range(rng.randint(1, 4)))
        good = hull_bounded_preservation(FiniteSet(inst.space, pts))
        return None if good else f"hull mismatch on {inst.name}"

    return _tally("solid-hull-preserves-bounded", "solid hulls", [case(i) for i in range(cases)])


def rand_setdesc(rng: random.Random, space: Space) -> SetDesc:
    """A random symbolic set on a box-base instance."""
    pick = rng.randrange(5)
    if pick == 0:
        a, b = rand_element(rng, space), rand_element(rng, space)
        return Interval(space, meet(space, a, b), join(space, a, b))
    if pick == 1:
        return FiniteSet(space, tuple(rand_element(rng, space) for _ in range(rng.randint(1, 3))))
    if pick == 2:
        return SolidHull(space, tuple(rand_element(rng, space) for _ in range(rng.randint(1, 3))))
    if pick == 3:
        return NbhdSet(space, _rand_nbhd(rng, space))
    base = rand_setdesc(rng, space)
    while isinstance(base, ImageSet):
        base = rand_setdesc(rng, space)
    if space.kind is SpaceKind.QN:
        hom = MatrixHom(rand_matrix_rows(rng, space.dim, span=4))
    else:
        hom = SeqHom.diagonal(rand_element(rng, space, span=4, max_prefix=3))
    return ImageSet(space, hom, base)


def _rand_nbhd(rng: random.Random, space: Space) -> Neighborhood:
    if space.topology is TopologyId.QN_BOX:
        return Neighborhood.box(tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(space.dim)))
    if space.topology is TopologyId.EVSEQ_PRODUCT:
        coords = frozenset(rng.randint(0, 5) for _ in range(rng.randint(1, 3)))
        return Neighborhood.product(coords, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
    return Neighborhood.sup_ball(Fraction(rng.randint(1, 6), rng.randint(1, 3)))


def boundedness_agreement_suite(seed: int = 0, cases: int = 500) -> CheckResult:
    """On pointwise box-base instances the two boundedness readings agree."""
    rng = rng_for(seed)

    def case(i: int) -> str | None:
        S = rand_setdesc(rng, INSTANCES[_BOX_INSTANCE_NAMES[i % len(_BOX_INSTANCE_NAMES)]].space)
        return None if set_ring_bounded(S).holds == set_group_bounded(S).holds else f"readings disagree on {S!r}"

    return _tally("ring-group-agreement", "boundedness deciders", [case(i) for i in range(cases)])


def sampler_bound_suite(seed: int = 0, cases: int = 300) -> CheckResult:
    """Every sampled member respects the set's coordinate bound function."""
    from .topology import sample_member

    rng = rng_for(seed)

    def case(i: int) -> str | None:
        S = rand_setdesc(rng, INSTANCES[_BOX_INSTANCE_NAMES[i % len(_BOX_INSTANCE_NAMES)]].space)
        beta = coordinate_bounds(S)
        return None if element_bounds(sample_member(S, rng)).within(beta) else f"sample escaped bounds on {S!r}"

    return _tally("member-sampler-within-bounds", "bound functions", [case(i) for i in range(cases)])


def fatou_suite() -> CheckResult:
    ok = all(fatou_check(top) for top in TopologyId)
    return CheckResult("fatou-bases", ok, len(list(TopologyId)), "", "solid order-closed bases")


# ---------------------------------------------------------------------------
# Convergence suites.

def _sample_nets():
    """Closed-form nets in each mode with their regions and (V, W) target pairs."""
    seq_space = Space.evseq(TopologyId.EVSEQ_SUPNORM)
    prod_space = Space.evseq(TopologyId.EVSEQ_PRODUCT)
    qn3 = Space.qn(3)
    decay_diag = SeqHom.diagonal(EvSeq.constant(1))
    fixed = SeqHom.diagonal(EvSeq.of(Fraction(1, 2), tail=Fraction(2)))
    matrix = MatrixHom(((Fraction(1), Fraction(-2), Fraction(0)),
                        (Fraction(0), Fraction(3), Fraction(1)),
                        (Fraction(-1), Fraction(0), Fraction(2))))
    decay_m = MatrixHom(((Fraction(2), Fraction(1), Fraction(0)),
                         (Fraction(0), Fraction(-1), Fraction(1)),
                         (Fraction(1), Fraction(0), Fraction(-2))))
    return {
        "nr": (
            HomNet.closed(seq_space, seq_space, fixed, decay_diag, target=fixed),
            fixed,
            NbhdSet(seq_space, Neighborhood.sup_ball(1)),
            [(Neighborhood.sup_ball(Fraction(1, 7)), None), (Neighborhood.sup_ball(3), None)],
        ),
        "br": (
            HomNet.closed(qn3, qn3, matrix, decay_m, target=matrix),
            matrix,
            Interval(qn3, -FinVec.constant(3, 2), FinVec.constant(3, 2)),
            [
                (Neighborhood.box((Fraction(1, 5),) * 3), None),
                (Neighborhood.box((Fraction(2), Fraction(1), Fraction(1, 2))), None),
            ],
        ),
        "cr": (
            HomNet.closed(prod_space, prod_space, fixed, decay_diag, target=fixed),
            fixed,
            None,
            [
                (Neighborhood.product({0, 1}, Fraction(1, 3)), Neighborhood.product({0, 2}, Fraction(1, 2))),
                (Neighborhood.product({1}, 2), Neighborhood.product({1}, Fraction(1, 4))),
            ],
        ),
    }


def convergence_recheck_suite() -> CheckResult:
    """Certificates re-verify at the threshold and seven entries past it."""
    outcomes = []
    for mode, (net, limit, region, pairs) in _sample_nets().items():
        cert = converges(net, limit, mode, region)
        if not cert.convergent:
            detail = f"{mode} net unexpectedly divergent"
            return CheckResult("certificate-recheck", False, len(outcomes), detail, "convergence certificates")
        outcomes += [None if ok else f"{mode} recheck failed at alpha={alpha}"
                     for V, W in pairs for alpha, ok in cert.recheck(V, W).items()]
    return _tally("certificate-recheck", "convergence certificates", outcomes)


def uniqueness_suite(seed: int = 0, cases: int = 50) -> CheckResult:
    """Paired-limit audits: certified limits agree in canonical form."""
    from .homspaces import limit_uniqueness_audit

    rng = rng_for(seed)
    seq_space = Space.evseq(TopologyId.EVSEQ_SUPNORM)
    unit_ball = NbhdSet(seq_space, Neighborhood.sup_ball(1))

    def case() -> str | None:
        base = SeqHom.diagonal(rand_element(rng, seq_space, max_prefix=3))
        decay = SeqHom.diagonal(rand_element(rng, seq_space, max_prefix=3))
        net = HomNet.closed(seq_space, seq_space, base, decay, target=base)
        # The same limit in a syntactically different presentation.
        k = len(base.diag.prefix) + 1
        block = [[base.diag.at(i) if i == j else 0 for j in range(k)] for i in range(k)]
        other = SeqHom.diag_plus_block(EvSeq((0,) * k, base.diag.tail), block)
        failed = limit_uniqueness_audit(net, base, other, "nr", unit_ball)
        return None if failed is None else f"uniqueness audit failed for {base!r}"

    return _tally("limit-uniqueness", "uniqueness of limits", [case() for _ in range(cases)])


def lattice_continuity_suite(seed: int = 0) -> CheckResult:
    """The positive-part map is uniformly continuous: exact inequality plus
    target membership in all three modes."""
    from .errors import SoundnessBug

    nets = _sample_nets()
    total = 0
    for mode, (net, _, region, _) in nets.items():
        shifted = HomNet.closed(net.domain, net.codomain, net.base, net.decay.scale(Fraction(1, 2)))
        try:
            total += lattice_continuity_audit(net, shifted, mode, region, seed)
        except SoundnessBug as exc:
            return CheckResult("positive-part-uniform-continuity", False, total, str(exc), "lattice continuity")
    return CheckResult("positive-part-uniform-continuity", True, total, "", "lattice continuity")


# ---------------------------------------------------------------------------
# Aggregate.

def all_suites(seed: int = 0, cases: int = 1000) -> list[CheckResult]:
    """Every module's law suite, sized down proportionally for the aggregate."""
    results: list[CheckResult] = []
    small = max(cases // 5, 10)
    for name in ("q3_pointwise", "evseq_product_pointwise", "evseq_product_zero", "z_discrete"):
        inst = INSTANCES[name]
        for r in lattice_law_suite(inst, seed, small):
            results.append(CheckResult(f"{name}:{r.name}", r.passed, r.cases, r.detail, r.provenance))
    raw = f_ring_suite(INSTANCES["matrix2_entrywise"], seed, small)
    results.append(
        CheckResult(
            "matrix2_entrywise:f-ring-counterexample",
            (not raw.passed) and "witness" in raw.detail,
            raw.cases,
            raw.detail,
            "disjointness axiom fails on the matrix ring",
        )
    )
    results.append(rk_agreement_suite(seed, small))
    results.append(decomposition_suite(seed, small))
    results.extend(cone_extension_suite(seed, max(cases // 10, 5)))
    results.append(hom_lattice_suite(seed, small))
    results.append(directed_sup_suite(seed, max(cases // 10, 5)))
    results.append(solid_hull_suite(seed, small))
    results.append(boundedness_agreement_suite(seed, small))
    results.append(sampler_bound_suite(seed, small))
    results.append(fatou_suite())
    results.append(convergence_recheck_suite())
    results.append(uniqueness_suite(seed, max(cases // 20, 5)))
    results.append(lattice_continuity_suite(seed))
    return results
