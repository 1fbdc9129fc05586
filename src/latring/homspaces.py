"""Bounded-class labels for homomorphisms and the three convergence modes.

Two inequivalent readings of "bounded image" coexist for topological rings
(the multiplicative one and the multiple-of-a-neighborhood one); whenever
they can differ the label reports both rather than guessing.  Convergence
checks treat base neighborhoods parametrically: nets are sequences with
closed-form terms, so the entry index is solved from a rational inequality
as a function of the target radius, with a bounded scan as the fallback for
table nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .elements import EvSeq, FinVec
from .errors import (
    InvalidArgument,
    InvalidElement,
    InvalidNeighborhood,
    NotBounded,
    SoundnessBug,
    VacuousProduct,
)
from .extended import CoordBounds
from .homs import (
    Hom,
    IdentityHom,
    MatrixHom,
    OrderBoundedWitness,
    SeqHom,
    is_order_bounded,
    positive_part,
    zero_hom_like,
)
from .sampling import rng_for
from .spaces import Multiplication, Space, SpaceKind, TopologyId, pos_part
from .topology import (
    FiniteSet,
    Neighborhood,
    NbhdSet,
    SetDesc,
    bounds_group_bounded,
    bounds_multiplier,
    bounds_ring_bounded,
    canonical_generator,
    coordinate_bounds,
    nbhd_member,
    refuting_nbhd,
    sample_member,
    set_ring_bounded,
)


# ---------------------------------------------------------------------------
# Classification.

@dataclass(frozen=True)
class ReadingVerdict:
    """One boundedness reading's outcome, with its witness."""

    holds: bool
    vacuous: bool = False
    via: Neighborhood | None = None        # neighborhood that works (nr)
    refuting: Neighborhood | None = None   # codomain neighborhood that defeats every attempt
    bad_set: SetDesc | None = None         # bounded set whose image escapes (br)
    note: str = ""


@dataclass(frozen=True)
class BoundednessLabel:
    ring: ReadingVerdict
    group: ReadingVerdict


@dataclass(frozen=True)
class ClassLabel:
    order_bounded: bool
    order_witness: OrderBoundedWitness
    nr: BoundednessLabel
    br: BoundednessLabel
    continuous: bool
    continuity_witness: Neighborhood | None
    continuity_note: str

    def flags(self) -> dict:
        return {
            "order_bounded": self.order_bounded,
            "nr_ring": self.nr.ring.holds,
            "nr_ring_vacuous": self.nr.ring.vacuous,
            "nr_group": self.nr.group.holds,
            "br_ring": self.br.ring.holds,
            "br_ring_vacuous": self.br.ring.vacuous,
            "br_group": self.br.group.holds,
            "continuous": self.continuous,
        }


def _image_ok(bounds: CoordBounds, codomain: Space, reading: str):
    """(holds, vacuous, refuting neighborhood) for one reading of image boundedness."""
    if reading == "ring":
        v = bounds_ring_bounded(bounds, codomain.topology, codomain.multiplication)
        return v.bounded, v.vacuous, v.witness
    v = bounds_group_bounded(bounds, codomain.topology)
    return v.bounded, False, v.witness


def _nr_candidate(T: Hom, domain: Space) -> Neighborhood | None:
    """A base neighborhood whose image has the best chance of being bounded.

    For the product topology every base neighborhood leaves all but finitely
    many coordinates unconstrained, so a bounded image requires the
    coefficients to vanish eventually; then constraining the whole support
    works, and otherwise nothing does.
    """
    if domain.topology is not TopologyId.EVSEQ_PRODUCT:
        return canonical_generator(domain.topology, domain.dim)
    if T.finite_column_support():
        span = max(T.support_span(), 1)
        return Neighborhood.product(range(span), 1)
    return None


def _nr_verdict(T: Hom, domain: Space, codomain: Space, reading: str) -> ReadingVerdict:
    if reading == "ring" and codomain.multiplication is Multiplication.ZERO:
        return ReadingVerdict(
            True,
            vacuous=True,
            via=canonical_generator(domain.topology, domain.dim),
            note="products vanish in the codomain, so every image is multiplicatively bounded",
        )
    U = _nr_candidate(T, domain)
    if U is None:
        U0 = canonical_generator(domain.topology, domain.dim)
        img = T.propagate_bounds(U0.bounds())
        _, _, refuting = _image_ok(img, codomain, reading)
        return ReadingVerdict(
            False,
            via=U0,
            refuting=refuting,
            note="coefficients never vanish, so every base neighborhood keeps an unconstrained coordinate",
        )
    img = T.propagate_bounds(U.bounds())
    holds, vacuous, refuting = _image_ok(img, codomain, reading)
    if holds:
        return ReadingVerdict(True, vacuous=vacuous, via=U)
    return ReadingVerdict(False, via=U, refuting=refuting)


def _br_verdict(T: Hom, domain: Space, codomain: Space, reading: str) -> ReadingVerdict:
    if reading == "ring" and codomain.multiplication is Multiplication.ZERO:
        return ReadingVerdict(
            True, vacuous=True, note="products vanish in the codomain, so every image is multiplicatively bounded"
        )
    if domain.kind is SpaceKind.EVSEQ and domain.multiplication is Multiplication.ZERO:
        # With zero multiplication every set is multiplicatively bounded, the
        # whole space included, so the family quantified over contains
        # unbounded-coordinate sets.
        worst = CoordBounds.all_infinite(None)
        img = T.propagate_bounds(worst)
        holds, vacuous, refuting = _image_ok(img, codomain, reading)
        if holds:
            return ReadingVerdict(True, vacuous=vacuous)
        bad = None
        if domain.topology is TopologyId.EVSEQ_PRODUCT:
            # Exhibit a base neighborhood that leaves the coefficient support
            # unconstrained, and re-derive the refutation against it so the
            # (set, witness) pair checks out together.
            bad = NbhdSet(domain, Neighborhood.product({T.support_span()}, 1))
            bad_img = T.propagate_bounds(coordinate_bounds(bad))
            _, _, refuting = _image_ok(bad_img, codomain, reading)
        return ReadingVerdict(
            False,
            refuting=refuting,
            bad_set=bad,
            note="a multiplicatively bounded set may be unbounded coordinatewise here",
        )
    # Pointwise multiplication (or the integers): bounded sets have finite
    # per-coordinate bounds, and the shipped forms have finite coefficients,
    # so images stay finite; only a degenerate codomain criterion can fail.
    if codomain.kind is SpaceKind.Z_DISCRETE and reading == "group":
        if T.is_zero():
            return ReadingVerdict(True)
        bad = FiniteSet(domain, (5,)) if domain.kind is SpaceKind.Z_DISCRETE else None
        return ReadingVerdict(
            False,
            refuting=Neighborhood.discrete_zero(),
            bad_set=bad,
            note="multiples of {0} stay {0}, so only the zero map has group-bounded images",
        )
    return ReadingVerdict(True, note="finite coefficient bounds keep finite-bound sets finite")


def _continuity(T: Hom, domain: Space, codomain: Space):
    if domain.kind is SpaceKind.Z_DISCRETE:
        return True, None, "the base neighborhood {0} maps into every target"
    if codomain.kind is SpaceKind.Z_DISCRETE:
        if T.is_zero():
            return True, None, "the zero map lands in {0}"
        return False, Neighborhood.discrete_zero(), "no box maps into {0} under a nonzero map"
    if domain.kind is SpaceKind.QN and codomain.kind is SpaceKind.QN:
        return True, None, "shrink the box by the largest row sum"
    if domain.kind is SpaceKind.EVSEQ and codomain.kind is SpaceKind.EVSEQ:
        pair = (domain.topology, codomain.topology)
        if pair == (TopologyId.EVSEQ_PRODUCT, TopologyId.EVSEQ_SUPNORM):
            if T.finite_column_support():
                return True, None, "finitely supported coefficients pull sup-norm balls back to product boxes"
            return (
                False,
                Neighborhood.sup_ball(1),
                "every product-base neighborhood leaves coordinates free, but the ball constrains all of them",
            )
        return True, None, "pull back the target's constrained coordinates through the rows"
    raise InvalidElement("no shipped homomorphism crosses these carriers")


def _row_support(T: Hom, rows) -> set[int]:
    support: set[int] = set()
    if isinstance(T, SeqHom):
        k = T.block_size
        for i in rows:
            if T.diag.at(i) != 0:
                support.add(i)
            if i < k:
                support.update(j for j in range(k) if T.off[i][j] != 0)
    elif isinstance(T, MatrixHom):
        for i in rows:
            support.update(j for j, a in enumerate(T.int_rows[i][1]) if a)
    return support


def classify(T: Hom, domain: Space, codomain: Space) -> ClassLabel:
    """Full bounded-class label with witnesses, under both boundedness readings."""
    _check_hom_fits(T, domain)
    _check_hom_fits(T, codomain)
    if domain.kind is SpaceKind.Z_DISCRETE:
        order_witness = OrderBoundedWitness(True, -1, 1, 0)
    else:
        probe = (
            FinVec.constant(domain.dim, 1)
            if domain.kind is SpaceKind.QN
            else EvSeq.constant(1)
        )
        order_witness = is_order_bounded(T, probe)
    nr = BoundednessLabel(
        ring=_nr_verdict(T, domain, codomain, "ring"),
        group=_nr_verdict(T, domain, codomain, "group"),
    )
    br = BoundednessLabel(
        ring=_br_verdict(T, domain, codomain, "ring"),
        group=_br_verdict(T, domain, codomain, "group"),
    )
    continuous, witness, note = _continuity(T, domain, codomain)
    return ClassLabel(True, order_witness, nr, br, continuous, witness, note)


def _check_hom_fits(T: Hom, space: Space):
    if space.kind is SpaceKind.QN and not (isinstance(T, MatrixHom) and T.n == space.dim):
        raise InvalidElement(f"{T!r} does not act on Q^{space.dim}")
    if space.kind is SpaceKind.EVSEQ and not isinstance(T, SeqHom):
        raise InvalidElement(f"{T!r} does not act on sequences")
    if space.kind is SpaceKind.Z_DISCRETE and not isinstance(T, IdentityHom):
        raise InvalidElement(f"{T!r} does not act on the integers")


# ---------------------------------------------------------------------------
# Nets of homomorphisms.

@dataclass(frozen=True)
class HomNet:
    """Sequence of homomorphisms with computable terms.

    Closed form: term(a) = base + decay / a.  Table form: finitely many
    explicit terms, constant from the last one on.  `target` is an optional
    intended limit carried for bookkeeping.
    """

    domain: Space
    codomain: Space
    base: Hom | None = None
    decay: Hom | None = None
    terms: tuple | None = None
    target: Hom | None = None

    def __post_init__(self):
        if self.domain.kind is SpaceKind.Z_DISCRETE:
            raise InvalidElement("nets are shipped for the matrix and sequence forms only")
        closed = self.base is not None and self.decay is not None
        if closed == (self.terms is not None):
            raise InvalidElement("a net is either closed-form (base, decay) or a table of terms")
        if self.terms is not None and not self.terms:
            raise InvalidElement("table nets need at least one term")

    @classmethod
    def closed(cls, domain: Space, codomain: Space, base: Hom, decay: Hom, target: Hom | None = None):
        return cls(domain, codomain, base=base, decay=decay, target=target)

    @classmethod
    def constant(cls, domain: Space, codomain: Space, T: Hom):
        if domain.kind is SpaceKind.Z_DISCRETE:
            raise InvalidElement("nets are shipped for the matrix and sequence forms only")
        return cls(domain, codomain, base=T, decay=zero_hom_like(T), target=T)

    @classmethod
    def table(cls, domain: Space, codomain: Space, terms: Sequence[Hom], target: Hom | None = None):
        return cls(domain, codomain, terms=tuple(terms), target=target)

    @property
    def is_closed_form(self) -> bool:
        return self.terms is None

    def term(self, alpha: int) -> Hom:
        if alpha < 1:
            raise InvalidArgument("net indices start at 1")
        if self.is_closed_form:
            return self.base + self.decay.scale(Fraction(1, alpha))
        return self.terms[min(alpha, len(self.terms)) - 1]

    def eventual_term(self) -> Hom:
        if self.is_closed_form:
            return self.base
        return self.terms[-1]

    def diff(self, other: "HomNet") -> "HomNet":
        """Net of differences term(a) - other.term(a)."""
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise InvalidElement("nets live on different space pairs")
        if self.is_closed_form and other.is_closed_form:
            return HomNet.closed(
                self.domain, self.codomain, self.base - other.base, self.decay - other.decay
            )
        if not self.is_closed_form and not other.is_closed_form:
            if len(self.terms) != len(other.terms):
                raise InvalidElement("table nets of different lengths")
            return HomNet.table(
                self.domain,
                self.codomain,
                tuple(a - b for a, b in zip(self.terms, other.terms)),
            )
        raise InvalidElement("cannot mix closed-form and table nets")


# ---------------------------------------------------------------------------
# Convergence.

def vw_box(V: Neighborhood, W: Neighborhood) -> Neighborhood:
    """The product set V*W of two base boxes, as a box (radius products)."""
    if V.topology is not W.topology:
        raise InvalidElement("product of neighborhoods from different bases")
    if V.topology is TopologyId.QN_BOX:
        return Neighborhood.box(tuple(a * b for a, b in zip(V.radii, W.radii)))
    if V.topology is TopologyId.EVSEQ_PRODUCT:
        return Neighborhood(
            TopologyId.EVSEQ_PRODUCT, coords=V.coords & W.coords, radius=V.radius * W.radius
        )
    if V.topology is TopologyId.EVSEQ_SUPNORM:
        return Neighborhood.sup_ball(V.radius * W.radius)
    return Neighborhood.discrete_zero()


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Outcome of a convergence check, re-verifiable at any entry index.

    For closed-form nets the entry threshold is solved from the decay image
    bounds as a function of the target radius; table nets fall back to a
    bounded scan.
    """

    mode: str
    convergent: bool
    net: HomNet
    limit: Hom
    region: object = None                 # Neighborhood (nr/cr) or SetDesc (br)
    region_bounds: CoordBounds | None = None
    residual_bounds: CoordBounds | None = None
    decay_bounds: CoordBounds | None = None
    witness: Neighborhood | None = None   # refuting V when not convergent
    horizon: int = 64

    def _target(self, V: Neighborhood, W: Neighborhood | None) -> Neighborhood:
        if self.mode == "cr":
            if W is None:
                raise InvalidArgument("cr certificates need the outer neighborhood W")
            return vw_box(V, W)
        return V

    def _bounds_for(self, W: Neighborhood | None) -> CoordBounds:
        if self.mode == "cr":
            return self.choose_U(W).bounds()
        return self.region_bounds

    def choose_U(self, W: Neighborhood) -> Neighborhood:
        """cr mode: the domain neighborhood answering the outer W."""
        if self.mode != "cr":
            raise InvalidArgument("only cr certificates choose U per W")
        top = self.net.domain.topology
        if top is TopologyId.EVSEQ_PRODUCT:
            if W.topology is not TopologyId.EVSEQ_PRODUCT:
                raise InvalidNeighborhood("W must come from the domain base")
            support = _row_support(self._decay_hom(), W.coords) | set(W.coords)
            return Neighborhood.product(support or {0}, 1)
        return canonical_generator(top, self.net.domain.dim)

    def _decay_hom(self) -> Hom:
        if self.net.is_closed_form:
            return self.net.decay
        # Table nets: any coefficient ever touched matters for support.
        acc = zero_hom_like(self.net.terms[0])
        for t in self.net.terms:
            d = t - self.limit
            acc = acc + d.entrywise_abs()
        return acc

    def alpha0_for(self, V: Neighborhood, W: Neighborhood | None = None) -> int:
        """Least entry index from which every term's difference sits inside the target."""
        if not self.convergent:
            raise InvalidArgument("no threshold exists: the net does not converge")
        target = self._target(V, W)
        if not self.net.is_closed_form:
            # Descend from the tail, which is verified by the zero residual.
            best = len(self.net.terms)
            for a0 in range(len(self.net.terms), max(0, len(self.net.terms) - self.horizon), -1):
                if self.verify_at(a0, V, W):
                    best = a0
                else:
                    break
            return best
        # The term difference is decay/alpha, so alpha0 is the least
        # multiple of the target that holds the decay image.
        alpha0 = bounds_multiplier(self.net.decay.propagate_bounds(self._bounds_for(W)), target)
        if alpha0 is None:
            raise SoundnessBug("a convergent certificate cannot carry unbounded decay")
        return alpha0

    def verify_at(self, alpha: int, V: Neighborhood, W: Neighborhood | None = None) -> bool:
        """Exact recheck of the defining containment at one entry index."""
        D = self.net.term(alpha) - self.limit
        img = D.propagate_bounds(self._bounds_for(W))
        return img.within(self._target(V, W).bounds())

    def witness_refutes(self) -> bool:
        """Index-free recheck of a negative verdict: the eventual difference
        (or an unbounded decay coordinate) escapes the recorded witness."""
        if self.convergent or self.witness is None:
            return False
        if self.residual_bounds is not None and self.residual_bounds.overall_sup() != 0:
            return not self.residual_bounds.within(self.witness.bounds())
        # Residual vanished, so divergence came from unbounded decay: the
        # containment fails at every index.
        return not self.verify_at(1, self.witness, None if self.mode != "cr" else self.witness)


def nr_converges(net: HomNet, limit: Hom, U: Neighborhood, horizon: int = 64) -> ConvergenceCertificate:
    """Uniform convergence on the neighborhood U."""
    if U.topology is not net.domain.topology:
        raise InvalidNeighborhood(f"{U!r} is not in the domain base")
    return _uniform_convergence("nr", net, limit, U, U.bounds(), horizon)


def br_converges(net: HomNet, limit: Hom, B: SetDesc, horizon: int = 64) -> ConvergenceCertificate:
    """Uniform convergence on the bounded set B."""
    verdict = set_ring_bounded(B)
    if not verdict.bounded:
        raise NotBounded(f"{B!r} is not ring-bounded, witness {verdict.witness!r}")
    return _uniform_convergence("br", net, limit, B, coordinate_bounds(B), horizon)


def _uniform_convergence(
    mode: str,
    net: HomNet,
    limit: Hom,
    region,
    region_bounds: CoordBounds,
    horizon: int,
) -> ConvergenceCertificate:
    residual = net.eventual_term() - limit
    residual_img = residual.propagate_bounds(region_bounds)
    if residual_img.overall_sup() != 0:
        return ConvergenceCertificate(
            mode,
            False,
            net,
            limit,
            region=region,
            region_bounds=region_bounds,
            residual_bounds=residual_img,
            witness=refuting_nbhd(residual_img, net.codomain.topology),
            horizon=horizon,
        )
    decay_img = None
    if net.is_closed_form:
        decay_img = net.decay.propagate_bounds(region_bounds)
        if decay_img.first_infinite_index() is not None:
            return ConvergenceCertificate(
                mode,
                False,
                net,
                limit,
                region=region,
                region_bounds=region_bounds,
                residual_bounds=residual_img,
                decay_bounds=decay_img,
                witness=refuting_nbhd(decay_img, net.codomain.topology),
                horizon=horizon,
            )
    return ConvergenceCertificate(
        mode,
        True,
        net,
        limit,
        region=region,
        region_bounds=region_bounds,
        residual_bounds=residual_img,
        decay_bounds=decay_img,
        horizon=horizon,
    )


def cr_converges(net: HomNet, limit: Hom, horizon: int = 64) -> ConvergenceCertificate:
    """Convergence with product-form targets V*W, the outer W answered by a U.

    Requires pointwise multiplication: with the zero product every target
    degenerates to {0} and the definition says nothing.
    """
    if net.domain != net.codomain:
        raise InvalidElement("this convergence mode lives on endomorphism nets")
    if net.domain.multiplication is Multiplication.ZERO:
        raise VacuousProduct("V*W = {0} under zero multiplication; the check is vacuous")
    residual = net.eventual_term() - limit
    # Every coordinate is constrained by some outer W, and the inner radius
    # shrinks at will, so the eventual term must agree with the limit outright.
    if not residual.is_zero():
        unit = canonical_generator(net.domain.topology, net.domain.dim)
        residual_img = residual.propagate_bounds(unit.bounds())
        return ConvergenceCertificate(
            "cr",
            False,
            net,
            limit,
            residual_bounds=residual_img,
            witness=refuting_nbhd(residual_img, net.codomain.topology),
            horizon=horizon,
        )
    return ConvergenceCertificate("cr", True, net, limit, horizon=horizon)


# ---------------------------------------------------------------------------
# Uniqueness of limits (the Hausdorff mechanism).

@dataclass(frozen=True)
class UniquenessReport:
    mode: str
    both_converged: bool
    failed_limit: str | None
    limits_equal: bool | None


def limit_uniqueness_audit(
    net: HomNet,
    limit_a: Hom,
    limit_b: Hom,
    mode: str,
    U: Neighborhood | None = None,
    B: SetDesc | None = None,
    horizon: int = 64,
) -> UniquenessReport:
    """If a net converges to two limits, they must be the same canonical form.

    A failure here is a soundness bug in the deciders, never a tolerated
    outcome; limits that differ simply fail the convergence precondition.
    """
    certs = {}
    for name, limit in (("a", limit_a), ("b", limit_b)):
        if mode == "nr":
            certs[name] = nr_converges(net, limit, U, horizon)
        elif mode == "br":
            certs[name] = br_converges(net, limit, B, horizon)
        elif mode == "cr":
            certs[name] = cr_converges(net, limit, horizon)
        else:
            raise InvalidArgument(f"unknown mode {mode!r}")
        if not certs[name].convergent:
            return UniquenessReport(mode, False, name, None)
    if limit_a != limit_b:
        raise SoundnessBug("two limits certified for one net")
    return UniquenessReport(mode, True, None, True)


# ---------------------------------------------------------------------------
# Uniform continuity of the positive-part map.

@dataclass(frozen=True)
class ContinuityAuditReport:
    mode: str
    inequalities_checked: int
    memberships_checked: int


def lattice_continuity_audit(
    net_t: HomNet,
    net_s: HomNet,
    mode: str,
    U: Neighborhood | None = None,
    B: SetDesc | None = None,
    targets: Sequence[Neighborhood] | None = None,
    outer: Sequence[Neighborhood] | None = None,
    alpha_offsets: Sequence[int] = (0, 3, 7),
    x_samples: int = 8,
    seed: int = 0,
    horizon: int = 64,
) -> ContinuityAuditReport:
    """Check T_a+ (x) - S_a+ (x) <= (T_a - S_a)+ (x) exactly, and that the
    right side lands in the certified target, for sampled entries and points.
    """
    diff = net_t.diff(net_s)
    zero = zero_hom_like(diff.term(1))
    if mode == "nr":
        cert = nr_converges(diff, zero, U, horizon)
    elif mode == "br":
        cert = br_converges(diff, zero, B, horizon)
    elif mode == "cr":
        cert = cr_converges(diff, zero, horizon)
    else:
        raise InvalidArgument(f"unknown mode {mode!r}")
    if not cert.convergent:
        raise InvalidArgument("the difference net must converge to zero in the given mode")

    if targets is None:
        targets = [canonical_generator(net_t.codomain.topology, net_t.codomain.dim)]
    if mode == "cr" and outer is None:
        outer = [canonical_generator(net_t.codomain.topology, net_t.codomain.dim)]

    rng = rng_for(seed)
    ineqs = 0
    members = 0
    pairs = [(V, W) for V in targets for W in outer] if mode == "cr" else [(V, None) for V in targets]
    for V, W in pairs:
        alpha0 = cert.alpha0_for(V, W)
        if mode == "nr":
            region_set = NbhdSet(net_t.domain, U)
        elif mode == "br":
            region_set = B
        else:
            region_set = NbhdSet(net_t.domain, cert.choose_U(W))
        target = vw_box(V, W) if mode == "cr" else V
        for off in alpha_offsets:
            alpha = alpha0 + off
            t_pos = positive_part(net_t.term(alpha))
            s_pos = positive_part(net_s.term(alpha))
            d_pos = positive_part(net_t.term(alpha) - net_s.term(alpha))
            for _ in range(x_samples):
                x = pos_part(region_set.space, sample_member(region_set, rng))
                lhs = t_pos.apply(x) - s_pos.apply(x)
                rhs = d_pos.apply(x)
                if not lhs <= rhs:
                    raise SoundnessBug(f"lattice inequality failed at alpha={alpha}, x={x!r}")
                ineqs += 1
                if not nbhd_member(target, rhs):
                    raise SoundnessBug(f"positive-part difference escaped the target at alpha={alpha}")
                members += 1
    return ContinuityAuditReport(mode, ineqs, members)
