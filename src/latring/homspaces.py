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

import json
from fractions import Fraction
from functools import cached_property, reduce
from itertools import takewhile
from operator import add
from typing import Sequence

from .elements import EvSeq, FinVec, ZInt
from .errors import (
    InvalidArgument,
    InvalidElement,
    InvalidNeighborhood,
    NotBounded,
    SoundnessBug,
    VacuousProduct,
)
from .extended import INF, CoordBounds
from .homs import (
    Hom,
    MatrixHom,
    OrderBoundedWitness,
    SeqHom,
    identity_on,
    is_order_bounded,
    positive_part,
)
from .records import Record
from .sampling import rng_for
from .spaces import Multiplication, Space, SpaceKind, TopologyId, pos_part
from .topology import (
    FiniteSet,
    Neighborhood,
    NbhdSet,
    ReadingVerdict,
    SetDesc,
    bounds_group_bounded,
    bounds_multiplier,
    bounds_ring_bounded,
    canonical_generator,
    coordinate_bounds,
    refuting_nbhd,
    sample_member,
    set_ring_bounded,
)


# ---------------------------------------------------------------------------
# Classification.

class BoundednessLabel(Record):
    ring: ReadingVerdict
    group: ReadingVerdict


class ClassLabel(Record):
    """Every shipped homomorphism is order bounded: `order_witness` is its interval."""

    order_witness: OrderBoundedWitness
    nr: BoundednessLabel
    br: BoundednessLabel
    continuous: bool
    continuity_witness: Neighborhood | None
    continuity_note: str

    def flags(self) -> dict:
        return {
            "order_bounded": True,
            "nr_ring": self.nr.ring.holds,
            "nr_ring_vacuous": self.nr.ring.vacuous,
            "nr_group": self.nr.group.holds,
            "br_ring": self.br.ring.holds,
            "br_ring_vacuous": self.br.ring.vacuous,
            "br_group": self.br.group.holds,
            "continuous": self.continuous,
        }


# The note of a ring reading that holds because the codomain's products vanish.
_VANISHING = "products vanish in the codomain, so every image is multiplicatively bounded"


def _image_ok(bounds: CoordBounds, codomain: Space, reading: str) -> ReadingVerdict:
    """One reading of boundedness decided for an image with these bounds."""
    if reading == "ring":
        return bounds_ring_bounded(bounds, codomain.topology, codomain.multiplication)
    return bounds_group_bounded(bounds, codomain.topology)


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


def _nr_label(T: Hom, domain: Space, codomain: Space) -> BoundednessLabel:
    """Both nr readings, decided on one image bound: that of the `_nr_candidate`,
    or of the canonical generator when there is none."""
    U0 = canonical_generator(domain.topology, domain.dim)
    U = _nr_candidate(T, domain)
    img = T.propagate_bounds((U0 if U is None else U).bounds)

    # Every verdict is built with all its fields by position, skipping the keyword binding.
    def verdict(reading: str) -> ReadingVerdict:
        if reading == "ring" and codomain.multiplication is Multiplication.ZERO:
            return ReadingVerdict(True, True, U0, None, None, _VANISHING)
        v = _image_ok(img, codomain, reading)
        if U is None:
            note = "coefficients never vanish, so every base neighborhood keeps an unconstrained coordinate"
            return ReadingVerdict(False, False, U0, v.refuting, None, note)
        return ReadingVerdict(v.holds, v.vacuous, U, v.refuting, None, "")

    return BoundednessLabel(verdict("ring"), verdict("group"))


def _br_verdict(T: Hom, domain: Space, codomain: Space, reading: str) -> ReadingVerdict:
    if reading == "ring" and codomain.multiplication is Multiplication.ZERO:
        return ReadingVerdict(True, True, None, None, None, _VANISHING)
    if domain.kind is SpaceKind.EVSEQ and domain.multiplication is Multiplication.ZERO:
        # With zero multiplication every set is multiplicatively bounded, the
        # whole space included, so the family quantified over contains
        # unbounded-coordinate sets.
        img = T.propagate_bounds(CoordBounds.sequence((), INF))
        v = _image_ok(img, codomain, reading)
        if v.holds:
            return v
        refuting, bad = v.refuting, None
        if domain.topology is TopologyId.EVSEQ_PRODUCT:
            # Exhibit a base neighborhood that leaves the coefficient support
            # unconstrained, and re-derive the refutation against it so the
            # (set, witness) pair checks out together.
            bad = NbhdSet(domain, Neighborhood.product({T.support_span()}, 1))
            bad_img = T.propagate_bounds(coordinate_bounds(bad))
            refuting = _image_ok(bad_img, codomain, reading).refuting
        note = "a multiplicatively bounded set may be unbounded coordinatewise here"
        return ReadingVerdict(False, False, None, refuting, bad, note)
    # Pointwise multiplication (or the integers): bounded sets have finite
    # per-coordinate bounds, and the shipped forms have finite coefficients,
    # so images stay finite; only a degenerate codomain criterion can fail.
    if domain.kind is SpaceKind.Z_DISCRETE and reading == "group":
        # The identity is the only homomorphism of the integers.
        note = "multiples of {0} stay {0}, so only the zero map has group-bounded images"
        return ReadingVerdict(False, False, None, Neighborhood.discrete_zero(), FiniteSet(domain, (ZInt(5),)), note)
    return ReadingVerdict(True, False, None, None, None, "finite coefficient bounds keep finite-bound sets finite")


def _continuity(T: Hom, domain: Space, codomain: Space):
    # T fits both spaces, so they share the carrier: only their topologies differ.
    if domain.kind is SpaceKind.Z_DISCRETE:
        return True, None, "the base neighborhood {0} maps into every target"
    if domain.kind is SpaceKind.QN:
        return True, None, "shrink the box by the largest row sum"
    if (domain.topology, codomain.topology) == (TopologyId.EVSEQ_PRODUCT, TopologyId.EVSEQ_SUPNORM):
        if T.finite_column_support():
            return True, None, "finitely supported coefficients pull sup-norm balls back to product boxes"
        return (
            False,
            Neighborhood.sup_ball(1),
            "every product-base neighborhood leaves coordinates free, but the ball constrains all of them",
        )
    return True, None, "pull back the target's constrained coordinates through the rows"


def classify(T: Hom, domain: Space, codomain: Space) -> ClassLabel:
    """Full bounded-class label with witnesses, under both boundedness readings."""
    _check_hom_fits(T, domain)
    _check_hom_fits(T, codomain)
    if domain.kind is SpaceKind.Z_DISCRETE:
        order_witness = OrderBoundedWitness(ZInt(-1), ZInt(1), 0)
    else:
        probe = (
            FinVec.constant(domain.dim, 1)
            if domain.kind is SpaceKind.QN
            else EvSeq.constant(1)
        )
        order_witness = is_order_bounded(T, probe)
    nr = _nr_label(T, domain, codomain)
    br = BoundednessLabel(_br_verdict(T, domain, codomain, "ring"), _br_verdict(T, domain, codomain, "group"))
    return ClassLabel(order_witness, nr, br, *_continuity(T, domain, codomain))


def _check_hom_fits(T: Hom, space: Space):
    if space.kind is SpaceKind.QN and not (isinstance(T, MatrixHom) and T.n == space.dim):
        raise InvalidElement(f"{T!r} does not act on Q^{space.dim}")
    if space.kind is SpaceKind.EVSEQ and not isinstance(T, SeqHom):
        raise InvalidElement(f"{T!r} does not act on sequences")
    if space.kind is SpaceKind.Z_DISCRETE and T != identity_on(space):
        raise InvalidElement(f"{T!r} does not act on the integers")


# ---------------------------------------------------------------------------
# Nets of homomorphisms.

class HomNet(Record):
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
        for T in (self.base, self.decay, self.target, *(self.terms or ())):
            if T is not None:
                _check_hom_fits(T, self.domain)
                _check_hom_fits(T, self.codomain)

    # Spec files build nets in every op; passing every field by position
    # skips the keyword binding of `Record.__init__`.
    @classmethod
    def closed(cls, domain: Space, codomain: Space, base: Hom, decay: Hom, target: Hom | None = None):
        return cls(domain, codomain, base, decay, None, target)

    @classmethod
    def constant(cls, domain: Space, codomain: Space, T: Hom):
        return cls(domain, codomain, T, T.scale(0), None, T)

    @classmethod
    def table(cls, domain: Space, codomain: Space, terms: Sequence[Hom], target: Hom | None = None):
        return cls(domain, codomain, None, None, tuple(terms), target)

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
    """The product set V*W of two base boxes: the box of the product of their radius functions."""
    if V.topology is not W.topology:
        raise InvalidElement("product of neighborhoods from different bases")
    return Neighborhood(V.topology, V.bounds.times(W.bounds))


class ConvergenceCertificate(Record):
    """Outcome of a convergence check, re-verifiable at any entry index.

    For closed-form nets the entry threshold is solved from the decay image
    bounds as a function of the target radius; table nets fall back to a
    scan back from the last entry.  The outer neighborhood W of the methods
    below is cr's: nr and br certificates ignore it.
    """

    mode: str
    convergent: bool
    net: HomNet
    limit: Hom
    region: SetDesc | None = None         # the domain set of nr and br
    region_bounds: CoordBounds | None = None
    residual_bounds: CoordBounds | None = None
    witness: Neighborhood | None = None   # refuting V when not convergent

    def frame(self, V: Neighborhood, W: Neighborhood | None = None) -> tuple[SetDesc, CoordBounds, Neighborhood]:
        """The domain set the convergence is uniform on, its coordinate bounds, and the target:
        (region, region_bounds, V) for nr and br, (the U chosen for W, its bounds, V*W) for cr."""
        if self.mode != "cr":
            return self.region, self.region_bounds, V
        if W is None:
            raise InvalidArgument("cr certificates need the outer neighborhood W")
        U = self.choose_U(W)
        return NbhdSet(self.net.domain, U), U.bounds, vw_box(V, W)

    def choose_U(self, W: Neighborhood) -> Neighborhood:
        """cr mode: the domain neighborhood answering the outer W."""
        if self.mode != "cr":
            raise InvalidArgument("only cr certificates choose U per W")
        top = self.net.domain.topology
        if top is TopologyId.EVSEQ_PRODUCT:
            if W.topology is not TopologyId.EVSEQ_PRODUCT:
                raise InvalidNeighborhood("W must come from the domain base")
            support = self._decay_hom.row_support(W.coords) | set(W.coords)
            return Neighborhood.product(support or {0}, 1)
        return canonical_generator(top, self.net.domain.dim)

    @cached_property
    def _decay_hom(self) -> Hom:
        if self.net.is_closed_form:
            return self.net.decay
        # Table nets: any coefficient ever touched matters for support.
        return reduce(add, [(t - self.limit).entrywise_abs() for t in self.net.terms])

    def alpha0_for(self, V: Neighborhood, W: Neighborhood | None = None) -> int:
        """Least entry index from which every term's difference sits inside the target."""
        if not self.convergent:
            raise InvalidArgument("no threshold exists: the net does not converge")
        _, bounds, target = self.frame(V, W)
        if not self.net.is_closed_form:
            # Descend from the tail, which is verified by the zero residual.
            n = len(self.net.terms)
            held = takewhile(lambda a0: self.verify_at(a0, V, W), range(n, 0, -1))
            return min(held, default=n)
        # The term difference is decay/alpha, so alpha0 is the least
        # multiple of the target that holds the decay image.
        alpha0 = bounds_multiplier(self.net.decay.propagate_bounds(bounds), target)
        if alpha0 is None:
            raise SoundnessBug("a convergent certificate cannot carry unbounded decay")
        return alpha0

    def verify_at(self, alpha: int, V: Neighborhood, W: Neighborhood | None = None) -> bool:
        """Exact recheck of the defining containment at one entry index."""
        _, bounds, target = self.frame(V, W)
        img = (self.net.term(alpha) - self.limit).propagate_bounds(bounds)
        return img.within(target.bounds)

    def recheck(self, V: Neighborhood, W: Neighborhood | None = None) -> dict[int, bool]:
        """The threshold alpha0 and the entry seven past it, each with its exact recheck."""
        alpha0 = self.alpha0_for(V, W)
        return {alpha: self.verify_at(alpha, V, W) for alpha in (alpha0, alpha0 + 7)}

    def witness_refutes(self) -> bool:
        """Index-free recheck of a negative verdict: the eventual difference
        (or an unbounded decay coordinate) escapes the recorded witness."""
        if self.convergent or self.witness is None:
            return False
        if self.residual_bounds is not None and self.residual_bounds.overall_sup() != 0:
            return not self.residual_bounds.within(self.witness.bounds)
        # Residual vanished, so divergence came from unbounded decay: the
        # containment fails at every index.
        return not self.verify_at(1, self.witness, self.witness)


def converges(net: HomNet, limit: Hom, mode: str, region: SetDesc | None = None) -> ConvergenceCertificate:
    """Convergence of `net` to `limit` in one of the three modes.

    `region` is the domain set the convergence is uniform on: a base
    neighborhood as an `NbhdSet` for nr, a ring-bounded set for br, and none
    for cr, which chooses its own U for each outer W.
    """
    if mode == "nr":
        if not isinstance(region, NbhdSet):
            raise InvalidArgument("mode nr needs a region that is a set of kind nbhd")
        return nr_converges(net, limit, region.nbhd)
    if mode == "br":
        if region is None:
            raise InvalidArgument("mode br needs a region that is a bounded set")
        return br_converges(net, limit, region)
    if mode == "cr":
        if region is not None:
            raise InvalidArgument("mode cr chooses its own U for each W and takes no region")
        return cr_converges(net, limit)
    raise InvalidArgument(f"unknown mode {mode!r}")


def nr_converges(net: HomNet, limit: Hom, U: Neighborhood) -> ConvergenceCertificate:
    """Uniform convergence on the neighborhood U."""
    if U.topology is not net.domain.topology:
        raise InvalidNeighborhood(f"{U!r} is not in the domain base")
    return _uniform_convergence("nr", net, limit, NbhdSet(net.domain, U), U.bounds)


def br_converges(net: HomNet, limit: Hom, B: SetDesc) -> ConvergenceCertificate:
    """Uniform convergence on the bounded set B."""
    verdict = set_ring_bounded(B)
    if not verdict.holds:
        witness = json.dumps(verdict.refuting.render(), sort_keys=True)
        raise NotBounded(f"the set is not ring-bounded, witness {witness}")
    return _uniform_convergence("br", net, limit, B, coordinate_bounds(B))


def _uniform_convergence(
    mode: str, net: HomNet, limit: Hom, region: SetDesc | None, region_bounds: CoordBounds
) -> ConvergenceCertificate:
    residual_img = (net.eventual_term() - limit).propagate_bounds(region_bounds)
    escaping = residual_img if residual_img.overall_sup() != 0 else None
    # cr's inner radius shrinks at will, so its decay never escapes.
    if escaping is None and net.is_closed_form and mode != "cr":
        decay_img = net.decay.propagate_bounds(region_bounds)
        if decay_img.first_infinite_index() is not None:
            escaping = decay_img
    witness = None if escaping is None else refuting_nbhd(escaping, net.codomain.topology)
    # Every field by position, as for `HomNet`.
    return ConvergenceCertificate(mode, escaping is None, net, limit, region, region_bounds, residual_img, witness)


def cr_converges(net: HomNet, limit: Hom) -> ConvergenceCertificate:
    """Convergence with product-form targets V*W, the outer W answered by a U.

    Requires pointwise multiplication: with the zero product every target
    degenerates to {0} and the definition says nothing.
    """
    if net.domain != net.codomain:
        raise InvalidArgument("this convergence mode lives on endomorphism nets")
    if net.domain.multiplication is Multiplication.ZERO:
        raise VacuousProduct("V*W = {0} under zero multiplication; the check is vacuous")
    # Every coordinate is constrained by some outer W and the inner radius shrinks at will, so the
    # eventual term must equal the limit outright; a nonzero map has a nonzero image bound on the
    # unit neighborhood (INF on a free product coordinate), so the uniform check there decides that.
    unit = canonical_generator(net.domain.topology, net.domain.dim)
    return _uniform_convergence("cr", net, limit, None, unit.bounds)


# ---------------------------------------------------------------------------
# Uniqueness of limits (the Hausdorff mechanism).

def limit_uniqueness_audit(
    net: HomNet, limit_a: Hom, limit_b: Hom, mode: str, region: SetDesc | None = None
) -> str | None:
    """If a net converges to two limits, they must be the same canonical form.

    Returns the name (`"a"` or `"b"`) of the first limit the net does not
    converge to, or None when it converges to both and they are equal.  Two
    different certified limits are a soundness bug in the deciders, never a
    tolerated outcome; limits that differ simply fail the convergence
    precondition.  `region` is as for `converges`.
    """
    for name, limit in (("a", limit_a), ("b", limit_b)):
        if not converges(net, limit, mode, region).convergent:
            return name
    if limit_a != limit_b:
        raise SoundnessBug("two limits certified for one net")
    return None


# ---------------------------------------------------------------------------
# Uniform continuity of the positive-part map.

def lattice_continuity_audit(
    net_t: HomNet, net_s: HomNet, mode: str, region: SetDesc | None = None, seed: int = 0
) -> int:
    """Check T_a+ (x) - S_a+ (x) <= (T_a - S_a)+ (x) exactly, and that the
    right side lands in the certified target, for sampled entries and points.

    The target V (and cr's outer W) is the codomain's canonical generator;
    the entries are alpha0, alpha0 + 3 and alpha0 + 7, with eight points x
    each.  Returns the number of points checked; a failed check raises
    SoundnessBug.  `region` is as for `converges`.
    """
    diff = net_t.diff(net_s)
    cert = converges(diff, diff.term(1).scale(0), mode, region)
    if not cert.convergent:
        raise InvalidArgument("the difference net must converge to zero in the given mode")

    V = canonical_generator(net_t.codomain.topology, net_t.codomain.dim)
    alpha0 = cert.alpha0_for(V, V)
    region_set, _, target = cert.frame(V, V)
    rng = rng_for(seed)
    checked = 0
    for off in (0, 3, 7):
        alpha = alpha0 + off
        t_pos = positive_part(net_t.term(alpha))
        s_pos = positive_part(net_s.term(alpha))
        d_pos = positive_part(net_t.term(alpha) - net_s.term(alpha))
        for _ in range(8):
            x = pos_part(region_set.space, sample_member(region_set, rng))
            lhs = t_pos.apply(x) - s_pos.apply(x)
            rhs = d_pos.apply(x)
            if not lhs <= rhs:
                raise SoundnessBug(f"lattice inequality failed at alpha={alpha}, x={x!r}")
            if not target.member(rhs):
                raise SoundnessBug(f"positive-part difference escaped the target at alpha={alpha}")
            checked += 1
    return checked
