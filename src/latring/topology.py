"""Zero-neighborhood bases, symbolic sets, and the two boundedness notions.

Each shipped topology has a countable directed base of closed boxes, which
are solid and order closed, so the base is a Fatou base by construction.
Boundedness quantifiers ("for every W there is V ...") are decided exactly
through per-coordinate bound functions, never by sampling: box containments
reduce to finitely many rational inequalities per parametric family of base
neighborhoods.  Negative verdicts always carry a concrete refuting
neighborhood.

A base neighborhood {x : |x_i| <= r_i} is its radius function
`Neighborhood.bounds`, a sparse `CoordBounds` built once: INF on a coordinate
a product neighborhood leaves free, 0 for the discrete {0}.  Membership,
containment (`CoordBounds.within`), the least multiple of a neighborhood that
holds a set (`bounds_multiplier`) and the product V*W are each one body over
that function for all four bases, and walk its pins, not the index range;
only construction, rendering, sampling and the choice of a refuting
neighborhood branch on the topology.

Sets are read through the coordinate view of `elements` (a head of explicit
coordinates and an optional tail), so bounds, member sampling, non-solid
witnesses and image membership are each one body for Q^n, sequences and Z.
Membership in an image is decided over a finite base for every form, and
over any interval, hull or neighborhood for every diagonal form, by pulling x
back through the coefficients; a non-diagonal image of an infinite base is
refused.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, partial, reduce
from typing import Iterable, Sequence

from .elements import EvSeq, FinVec, ZInt, aligned, coords, from_coords
from .errors import EmptyInput, InvalidElement, NotBounded, SoundnessBug
from .extended import INF, CoordBounds, is_inf
from .records import Record
from .sampling import rand_between, rand_in_interval, rand_rat
from .scalars import as_rat, rat_row
from .spaces import Multiplication, Space, TopologyId, abs_val, join


# ---------------------------------------------------------------------------
# Neighborhoods.

class Neighborhood(Record):
    """A base zero neighborhood: the closed coordinate box of its radius function `bounds`.

    QN_BOX has one radius per coordinate, EVSEQ_PRODUCT one radius on a finite
    coordinate set, EVSEQ_SUPNORM one radius on every coordinate; the discrete
    base neighborhood is {0}.  `radii`, `coords` and `radius` read them back.
    """

    topology: TopologyId
    bounds: CoordBounds

    @classmethod
    def box(cls, radii: Sequence) -> "Neighborhood":
        radii = tuple(as_rat(r) for r in radii)
        if not radii or any(r <= 0 for r in radii):
            raise InvalidElement("box neighborhoods need strictly positive radii")
        return cls(TopologyId.QN_BOX, CoordBounds.finite_dim(radii))

    @classmethod
    def product(cls, coords: Iterable[int], radius) -> "Neighborhood":
        coords, radius = frozenset(coords), as_rat(radius)
        if any(i < 0 for i in coords):
            raise InvalidElement("product neighborhoods need coordinate indices >= 0")
        if radius <= 0:
            raise InvalidElement("product neighborhoods need one positive radius")
        return cls(TopologyId.EVSEQ_PRODUCT, CoordBounds([(i, radius) for i in sorted(coords)], INF))

    @classmethod
    def sup_ball(cls, radius) -> "Neighborhood":
        radius = as_rat(radius)
        if radius <= 0:
            raise InvalidElement("sup-norm balls need one positive radius")
        return cls(TopologyId.EVSEQ_SUPNORM, CoordBounds((), radius))

    @classmethod
    def discrete_zero(cls) -> "Neighborhood":
        return cls(TopologyId.Z_DISCRETE_TOP, CoordBounds.finite_dim((Fraction(0),)))

    @property
    def radii(self) -> tuple[Fraction, ...] | None:
        return self.bounds.head if self.topology is TopologyId.QN_BOX else None

    @property
    def coords(self) -> frozenset[int] | None:
        return frozenset([i for i, _ in self.bounds.pins]) if self.topology is TopologyId.EVSEQ_PRODUCT else None

    @property
    def radius(self) -> Fraction | None:
        """The one radius of a sup-norm ball or product neighborhood; 1 for the whole space."""
        if self.topology is TopologyId.EVSEQ_PRODUCT:
            return next((r for _, r in self.bounds.pins), Fraction(1))
        return self.bounds.tail if self.topology is TopologyId.EVSEQ_SUPNORM else None

    def member(self, x) -> bool:
        _space_for(self.topology, len(self.bounds.pins)).validate(x)
        return element_bounds(x).within(self.bounds)

    def render(self) -> dict:
        out = {"topology": self.topology.value}
        if self.topology is TopologyId.QN_BOX:
            out["radii"] = [str(r) for r in self.radii]
        elif self.topology is TopologyId.EVSEQ_PRODUCT:
            out["coords"] = sorted(self.coords)
        if self.radius is not None:
            out["radius"] = str(self.radius)
        return out


@cache  # a neighborhood is immutable, and classify and converge ask for this one several times an op
def canonical_generator(topology: TopologyId, dim: int | None = None) -> Neighborhood:
    """A representative base neighborhood with unit radius: the first of `base_generators`."""
    return base_generators(topology, dim or 1)[0]


def base_generators(topology: TopologyId, dim: int | None = None) -> list[Neighborhood]:
    """A spread of base neighborhoods across the parametric family."""
    if topology is TopologyId.QN_BOX:
        n = dim or 2
        return [
            Neighborhood.box((Fraction(1),) * n),
            Neighborhood.box(tuple(Fraction(1, i + 1) for i in range(n))),
            Neighborhood.box((Fraction(5, 2),) * n),
        ]
    if topology is TopologyId.EVSEQ_PRODUCT:
        return [
            Neighborhood.product({0}, 1),
            Neighborhood.product({0, 1, 2}, Fraction(1, 3)),
            Neighborhood.product({4}, Fraction(7, 2)),
        ]
    if topology is TopologyId.EVSEQ_SUPNORM:
        return [Neighborhood.sup_ball(1), Neighborhood.sup_ball(Fraction(1, 5)), Neighborhood.sup_ball(3)]
    return [Neighborhood.discrete_zero()]


# ---------------------------------------------------------------------------
# Symbolic sets.

class SetDesc(Record):
    """Base for symbolic subsets of a space; see the concrete forms below."""

    space: Space


class Interval(SetDesc):
    lo: object
    hi: object

    def __post_init__(self):
        self.space.validate(self.lo), self.space.validate(self.hi)
        if not self.lo <= self.hi:
            raise InvalidElement("interval needs lo <= hi")


class FiniteSet(SetDesc):
    elements: tuple

    def __post_init__(self):
        if not self.elements:
            raise EmptyInput("finite set needs at least one element")
        for x in self.elements:
            self.space.validate(x)


class SolidHull(SetDesc):
    """Union of the boxes [-|y|, |y|] over the generators y."""

    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise EmptyInput("solid hull needs at least one generator")
        for y in self.generators:
            self.space.validate(y)


class NbhdSet(SetDesc):
    nbhd: Neighborhood

    def __post_init__(self):
        if self.nbhd.topology is not self.space.topology:
            raise InvalidElement("neighborhood belongs to a different base")
        radii, dim = self.nbhd.radii, self.space.dim
        if radii is not None and len(radii) != dim:
            raise InvalidElement(f"a box in a {dim}-dim space needs {dim} radii, got {len(radii)}")


class ImageSet(SetDesc):
    """Image of a box-like set under a diagonal or matrix homomorphism.

    `space` is the codomain.  Bounds are propagated through the coefficient
    moduli, which is the exact per-coordinate supremum over the symmetric
    box spanned by the base's bounds.
    """

    hom: object
    base: SetDesc


def solid_hull(space: Space, points: Sequence) -> SolidHull:
    """Smallest solid superset of a finite set."""
    if not points:
        raise EmptyInput("solid hull of nothing")
    return SolidHull(space, tuple(points))


# ---------------------------------------------------------------------------
# Per-coordinate bounds.

def element_bounds(x) -> CoordBounds:
    """|x_i| at each coordinate of x."""
    d, head, tail = coords(x)
    head = [Fraction(abs(a), d) for a in head]
    return CoordBounds.finite_dim(head) if tail is None else CoordBounds.sequence(head, Fraction(abs(tail), d))


def _points(S: SetDesc) -> tuple:
    """The elements spanning an interval, finite set or solid hull."""
    if isinstance(S, Interval):
        return S.lo, S.hi
    return S.elements if isinstance(S, FiniteSet) else S.generators


def coordinate_bounds(S: SetDesc) -> CoordBounds:
    """Exact supremum of |x_i| over x in S, per coordinate (INF when unconstrained)."""
    if isinstance(S, (Interval, FiniteSet, SolidHull)):
        # The largest |x_i| over the points is coordinate i of the join of their moduli.
        return element_bounds(reduce(partial(join, S.space), map(abs, _points(S))))
    if isinstance(S, NbhdSet):
        return S.nbhd.bounds
    return S.hom.propagate_bounds(coordinate_bounds(S.base))


# ---------------------------------------------------------------------------
# Structural solidity / order closedness.

def _symmetric_interval(S: Interval) -> bool:
    return S.lo == -S.hi


def is_solid(S: SetDesc) -> bool:
    """Structural verdict: |x| <= |y| with y in S forces x in S."""
    if isinstance(S, (NbhdSet, SolidHull)):
        return True
    if isinstance(S, Interval):
        return _symmetric_interval(S)
    if isinstance(S, FiniteSet):
        zero = S.space.zero()
        return all(x == zero for x in S.elements)
    # A diagonal image of a solid box is again a symmetric box; matrix
    # images are generally slanted, so they are not claimed solid.
    return S.hom.is_diagonal() and is_solid(S.base)


def is_order_closed(S: SetDesc) -> bool:
    """Structural verdict, true of every form.

    Closed boxes, finite unions of them and finite sets qualify, and images of
    these under the shipped forms are rational polyhedra, hence contain every
    coordinatewise limit they admit.
    """
    return True


def non_solid_witness(S: SetDesc) -> tuple | None:
    """For a non-solid verdict, a pair (x, y) with y in S, |x| <= |y|, x not in S."""
    if is_solid(S):
        return None
    if isinstance(S, Interval):
        # Flip the sign of the first coordinate where lo and hi are not
        # mirror images, on whichever endpoint has the larger modulus there.
        (dl, lo_row), (dh, hi_row) = aligned(S.lo, S.hi)
        for i, (a, b) in enumerate(zip(lo_row, hi_row)):
            if a * dh != -b * dl:
                y, d, row = (S.hi, dh, hi_row) if abs(b) * dl >= abs(a) * dh else (S.lo, dl, lo_row)
                x = from_coords(y, d, row[:i] + (-row[i],) + row[i + 1:], coords(y)[2])
                if not set_contains(S, x):
                    return (x, y)
        return None
    if isinstance(S, FiniteSet):
        for y in S.elements:
            if y == S.space.zero():
                continue
            for x in _shrink_candidates(y):
                if not set_contains(S, x):
                    return (x, y)
    return None


def _shrink_candidates(y):
    """Points between y and 0, nearest y first: unit steps for an integer, sevenths of y otherwise.

    The unit steps are made one at a time, as the search reaches them.
    """
    if isinstance(y, ZInt):
        n = int(y)
        step = 1 if n > 0 else -1
        return map(ZInt, range(n - step, -step, -step))
    return [y.scale(Fraction(num, 7)) for num in range(6, -1, -1)]


# ---------------------------------------------------------------------------
# Membership and member sampling.

def set_contains(S: SetDesc, x) -> bool:
    S.space.validate(x)
    if isinstance(S, Interval):
        return S.lo <= x and x <= S.hi
    if isinstance(S, FiniteSet):
        return any(x == e for e in S.elements)
    if isinstance(S, SolidHull):
        ax = abs_val(S.space, x)
        return any(ax <= abs_val(S.space, y) for y in S.generators)
    if isinstance(S, NbhdSet):
        return S.nbhd.member(x)
    return _image_contains(S, x)


def _image_contains(S: ImageSet, x) -> bool:
    """x in T(B): search a finite base, else pull x back through a diagonal T.

    The coefficients, x and an interval's ends are read as aligned integer
    rows, where a sequence's last index stands for its tail.  A nonzero
    coefficient c takes x_i back to x_i / c; a zero one needs x_i = 0 and
    leaves the preimage coordinate free, so it takes the value nearest 0 that
    the base allows.  On Z, x is no member when its preimage is not an
    integer.  A non-diagonal image of an infinite base raises InvalidElement.
    """
    T, base = S.hom, S.base
    if isinstance(base, FiniteSet):
        return any(T.apply(u) == x for u in base.elements)
    if not T.is_diagonal():
        raise InvalidElement("membership through a non-diagonal image is only decided for finite bases")
    ends = (base.lo, base.hi) if isinstance(base, Interval) else ()
    rows = aligned(T.diag, x, *ends)
    if len({len(row) for _, row in rows}) != 1:
        raise InvalidElement(f"{T!r} does not act on {x!r}")
    (da, a), (dx, xs), *end_rows = rows
    if end_rows:
        (dl, lo), (dh, hi) = end_rows
    entries = []
    for i, (c, v) in enumerate(zip(a, xs)):
        if c:
            entries.append(Fraction(v * da, c * dx))
        elif v:
            return False
        elif end_rows:
            entries.append(min(max(Fraction(0), Fraction(lo[i], dl)), Fraction(hi[i], dh)))
        elif isinstance(base, (NbhdSet, SolidHull)):
            entries.append(Fraction(0))
        else:
            raise InvalidElement(f"no coordinatewise filler for {base!r}")
    if isinstance(x, ZInt) and entries[0].denominator != 1:
        return False  # the preimage is not an integer, so nothing in the base maps onto x
    return set_contains(base, x.from_int_row(*rat_row(entries)))


def sample_member(S: SetDesc, rng: random.Random):
    """A random element of S; every sample respects coordinate_bounds(S)."""
    if isinstance(S, Interval):
        return rand_between(rng, S.lo, S.hi)
    if isinstance(S, FiniteSet):
        return rng.choice(S.elements)
    if isinstance(S, SolidHull):
        y = abs_val(S.space, rng.choice(S.generators))
        return rand_between(rng, -y, y)
    if isinstance(S, NbhdSet):
        return _sample_nbhd(S.nbhd, rng)
    return S.hom.apply(sample_member(S.base, rng))


def _sample_nbhd(U: Neighborhood, rng: random.Random):
    if U.topology is TopologyId.QN_BOX:
        r = FinVec(U.radii)
        return rand_between(rng, -r, r)
    if U.topology is TopologyId.Z_DISCRETE_TOP:
        return ZInt(0)
    if U.topology is TopologyId.EVSEQ_SUPNORM:
        r = EvSeq.constant(U.radius)
        return rand_between(rng, -r, r, min_head=rng.randint(0, 4))
    # Product neighborhood: free coordinates may wander anywhere.
    coords, r, span = U.coords, U.radius, U.bounds.span() + rng.randint(0, 3)
    entries = [rand_in_interval(rng, -r, r) if i in coords else rand_rat(rng, span=30) for i in range(span)]
    return EvSeq(tuple(entries), rand_rat(rng, span=30))


# ---------------------------------------------------------------------------
# Boundedness deciders.

class ReadingVerdict(Record):
    """One reading of boundedness decided, with its witnesses.

    Ring reading: VB and BV inside W, solvable for every base W?  Group
    reading: B inside n*U, solvable for every base U?  A negative verdict
    carries the base neighborhood that refutes it; `vacuous` marks the ring
    reading under zero multiplication, where every set qualifies.  A
    homomorphism's label (`homspaces.classify`) adds the neighborhood that
    works, the bounded set whose image escapes, and a note.
    """

    holds: bool
    vacuous: bool
    via: Neighborhood | None        # neighborhood that works (nr)
    refuting: Neighborhood | None   # neighborhood that defeats every attempt
    bad_set: SetDesc | None         # bounded set whose image escapes (br)
    note: str


def refuting_nbhd(bounds: CoordBounds, topology: TopologyId) -> Neighborhood:
    """A base neighborhood of `topology` that a set with these bounds escapes.

    Prefers an unconstrained coordinate; otherwise halves a nonzero bound.
    """
    if topology is TopologyId.EVSEQ_PRODUCT:
        j = bounds.first_infinite_index()
        if j is not None:
            return Neighborhood.product({j}, 1)
        j = bounds.first_index(lambda v: v != 0)
        if j is None:
            raise SoundnessBug("no escaping coordinate found")
        return Neighborhood.product({j}, bounds.at(j) / 2)
    if topology is TopologyId.EVSEQ_SUPNORM:
        sup = bounds.overall_sup()
        return Neighborhood.sup_ball(1 if is_inf(sup) else sup / 2)
    if topology is TopologyId.QN_BOX:
        return Neighborhood.box([1 if is_inf(v) or v == 0 else v / 2 for v in bounds.head])
    raise SoundnessBug("nothing escapes the discrete base")


def bounds_ring_bounded(
    bounds: CoordBounds, topology: TopologyId, multiplication: Multiplication
) -> ReadingVerdict:
    """Ring-boundedness decision from a bound function alone."""
    if multiplication is Multiplication.ZERO:
        return ReadingVerdict(True, True, None, None, None, "")
    # On the integers V = {0} multiplies everything to {0}.
    if topology is not TopologyId.Z_DISCRETE_TOP and is_inf(bounds.overall_sup()):
        return ReadingVerdict(False, False, None, refuting_nbhd(bounds, topology), None, "")
    return ReadingVerdict(True, False, None, None, None, "")


def bounds_group_bounded(bounds: CoordBounds, topology: TopologyId) -> ReadingVerdict:
    """Group-boundedness decision from a bound function alone."""
    if topology is TopologyId.Z_DISCRETE_TOP:
        # n * {0} = {0}: only subsets of {0} qualify.
        if bounds.overall_sup() == 0:
            return ReadingVerdict(True, False, None, None, None, "")
        return ReadingVerdict(False, False, None, Neighborhood.discrete_zero(), None, "")
    if is_inf(bounds.overall_sup()):
        return ReadingVerdict(False, False, None, refuting_nbhd(bounds, topology), None, "")
    return ReadingVerdict(True, False, None, None, None, "")


def set_ring_bounded(S: SetDesc) -> ReadingVerdict:
    """Decide: for every base W there is a base V with V*S and S*V inside W."""
    return bounds_ring_bounded(coordinate_bounds(S), S.space.topology, S.space.multiplication)


def set_group_bounded(S: SetDesc) -> ReadingVerdict:
    """Decide: for every base U there is a positive n with S inside n*U."""
    return bounds_group_bounded(coordinate_bounds(S), S.space.topology)


def group_bound_multiplier(S: SetDesc, U: Neighborhood) -> int | None:
    """Minimal n with S inside n*U, or None when no multiple suffices."""
    return bounds_multiplier(coordinate_bounds(S), U)


def bounds_multiplier(bounds: CoordBounds, U: Neighborhood) -> int | None:
    """Minimal n >= 1 with every coordinate bound at most n times U's radius.

    A free coordinate (radius INF) takes any bound; a finite radius refuses
    an INF bound, and a radius of 0 (the discrete {0}) refuses any nonzero one.
    """
    n = 1
    for v, r in bounds.paired(U.bounds):
        if is_inf(r) or v == 0:
            continue
        if is_inf(v) or r == 0:
            return None
        n = max(n, math.ceil(v / r))
    return n


def fatou_check(topology: TopologyId) -> bool:
    """Every base neighborhood is solid and order closed (closed boxes are)."""
    space = _space_for(topology)
    for U in base_generators(topology, dim=space.dim):
        s = NbhdSet(space, U)
        if not (is_solid(s) and is_order_closed(s)):
            return False
    return True


def _space_for(topology: TopologyId, dim: int = 2) -> Space:
    """The carrier a base lives on; `dim` sizes Q^n and is ignored elsewhere."""
    if topology is TopologyId.QN_BOX:
        return Space.qn(dim)
    if topology is TopologyId.Z_DISCRETE_TOP:
        return Space.z_discrete()
    return Space.evseq(topology)


def hull_bounded_preservation(S: SetDesc) -> bool:
    """Does the solid hull of a ring-bounded finite set stay ring-bounded, with identical bounds?"""
    if not isinstance(S, FiniteSet):
        raise NotBounded("expects a finite set of elements")
    if not set_ring_bounded(S).holds:
        raise NotBounded("the finite set is not ring-bounded, nothing to preserve")
    hull = SolidHull(S.space, S.elements)
    return set_ring_bounded(hull).holds and coordinate_bounds(S) == coordinate_bounds(hull)
