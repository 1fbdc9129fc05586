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
Bounds, solidity and membership first `fold` an image chain into one image
(finite sets and diagonal chains fold; any other chain is not decided), then
bound an image box by box: over T[lo, hi] the largest |x_i| is |T c| + |T| h
for the center c and half-width h.  Membership pulls x back through a diagonal
T; a non-diagonal image of an infinite base is refused.  Solidity has one
decider, `non_solid_witness`: "not solid" comes with a pair (x, y) that
re-checks, and what it cannot decide raises InvalidElement.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import chain
from typing import Iterable, Sequence

from .elements import EvSeq, FinVec, ZInt, aligned, coords, from_coords
from .errors import EmptyInput, InvalidElement, NotBounded, SoundnessBug
from .extended import INF, CoordBounds, is_inf
from .homs import diagonal_product
from .records import Record
from .sampling import rand_between, rand_in_interval, rand_rat
from .scalars import as_rat, rat_row
from .spaces import Multiplication, Space, SpaceKind, TopologyId, abs_val, join, meet


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
    """Image of a set under a diagonal or matrix homomorphism; `space` is the codomain.

    After `fold`, its bounds are exact: one box for an interval's image, the
    join of the generators' boxes for a hull's, `propagate_bounds` for a
    neighborhood's.
    """

    hom: object
    base: SetDesc


# ---------------------------------------------------------------------------
# Per-coordinate bounds.

def element_bounds(x) -> CoordBounds:
    """|x_i| at each coordinate of x."""
    d, head, tail = coords(x)
    if tail is None:
        return CoordBounds.finite_dim([Fraction(abs(a), d) for a in head])
    # Pins equal to the tail are dropped on their integer numerators, not compared as Fractions.
    t = abs(tail)
    pins = [(i, Fraction(abs(a), d)) for i, a in enumerate(head) if abs(a) != t]
    return CoordBounds.from_canonical(pins, Fraction(t, d))


def fold(S: SetDesc) -> SetDesc:
    """S with an image of a finite set read as its points T u, and a diagonal chain as one image.

    Any other image of an image raises InvalidElement.
    """
    if not isinstance(S, ImageSet):
        return S
    T, base = S.hom, fold(S.base)
    if isinstance(base, FiniteSet):
        return FiniteSet(S.space, tuple(map(T.apply, base.elements)))
    if not isinstance(base, ImageSet):
        return S
    if not (T.is_diagonal() and base.hom.is_diagonal()):
        raise InvalidElement("an image of an image is not decided unless both maps are diagonal")
    return ImageSet(S.space, diagonal_product(T, base.hom), base.base)


def coordinate_bounds(S: SetDesc) -> CoordBounds:
    """Exact supremum of |x_i| over x in S, per coordinate (INF when unconstrained)."""
    S = fold(S)
    if isinstance(S, NbhdSet):
        return S.nbhd.bounds
    if isinstance(S, ImageSet):
        T, base = S.hom, S.base
        if isinstance(base, Interval):  # |T c| + |T| h, doubled so that Z stays integral
            spread = T.propagate_bounds(element_bounds(base.hi - base.lo))
            return element_bounds(T.apply(base.lo + base.hi)).combine(spread, lambda a, b: (a + b) / 2)
        if isinstance(base, SolidHull):  # boxes [-|y|, |y|], centered at 0
            boxes = [T.propagate_bounds(element_bounds(y)) for y in base.generators]
            return reduce(partial(CoordBounds.combine, op=max), boxes)
        return T.propagate_bounds(base.nbhd.bounds)
    # The largest |x_i| over the points is coordinate i of the join of their moduli.
    points = (S.lo, S.hi) if isinstance(S, Interval) else S.elements if isinstance(S, FiniteSet) else S.generators
    return element_bounds(reduce(partial(join, S.space), map(abs, points)))


# ---------------------------------------------------------------------------
# Solidity: one decider, whose "not solid" carries a witness.

def is_solid(S: SetDesc) -> bool:
    """|x| <= |y| with y in S forces x in S: no non-solid witness exists."""
    return non_solid_witness(S) is None


def non_solid_witness(S: SetDesc) -> tuple | None:
    """A pair (x, y) with y in S, |x| <= |y| and x not in S; None when S is solid.

    Raises InvalidElement where S is not decided: a chain `fold` refuses, a non-diagonal
    image of an infinite base, or such an image on Z under a map other than +-1.
    """
    S = fold(S)
    if isinstance(S, (NbhdSet, SolidHull)):
        return None  # a union of boxes [-r, r]
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
        return _finite_witness(S.elements)
    return _image_witness(S)


def _finite_witness(points: tuple) -> tuple | None:
    """The search over a finite set's points, one hash lookup a candidate.

    On Z: the first integer missing on the walks from a largest point n, then from -n, toward 0.
    Elsewhere only {0} is solid: were 6y/7 in S for every y, so would be each (6/7)^k y.
    """
    if isinstance(points[0], ZInt):
        members = set(map(int, points))
        n = max(map(int, points), key=abs)
        step = 1 if n > 0 else -1
        for k in chain(range(n - step, -step, -step), range(-n, step, step)):
            if k not in members:
                return (ZInt(k), ZInt(n))
        return None
    members = set(points)
    for y in points:
        x = y.scale(Fraction(6, 7))
        if x not in members:
            return (x, y)
    return None


def _image_witness(S: ImageSet) -> tuple | None:
    """An image of an interval, hull or neighborhood: {0}, or under a diagonal T.

    T pulls x back coordinatewise, so T(B) is a union of boxes when B is, and
    it takes [lo, hi] onto the interval between T lo and T hi; on Z both need T = +-1.
    """
    T, base, space = S.hom, S.base, S.space
    if not T.is_diagonal() or (space.kind is SpaceKind.Z_DISCRETE and abs(T.diag) != FinVec.of(1)):
        if coordinate_bounds(S).overall_sup() != 0:
            raise InvalidElement(f"solidity of an image under {T!r} is not decided")
        return None  # the image is {0}
    if isinstance(base, Interval):
        lo, hi = T.apply(base.lo), T.apply(base.hi)
        return non_solid_witness(Interval(space, meet(space, lo, hi), join(space, lo, hi)))
    return None


# ---------------------------------------------------------------------------
# Membership and member sampling.

def set_contains(S: SetDesc, x) -> bool:
    S.space.validate(x)
    S = fold(S)
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
    """x in T(B) for an interval, hull or neighborhood B: pull x back through a diagonal T.

    The coefficients, x and an interval's ends are read as aligned integer
    rows, where a sequence's last index stands for its tail.  A nonzero
    coefficient c takes x_i back to x_i / c; a zero one needs x_i = 0 and
    leaves the preimage coordinate free, so it takes the value nearest 0 that
    the base allows.  On Z, x is no member when its preimage is not an
    integer.  A non-diagonal T raises InvalidElement.
    """
    T, base = S.hom, S.base
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
        else:
            entries.append(min(max(Fraction(0), Fraction(lo[i], dl)), Fraction(hi[i], dh)) if end_rows else Fraction(0))
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
    """Every base neighborhood is solid, which makes the base a Fatou base.

    A base neighborhood is a closed coordinate box {x : |x_i| <= r_i}, so it
    is also order closed: on these coordinatewise lattices order convergence
    forces convergence at every coordinate, and each |x_i| <= r_i survives it.
    """
    space = _space_for(topology)
    return all(is_solid(NbhdSet(space, U)) for U in base_generators(topology, dim=space.dim))


def _space_for(topology: TopologyId, dim: int = 2) -> Space:
    """The carrier a base lives on; `dim` sizes Q^n and is ignored elsewhere."""
    if topology is TopologyId.QN_BOX:
        return Space.qn(dim)
    if topology is TopologyId.Z_DISCRETE_TOP:
        return Space.z_discrete()
    return Space.evseq(topology)


def hull_bounded_preservation(S: SetDesc) -> bool:
    """Does the solid hull of a finite set keep the set's coordinate bounds?

    A finite set's bounds are finite, so the set is ring-bounded, and so is a
    hull with the same bounds: ring-boundedness is read from the bounds alone.
    """
    if not isinstance(S, FiniteSet):
        raise NotBounded("expects a finite set of elements")
    # The bounds once more box by box, a route that shares no line with how `coordinate_bounds` reads points.
    boxes = reduce(partial(CoordBounds.combine, op=max), map(element_bounds, S.elements))
    return coordinate_bounds(S) == boxes == coordinate_bounds(SolidHull(S.space, S.elements))
