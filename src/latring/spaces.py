"""Concrete lattice-ring instances and the operations on their elements.

A `Space` fixes three things: the element carrier (Q^n, eventually-constant
sequences, or the integers as one-coordinate integer rows), the ring
multiplication (pointwise, or the degenerate zero product), and the
zero-neighborhood base used by the topology layer.  All operations are pure
and exact, and each is one method call on the element.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable

from .elements import EvSeq, FinVec, ZInt, aligned
from .errors import InvalidElement
from .records import Record


class SpaceKind(Enum):
    QN = "qn"
    EVSEQ = "evseq"
    Z_DISCRETE = "z"


class Multiplication(Enum):
    POINTWISE = "pointwise"
    ZERO = "zero"


class TopologyId(Enum):
    QN_BOX = "qn_box"
    EVSEQ_PRODUCT = "evseq_product"
    EVSEQ_SUPNORM = "evseq_supnorm"
    Z_DISCRETE_TOP = "z_discrete"


# The topologies each carrier takes, its default first.
TOPOLOGIES_FOR_KIND = {
    SpaceKind.QN: (TopologyId.QN_BOX,),
    SpaceKind.EVSEQ: (TopologyId.EVSEQ_PRODUCT, TopologyId.EVSEQ_SUPNORM),
    SpaceKind.Z_DISCRETE: (TopologyId.Z_DISCRETE_TOP,),
}


class Space(Record):
    kind: SpaceKind
    topology: TopologyId
    multiplication: Multiplication = Multiplication.POINTWISE
    dim: int | None = None

    def __init__(
        self,
        kind: SpaceKind,
        topology: TopologyId,
        multiplication: Multiplication = Multiplication.POINTWISE,
        dim: int | None = None,
    ):
        # Built in most ops, so it sets its fields itself rather than through `Record.__init__`.
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "multiplication", multiplication)
        object.__setattr__(self, "dim", dim)
        if self.topology not in TOPOLOGIES_FOR_KIND[self.kind]:
            raise InvalidElement(f"{self.topology.value} does not fit carrier {self.kind.value}")
        if self.kind is SpaceKind.QN:
            if self.dim is None or self.dim < 1:
                raise InvalidElement("Q^n spaces need dim >= 1")
        elif self.dim is not None:
            raise InvalidElement(f"{self.kind.value} carries no dimension")
        if self.kind is SpaceKind.Z_DISCRETE and self.multiplication is not Multiplication.POINTWISE:
            raise InvalidElement("discrete Z only carries its usual multiplication")

    @classmethod
    def qn(cls, dim: int, multiplication: Multiplication = Multiplication.POINTWISE) -> "Space":
        return cls(SpaceKind.QN, TopologyId.QN_BOX, multiplication, dim)

    @classmethod
    def evseq(
        cls,
        topology: TopologyId = TopologyId.EVSEQ_PRODUCT,
        multiplication: Multiplication = Multiplication.POINTWISE,
    ) -> "Space":
        return cls(SpaceKind.EVSEQ, topology, multiplication)

    @classmethod
    def z_discrete(cls) -> "Space":
        return cls(SpaceKind.Z_DISCRETE, TopologyId.Z_DISCRETE_TOP)

    def validate(self, x):
        if self.kind is SpaceKind.QN:
            if x.__class__ is not FinVec or x.dim != self.dim:
                raise InvalidElement(f"expected a {self.dim}-dim FinVec, got {x!r}")
        elif self.kind is SpaceKind.EVSEQ:
            if not isinstance(x, EvSeq):
                raise InvalidElement(f"expected an EvSeq, got {x!r}")
        elif not isinstance(x, ZInt):
            raise InvalidElement(f"expected an integer, got {x!r}")
        return x

    def zero(self):
        if self.kind is SpaceKind.QN:
            return FinVec.zero(self.dim)
        if self.kind is SpaceKind.EVSEQ:
            return EvSeq.zero()
        return ZInt(0)


# ---------------------------------------------------------------------------
# Lattice and ring operations: each checks its arguments fit the space and
# calls the element's own method.

def join(space: Space, x, y):
    """Coordinatewise maximum: the least upper bound of x and y."""
    space.validate(x), space.validate(y)
    return x.join(y)


def meet(space: Space, x, y):
    """Coordinatewise minimum: the greatest lower bound of x and y."""
    space.validate(x), space.validate(y)
    return x.meet(y)


def pos_part(space: Space, x):
    """x join 0."""
    space.validate(x)
    return x.pos_part()


def neg_part(space: Space, x):
    """(-x) join 0."""
    space.validate(x)
    return x.neg_part()


def abs_val(space: Space, x):
    """x join (-x)."""
    space.validate(x)
    return abs(x)


def add(space: Space, x, y):
    space.validate(x), space.validate(y)
    return x + y


def negate(space: Space, x):
    space.validate(x)
    return -x


def ring_mul(space: Space, x, y):
    """Ring product: pointwise, or the zero element under zero multiplication."""
    space.validate(x), space.validate(y)
    if space.multiplication is Multiplication.ZERO:
        return space.zero()
    return x * y


def leq(space: Space, x, y) -> bool:
    space.validate(x), space.validate(y)
    return x <= y


def is_positive(space: Space, x) -> bool:
    return leq(space, space.zero(), x)


def matrix2_mul(x: FinVec, y: FinVec) -> FinVec:
    """Multiplication of 2 x 2 rational matrices flattened row-major into Q^4.

    Used to exhibit a lattice ring that is not a Birkhoff-Pierce ring; it is
    never the multiplication of a shipped Space.
    """
    if x.dim != 4 or y.dim != 4:
        raise InvalidElement("flattened 2x2 matrices need dim 4")
    (dx, (a, b, c, d)), (dy, (e, f, g, h)) = x.int_row, y.int_row
    return FinVec.from_int_row(dx * dy, [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])


# ---------------------------------------------------------------------------
# Axiom checkers.

class FRingVerdict(Record):
    """Outcome of the compatibility check ca /\\ b = ac /\\ b = 0."""

    holds: bool
    witness: tuple | None
    checked: int
    skipped: tuple


def check_f_ring(space: Space, samples: Iterable[tuple], mul: Callable | None = None) -> FRingVerdict:
    """Test a \\wedge b = 0, c >= 0  =>  ca \\wedge b = ac \\wedge b = 0 on sample triples.

    Samples violating the hypothesis are skipped and reported, not counted.
    `mul` overrides the space's ring product (used for the flattened matrix
    ring, which fails this axiom).
    """
    product = mul if mul is not None else (lambda a, b: ring_mul(space, a, b))
    zero = space.zero()
    checked = 0
    skipped = []
    for a, b, c in samples:
        space.validate(a), space.validate(b), space.validate(c)
        if meet(space, a, b) != zero or not is_positive(space, c):
            skipped.append((a, b, c))
            continue
        checked += 1
        ca = product(c, a)
        ac = product(a, c)
        if meet(space, ca, b) != zero or meet(space, ac, b) != zero:
            return FRingVerdict(False, (a, b, c), checked, tuple(skipped))
    return FRingVerdict(True, None, checked, tuple(skipped))


class ArchimedeanWitness(Record):
    """Least n with n*x not<= y, or the report that x <= 0 (no witness owed)."""

    n: int | None

    @property
    def x_nonpositive(self) -> bool:
        return self.n is None


def _least_exceeding(x: int, y: int) -> int | None:
    """Smallest positive n with n*x > y, or None if there is none."""
    if x > 0:
        return max(1, y // x + 1)
    # x <= 0: n*x is nonincreasing in n, so n=1 is the only chance.
    return 1 if x > y else None


def archimedean_witness(space: Space, x, y) -> ArchimedeanWitness:
    """Witness that the order is Archimedean: if x not<= 0, some n*x escapes y."""
    space.validate(x), space.validate(y)
    if leq(space, x, space.zero()):
        return ArchimedeanWitness(None)
    (dx, xs), (dy, ys) = aligned(x, y)  # n x_i > y_i is n (a d_y) > b d_x on numerators a, b
    candidates = [n for n in (_least_exceeding(a * dy, b * dx) for a, b in zip(xs, ys)) if n is not None]
    # x not<= 0 guarantees a strictly positive coordinate, hence a finite witness.
    return ArchimedeanWitness(min(candidates))
