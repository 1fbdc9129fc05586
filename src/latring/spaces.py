"""Concrete lattice-ring instances and the operations on their elements.

A `Space` fixes three things: the element carrier (Q^n, eventually-constant
sequences, or the integers), the ring multiplication (pointwise, or the
degenerate zero product), and the zero-neighborhood base used by the
topology layer.  All operations are pure and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .elements import EvSeq, FinVec, aligned
from .errors import InvalidElement


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


_TOPOLOGIES_FOR_KIND = {
    SpaceKind.QN: (TopologyId.QN_BOX,),
    SpaceKind.EVSEQ: (TopologyId.EVSEQ_PRODUCT, TopologyId.EVSEQ_SUPNORM),
    SpaceKind.Z_DISCRETE: (TopologyId.Z_DISCRETE_TOP,),
}


@dataclass(frozen=True)
class Space:
    kind: SpaceKind
    topology: TopologyId
    multiplication: Multiplication = Multiplication.POINTWISE
    dim: int | None = None

    def __post_init__(self):
        if self.topology not in _TOPOLOGIES_FOR_KIND[self.kind]:
            raise InvalidElement(f"{self.topology} does not fit carrier {self.kind}")
        if self.kind is SpaceKind.QN:
            if self.dim is None or self.dim < 1:
                raise InvalidElement("Q^n spaces need dim >= 1")
        elif self.dim is not None:
            raise InvalidElement(f"{self.kind} carries no dimension")
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
            if not isinstance(x, FinVec) or x.dim != self.dim:
                raise InvalidElement(f"expected a {self.dim}-dim FinVec, got {x!r}")
        elif self.kind is SpaceKind.EVSEQ:
            if not isinstance(x, EvSeq):
                raise InvalidElement(f"expected an EvSeq, got {x!r}")
        else:
            if isinstance(x, bool) or not isinstance(x, int):
                raise InvalidElement(f"expected an integer, got {x!r}")
        return x

    def zero(self):
        if self.kind is SpaceKind.QN:
            return FinVec.zero(self.dim)
        if self.kind is SpaceKind.EVSEQ:
            return EvSeq.zero()
        return 0


# ---------------------------------------------------------------------------
# Lattice and ring operations, dispatched on the carrier.

def join(space: Space, x, y):
    """Coordinatewise maximum: the least upper bound of x and y."""
    space.validate(x), space.validate(y)
    if space.kind is SpaceKind.Z_DISCRETE:
        return max(x, y)
    return x.join(y)


def meet(space: Space, x, y):
    """Coordinatewise minimum: the greatest lower bound of x and y."""
    space.validate(x), space.validate(y)
    if space.kind is SpaceKind.Z_DISCRETE:
        return min(x, y)
    return x.meet(y)


def pos_part(space: Space, x):
    """x join 0."""
    space.validate(x)
    if space.kind is SpaceKind.Z_DISCRETE:
        return max(x, 0)
    return x.pos_part()


def neg_part(space: Space, x):
    """(-x) join 0."""
    space.validate(x)
    if space.kind is SpaceKind.Z_DISCRETE:
        return max(-x, 0)
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


def flat_matrix_mul(n: int) -> Callable:
    """Multiplication of n x n rational matrices flattened row-major into Q^(n*n).

    Used to exhibit a lattice ring that is not a Birkhoff-Pierce ring; it is
    never the multiplication of a shipped Space.
    """

    def mul(x: FinVec, y: FinVec) -> FinVec:
        if x.dim != n * n or y.dim != n * n:
            raise InvalidElement(f"flattened {n}x{n} matrices need dim {n * n}")
        (dx, a), (dy, b) = x.int_row, y.int_row
        out = [sum(a[i * n + k] * b[k * n + j] for k in range(n)) for i in range(n) for j in range(n)]
        return FinVec.from_int_row(dx * dy, out)

    return mul


matrix2_mul = flat_matrix_mul(2)


# ---------------------------------------------------------------------------
# Axiom checkers.

@dataclass(frozen=True)
class FRingVerdict:
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


@dataclass(frozen=True)
class ArchimedeanWitness:
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
