"""Group homomorphisms between the shipped lattice rings, and their lattice calculus.

Shipped forms: square rational matrices on Q^n, and diagonal-plus-finite-block
operators on eventually-constant sequences.  The identity of a space
(`identity_on`) is the identity matrix on Q^n, the 1x1 identity matrix on the
discrete integers (whose elements are one-coordinate integer rows), and the
unit diagonal operator on sequences, so every homomorphism is concrete from
construction on.  Every form is additive, preserves negation, and is order
bounded, so positive parts exist; they are computed in closed form
(entrywise) and validated against an independent vertex-enumeration oracle
wherever the two can meet.

A matrix works on its integer rows: each row is held as integer numerators
over one common denominator, with their gcd divided out, so every matrix has
exactly one integer form.  Its lattice arithmetic (sums, differences, scaling,
positive parts, moduli, joins, meets, directed suprema), `==` and hash run on
those integers.  Applying it reads the input's integer row, sums numerators
as integers, and gives the image as one integer row over the lcm of the row
denominators.  A sequence operator is a matrix block with the diagonal folded
in plus the diagonal beyond it, and runs on the matrix and element code.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Sequence

from .elements import EvSeq, FinVec, aligned
from .errors import (
    DecompositionPrereqViolated,
    InvalidElement,
    NotAdditiveOnCone,
    NotBoundedAbove,
    OracleTooLarge,
    SoundnessBug,
)
from .extended import INF, CoordBounds, ext_mul, is_inf
from .records import Frozen, Record
from .sampling import rand_between, rand_pos_element
from .scalars import IntRow, as_rat, combine_rows, over_lcm, rat_row, reduced_row
from .spaces import Space, SpaceKind, abs_val, is_positive, join, meet, neg_part, pos_part


def _rows_tuple(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple([tuple([as_rat(v) for v in row]) for row in rows])


def _bound_rows(rows: Sequence[IntRow], bounds: Sequence) -> list:
    """Per row, the sum of |t_ij| * bounds[j], with 0 * INF = 0 as in `ext_mul`."""
    unbounded = [j for j, v in enumerate(bounds) if is_inf(v)]
    bd, bs = rat_row([0 if is_inf(v) else v for v in bounds])
    return [INF if any(nums[j] for j in unbounded) else Fraction(sum(map(mul, map(abs, nums), bs)), d * bd)
            for d, nums in rows]


def _row_products(rows: Sequence[IntRow], xs: Sequence[int], den: int = 1) -> tuple[int, list[int]]:
    """(L, nums): each row times the numerators xs, over L = lcm(den, the row denominators)."""
    L = math.lcm(den, *(d for d, _ in rows))
    return L, [sum(map(mul, nums, xs)) * (L // d) for d, nums in rows]


_ZERO = Fraction(0)


class MatrixHom(Frozen):
    """n x n rational matrix acting on Q^n, and at n = 1 on the integers of Z.

    The working form is `int_rows`: row i as `(d_i, nums_i)` with entries
    nums_i[j] / d_i, d_i > 0 and gcd(d_i, *nums_i) == 1, so each matrix has
    exactly one such form and `==` and hash compare it directly.  Arithmetic
    results are built from integer rows; the Fraction `rows` of such a result
    are made only when read (`render`, `repr`), and so are those of a matrix
    built from integer rows read from a spec file (`from_int_rows`).
    `apply` gives its image in the class of its input, so the 1x1 identity
    maps an integer of Z to itself.  Instances are immutable.
    """

    __slots__ = ("_rows", "_ints")

    def __init__(self, rows: Iterable[Iterable]):
        rows = _rows_tuple(rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InvalidElement("matrix homomorphisms must be square and nonempty")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_ints", tuple([(d, tuple(nums)) for d, nums in map(rat_row, rows)]))

    @classmethod
    def from_int_rows(cls, ints: tuple[IntRow, ...]) -> "MatrixHom":
        """The matrix whose `int_rows` are `ints`: n reduced rows of n numerators each.

        n = 0 only for the empty block of a diagonal sequence operator.
        """
        T = object.__new__(cls)
        object.__setattr__(T, "_rows", None)
        object.__setattr__(T, "_ints", ints)
        return T

    def __reduce__(self):
        return MatrixHom.from_int_rows, (self._ints,)

    @classmethod
    def identity(cls, n: int) -> "MatrixHom":
        return cls.from_int_rows(tuple([(1, tuple([int(i == j) for j in range(n)])) for i in range(n)]))

    @classmethod
    def zero(cls, n: int) -> "MatrixHom":
        return cls.from_int_rows(((1, (0,) * n),) * n)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            rows = tuple([tuple([Fraction(a, d) for a in nums]) for d, nums in self._ints])
            object.__setattr__(self, "_rows", rows)
        return self._rows

    @property
    def int_rows(self) -> tuple[IntRow, ...]:
        return self._ints

    @property
    def n(self) -> int:
        return len(self._ints)

    def __eq__(self, other):
        if other.__class__ is not MatrixHom:
            return NotImplemented
        return self.int_rows == other.int_rows

    def __hash__(self) -> int:
        return hash(self.int_rows)

    def apply(self, x: FinVec) -> FinVec:
        if not isinstance(x, FinVec) or x.dim != self.n:
            raise InvalidElement(f"expected a {self.n}-dim FinVec, got {x!r}")
        xd, xs = x.int_row
        d, nums = _row_products(self.int_rows, xs)
        return x.from_int_row(d * xd, nums)

    def propagate_bounds(self, b: CoordBounds) -> CoordBounds:
        if b.tail is not None:
            raise InvalidElement("matrix homomorphisms act on finite-dimensional bounds")
        if len(b.head) != self.n:
            raise InvalidElement(f"expected a {self.n}-dim bound, got {len(b.head)} coordinates")
        return CoordBounds.finite_dim(_bound_rows(self.int_rows, b.head))

    def _combine(self, other, op) -> "MatrixHom":
        """Entrywise `op` (add or sub) of two matrices, row by row over a common denominator."""
        other = _as_matrix(other, self.n)
        rows = map(combine_rows, self.int_rows, other.int_rows, repeat(op))
        return MatrixHom.from_int_rows(tuple([reduced_row(d, nums) for d, nums in rows]))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self) -> "MatrixHom":
        return MatrixHom.from_int_rows(tuple([(d, tuple([-a for a in nums])) for d, nums in self.int_rows]))

    def scale(self, factor) -> "MatrixHom":
        q = as_rat(factor)
        p, r = q.numerator, q.denominator
        return MatrixHom.from_int_rows(tuple([reduced_row(d * r, [p * a for a in nums]) for d, nums in self.int_rows]))

    def positive_part(self) -> "MatrixHom":
        return MatrixHom.from_int_rows(
            tuple([reduced_row(d, [a if a > 0 else 0 for a in nums]) for d, nums in self.int_rows])
        )

    def entrywise_abs(self) -> "MatrixHom":
        return MatrixHom.from_int_rows(tuple([(d, tuple([abs(a) for a in nums])) for d, nums in self.int_rows]))

    def is_zero(self) -> bool:
        return not any(any(nums) for _, nums in self.int_rows)

    def is_positive(self) -> bool:
        return all(min(nums) >= 0 for _, nums in self.int_rows)

    def is_diagonal(self) -> bool:
        return all(a == 0 for i, (_, nums) in enumerate(self.int_rows) for j, a in enumerate(nums) if i != j)

    def render(self) -> dict:
        return {"kind": "matrix", "rows": [[str(a) for a in row] for row in self.rows]}

    def __repr__(self) -> str:
        return f"MatrixHom({[[str(a) for a in row] for row in self.rows]})"


class SeqHom(Record):
    """Diagonal-plus-finite-block operator on eventually-constant sequences.

    Held as `_block`, a K x K `MatrixHom` with the diagonal folded in, and
    `_beyond`, the diagonal from coordinate K on as an `EvSeq`; K is the last
    row or column with a nonzero off-diagonal entry, or 0 if none has one (a
    diagonal operator holds an empty block), so two operators act identically
    exactly when their parts are equal.  All arithmetic and `apply` run on
    the parts with the matrix and element code.
    `diag` (the full diagonal) and `off` (the off-diagonal block as Fractions,
    with zero diagonal) are made only when read.
    """

    _block: MatrixHom
    _beyond: EvSeq

    def __init__(self, diag: EvSeq, off: Iterable[Iterable] = ()):
        if not isinstance(diag, EvSeq):
            raise InvalidElement("diagonal coefficients must form an EvSeq")
        off = _rows_tuple(off)
        k = len(off)
        if any(len(r) != k for r in off):
            raise InvalidElement("finite block must be square")
        block, beyond = _split(diag, k)
        self._settle(block + MatrixHom(off) if k else block, beyond)

    @classmethod
    def _of(cls, block: MatrixHom, beyond: EvSeq) -> "SeqHom":
        h = object.__new__(cls)
        h._settle(block, beyond)
        return h

    def _settle(self, block: MatrixHom, beyond: EvSeq) -> None:
        """The one canonicalising step: cut the block to its off-diagonal support.

        The diagonal entries of the rows cut off move to the front of `beyond`.
        """
        ints = block.int_rows
        k = max([0] + [max(i, j) + 1 for i, (_, nums) in enumerate(ints) for j, a in enumerate(nums) if a and i != j])
        if k < len(ints):
            beyond = _diagonal_then(ints, k, beyond)
            block = MatrixHom.from_int_rows(tuple([reduced_row(d, nums[:k]) for d, nums in ints[:k]]))
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "_beyond", beyond)

    @classmethod
    def diagonal(cls, coeffs: EvSeq) -> "SeqHom":
        return cls(coeffs, ())

    @classmethod
    def identity(cls) -> "SeqHom":
        return cls(EvSeq.constant(1), ())

    @classmethod
    def zero(cls) -> "SeqHom":
        return cls(EvSeq.zero(), ())

    @classmethod
    def diag_plus_block(cls, coeffs: EvSeq, block: Iterable[Iterable]) -> "SeqHom":
        return cls(coeffs, block)

    @cached_property
    def diag(self) -> EvSeq:
        return _diagonal_then(self._block.int_rows, 0, self._beyond)

    @cached_property
    def off(self) -> tuple[tuple[Fraction, ...], ...]:
        rows = self._block.rows
        return tuple([tuple([_ZERO if i == j else a for j, a in enumerate(row)]) for i, row in enumerate(rows)])

    @property
    def block_size(self) -> int:
        return self._block.n

    def _parts(self, n: int) -> tuple[MatrixHom, EvSeq]:
        """The block grown to n x n with the diagonal beyond it, and the diagonal from n on."""
        k = self._block.n
        if n == k:
            return self._block, self._beyond
        extra, rest = _split(self._beyond, n - k)
        rows = [(d, nums + (0,) * (n - k)) for d, nums in self._block.int_rows]
        rows += [(d, (0,) * k + nums) for d, nums in extra.int_rows]
        return MatrixHom.from_int_rows(tuple(rows)), rest

    def apply(self, x: EvSeq) -> EvSeq:
        if not isinstance(x, EvSeq):
            raise InvalidElement(f"expected an EvSeq, got {x!r}")
        k = self._block.n
        bd, bs = self._beyond.int_row
        ((xd, xs),) = aligned(x, min_head=k + len(bs) - 1)
        bs += (bs[-1],) * (len(xs) - k - len(bs))
        L, nums = _row_products(self._block.int_rows, xs[:k], bd)
        m = L // bd
        nums += [b * v * m for b, v in zip(bs, xs[k:])]
        return EvSeq.from_int_row(L * xd, nums)

    def propagate_bounds(self, b: CoordBounds) -> CoordBounds:
        if b.tail is None:
            raise InvalidElement("sequence homomorphisms act on sequence bounds")
        k = self._block.n
        head = _bound_rows(self._block.int_rows, [b.at(j) for j in range(k)])
        # The diagonal beyond the block: its prefix index by index, then its tail on b's later pins and tail.
        d, row = self._beyond.int_row
        head += [ext_mul(Fraction(abs(a), d), b.at(j)) for j, a in enumerate(row[:-1], k)]
        m, c = k + len(row) - 1, Fraction(abs(row[-1]), d)
        far = [(i, ext_mul(c, v)) for i, v in b.pins[bisect_left(b.pins, (m,)):]]
        return CoordBounds([*enumerate(head), *far], ext_mul(c, b.tail))

    def _combine(self, other, op) -> "SeqHom":
        other = _as_seq_hom(other)
        n = max(self._block.n, other._block.n)
        (a, s), (b, t) = self._parts(n), other._parts(n)
        return SeqHom._of(op(a, b), op(s, t))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self) -> "SeqHom":
        return SeqHom._of(-self._block, -self._beyond)

    def scale(self, factor) -> "SeqHom":
        q = as_rat(factor)
        return SeqHom._of(self._block.scale(q), self._beyond.scale(q))

    def positive_part(self) -> "SeqHom":
        return SeqHom._of(self._block.positive_part(), self._beyond.pos_part())

    def entrywise_abs(self) -> "SeqHom":
        return SeqHom._of(self._block.entrywise_abs(), abs(self._beyond))

    def is_zero(self) -> bool:
        return self._block.is_zero() and self._beyond.is_zero()

    def is_positive(self) -> bool:
        return self._block.is_positive() and min(self._beyond.int_row[1]) >= 0

    def is_diagonal(self) -> bool:
        return self._block.n == 0

    def finite_column_support(self) -> bool:
        return self._beyond.int_row[1][-1] == 0

    def support_span(self) -> int:
        return max(self.block_size, len(self.diag.prefix))

    def row_support(self, rows: Iterable[int]) -> set[int]:
        """The columns with a nonzero entry in any of the given rows."""
        block, k = self._block.int_rows, self._block.n
        beyond = self._beyond.int_row[1]
        support: set[int] = set()
        for i in rows:
            if i < k:
                support.update(j for j, a in enumerate(block[i][1]) if a)
            elif beyond[min(i - k, len(beyond) - 1)]:
                support.add(i)
        return support

    def render(self) -> dict:
        doc: dict = {
            "kind": "diagonal" if not self.off else "diag_plus_finite",
            "prefix": [str(a) for a in self.diag.prefix],
            "tail": str(self.diag.tail),
        }
        if self.off:
            doc["block"] = [[str(a) for a in row] for row in self.off]
        return doc

    def __repr__(self) -> str:
        return f"SeqHom(diag={self.diag!r}, off={self.off!r})"


def _split(seq: EvSeq, k: int) -> tuple[MatrixHom, EvSeq]:
    """The k x k diagonal matrix of seq's first k coordinates, and seq from coordinate k on."""
    ((d, row),) = aligned(seq, min_head=k)
    zeros = (0,) * k
    diag = tuple([reduced_row(d, zeros[:i] + (a,) + zeros[i + 1:]) for i, a in enumerate(row[:k])])
    return MatrixHom.from_int_rows(diag), EvSeq.from_int_row(d, row[k:])


def _diagonal_then(ints: Sequence[IntRow], start: int, beyond: EvSeq) -> EvSeq:
    """The diagonal entries of rows start.. of a matrix, followed by the sequence `beyond`."""
    bd, bs = beyond.int_row
    rows = ints[start:]
    nums = [nums[i] for i, (_, nums) in enumerate(rows, start)] + list(bs)
    return EvSeq.from_int_row(*over_lcm(nums, [d for d, _ in rows] + [bd] * len(bs)))


def identity_on(space: Space) -> "Hom":
    """The identity of a shipped space: the identity matrix on Q^n, 1x1 on Z, the unit diagonal on sequences."""
    if space.kind is SpaceKind.EVSEQ:
        return SeqHom.identity()
    return MatrixHom.identity(space.dim or 1)


Hom = MatrixHom | SeqHom


def _as_matrix(h, n: int) -> MatrixHom:
    if not isinstance(h, MatrixHom) or h.n != n:
        raise InvalidElement(f"expected a {n}x{n} matrix homomorphism, got {h!r}")
    return h


def _as_seq_hom(h) -> SeqHom:
    if not isinstance(h, SeqHom):
        raise InvalidElement(f"expected a sequence homomorphism, got {h!r}")
    return h


# ---------------------------------------------------------------------------
# Positive part: closed form validated by vertex enumeration.

ORACLE_DIM_CAP = 16


def sup_over_interval_oracle(T: MatrixHom, x: FinVec) -> FinVec:
    """Coordinatewise max of T*y over the 2^n vertices of [0, x].

    Each coordinate of T*y is linear in each y_j, so the supremum over the
    whole box is attained vertexwise per coordinate; this is the independent
    check for the closed-form positive part.
    """
    if not isinstance(T, MatrixHom):
        raise InvalidElement("the vertex oracle takes a matrix homomorphism")
    if not (FinVec.zero(x.dim) <= x):
        raise InvalidElement("oracle probe must be positive")
    if T.n > ORACLE_DIM_CAP:
        raise OracleTooLarge(f"dimension {T.n} exceeds the 2^n vertex cap of {ORACLE_DIM_CAP}")
    best = None
    for mask in itertools.product((0, 1), repeat=T.n):
        y = FinVec(tuple(x[i] if m else Fraction(0) for i, m in enumerate(mask)))
        img = T.apply(y)
        best = img if best is None else best.join(img)
    return best


def truncation_matrix(h: SeqHom, size: int) -> MatrixHom:
    """The action of a sequence homomorphism on the first `size` coordinates.

    Faithful as long as `size` covers the finite block: inputs supported
    there map into the same window, so the window is an invariant subspace.
    """
    h = _as_seq_hom(h)
    if size < max(h.block_size, 1):
        raise InvalidElement(f"truncation size {size} does not cover the {h.block_size}-block")
    return h._parts(size)[0]


def positive_part(T: Hom) -> Hom:
    """T join 0 in the homomorphism lattice (entrywise for the shipped forms)."""
    return T.positive_part()


def negative_part(T: Hom) -> Hom:
    return (-T).positive_part()


def modulus(T: Hom) -> Hom:
    """|T| = T+ + T-, which is the entrywise absolute value for the shipped forms."""
    return T.entrywise_abs()


def hom_join(T: Hom, S: Hom) -> Hom:
    return (T - S).positive_part() + S


def hom_meet(T: Hom, S: Hom) -> Hom:
    return -hom_join(-T, -S)


def directed_sup(homs: Sequence[MatrixHom], bound: MatrixHom) -> MatrixHom:
    """Least upper bound of a finite family of matrix homomorphisms.

    The family is read as join-closed (its pairwise joins are implied), so
    the supremum is the entrywise maximum; every member must sit below
    `bound`, checked through positive parts of differences.
    """
    if not homs:
        raise InvalidElement("directed supremum of an empty family")
    n = homs[0].n
    for T in homs:
        if not (_as_matrix(bound, n) - _as_matrix(T, n)).is_positive():
            raise NotBoundedAbove(T)
    rows = (reduce(lambda r, s: combine_rows(r, s, max), row_i) for row_i in zip(*(T.int_rows for T in homs)))
    return MatrixHom.from_int_rows(tuple([reduced_row(d, nums) for d, nums in rows]))


# ---------------------------------------------------------------------------
# Cone maps and their unique extension.

class ConeMap(Record):
    """Additive-on-positives map, presented as a homomorphism restricted to the
    cone and/or a finite table of (positive input, claimed value) pairs.

    The table takes precedence where it applies.  Additivity is audited, not
    assumed.
    """

    space: Space
    hom: Hom | None = None
    table: tuple = ()

    def __post_init__(self):
        for x, value in self.table:
            self.space.validate(x)
            if not is_positive(self.space, x):
                raise InvalidElement(f"cone map table key {x!r} is not positive")

    def value(self, x):
        if not is_positive(self.space, x):
            raise InvalidElement(f"cone maps are only defined on positive elements, got {x!r}")
        for key, val in self.table:
            if key == x:
                return val
        if self.hom is None:
            raise InvalidElement(f"cone map has no value at {x!r}")
        return self.hom.apply(x)

    def defined_at(self, x) -> bool:
        return self.hom is not None or any(key == x for key, _ in self.table)


def audit_cone_additivity(f: ConeMap, samples: int = 200, seed: int = 0):
    """Return a violating pair (x, y) with f(x+y) != f(x) + f(y), or None."""
    keys = [key for key, _ in f.table]
    for x, y in itertools.combinations_with_replacement(keys, 2):
        s = x + y
        if f.defined_at(s):
            if f.value(x) + f.value(y) != f.value(s):
                return (x, y)
    if f.hom is not None:
        rng = random.Random(seed)
        for _ in range(samples):
            x = rand_pos_element(rng, f.space)
            y = rand_pos_element(rng, f.space)
            if f.value(x) + f.value(y) != f.value(x + y):
                return (x, y)
    return None


class ConeExtension(Record):
    """The unique negation-preserving extension of a cone map: E(x) = f(x+) - f(x-)."""

    cone_map: ConeMap

    def apply(self, x):
        space = self.cone_map.space
        space.validate(x)
        return self.cone_map.value(pos_part(space, x)) - self.cone_map.value(neg_part(space, x))


def extend_from_cone(f: ConeMap, samples: int = 200, seed: int = 0) -> ConeExtension:
    """Extend an additive-on-positives map to the whole group, after auditing it."""
    witness = audit_cone_additivity(f, samples=samples, seed=seed)
    if witness is not None:
        raise NotAdditiveOnCone(*witness)
    return ConeExtension(f)


# ---------------------------------------------------------------------------
# Decomposition.

def riesz_decompose(space: Space, x, y1, y2):
    """Split x = x1 + x2 with |x1| <= |y1| and |x2| <= |y2|.

    Admissible whenever |x| <= |y1| + |y2| (in particular whenever
    |x| <= |y1 + y2|).  Uses the lattice witness x1 = (x join -|y1|) meet
    |y1|; the contract is the postconditions, which are re-checked exactly
    before returning.
    """
    for v in (x, y1, y2):
        space.validate(v)
    a1 = abs_val(space, y1)
    if not abs_val(space, x) <= a1 + abs_val(space, y2):
        raise DecompositionPrereqViolated(f"|{x!r}| <= |y1| + |y2| fails")
    x1 = meet(space, join(space, x, -a1), a1)
    x2 = x - x1
    failure = decomposition_failure(space, x, y1, y2, x1, x2)
    if failure is not None:
        raise SoundnessBug(failure)
    return x1, x2


def decomposition_failure(space: Space, x, y1, y2, x1, x2) -> str | None:
    """The first postcondition of a split x = x1 + x2 that fails, or None.

    The postconditions: x1 + x2 = x, |x1| <= |y1|, |x2| <= |y2|, and x1, x2
    positive whenever x is.
    """
    if x1 + x2 != x:
        return "x1 + x2 must reassemble x"
    if not abs_val(space, x1) <= abs_val(space, y1):
        return "|x1| <= |y1| must hold"
    if not abs_val(space, x2) <= abs_val(space, y2):
        return "|x2| <= |y2| must hold"
    if is_positive(space, x) and not (is_positive(space, x1) and is_positive(space, x2)):
        return "positive x must split into positive parts"
    return None


# ---------------------------------------------------------------------------
# Order boundedness.

class OrderBoundedWitness(Record):
    """The interval [lo, hi] that holds T's image of [-probe, probe], and how many points checked it."""

    lo: object
    hi: object
    spot_checked: int


def is_order_bounded(T: Hom, probe) -> OrderBoundedWitness:
    """Witness interval [-|T| probe, |T| probe] for the image of [-probe, probe].

    The containment is spot-checked on 25 seeded y in [-probe, probe]:
    `T.apply(y)` is compared with the bound that `modulus(T).apply` gave, so
    two code paths meet.  Each y is drawn coordinate by coordinate: every
    coordinate of Q^n, the one integer of Z, and on sequences each coordinate
    below `T.support_span()` and then the tail.
    """
    cap = modulus(T).apply(probe)
    lo, hi = -cap, cap
    below = -probe
    if not below <= probe:
        raise InvalidElement("probe must be positive")
    head = T.support_span() if isinstance(T, SeqHom) else 0
    rng = random.Random(0)
    checked = 0
    for _ in range(25):
        y = rand_between(rng, below, probe, min_head=head)
        img = T.apply(y)
        if not (lo <= img and img <= hi):
            raise SoundnessBug(f"|T y| escaped the modulus bound at y={y!r}")
        checked += 1
    return OrderBoundedWitness(lo, hi, checked)
