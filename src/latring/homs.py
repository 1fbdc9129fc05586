"""Group homomorphisms between the shipped lattice rings, and their lattice calculus.

Shipped forms: square rational matrices on Q^n, diagonal-plus-finite-block
operators on eventually-constant sequences, and the identity on the discrete
integers.  The identity on Q^n or on sequences is built directly as the
identity matrix or diagonal operator, so every homomorphism is concrete from
construction on; only the integers keep a dedicated identity form.  Every form
is additive, preserves negation, and is order bounded, so positive parts
exist; they are computed in closed form (entrywise) and validated against an
independent vertex-enumeration oracle wherever the two can meet.

A matrix works on its integer rows: each row is held as integer numerators
over one common denominator, with their gcd divided out, so every matrix has
exactly one integer form.  Its lattice arithmetic (sums, differences, scaling,
positive parts, moduli, joins, meets, directed suprema), `==` and hash run on
those integers.  Applying it puts the input over one common denominator too,
sums numerators as integers, and normalises each output entry once; a
sequence operator applies its block the same way.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, Sequence

from .elements import EvSeq, FinVec
from .errors import (
    DecompositionPrereqViolated,
    InvalidElement,
    NotAdditiveOnCone,
    NotBoundedAbove,
    OracleTooLarge,
    SoundnessBug,
)
from .extended import INF, CoordBounds, ext_add, ext_mul, is_inf
from .sampling import rand_between, rand_pos_element
from .scalars import IntRow, as_rat, reduced_row
from .spaces import Space, SpaceKind, abs_val, is_positive, join, meet, neg_part, pos_part


def _rows_tuple(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(as_rat(v) for v in row) for row in rows)


def _over_common_den(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, nums) with d the lcm of the denominators and values[i] == nums[i] / d."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


class MatrixHom:
    """n x n rational matrix acting on Q^n.

    The working form is `int_rows`: row i as `(d_i, nums_i)` with entries
    nums_i[j] / d_i, d_i > 0 and gcd(d_i, *nums_i) == 1, so each matrix has
    exactly one such form and `==` and hash compare it directly.  Arithmetic
    results are built from integer rows; the Fraction `rows` of such a result
    are made only when read (`render`, `repr`), and so are those of a matrix
    built from integer rows read from a spec file (`from_int_rows`).  A
    matrix built from `rows` makes its integer rows on first use.  Instances
    are immutable.
    """

    __slots__ = ("_rows", "_ints")

    def __init__(self, rows: Iterable[Iterable]):
        rows = _rows_tuple(rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InvalidElement("matrix homomorphisms must be square and nonempty")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_ints", None)

    @classmethod
    def from_int_rows(cls, ints: tuple[IntRow, ...]) -> "MatrixHom":
        """The matrix whose `int_rows` are `ints`: n reduced rows of n numerators each, n >= 1."""
        T = object.__new__(cls)
        object.__setattr__(T, "_rows", None)
        object.__setattr__(T, "_ints", ints)
        return T

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return MatrixHom, (self.rows,)

    @classmethod
    def identity(cls, n: int) -> "MatrixHom":
        return cls.from_int_rows(tuple((1, tuple(int(i == j) for j in range(n))) for i in range(n)))

    @classmethod
    def zero(cls, n: int) -> "MatrixHom":
        return cls.from_int_rows(((1, (0,) * n),) * n)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            rows = tuple(tuple(Fraction(a, d) for a in nums) for d, nums in self._ints)
            object.__setattr__(self, "_rows", rows)
        return self._rows

    @property
    def int_rows(self) -> tuple[IntRow, ...]:
        if self._ints is None:
            ints = tuple((d, tuple(nums)) for d, nums in map(_over_common_den, self._rows))
            object.__setattr__(self, "_ints", ints)
        return self._ints

    @property
    def n(self) -> int:
        return len(self._ints if self._rows is None else self._rows)

    def __eq__(self, other):
        if other.__class__ is not MatrixHom:
            return NotImplemented
        return self.int_rows == other.int_rows

    def __hash__(self) -> int:
        return hash(self.int_rows)

    def apply(self, x: FinVec) -> FinVec:
        if not isinstance(x, FinVec) or x.dim != self.n:
            raise InvalidElement(f"expected a {self.n}-dim FinVec, got {x!r}")
        xd, xs = _over_common_den(x.entries)
        return FinVec(tuple(Fraction(sum(map(mul, nums, xs)), d * xd) for d, nums in self.int_rows))

    def propagate_bounds(self, b: CoordBounds) -> CoordBounds:
        """Per row, the sum of |t_ij| * b_j, with 0 * INF = 0 as in `ext_mul`."""
        if b.tail is not None:
            raise InvalidElement("matrix homomorphisms act on finite-dimensional bounds")
        if len(b.head) != self.n:
            raise InvalidElement(f"expected a {self.n}-dim bound, got {len(b.head)} coordinates")
        unbounded = [j for j, v in enumerate(b.head) if is_inf(v)]
        bd, bs = _over_common_den([Fraction(0) if is_inf(v) else v for v in b.head])
        return CoordBounds.finite_dim(
            INF if any(nums[j] for j in unbounded)
            else Fraction(sum(map(mul, map(abs, nums), bs)), d * bd)
            for d, nums in self.int_rows
        )

    def _combine(self, other, op) -> "MatrixHom":
        """Entrywise `op` (add or sub) of two matrices, row by row over a common denominator."""
        other = _as_matrix(other, self.n)
        rows = []
        for (d1, a), (d2, b) in zip(self.int_rows, other.int_rows):
            if d1 == d2:
                rows.append(reduced_row(d1, list(map(op, a, b))))
            else:
                g = math.gcd(d1, d2)
                m1, m2 = d2 // g, d1 // g
                rows.append(reduced_row(d1 * m1, [op(u * m1, v * m2) for u, v in zip(a, b)]))
        return MatrixHom.from_int_rows(tuple(rows))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self) -> "MatrixHom":
        return MatrixHom.from_int_rows(tuple((d, tuple(-a for a in nums)) for d, nums in self.int_rows))

    def scale(self, factor) -> "MatrixHom":
        q = as_rat(factor)
        p, r = q.numerator, q.denominator
        return MatrixHom.from_int_rows(tuple(reduced_row(d * r, [p * a for a in nums]) for d, nums in self.int_rows))

    def positive_part(self) -> "MatrixHom":
        return MatrixHom.from_int_rows(
            tuple(reduced_row(d, [a if a > 0 else 0 for a in nums]) for d, nums in self.int_rows)
        )

    def entrywise_abs(self) -> "MatrixHom":
        return MatrixHom.from_int_rows(tuple((d, tuple(map(abs, nums))) for d, nums in self.int_rows))

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


@dataclass(frozen=True)
class SeqHom:
    """Diagonal-plus-finite-block operator on eventually-constant sequences.

    Normal form: `diag` holds the full diagonal (as an EvSeq) and `off` is a
    square block of the off-diagonal entries with zero diagonal, trimmed to
    the last row or column that carries a nonzero entry.  Two operators act
    identically exactly when their normal forms are equal.  `apply` works on
    the block with the diagonal folded back in, held as integer rows over
    common denominators and made on first use.
    """

    diag: EvSeq
    off: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        if not isinstance(self.diag, EvSeq):
            raise InvalidElement("diagonal coefficients must form an EvSeq")
        off = _rows_tuple(self.off)
        if off and any(len(r) != len(off) for r in off):
            raise InvalidElement("finite block must be square")
        k = len(off)
        # Fold any diagonal entries of the block into the diagonal part.
        diag = self.diag
        if any(off[i][i] != 0 for i in range(k)):
            entries = [
                diag.at(i) + (off[i][i] if i < k else Fraction(0))
                for i in range(max(k, len(diag.prefix)))
            ]
            diag = EvSeq(tuple(entries), diag.tail)
            off = tuple(
                tuple(Fraction(0) if i == j else off[i][j] for j in range(k)) for i in range(k)
            )
        # Trim all-zero trailing row/column pairs.
        keep = 0
        for i in range(k):
            for j in range(k):
                if off[i][j] != 0:
                    keep = max(keep, i + 1, j + 1)
        off = tuple(tuple(row[:keep]) for row in off[:keep])
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

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
        return cls(coeffs, _rows_tuple(block))

    @property
    def block_size(self) -> int:
        return len(self.off)

    @cached_property
    def _int_block(self) -> tuple[tuple[int, list[int]], ...]:
        """The block with the diagonal folded back in, each row over its common denominator."""
        diag = self.diag.at
        return tuple(
            _over_common_den(row[:i] + (diag(i),) + row[i + 1:]) for i, row in enumerate(self.off)
        )

    def apply(self, x: EvSeq) -> EvSeq:
        if not isinstance(x, EvSeq):
            raise InvalidElement(f"expected an EvSeq, got {x!r}")
        k = self.block_size
        (dp, dt), (xp, xt) = (self.diag.prefix, self.diag.tail), (x.prefix, x.tail)
        span = max(k, len(dp), len(xp))
        d_row, x_row = dp + (dt,) * (span - len(dp)), xp + (xt,) * (span - len(xp))
        head = []
        if k:
            xd, xs = _over_common_den(x_row[:k])
            head = [Fraction(sum(map(mul, nums, xs)), d * xd) for d, nums in self._int_block]
        head += [
            Fraction(a.numerator * v.numerator, a.denominator * v.denominator)
            for a, v in zip(d_row[k:], x_row[k:])
        ]
        return EvSeq(tuple(head), dt * xt)

    def propagate_bounds(self, b: CoordBounds) -> CoordBounds:
        if b.tail is None:
            raise InvalidElement("sequence homomorphisms act on sequence bounds")
        k = self.block_size
        span = max(k, len(self.diag.prefix), b.span())
        head = []
        for i in range(span):
            v = ext_mul(abs(self.diag.at(i)), b.at(i))
            if i < k:
                for j in range(k):
                    v = ext_add(v, ext_mul(abs(self.off[i][j]), b.at(j)))
            head.append(v)
        return CoordBounds.sequence(head, ext_mul(abs(self.diag.tail), b.tail))

    def _zip(self, other: "SeqHom", op) -> "SeqHom":
        k = max(self.block_size, other.block_size)

        def entry(rows, i, j):
            return rows[i][j] if i < len(rows) and j < len(rows) else Fraction(0)

        off = tuple(
            tuple(op(entry(self.off, i, j), entry(other.off, i, j)) for j in range(k))
            for i in range(k)
        )
        return SeqHom(self.diag._zip(other.diag, op), off)

    def __add__(self, other):
        return self._zip(_as_seq_hom(other), lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(_as_seq_hom(other), lambda a, b: a - b)

    def __neg__(self) -> "SeqHom":
        return self.scale(-1)

    def scale(self, factor) -> "SeqHom":
        q = as_rat(factor)
        return SeqHom(self.diag.scale(q), tuple(tuple(q * a for a in row) for row in self.off))

    def positive_part(self) -> "SeqHom":
        # Entrywise positive part of the combined block, and of the diagonal
        # beyond it.
        return SeqHom(
            self.diag.pos_part(),
            tuple(tuple(max(a, Fraction(0)) for a in row) for row in self.off),
        )

    def entrywise_abs(self) -> "SeqHom":
        return SeqHom(abs(self.diag), tuple(tuple(abs(a) for a in row) for row in self.off))

    def is_zero(self) -> bool:
        return self.diag.is_zero() and not self.off

    def is_positive(self) -> bool:
        diag_ok = all(a >= 0 for a in self.diag.prefix) and self.diag.tail >= 0
        return diag_ok and all(a >= 0 for row in self.off for a in row)

    def is_diagonal(self) -> bool:
        return not self.off

    def finite_column_support(self) -> bool:
        return self.diag.tail == 0

    def support_span(self) -> int:
        return max(self.block_size, len(self.diag.prefix))

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


@dataclass(frozen=True)
class IdentityHom:
    """The identity map on the discrete integers.

    `on` builds the identity of any shipped space: the identity matrix on
    Q^n, the unit diagonal operator on sequences, and an instance of this
    class only on Z, where no matrix or sequence form applies.
    """

    @classmethod
    def on(cls, space: Space) -> "Hom":
        if space.kind is SpaceKind.QN:
            return MatrixHom.identity(space.dim)
        if space.kind is SpaceKind.EVSEQ:
            return SeqHom.identity()
        return cls()

    def apply(self, x):
        return x

    def propagate_bounds(self, b: CoordBounds) -> CoordBounds:
        return b

    def entrywise_abs(self) -> "IdentityHom":
        return self

    def is_zero(self) -> bool:
        return False

    def is_positive(self) -> bool:
        return True

    def is_diagonal(self) -> bool:
        return True

    def render(self) -> dict:
        return {"kind": "identity"}


Hom = MatrixHom | SeqHom | IdentityHom


def _as_matrix(h, n: int) -> MatrixHom:
    if not isinstance(h, MatrixHom) or h.n != n:
        raise InvalidElement(f"expected a {n}x{n} matrix homomorphism, got {h!r}")
    return h


def _as_seq_hom(h) -> SeqHom:
    if not isinstance(h, SeqHom):
        raise InvalidElement(f"expected a sequence homomorphism, got {h!r}")
    return h


def zero_hom_like(T: Hom) -> Hom:
    if isinstance(T, MatrixHom):
        return MatrixHom.zero(T.n)
    if isinstance(T, SeqHom):
        return SeqHom.zero()
    raise InvalidElement(f"no zero homomorphism for {T!r}")


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
    rows = []
    for i in range(size):
        row = [Fraction(0)] * size
        if i < h.block_size:
            for j in range(h.block_size):
                row[j] = h.off[i][j]
        row[i] += h.diag.at(i)
        rows.append(tuple(row))
    return MatrixHom(tuple(rows))


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
    rows = []
    for row_i in zip(*(T.int_rows for T in homs)):
        d = math.lcm(*(d_T for d_T, _ in row_i))
        scaled = [[a * (d // d_T) for a in nums] for d_T, nums in row_i]
        rows.append(reduced_row(d, [max(column) for column in zip(*scaled)]))
    return MatrixHom.from_int_rows(tuple(rows))


# ---------------------------------------------------------------------------
# Cone maps and their unique extension.

@dataclass(frozen=True)
class ConeMap:
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


@dataclass(frozen=True)
class ConeExtension:
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

@dataclass(frozen=True)
class OrderBoundedWitness:
    bounded: bool
    lo: object
    hi: object
    spot_checked: int


@dataclass(frozen=True)
class HomVerdict:
    order_bounded: bool
    positive: bool
    witness: OrderBoundedWitness


def is_order_bounded(T: Hom, probe, samples: int = 25, seed: int = 0) -> OrderBoundedWitness:
    """Witness interval [-|T| probe, |T| probe] for the image of [-probe, probe].

    The containment is spot-checked on `samples` seeded y in [-probe, probe]:
    `T.apply(y)` is compared with the bound that `modulus(T).apply` gave, so
    two code paths meet.  Each y is drawn coordinate by coordinate: every
    coordinate of Q^n, the one of Z, and on sequences each coordinate below
    `T.support_span()` and then the tail.
    """
    cap = modulus(T).apply(probe)
    lo, hi = -cap, cap
    below = -probe
    if not below <= probe:
        raise InvalidElement("probe must be positive")
    head = T.support_span() if isinstance(T, SeqHom) else 0
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        y = rand_between(rng, below, probe, min_head=head)
        img = T.apply(y)
        if not (lo <= img and img <= hi):
            raise SoundnessBug(f"|T y| escaped the modulus bound at y={y!r}")
        checked += 1
    return OrderBoundedWitness(True, lo, hi, checked)


def describe_hom(T: Hom, probe) -> HomVerdict:
    return HomVerdict(True, T.is_positive(), is_order_bounded(T, probe))
