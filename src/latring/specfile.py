"""Structured input files for the command-line front end.

The format is JSON with sections `space`, `codomain_space`, `elements`,
`homs`, `sets`, `nets`, and `tasks`.  A rational literal is a JSON integer
or a string of the grammar `[+-]?[0-9]+(/[0-9]+)?` (see `scalars.read_rat`);
decimal points, exponents, spaces and non-ASCII digits are refused, and a
refused literal names its section.  Each row of a matrix or of a sequence
operator's block is read in one pass (`scalars.read_row`) into one reduced
integer row over a common denominator, and refused, naming its section,
when that denominator or a numerator has more digits than the interpreter
prints (4300 by default): no work is done on a result that could not be
reported.  Unknown keys are errors, not warnings, and so is a key repeated in
one object; every named reference must resolve, and every entry is read,
used or not.  Task names are distinct.  Serializing any shipped
descriptor and re-parsing it yields an equal descriptor.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from functools import partial

from .elements import EvSeq, FinVec, ZInt
from .errors import EmptyInput, InvalidElement, LatringError, SpecFileError, UnknownName
from .homs import Hom, MatrixHom, SeqHom, identity_on
from .homspaces import HomNet
from .scalars import IntRow, read_rat, read_row
from .spaces import TOPOLOGIES_FOR_KIND, Multiplication, Space, SpaceKind, TopologyId
from .topology import (
    FiniteSet,
    ImageSet,
    Interval,
    Neighborhood,
    NbhdSet,
    SetDesc,
    SolidHull,
)

# The largest coordinate index a product neighborhood may name.  Its radius
# function is sparse, but `sample_member` builds a dense `EvSeq` up to that
# index; this caps it (about 0.04 s).
MAX_COORD_INDEX = 10_000

# The largest dimension of a `qn` space.  Loading a spec builds every matrix
# densely, the identity included, so a few bytes could ask for dim^2 entries:
# at dim 512 a spec holding one identity loads in about 0.04 s and `classify`
# takes 0.35 s; at 2000 the load alone takes about 1 s and 45 MB.
MAX_DIM = 512

# The most sets an `image` set may stack, itself and its bottom base
# included, whether each base is written inline or named.  Reading, bounding
# and writing a set each recurse once per level, so this keeps every one of
# them far inside the interpreter's recursion limit.
MAX_SET_DEPTH = 100


class _Repeats(dict):
    """A JSON object that names keys more than once: the last value of each, and the keys in `repeated`."""


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _Repeats(obj)
        obj.repeated = sorted(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
    return obj


def _check_keys(obj: dict, allowed: set[str], section: str):
    if not isinstance(obj, dict):
        raise SpecFileError(f"section {section!r} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SpecFileError(f"unknown key(s) {sorted(unknown)} in section {section!r}")
    if isinstance(obj, _Repeats):
        raise SpecFileError(f"repeated key(s) {obj.repeated} in section {section!r}")


def _require(obj: dict, key: str, section: str):
    if key not in obj:
        raise SpecFileError(f"{section}: missing {key!r}")
    return obj[key]


def _list(obj: dict, key: str, section: str) -> list:
    value = _require(obj, key, section)
    if not isinstance(value, list):
        raise SpecFileError(f"{section}: {key!r} must be a list, got {value!r}")
    return value


def _variant(obj, key: str, what: str, section: str):
    """The value of the key that picks an entry's variant: `kind`, or `topology` for a neighborhood."""
    if not isinstance(obj, dict) or key not in obj:
        raise SpecFileError(f"{section}: {what} needs a {key}")
    return obj[key]


def _ref(value, named, parse, args: tuple):
    """An entry given by name, looked up by `named`, or written inline and read by `parse(value, *args)`."""
    return named(value) if isinstance(value, str) else parse(value, *args)


def _is_int(value) -> bool:
    """A JSON integer: a Python int, not a bool."""
    return type(value) is int


def _read(read, value, section: str):
    """read(value), with a refused literal reported against its section."""
    try:
        return read(value)
    except InvalidElement as exc:
        raise SpecFileError(f"bad rational literal in {section!r}: {exc}") from exc


def _rat(value, section: str) -> Fraction:
    return Fraction(*_read(read_rat, value, section))


# ---------------------------------------------------------------------------
# Space.

def parse_space(obj: dict, section: str = "space") -> Space:
    _check_keys(obj, {"kind", "dim", "multiplication", "topology"}, section)
    kind = obj.get("kind")
    if kind not in ("qn", "evseq", "z"):
        raise SpecFileError(f"{section}: kind must be one of qn/evseq/z, got {kind!r}")
    mul = obj.get("multiplication", "pointwise")
    if mul not in ("pointwise", "zero"):
        raise SpecFileError(f"{section}: multiplication must be pointwise or zero")
    top_name = obj.get("topology")
    try:
        topology = TOPOLOGIES_FOR_KIND[SpaceKind(kind)][0] if top_name is None else TopologyId(top_name)
    except ValueError:
        names = "/".join(t.value for t in TopologyId)
        raise SpecFileError(f"{section}: topology must be one of {names}, got {top_name!r}") from None
    dim = obj.get("dim")
    if dim is not None and not _is_int(dim):
        raise SpecFileError(f"{section}: dim must be a JSON integer, got {dim!r}")
    if dim is not None and dim > MAX_DIM:
        raise SpecFileError(f"{section}: dim {dim} is above the cap of {MAX_DIM}")
    try:
        return Space(SpaceKind(kind), topology, Multiplication(mul), dim)
    except (LatringError, ValueError) as exc:
        raise SpecFileError(f"{section}: {exc}") from exc


# ---------------------------------------------------------------------------
# Elements.

def parse_element(obj, space: Space, section: str):
    if isinstance(obj, dict):
        if space.kind is SpaceKind.QN:
            _check_keys(obj, {"entries"}, section)
            entries = obj.get("entries")
            if not isinstance(entries, list) or len(entries) != space.dim:
                raise SpecFileError(f"{section}: 'entries' must list {space.dim} rationals")
            return FinVec.from_int_row(*_read(read_row, entries, section))
        if space.kind is SpaceKind.EVSEQ:
            _check_keys(obj, {"prefix", "tail"}, section)
            return _evseq(obj, section)
        _check_keys(obj, {"int"}, section)
        value = obj.get("int")
        if not _is_int(value):
            raise SpecFileError(f"{section}: 'int' must be a JSON integer, got {value!r}")
        return ZInt(value)
    raise SpecFileError(f"{section}: element must be an object")


def _evseq(obj: dict, section: str) -> EvSeq:
    """An eventually-constant sequence from its `prefix` and `tail` keys."""
    prefix = _list(obj, "prefix", section) if "prefix" in obj else []
    # One row, the tail last; a bad prefix literal is reported before a missing tail.
    row = _read(read_row, [*prefix, obj.get("tail", 0)], section)
    _require(obj, "tail", section)
    return EvSeq.from_int_row(*row)


def element_to_obj(x) -> dict:
    if isinstance(x, ZInt):
        return {"int": int(x)}
    if isinstance(x, FinVec):
        return {"entries": [str(v) for v in x.entries]}
    return {"prefix": [str(v) for v in x.prefix], "tail": str(x.tail)}


# ---------------------------------------------------------------------------
# Homomorphisms.

def _int_row(values: list, section: str) -> IntRow:
    """One matrix or block row of literals as a reduced integer row, within the printing limit."""
    d, nums = row = _read(read_row, values, section)
    limit = sys.get_int_max_str_digits()
    big = max(d, max(nums), -min(nums))
    # Beyond `limit` digits means big >= 10**limit, so big has over 3 * limit bits.
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise SpecFileError(f"{section}: a row has an integer beyond the {limit}-digit limit for printing")
    return row


def _square_rows(rows, section: str, side: int | None = None) -> list[IntRow]:
    """A square list of lists of literals, `side` by `side` when `side` is given, read row by row."""
    if not isinstance(rows, list):
        raise SpecFileError(f"{section}: rows must be a list of lists")
    side = len(rows) if side is None else side
    if len(rows) != side or any(not isinstance(row, list) or len(row) != side for row in rows):
        raise SpecFileError(f"{section}: rows must form a {side}x{side} list of lists")
    return [_int_row(row, section) for row in rows]


def _require_kind(space: Space, kind: SpaceKind, hom_kind: str, section: str):
    if space.kind is not kind:
        raise SpecFileError(
            f"{section}: a {hom_kind} homomorphism needs a {kind.value} space, not {space.kind.value}"
        )


def parse_hom(obj: dict, space: Space, section: str) -> Hom:
    kind = _variant(obj, "kind", "homomorphism", section)
    if kind == "matrix":
        _check_keys(obj, {"kind", "rows"}, section)
        _require_kind(space, SpaceKind.QN, kind, section)
        return MatrixHom.from_int_rows(tuple(_square_rows(obj.get("rows"), section, space.dim)))
    if kind == "diagonal":
        _check_keys(obj, {"kind", "prefix", "tail"}, section)
        _require_kind(space, SpaceKind.EVSEQ, kind, section)
        return SeqHom.diagonal(_evseq(obj, section))
    if kind == "diag_plus_finite":
        _check_keys(obj, {"kind", "prefix", "tail", "block"}, section)
        _require_kind(space, SpaceKind.EVSEQ, kind, section)
        block = [[Fraction(a, d) for a in nums] for d, nums in _square_rows(obj.get("block"), section)]
        return SeqHom.diag_plus_block(_evseq(obj, section), block)
    if kind == "identity":
        _check_keys(obj, {"kind"}, section)
        return identity_on(space)
    raise SpecFileError(f"{section}: unknown homomorphism kind {kind!r}")


# ---------------------------------------------------------------------------
# Neighborhoods and sets.

def parse_nbhd(obj: dict, section: str) -> Neighborhood:
    top = _variant(obj, "topology", "neighborhood", section)
    if top == "qn_box":
        _check_keys(obj, {"topology", "radii"}, section)
        d, nums = _read(read_row, _list(obj, "radii", section), section)
        return Neighborhood.box(tuple(Fraction(a, d) for a in nums))
    if top == "evseq_product":
        _check_keys(obj, {"topology", "coords", "radius"}, section)
        coords = _list(obj, "coords", section)
        if not all(_is_int(c) and c >= 0 for c in coords):
            raise SpecFileError(f"{section}: 'coords' must list coordinate indices >= 0, got {coords!r}")
        if coords and max(coords) > MAX_COORD_INDEX:
            raise SpecFileError(
                f"{section}: coordinate index {max(coords)} is above the cap of {MAX_COORD_INDEX}"
            )
        return Neighborhood.product(frozenset(coords), _rat(_require(obj, "radius", section), section))
    if top == "evseq_supnorm":
        _check_keys(obj, {"topology", "radius"}, section)
        return Neighborhood.sup_ball(_rat(_require(obj, "radius", section), section))
    if top == "z_discrete":
        _check_keys(obj, {"topology"}, section)
        return Neighborhood.discrete_zero()
    raise SpecFileError(f"{section}: unknown topology {top!r}")


def set_to_obj(S: SetDesc) -> dict:
    if isinstance(S, Interval):
        return {"kind": "interval", "lo": element_to_obj(S.lo), "hi": element_to_obj(S.hi)}
    if isinstance(S, FiniteSet):
        return {"kind": "finite", "elements": [element_to_obj(x) for x in S.elements]}
    if isinstance(S, SolidHull):
        return {"kind": "solid_hull", "generators": [element_to_obj(x) for x in S.generators]}
    if isinstance(S, NbhdSet):
        return {"kind": "nbhd", "nbhd": S.nbhd.render()}
    # The spec format writes the identity of Z by its kind, not as a 1x1 matrix.
    z_identity = S.space.kind is SpaceKind.Z_DISCRETE and S.hom == identity_on(S.space)
    hom = {"kind": "identity"} if z_identity else S.hom.render()
    return {"kind": "image", "hom": hom, "base": set_to_obj(S.base)}


# ---------------------------------------------------------------------------
# Whole documents.

class SpecDoc:
    """A spec file's spaces and its named sections, filled in as they are read."""

    def __init__(self, space: Space, codomain_space: Space):
        self.space = space
        self.codomain_space = codomain_space
        self.elements: dict = {}
        self.homs: dict = {}
        self.sets: dict = {}
        self.nets: dict = {}
        self.tasks: list = []

    def element(self, name: str):
        return _named(self.elements, "element", name)

    def hom(self, name: str) -> Hom:
        return _named(self.homs, "homomorphism", name)

    def set_desc(self, name: str) -> SetDesc:
        return _named(self.sets, "set", name)

    def net(self, name: str) -> HomNet:
        return _named(self.nets, "net", name)


def _named(entries: dict, what: str, name: str):
    if name not in entries:
        raise UnknownName(f"no {what} named {name!r}")
    return entries[name]


def _parse_set(obj: dict, doc: SpecDoc, section: str, depth: int = 1) -> SetDesc:
    if depth > MAX_SET_DEPTH:
        raise SpecFileError(f"{section}: inline sets nest deeper than {MAX_SET_DEPTH} levels")
    kind = _variant(obj, "kind", "set", section)
    space = doc.space
    element = partial(_ref, named=doc.element, parse=parse_element, args=(space, section))
    if kind == "interval":
        _check_keys(obj, {"kind", "lo", "hi"}, section)
        lo, hi = (element(_require(obj, key, section)) for key in ("lo", "hi"))
        return Interval(space, lo, hi)
    if kind == "finite":
        _check_keys(obj, {"kind", "elements"}, section)
        return FiniteSet(space, tuple(element(v) for v in _list(obj, "elements", section)))
    if kind == "solid_hull":
        _check_keys(obj, {"kind", "generators"}, section)
        return SolidHull(space, tuple(element(v) for v in _list(obj, "generators", section)))
    if kind == "nbhd":
        _check_keys(obj, {"kind", "nbhd"}, section)
        return NbhdSet(space, parse_nbhd(_require(obj, "nbhd", section), section))
    if kind == "image":
        _check_keys(obj, {"kind", "hom", "base"}, section)
        hom, base = _require(obj, "hom", section), _require(obj, "base", section)
        hom = _ref(hom, doc.hom, parse_hom, (space, section))
        base = _ref(base, doc.set_desc, _parse_set, (doc, section, depth + 1))
        if depth + _levels(base) > MAX_SET_DEPTH:  # only a named base can stack past the inline check
            raise SpecFileError(f"{section}: image sets stack deeper than {MAX_SET_DEPTH} levels")
        return ImageSet(doc.codomain_space, hom, base)
    raise SpecFileError(f"{section}: unknown set kind {kind!r}")


def _levels(S: SetDesc) -> int:
    """The sets an image set stacks, itself and its bottom base included: 1 for any other set."""
    n = 1
    while isinstance(S, ImageSet):
        S, n = S.base, n + 1
    return n


def _parse_net(obj: dict, doc: SpecDoc, section: str) -> HomNet:
    kind = _variant(obj, "kind", "net", section)
    hom = partial(_ref, named=doc.hom, parse=parse_hom, args=(doc.space, section))
    if kind == "closed":
        _check_keys(obj, {"kind", "base", "decay", "target"}, section)
        target = hom(obj["target"]) if "target" in obj else None
        base, decay = (hom(_require(obj, key, section)) for key in ("base", "decay"))
        return HomNet.closed(doc.space, doc.codomain_space, base, decay, target)
    if kind == "constant":
        _check_keys(obj, {"kind", "term"}, section)
        return HomNet.constant(doc.space, doc.codomain_space, hom(_require(obj, "term", section)))
    if kind == "table":
        _check_keys(obj, {"kind", "terms", "target"}, section)
        target = hom(obj["target"]) if "target" in obj else None
        terms = [hom(t) for t in _list(obj, "terms", section)]
        return HomNet.table(doc.space, doc.codomain_space, terms, target)
    raise SpecFileError(f"{section}: unknown net kind {kind!r}")


# Each op's required arguments, all names.  Any task may also carry a `name`,
# `seed` and `cases` (integers), and a converge task a `region`; any other
# key, another op's argument included, is refused.
_TASK_ARGS = {
    "classify": ("hom",),
    "posp": ("hom",),
    "decompose": ("x", "y1", "y2"),
    "converge": ("net", "mode"),
    "laws": ("instance",),
}


def _parse_task(task, section: str) -> dict:
    if not isinstance(task, dict):
        raise SpecFileError(f"section {section!r} must be an object")
    op = _require(task, "op", section)
    if not isinstance(op, str) or op not in _TASK_ARGS:
        raise SpecFileError(f"{section}: unknown op {op!r}")
    region = ("region",) if op == "converge" else ()
    _check_keys(task, {"name", "op", "seed", "cases", *_TASK_ARGS[op], *region}, section)
    for key in _TASK_ARGS[op]:
        if key not in task:
            raise SpecFileError(f"{section}: a {op} task needs {key!r}")
        if not isinstance(task[key], str):
            raise SpecFileError(f"{section}: {key!r} must be a name, got {task[key]!r}")
    for key in ("name", "region"):
        if key in task and not isinstance(task[key], str):
            raise SpecFileError(f"{section}: {key!r} must be a string, got {task[key]!r}")
    for key in ("seed", "cases"):
        if key in task and not _is_int(task[key]):
            raise SpecFileError(f"{section}: {key!r} must be a JSON integer, got {task[key]!r}")
    if task.get("cases", 1) < 1:
        raise SpecFileError(f"{section}: 'cases' must be a positive integer, got {task['cases']}")
    return task


def _section(raw: dict, key: str) -> dict:
    obj = raw.get(key, {})
    if not isinstance(obj, dict):
        raise SpecFileError(f"section {key!r} must be an object mapping names to entries")
    _check_keys(obj, set(obj), key)  # any name, each once
    return obj


def parse_specdoc(text: str) -> SpecDoc:
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError, an integer beyond the interpreter's digit limit,
        # or nesting deeper than the decoder recurses.
        raise SpecFileError(f"not valid JSON: {exc}") from exc
    _check_keys(raw, {"space", "codomain_space", "elements", "homs", "sets", "nets", "tasks"}, "top level")
    if "space" not in raw:
        raise SpecFileError("missing required section 'space'")
    space = parse_space(raw["space"])
    codomain = parse_space(raw["codomain_space"], "codomain_space") if "codomain_space" in raw else space
    if (codomain.kind, codomain.dim) != (space.kind, space.dim):
        # Homs are read on `space`, so they map it to itself.
        raise SpecFileError("codomain_space: must have the kind and dim of 'space'; only its topology "
                            "and multiplication may differ")
    doc = SpecDoc(space, codomain)
    for name, obj in _section(raw, "elements").items():
        doc.elements[name] = parse_element(obj, space, f"elements.{name}")
    for name, obj in _section(raw, "homs").items():
        doc.homs[name] = parse_hom(obj, space, f"homs.{name}")
    for name, obj in _section(raw, "sets").items():
        try:
            doc.sets[name] = _parse_set(obj, doc, f"sets.{name}")
        except (InvalidElement, EmptyInput, UnknownName) as exc:
            # The set does not fit the space, is empty or inverted, or names a missing entry.
            raise SpecFileError(f"sets.{name}: {exc}") from exc
    for name, obj in _section(raw, "nets").items():
        try:
            doc.nets[name] = _parse_net(obj, doc, f"nets.{name}")
        except (InvalidElement, UnknownName) as exc:
            # The net does not fit the space (any net on the integers) or names a missing hom.
            raise SpecFileError(f"nets.{name}: {exc}") from exc
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list):
        raise SpecFileError("section 'tasks' must be a list")
    named: dict = {}  # a task without a name is named after its op and index
    for i, task in enumerate(tasks):
        name = _parse_task(task, f"tasks[{i}]").setdefault("name", f"{task['op']}[{i}]")
        if named.setdefault(name, task) is not task:
            raise SpecFileError(f"tasks[{i}]: an earlier task is already named {name!r}")
    doc.tasks = list(named.values())
    return doc


def load_specdoc(path: str) -> SpecDoc:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read {path!r}: {exc}") from exc
    return parse_specdoc(text)
