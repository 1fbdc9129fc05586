"""Structured input files for the command-line front end.

The format is JSON with sections `space`, `codomain_space`, `elements`,
`homs`, `sets`, `nets`, and `tasks`.  Rational literals are "p/q" strings
(or integers) parsed exactly; unknown keys are errors, not warnings; every
named reference must resolve.  Serializing any shipped descriptor and
re-parsing it yields an equal descriptor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .elements import EvSeq, FinVec
from .errors import LatringError, SpecFileError, UnknownName
from .homs import Hom, IdentityHom, MatrixHom, SeqHom
from .homspaces import HomNet
from .scalars import as_rat
from .spaces import Multiplication, Space, SpaceKind, TopologyId
from .topology import (
    FiniteSet,
    ImageSet,
    Interval,
    Neighborhood,
    NbhdSet,
    SetDesc,
    SolidHull,
)

_DEFAULT_TOPOLOGY = {
    "qn": TopologyId.QN_BOX,
    "evseq": TopologyId.EVSEQ_PRODUCT,
    "z": TopologyId.Z_DISCRETE_TOP,
}


def _check_keys(obj: dict, allowed: set[str], section: str):
    if not isinstance(obj, dict):
        raise SpecFileError(f"section {section!r} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SpecFileError(f"unknown key(s) {sorted(unknown)} in section {section!r}")


def _rat(value, section: str) -> Fraction:
    try:
        return as_rat(value)
    except LatringError as exc:
        raise SpecFileError(f"bad rational literal in {section!r}: {exc}") from exc


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
    topology = TopologyId(top_name) if top_name else _DEFAULT_TOPOLOGY[kind]
    try:
        return Space(SpaceKind(kind), topology, Multiplication(mul), obj.get("dim"))
    except (LatringError, ValueError) as exc:
        raise SpecFileError(f"{section}: {exc}") from exc


# ---------------------------------------------------------------------------
# Elements.

def parse_element(obj, space: Space, section: str):
    if isinstance(obj, dict):
        if space.kind is SpaceKind.QN:
            _check_keys(obj, {"entries"}, section)
            return FinVec(tuple(_rat(v, section) for v in obj["entries"]))
        if space.kind is SpaceKind.EVSEQ:
            _check_keys(obj, {"prefix", "tail"}, section)
            return EvSeq(tuple(_rat(v, section) for v in obj.get("prefix", [])), _rat(obj["tail"], section))
        _check_keys(obj, {"int"}, section)
        value = obj.get("int")
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecFileError(f"{section}: 'int' must be a JSON integer, got {value!r}")
        return value
    raise SpecFileError(f"{section}: element must be an object")


def element_to_obj(x) -> dict:
    if isinstance(x, FinVec):
        return {"entries": [str(v) for v in x.entries]}
    if isinstance(x, EvSeq):
        return {"prefix": [str(v) for v in x.prefix], "tail": str(x.tail)}
    return {"int": int(x)}


# ---------------------------------------------------------------------------
# Homomorphisms.

def parse_hom(obj: dict, space: Space, section: str) -> Hom:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecFileError(f"{section}: homomorphism needs a kind")
    kind = obj["kind"]
    if kind == "matrix":
        _check_keys(obj, {"kind", "rows"}, section)
        return MatrixHom(tuple(tuple(_rat(v, section) for v in row) for row in obj["rows"]))
    if kind == "diagonal":
        _check_keys(obj, {"kind", "prefix", "tail"}, section)
        coeffs = EvSeq(tuple(_rat(v, section) for v in obj.get("prefix", [])), _rat(obj["tail"], section))
        return SeqHom.diagonal(coeffs)
    if kind == "diag_plus_finite":
        _check_keys(obj, {"kind", "prefix", "tail", "block"}, section)
        coeffs = EvSeq(tuple(_rat(v, section) for v in obj.get("prefix", [])), _rat(obj["tail"], section))
        block = tuple(tuple(_rat(v, section) for v in row) for row in obj["block"])
        return SeqHom.diag_plus_block(coeffs, block)
    if kind == "identity":
        _check_keys(obj, {"kind"}, section)
        return IdentityHom.on(space)
    raise SpecFileError(f"{section}: unknown homomorphism kind {kind!r}")


def hom_to_obj(h: Hom) -> dict:
    return h.render()


# ---------------------------------------------------------------------------
# Neighborhoods and sets.

def parse_nbhd(obj: dict, section: str) -> Neighborhood:
    if not isinstance(obj, dict) or "topology" not in obj:
        raise SpecFileError(f"{section}: neighborhood needs a topology")
    top = obj["topology"]
    if top == "qn_box":
        _check_keys(obj, {"topology", "radii"}, section)
        return Neighborhood.box(tuple(_rat(v, section) for v in obj["radii"]))
    if top == "evseq_product":
        _check_keys(obj, {"topology", "coords", "radius"}, section)
        return Neighborhood.product(frozenset(obj["coords"]), _rat(obj["radius"], section))
    if top == "evseq_supnorm":
        _check_keys(obj, {"topology", "radius"}, section)
        return Neighborhood.sup_ball(_rat(obj["radius"], section))
    if top == "z_discrete":
        _check_keys(obj, {"topology"}, section)
        return Neighborhood.discrete_zero()
    raise SpecFileError(f"{section}: unknown topology {top!r}")


def nbhd_to_obj(U: Neighborhood) -> dict:
    return U.render()


def set_to_obj(S: SetDesc) -> dict:
    if isinstance(S, Interval):
        return {"kind": "interval", "lo": element_to_obj(S.lo), "hi": element_to_obj(S.hi)}
    if isinstance(S, FiniteSet):
        return {"kind": "finite", "elements": [element_to_obj(x) for x in S.elements]}
    if isinstance(S, SolidHull):
        return {"kind": "solid_hull", "generators": [element_to_obj(x) for x in S.generators]}
    if isinstance(S, NbhdSet):
        return {"kind": "nbhd", "nbhd": nbhd_to_obj(S.nbhd)}
    if isinstance(S, ImageSet):
        return {"kind": "image", "hom": hom_to_obj(S.hom), "base": set_to_obj(S.base)}
    raise SpecFileError(f"cannot serialize {S!r}")


# ---------------------------------------------------------------------------
# Whole documents.

@dataclass
class SpecDoc:
    space: Space
    codomain_space: Space
    elements: dict = field(default_factory=dict)
    homs: dict = field(default_factory=dict)
    sets: dict = field(default_factory=dict)
    nets: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)

    def element(self, name: str):
        if name not in self.elements:
            raise UnknownName(f"no element named {name!r}")
        return self.elements[name]

    def hom(self, name: str) -> Hom:
        if name not in self.homs:
            raise UnknownName(f"no homomorphism named {name!r}")
        return self.homs[name]

    def set_desc(self, name: str) -> SetDesc:
        if name not in self.sets:
            raise UnknownName(f"no set named {name!r}")
        return self.sets[name]

    def net(self, name: str) -> HomNet:
        if name not in self.nets:
            raise UnknownName(f"no net named {name!r}")
        return self.nets[name]


def _parse_set(obj: dict, doc: SpecDoc, section: str) -> SetDesc:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecFileError(f"{section}: set needs a kind")
    kind = obj["kind"]
    space = doc.space

    def resolve_element(value):
        if isinstance(value, str):
            return doc.element(value)
        return parse_element(value, space, section)

    if kind == "interval":
        _check_keys(obj, {"kind", "lo", "hi"}, section)
        return Interval(space, resolve_element(obj["lo"]), resolve_element(obj["hi"]))
    if kind == "finite":
        _check_keys(obj, {"kind", "elements"}, section)
        return FiniteSet(space, tuple(resolve_element(v) for v in obj["elements"]))
    if kind == "solid_hull":
        _check_keys(obj, {"kind", "generators"}, section)
        return SolidHull(space, tuple(resolve_element(v) for v in obj["generators"]))
    if kind == "nbhd":
        _check_keys(obj, {"kind", "nbhd"}, section)
        return NbhdSet(space, parse_nbhd(obj["nbhd"], section))
    if kind == "image":
        _check_keys(obj, {"kind", "hom", "base"}, section)
        hom = doc.hom(obj["hom"]) if isinstance(obj["hom"], str) else parse_hom(obj["hom"], space, section)
        base = doc.set_desc(obj["base"]) if isinstance(obj["base"], str) else _parse_set(obj["base"], doc, section)
        return ImageSet(doc.codomain_space, hom, base)
    raise SpecFileError(f"{section}: unknown set kind {kind!r}")


def _parse_net(obj: dict, doc: SpecDoc, section: str) -> HomNet:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecFileError(f"{section}: net needs a kind")
    kind = obj["kind"]

    def resolve_hom(value) -> Hom:
        if isinstance(value, str):
            return doc.hom(value)
        return parse_hom(value, doc.space, section)

    if kind == "closed":
        _check_keys(obj, {"kind", "base", "decay", "target"}, section)
        target = resolve_hom(obj["target"]) if "target" in obj else None
        return HomNet.closed(
            doc.space, doc.codomain_space, resolve_hom(obj["base"]), resolve_hom(obj["decay"]), target
        )
    if kind == "constant":
        _check_keys(obj, {"kind", "term"}, section)
        return HomNet.constant(doc.space, doc.codomain_space, resolve_hom(obj["term"]))
    if kind == "table":
        _check_keys(obj, {"kind", "terms", "target"}, section)
        target = resolve_hom(obj["target"]) if "target" in obj else None
        return HomNet.table(doc.space, doc.codomain_space, [resolve_hom(t) for t in obj["terms"]], target)
    raise SpecFileError(f"{section}: unknown net kind {kind!r}")


_TASK_KEYS = {"name", "op", "hom", "x", "y1", "y2", "net", "mode", "region", "instance", "seed", "cases"}


def parse_specdoc(text: str) -> SpecDoc:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"not valid JSON: {exc}") from exc
    _check_keys(raw, {"space", "codomain_space", "elements", "homs", "sets", "nets", "tasks"}, "top level")
    if "space" not in raw:
        raise SpecFileError("missing required section 'space'")
    space = parse_space(raw["space"])
    codomain = parse_space(raw["codomain_space"], "codomain_space") if "codomain_space" in raw else space
    doc = SpecDoc(space, codomain)
    for name, obj in raw.get("elements", {}).items():
        doc.elements[name] = parse_element(obj, space, f"elements.{name}")
    for name, obj in raw.get("homs", {}).items():
        doc.homs[name] = parse_hom(obj, space, f"homs.{name}")
    for name, obj in raw.get("sets", {}).items():
        doc.sets[name] = _parse_set(obj, doc, f"sets.{name}")
    for name, obj in raw.get("nets", {}).items():
        doc.nets[name] = _parse_net(obj, doc, f"nets.{name}")
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list):
        raise SpecFileError("section 'tasks' must be a list")
    for i, task in enumerate(tasks):
        _check_keys(task, _TASK_KEYS, f"tasks[{i}]")
        if "op" not in task:
            raise SpecFileError(f"tasks[{i}]: missing op")
        doc.tasks.append(task)
    return doc


def load_specdoc(path: str) -> SpecDoc:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_specdoc(fh.read())
    except OSError as exc:
        raise SpecFileError(f"cannot read {path!r}: {exc}") from exc
