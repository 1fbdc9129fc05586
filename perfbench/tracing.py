"""Per-layer tracing installed from outside the library.

Wrappers go around the public functions and methods of each module, and
every module that bound one of those functions by name (`from .homs import
positive_part`) is rebound to the wrapper too, so no call slips past it.
`uninstall` restores every original.

A boundary is one of three kinds:

- span: a record (name, op, parent, start, end) kept in memory.  A layer's
  self time is its span time minus the time of its child spans.
- leaf: a hot call kept as a count plus summed inclusive time.  A leaf makes
  no span, so its time is also inside the self time of the span that
  encloses it.  A leaf reached again from inside itself is counted but not
  timed twice.
- count: a call count only (element constructions, which are too hot to time).

Observers add work counts (vertices, multiplications, audit cases) from a
call's arguments and result.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"
OP = "op"


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per name, the summed span time minus the time of each span's children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += s.end - s.start - child[i]
    return dict(out)


def _oracle_vertices(counts, args, result):
    counts["homs.oracle.vertices"] += 2 ** args[0].n


def _apply_mults(counts, args, result):
    counts["homs.matrix_apply.mults"] += args[0].n ** 2


def _audit_cases(counts, args, result):
    counts["audits.cases"] += sum(r.cases for r in result)


def _posp_window(counts, args, result):
    counts["homs.posp_window"] += result.n
    counts["homs.posp_span"] += args[0].support_span() + 1


SUITES = {
    "rk_agreement": ("rk_agreement_suite",),
    "lattice_laws": ("lattice_law_suite", "canonical_idempotence_suite"),
    "f_ring": ("f_ring_suite",),
    "hom_lattice": ("hom_lattice_suite",),
    "directed_sup": ("directed_sup_suite",),
    "cone_extension": ("cone_extension_suite",),
    "decomposition": ("decomposition_suite",),
    "topology_suites": ("solid_hull_suite", "boundedness_agreement_suite", "sampler_bound_suite", "fatou_suite"),
    "convergence_suites": ("convergence_recheck_suite", "uniqueness_suite", "lattice_continuity_suite"),
}
LATTICE_OPS = ("join", "meet", "pos_part", "neg_part", "abs_val", "add", "negate", "ring_mul", "leq", "is_positive")

# (module, attribute, layer name, kind, observer)
BOUNDARIES = [
    ("homs", "sup_over_interval_oracle", "homs.oracle", SPAN, _oracle_vertices),
    ("homs", "MatrixHom.apply", "homs.matrix_apply", LEAF, _apply_mults),
    ("homs", "SeqHom.apply", "homs.seq_apply", LEAF, None),
    ("homs", "is_order_bounded", "homs.order_bounded", SPAN, None),
    ("homs", "MatrixHom.propagate_bounds", "homs.propagate_bounds", SPAN, None),
    ("homs", "SeqHom.propagate_bounds", "homs.propagate_bounds", SPAN, None),
    ("homs", "riesz_decompose", "homs.decompose", SPAN, None),
    ("homs", "positive_part", "homs.positive_part", SPAN, None),
    ("homs", "truncation_matrix", "homs.truncation", COUNT, _posp_window),
    ("homspaces", "classify", "homspaces.classify", SPAN, None),
    ("homspaces", "nr_converges", "homspaces.converge", SPAN, None),
    ("homspaces", "br_converges", "homspaces.converge", SPAN, None),
    ("homspaces", "cr_converges", "homspaces.converge", SPAN, None),
    ("homspaces", "ConvergenceCertificate.alpha0_for", "homspaces.alpha0", SPAN, None),
    ("homspaces", "ConvergenceCertificate.verify_at", "homspaces.verify_at", SPAN, None),
    ("topology", "coordinate_bounds", "topology.coordinate_bounds", SPAN, None),
    *[("topology", f, "topology.deciders", SPAN, None)
      for f in ("bounds_ring_bounded", "bounds_group_bounded", "set_ring_bounded", "set_group_bounded")],
    ("topology", "sample_member", "topology.sample_member", SPAN, None),
    *[("audits", f, f"audits.{layer}", SPAN, None) for layer, fns in SUITES.items() for f in fns],
    ("audits", "all_suites", "audits.all_suites", COUNT, _audit_cases),
    *[("spaces", f, "spaces.lattice_ops", LEAF, None) for f in LATTICE_OPS],
    ("spaces", "check_f_ring", "spaces.f_ring", SPAN, None),
    ("spaces", "archimedean_witness", "spaces.archimedean", SPAN, None),
    ("gallery", "run_cases", "gallery.cases", SPAN, None),
    ("specfile", "load_specdoc", "specfile.load", SPAN, None),
    ("cli", "render_machine", "cli.render", SPAN, None),
    ("cli", "render_text", "cli.render", SPAN, None),
    ("elements", "FinVec.__post_init__", "elements.finvec", COUNT, None),
    ("elements", "EvSeq.__post_init__", "elements.evseq", COUNT, None),
]


class Tracer:
    """Spans, leaf timings and counts for one traced stretch of ops."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.leaf_depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.op, parent, perf_counter()))
        self.stack.append(len(self.spans) - 1)
        self.calls[name] += 1
        return self.stack[-1]

    def end(self, index: int):
        self.spans[index].end = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, kind: str, observer=None):
        counts = self.counts
        calls = self.calls

        if kind == SPAN:
            def wrapper(*args, **kwargs):
                index = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(index)
                if observer is not None:
                    observer(counts, args, result)
                return result
        elif kind == LEAF:
            leaf_time, depth = self.leaf_time, self.leaf_depth

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if depth[name]:
                    result = fn(*args, **kwargs)
                else:
                    depth[name] += 1
                    t0 = perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        leaf_time[name] += perf_counter() - t0
                        depth[name] -= 1
                if observer is not None:
                    observer(counts, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if observer is not None:
                    observer(counts, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str = "latring"):
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for module_name, attr, name, kind, observer in BOUNDARIES:
            module = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name, kind, observer))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(orig, name, kind, observer)
            # Rebind every module-level name bound to this function.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
