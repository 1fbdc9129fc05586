"""Seeded inputs for the three benchmark workloads.

The workload seed only fills in numbers: the shape of every workload (which
commands, on which dimensions, in which order) is fixed, so runs with
different seeds do the same amount of work and stay comparable.  Entries
follow the library's own samplers: small numerators and denominators of at
most 8.  A fixed share of matrix rows carries pairwise-coprime denominators;
such a row has a large common denominator, which is where an integer
common-denominator kernel pays.

The program under test sees only argv and the spec files written here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Output digests are stored for this seed; design.json names a held-out one.
DEFAULT_SEED = 1

MAX_DEN = 8
COPRIME_ROW_SHARE = Fraction(1, 4)
# Pairwise-coprime denominator sets within MAX_DEN; lcm 840, 420 and 210.
COPRIME_DENS = ((8, 7, 5, 3), (7, 5, 4, 3), (7, 5, 3, 2))

# Six ops of equal size, so the median and the slowest op of a pass rest
# on several seeded suites each and move little from one seed to the next.
GALLERY_CASES = (320,) * 6

POSP_DIMS = (7, 8, 9, 10)
# (spec, cases) of each op, one hom per spec.
POSP_OPS = (("q7", 2), ("q8", 2), ("q9", 1), ("q10", 1), ("seq", 1), ("seq", 2))
SEQ_BLOCK = 8
SEQ_PREFIX = 32

# Spec -> the standalone commands run on it (None: all) and whether a `run`
# of the five RUN_TASKS runs on it too.  The largest spec runs only its
# cheaper commands, which keeps every op well under a second.
RUN_TASKS = ("classify", "nr", "br", "cr", "decompose")
EVSEQ_COMMANDS = ("classify", "classify_block", "nr", "stuck", "spreading", "table", "decompose")
TASK_SPECS = (
    ("q16", None, True),
    ("q32", None, True),
    ("q64", ("classify", "drifting", "decompose"), False),
    ("evseq_product", EVSEQ_COMMANDS, True),
    ("evseq_supnorm", EVSEQ_COMMANDS, True),
)
U0_COORDS = 4
EVSEQ_BLOCK = 5


@dataclass(frozen=True)
class Op:
    """One CLI call and what its report must say.

    `verdicts` maps a result key of the machine report to the verdict the
    generator built it to have; `oracle_cases` is the k of every `k/k`
    oracle agreement the report must show.
    """

    key: str
    argv: tuple[str, ...]
    verdicts: dict = field(default_factory=dict)
    oracle_cases: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[Path, ...]
    ops: tuple[Op, ...]


# ---------------------------------------------------------------------------
# Rationals.

def _rat(rng: random.Random, span: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, MAX_DEN))
        if q or not nonzero:
            return q


def _pos_rat(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(1, span), rng.randint(1, MAX_DEN))


def _coprime_row(rng: random.Random, n: int, span: int = 9) -> list[Fraction]:
    """Integer entries, except on up to four coordinates whose reduced
    denominators are pairwise coprime."""
    row = [Fraction(rng.choice([v for v in range(-span, span + 1) if v])) for _ in range(n)]
    dens = rng.choice(COPRIME_DENS)[: min(4, n)]
    for j, d in zip(rng.sample(range(n), len(dens)), dens):
        num = rng.choice([v for v in range(-span * d, span * d + 1) if math.gcd(v, d) == 1])
        row[j] = Fraction(num, d)
    return row


def _matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A dense matrix: no zero entries outside the coprime rows."""
    rows = []
    for i in range(n):
        if Fraction(i % 4, 4) < COPRIME_ROW_SHARE:
            rows.append(_coprime_row(rng, n))
        else:
            rows.append([_rat(rng, nonzero=True) for _ in range(n)])
    return rows


def _s(rows) -> list:
    return [[str(v) for v in row] for row in rows]


def _vec(values) -> list[str]:
    return [str(v) for v in values]


def _write(path: Path, doc: dict) -> Path:
    # Insertion order matters: a set may only name sets defined before it.
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


# ---------------------------------------------------------------------------
# gallery: the regression run; no spec files.

def _gallery(rng: random.Random, workdir: Path) -> Workload:
    ops = []
    for cases in GALLERY_CASES:
        argv = ("gallery", "--seed", str(_op_seed(rng)), "--cases", str(cases), "--format", "machine")
        ops.append(Op(" ".join(argv), argv))
    return Workload("gallery", (), tuple(ops))


# ---------------------------------------------------------------------------
# posp-oracle: positive parts cross-checked by the 2^n vertex oracle.

def _posp_oracle(rng: random.Random, workdir: Path) -> Workload:
    specs = {}
    for n in POSP_DIMS:
        homs = {"h": {"kind": "matrix", "rows": _s(_matrix(rng, n))}}
        specs[f"q{n}"] = _write(workdir / f"posp_q{n}.json", {"space": {"kind": "qn", "dim": n}, "homs": homs})
    prefix = [_rat(rng, span=12) for _ in range(SEQ_PREFIX)]
    block = [[_rat(rng, nonzero=i != j) for j in range(SEQ_BLOCK)] for i in range(SEQ_BLOCK)]
    homs = {"h": {"kind": "diag_plus_finite", "prefix": _vec(prefix), "tail": str(_rat(rng)), "block": _s(block)}}
    specs["seq"] = _write(
        workdir / "posp_seq.json", {"space": {"kind": "evseq", "topology": "evseq_product"}, "homs": homs}
    )
    ops = []
    for spec, cases in POSP_OPS:
        argv = ("posp", "h", "--spec", str(specs[spec]), "--seed", str(_op_seed(rng)),
                "--cases", str(cases), "--format", "machine")
        ops.append(Op(f"posp {spec} {' '.join(argv[4:])}", argv, oracle_cases=cases))
    return Workload("posp-oracle", tuple(specs.values()), tuple(ops))


# ---------------------------------------------------------------------------
# spec-tasks: classify, converge, decompose and run; the oracle never runs.

CONV, NOT_CONV = "CONVERGENT", "NOT_CONVERGENT"


def _converge(net: str, mode: str, region: str | None, verdict: str) -> tuple[dict, str]:
    task = {"op": "converge", "net": net, "mode": mode}
    if region:
        task["region"] = region
    return task, verdict


DECOMPOSE = ({"op": "decompose", "x": "x", "y1": "y1", "y2": "y2"}, None)


def _classify(hom: str) -> tuple[dict, None]:
    return {"op": "classify", "hom": hom}, None


def _qn_spec(rng: random.Random, n: int) -> tuple[dict, dict]:
    y1 = [_rat(rng, span=12) for _ in range(n)]
    y2 = [_rat(rng, span=12) for _ in range(n)]
    x = [Fraction(rng.randint(-24, 24), 24) * (abs(a) + abs(b)) for a, b in zip(y1, y2)]
    v = [_pos_rat(rng) for _ in range(n)]
    radii = [_pos_rat(rng) for _ in range(n)]
    doc = {
        "space": {"kind": "qn", "dim": n},
        "elements": {"x": {"entries": _vec(x)}, "y1": {"entries": _vec(y1)}, "y2": {"entries": _vec(y2)}},
        "homs": {name: {"kind": "matrix", "rows": _s(_matrix(rng, n))} for name in ("t", "m", "t2")},
        "sets": {
            "unit_box": {"kind": "nbhd", "nbhd": {"topology": "qn_box", "radii": _vec(radii)}},
            "probe": {"kind": "interval", "lo": {"entries": _vec(-a for a in v)}, "hi": {"entries": _vec(v)}},
            "img": {"kind": "image", "hom": "m", "base": "probe"},
        },
        "nets": {
            "shrinking": {"kind": "closed", "base": "t", "decay": "m", "target": "t"},
            "drifting": {"kind": "closed", "base": "t", "decay": "m", "target": "t2"},
            "settling": {"kind": "table", "terms": ["t2", "m", "t"], "target": "t"},
        },
    }
    commands = {
        "classify": _classify("t"),
        "nr": _converge("shrinking", "nr", "unit_box", CONV),
        "br": _converge("shrinking", "br", "probe", CONV),
        "drifting": _converge("drifting", "br", "img", NOT_CONV),
        "cr": _converge("settling", "cr", None, CONV),
        "decompose": DECOMPOSE,
    }
    return doc, commands


def _evseq_spec(rng: random.Random, topology: str) -> tuple[dict, dict]:
    def seq(length: int) -> tuple[list[Fraction], Fraction]:
        return [_rat(rng, span=12) for _ in range(length)], _rat(rng, span=12, nonzero=True)

    def at(s, i):
        return s[0][i] if i < len(s[0]) else s[1]

    def obj(s) -> dict:
        return {"prefix": _vec(s[0]), "tail": str(s[1])}

    y1, y2 = seq(10), seq(8)
    span = max(len(y1[0]), len(y2[0]))
    # |x| <= |y1| + |y2| at every index, tail included.
    x = [Fraction(rng.randint(-24, 24), 24) * (abs(at(y1, i)) + abs(at(y2, i))) for i in range(span + 1)]
    block = [[_rat(rng, nonzero=i != j) for j in range(EVSEQ_BLOCK)] for i in range(EVSEQ_BLOCK)]
    # Decay supported on the coordinates u0 constrains, so it stays bounded there.
    fin = {"kind": "diagonal", "prefix": _vec(_rat(rng, nonzero=True) for _ in range(U0_COORDS)), "tail": "0"}
    v = [_pos_rat(rng) for _ in range(6)], _pos_rat(rng)
    if topology == "evseq_product":
        u0 = {"topology": topology, "coords": list(range(U0_COORDS)), "radius": str(_pos_rat(rng))}
    else:
        u0 = {"topology": topology, "radius": str(_pos_rat(rng))}
    doc = {
        "space": {"kind": "evseq", "topology": topology},
        "elements": {"x": obj((x[:-1], x[-1])), "y1": obj(y1), "y2": obj(y2)},
        "homs": {
            "d": {"kind": "diagonal", **obj(seq(12))},
            "b": {"kind": "diag_plus_finite", **obj(seq(9)), "block": _s(block)},
            "fin": fin,
            "ident": {"kind": "identity"},
            "zero": {"kind": "diagonal", "prefix": [], "tail": "0"},
        },
        "sets": {
            "u0": {"kind": "nbhd", "nbhd": u0},
            "iv": {"kind": "interval", "lo": obj(([-a for a in v[0]], -v[1])), "hi": obj(v)},
            "img": {"kind": "image", "hom": "d", "base": "iv"},
        },
        "nets": {
            "settling": {"kind": "closed", "base": "b", "decay": "fin", "target": "b"},
            "stuck": {"kind": "closed", "base": "ident", "decay": "zero", "target": "zero"},
            "spreading": {"kind": "closed", "base": "zero", "decay": "d", "target": "zero"},
            "table": {"kind": "table", "terms": ["d", "b", "b"], "target": "b"},
        },
    }
    # A decay with a nonzero tail leaves the product base's free coordinates
    # unbounded, so that net diverges there and converges in sup norm.
    spreading = NOT_CONV if topology == "evseq_product" else CONV
    commands = {
        "classify": _classify("d"),
        "classify_block": _classify("b"),
        "nr": _converge("settling", "nr", "u0", CONV),
        "br": _converge("settling", "br", "iv", CONV),
        "cr": _converge("settling", "cr", None, CONV),
        "stuck": _converge("stuck", "nr", "u0", NOT_CONV),
        "spreading": _converge("spreading", "nr", "u0", spreading),
        "table": _converge("table", "br", "img", CONV),
        "decompose": DECOMPOSE,
    }
    return doc, commands


def _task_argv(task: dict) -> tuple[str, ...]:
    if task["op"] == "classify":
        return ("classify", task["hom"])
    if task["op"] == "decompose":
        return ("decompose", task["x"], task["y1"], task["y2"])
    region = ("--region", task["region"]) if "region" in task else ()
    return ("converge", task["net"], "--mode", task["mode"]) + region


def _verdict_key(task: dict) -> str:
    return f"converge:{task['net']}:{task['mode']}"


def _spec_tasks(rng: random.Random, workdir: Path) -> Workload:
    ops = []
    paths = []
    for name, keep, with_run in TASK_SPECS:
        doc, commands = _qn_spec(rng, int(name[1:])) if name.startswith("q") else _evseq_spec(rng, name)
        run_tasks = [{"name": f"t{i}", **commands[label][0]} for i, label in enumerate(RUN_TASKS)]
        doc["tasks"] = run_tasks
        path = _write(workdir / f"tasks_{name}.json", doc)
        paths.append(path)
        for label, (task, verdict) in commands.items():
            if keep is None or label in keep:
                argv = _task_argv(task)
                ops.append(Op(f"{name} {' '.join(argv)}", argv + ("--spec", str(path), "--format", "machine"),
                              {_verdict_key(task): verdict} if verdict else {}))
        if with_run:
            verdicts = {f"{t['name']}:{_verdict_key(t)}": commands[label][1]
                        for t, label in zip(run_tasks, RUN_TASKS) if commands[label][1]}
            ops.append(Op(f"{name} run", ("run", "--spec", str(path), "--format", "machine"), verdicts))
    return Workload("spec-tasks", tuple(paths), tuple(ops))


GENERATORS = {"gallery": _gallery, "posp-oracle": _posp_oracle, "spec-tasks": _spec_tasks}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's spec files into `workdir` and return its op pool."""
    # String seeds hash stably across interpreters.
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, workdir)
