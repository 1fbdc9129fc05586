"""Command-line front end.

Subcommands: laws, classify, posp, decompose, converge, gallery, run.
Reports are deterministic for a fixed seed; the machine format is canonical
JSON (sorted keys), so identical inputs give byte-identical output.  Exit
codes: 0 all checks pass, 1 an audit failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .audits import get_instance, lattice_law_suite
from .elements import EvSeq, FinVec
from .errors import (
    InvalidArgument,
    LatringError,
    NotBounded,
    SpecFileError,
    UnknownCase,
    UnknownInstance,
    UnknownName,
    VacuousProduct,
)
from .gallery import run_all
from .homs import (
    ORACLE_DIM_CAP,
    MatrixHom,
    SeqHom,
    decomposition_failure,
    positive_part,
    riesz_decompose,
    sup_over_interval_oracle,
    truncation_matrix,
)
from .homspaces import br_converges, classify, cr_converges, nr_converges
from .sampling import rand_pos_element, rng_for
from .spaces import Space
from .specfile import SpecDoc, element_to_obj, hom_to_obj, load_specdoc, nbhd_to_obj, set_to_obj
from .topology import NbhdSet, canonical_generator

_INPUT_ERRORS = (SpecFileError, UnknownName, UnknownInstance, UnknownCase, InvalidArgument, VacuousProduct, NotBounded)


def _require_cases(cases: int):
    if cases < 1:
        raise InvalidArgument(f"--cases must be a positive integer, got {cases}")


# ---------------------------------------------------------------------------
# Commands: each returns (report dict, passed flag).

def cmd_laws(instance_name: str, seed: int, cases: int):
    _require_cases(cases)
    inst = get_instance(instance_name)
    checks = lattice_law_suite(inst, seed=seed, cases=cases)
    results = {
        f"laws:{instance_name}:{c.name}": c.render() for c in checks
    }
    passed = all(c.passed for c in checks)
    report = {
        "command": "laws",
        "instance": instance_name,
        "seed": seed,
        "cases": cases,
        "results": results,
        "passed": passed,
    }
    return report, passed


def cmd_classify(doc: SpecDoc, hom_name: str):
    T = doc.hom(hom_name)
    label = classify(T, doc.space, doc.codomain_space)
    result = {
        "flags": label.flags(),
        "nr": _reading_pair(label.nr),
        "br": _reading_pair(label.br),
        "continuity_witness": _maybe_nbhd(label.continuity_witness),
        "continuity_note": label.continuity_note,
        "order_witness": {
            "lo": _render_value(label.order_witness.lo),
            "hi": _render_value(label.order_witness.hi),
            "spot_checked": label.order_witness.spot_checked,
        },
        "provenance": "bounded-class definitions under both boundedness readings",
    }
    report = {
        "command": "classify",
        "hom": hom_name,
        "results": {f"classify:{hom_name}": result},
        "passed": True,
    }
    return report, True


def _reading_pair(pair) -> dict:
    def one(v):
        doc = {
            "holds": v.holds,
            "vacuous": v.vacuous,
            "via": _maybe_nbhd(v.via),
            "refuting": _maybe_nbhd(v.refuting),
            "note": v.note,
        }
        if v.bad_set is not None:
            doc["bad_set"] = set_to_obj(v.bad_set)
        return doc

    return {"ring": one(pair.ring), "group": one(pair.group)}


def _maybe_nbhd(U):
    return None if U is None else nbhd_to_obj(U)


def _render_value(x):
    if isinstance(x, (FinVec, EvSeq)):
        return element_to_obj(x)
    return str(x)


def cmd_posp(doc: SpecDoc, hom_name: str, seed: int, cases: int):
    _require_cases(cases)
    T = doc.hom(hom_name)
    if not isinstance(T, (MatrixHom, SeqHom)):
        raise InvalidArgument(f"posp needs a matrix or sequence homomorphism; {hom_name!r} acts on the integers")
    if isinstance(T, MatrixHom):
        oracle_n = T.n
    else:
        oracle_n = max(T.block_size, min(T.support_span() + 1, 8), 1)
    if oracle_n > ORACLE_DIM_CAP:
        raise InvalidArgument(
            f"posp {hom_name!r} needs the vertex oracle at dimension {oracle_n}, "
            f"above its cap of {ORACLE_DIM_CAP}"
        )
    pos = positive_part(T)
    rng = rng_for(seed)
    agree = 0
    total = 0
    checker = T if isinstance(T, MatrixHom) else truncation_matrix(T, oracle_n)
    pos_checker = checker.positive_part()
    window = Space.qn(oracle_n)
    for _ in range(cases):
        x = rand_pos_element(rng, window)
        total += 1
        if pos_checker.apply(x) == sup_over_interval_oracle(checker, x):
            agree += 1
    tail_ok = True
    if isinstance(T, SeqHom):
        # One generic coordinate stands in for the whole tail.
        t = T.diag.tail
        tail_ok = pos.diag.tail == max(t, Fraction(0))
    passed = agree == total and tail_ok
    result = {
        "positive_part": hom_to_obj(pos),
        "oracle_agreement": f"{agree}/{total}",
        "tail_agreement": tail_ok,
        "provenance": "positive-part closed form vs vertex-enumeration oracle",
    }
    report = {
        "command": "posp",
        "hom": hom_name,
        "seed": seed,
        "results": {f"posp:{hom_name}": result},
        "passed": passed,
    }
    return report, passed


def cmd_decompose(doc: SpecDoc, x_name: str, y1_name: str, y2_name: str):
    space = doc.space
    x, y1, y2 = doc.element(x_name), doc.element(y1_name), doc.element(y2_name)
    x1, x2 = riesz_decompose(space, x, y1, y2)
    audit = decomposition_failure(space, x, y1, y2, x1, x2) is None
    result = {
        "x1": _render_value(x1),
        "x2": _render_value(x2),
        "postconditions": "PASS" if audit else "FAIL",
        "provenance": "decomposition postconditions",
    }
    report = {
        "command": "decompose",
        "results": {f"decompose:{x_name}": result},
        "passed": audit,
    }
    return report, audit


def cmd_converge(doc: SpecDoc, net_name: str, mode: str, region_name: str | None, seed: int):
    net = doc.net(net_name)
    limit = net.target
    if limit is None:
        raise InvalidArgument(f"net {net_name!r} carries no target to converge to")
    if mode == "nr":
        if region_name is None:
            raise InvalidArgument("mode nr needs --region naming a set of kind nbhd")
        region = doc.set_desc(region_name)
        if not isinstance(region, NbhdSet):
            raise InvalidArgument(f"--region {region_name!r} must be a set of kind nbhd")
        cert = nr_converges(net, limit, region.nbhd)
    elif mode == "br":
        if region_name is None:
            raise InvalidArgument("mode br needs --region naming a bounded set")
        cert = br_converges(net, limit, doc.set_desc(region_name))
    elif mode == "cr":
        cert = cr_converges(net, limit)
    else:
        raise InvalidArgument(f"unknown mode {mode!r}")

    V = canonical_generator(net.codomain.topology, net.codomain.dim)
    W = V if mode == "cr" else None
    if cert.convergent:
        alpha0 = cert.alpha0_for(V, W)
        recheck = cert.verify_at(alpha0, V, W) and cert.verify_at(alpha0 + 7, V, W)
        result = {
            "verdict": "CONVERGENT",
            "canonical_target": nbhd_to_obj(V),
            "alpha0": alpha0,
            "recheck_at_alpha0_and_plus7": "PASS" if recheck else "FAIL",
            "provenance": "uniform-convergence definitions with certificate recheck",
        }
        passed = recheck
    else:
        refutes = cert.witness_refutes()
        result = {
            "verdict": "NOT_CONVERGENT",
            "witness": _maybe_nbhd(cert.witness),
            "witness_recheck": "PASS" if refutes else "FAIL",
            "provenance": "uniform-convergence definitions with witness recheck",
        }
        passed = refutes
    report = {
        "command": "converge",
        "net": net_name,
        "mode": mode,
        "results": {f"converge:{net_name}:{mode}": result},
        "passed": passed,
    }
    return report, passed


def cmd_gallery(seed: int, cases: int):
    _require_cases(cases)
    suite = run_all(seed=seed, cases=cases)
    results = {}
    for case in suite.cases:
        results[f"case:{case.case_id}"] = case.render()
    for law in suite.law_results:
        results[f"law:{law.name}"] = law.render()
    report = {
        "command": "gallery",
        "seed": seed,
        "cases": cases,
        "results": results,
        "passed": suite.passed,
    }
    return report, suite.passed


def cmd_run(doc: SpecDoc, seed: int, cases: int):
    """Execute every task listed in the spec file (their arguments are checked at parse time)."""
    merged: dict = {}
    all_passed = True
    for i, task in enumerate(doc.tasks):
        op = task["op"]
        name = task.get("name", f"{op}[{i}]")
        t_seed = task.get("seed", seed)
        t_cases = task.get("cases", cases)
        if op == "classify":
            sub, ok = cmd_classify(doc, task["hom"])
        elif op == "posp":
            sub, ok = cmd_posp(doc, task["hom"], t_seed, t_cases)
        elif op == "decompose":
            sub, ok = cmd_decompose(doc, task["x"], task["y1"], task["y2"])
        elif op == "converge":
            sub, ok = cmd_converge(doc, task["net"], task["mode"], task.get("region"), t_seed)
        else:
            sub, ok = cmd_laws(task["instance"], t_seed, t_cases)
        for key, value in sub["results"].items():
            merged[f"{name}:{key}"] = value
        all_passed = all_passed and ok
    report = {"command": "run", "seed": seed, "results": merged, "passed": all_passed}
    return report, all_passed


# ---------------------------------------------------------------------------
# Rendering and entry point.

def render_text(report: dict) -> str:
    lines = [f"# {report['command']}"]
    for key in report["results"]:
        entry = report["results"][key]
        status = entry.get("status") or entry.get("verdict") or entry.get("postconditions") or ""
        lines.append(f"{key}: {status}".rstrip())
        for field, value in entry.items():
            if field in ("status", "verdict"):
                continue
            lines.append(f"  {field}: {json.dumps(value, sort_keys=True)}")
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_machine(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="latring",
        description="Exact lattice-ring calculator: laws, classification, positive parts, convergence, gallery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cases", type=int, default=1000)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if spec:
            p.add_argument("--spec", required=True, help="path to a JSON spec file")

    p = sub.add_parser("laws", help="run the algebraic law suites on a shipped instance")
    p.add_argument("instance")
    common(p)

    p = sub.add_parser("classify", help="bounded-class label for a named homomorphism")
    p.add_argument("hom")
    common(p, spec=True)

    p = sub.add_parser("posp", help="positive part of a named homomorphism, with oracle cross-check")
    p.add_argument("hom")
    common(p, spec=True)

    p = sub.add_parser("decompose", help="split x against |y1|, |y2| and audit the postconditions")
    p.add_argument("x")
    p.add_argument("y1")
    p.add_argument("y2")
    common(p, spec=True)

    p = sub.add_parser("converge", help="convergence certificate for a named net")
    p.add_argument("net")
    p.add_argument("--mode", choices=("nr", "br", "cr"), required=True)
    p.add_argument("--region", help="named set: the neighborhood (nr) or bounded set (br)")
    common(p, spec=True)

    p = sub.add_parser("gallery", help="counterexample cases plus every module's law suite")
    common(p)

    p = sub.add_parser("run", help="execute the tasks section of a spec file")
    common(p, spec=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "laws":
            report, passed = cmd_laws(args.instance, args.seed, args.cases)
        elif args.command == "classify":
            report, passed = cmd_classify(load_specdoc(args.spec), args.hom)
        elif args.command == "posp":
            report, passed = cmd_posp(load_specdoc(args.spec), args.hom, args.seed, args.cases)
        elif args.command == "decompose":
            report, passed = cmd_decompose(load_specdoc(args.spec), args.x, args.y1, args.y2)
        elif args.command == "converge":
            report, passed = cmd_converge(load_specdoc(args.spec), args.net, args.mode, args.region, args.seed)
        elif args.command == "gallery":
            report, passed = cmd_gallery(args.seed, args.cases)
        else:
            report, passed = cmd_run(load_specdoc(args.spec), args.seed, args.cases)
        out = render_machine(report) if args.format == "machine" else render_text(report)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatringError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Arithmetic on long literals can outgrow the digit limit that
        # `scalars.read_rat` enforces on input; such a result cannot be printed.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has an integer beyond the {limit}-digit limit for printing", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
