"""Command-line front end.

Each subcommand (laws, classify, posp, decompose, converge, gallery, run) is
one row of `COMMANDS`: the parser, `main` and the tasks of `run` read it.
Reports are deterministic for a fixed seed; the machine format is canonical
JSON (sorted keys), so identical inputs give byte-identical output.  Exit
codes: 0 all checks pass, 1 an audit failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from .audits import get_instance, lattice_law_suite
from .elements import ZInt
from .errors import InputError, InvalidArgument, LatringError, NotBounded, SpecFileError
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
from .homspaces import classify, converges
from .sampling import rand_pos_element, rng_for
from .spaces import Space, SpaceKind
from .specfile import SpecDoc, element_to_obj, load_specdoc, set_to_obj
from .topology import canonical_generator


# ---------------------------------------------------------------------------
# Commands: each takes the spec document (None for a command without --spec)
# and its arguments as a dict, the parsed command line or a spec task laid
# over the run's seed and cases, and returns (results, passed flag).

def cmd_laws(doc: None, args: dict):
    instance_name = args["instance"]
    checks = lattice_law_suite(get_instance(instance_name), seed=args["seed"], cases=args["cases"])
    results = {f"laws:{instance_name}:{c.name}": c.render() for c in checks}
    return results, all(c.passed for c in checks)


def cmd_classify(doc: SpecDoc, args: dict):
    hom_name = args["hom"]
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
    return {f"classify:{hom_name}": result}, True


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
    return None if U is None else U.render()


def _render_value(x):
    """An integer of Z as its digits, any other element as its spec-file object."""
    return str(int(x)) if isinstance(x, ZInt) else element_to_obj(x)


def cmd_posp(doc: SpecDoc, args: dict):
    hom_name, seed, cases = args["hom"], args["seed"], args["cases"]
    T = doc.hom(hom_name)
    if doc.space.kind is SpaceKind.Z_DISCRETE:
        raise InvalidArgument(
            f"posp checks against rational probes, which Z does not hold; {hom_name!r} acts on the integers"
        )
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
        "positive_part": pos.render(),
        "oracle_agreement": f"{agree}/{total}",
        "tail_agreement": tail_ok,
        "provenance": "positive-part closed form vs vertex-enumeration oracle",
    }
    return {f"posp:{hom_name}": result}, passed


def cmd_decompose(doc: SpecDoc, args: dict):
    space = doc.space
    x, y1, y2 = doc.element(args["x"]), doc.element(args["y1"]), doc.element(args["y2"])
    x1, x2 = riesz_decompose(space, x, y1, y2)
    audit = decomposition_failure(space, x, y1, y2, x1, x2) is None
    result = {
        "x1": _render_value(x1),
        "x2": _render_value(x2),
        "postconditions": "PASS" if audit else "FAIL",
        "provenance": "decomposition postconditions",
    }
    return {f"decompose:{args['x']}": result}, audit


def cmd_converge(doc: SpecDoc, args: dict):
    net_name, mode, region_name = args["net"], args["mode"], args.get("region")
    net = doc.net(net_name)
    limit = net.target
    if limit is None:
        raise InvalidArgument(f"net {net_name!r} carries no target to converge to")
    region = None if region_name is None else doc.set_desc(region_name)
    try:
        cert = converges(net, limit, mode, region)
    except NotBounded as exc:
        raise NotBounded(f"region {region_name!r}: {exc}") from None

    # The canonical generator is the target V and, for cr, the outer W too.
    V = canonical_generator(net.codomain.topology, net.codomain.dim)
    if cert.convergent:
        checks = cert.recheck(V, V)
        passed = all(checks.values())
        result = {
            "verdict": "CONVERGENT",
            "canonical_target": V.render(),
            "alpha0": next(iter(checks)),
            "recheck_at_alpha0_and_plus7": "PASS" if passed else "FAIL",
            "provenance": "uniform-convergence definitions with certificate recheck",
        }
    else:
        passed = cert.witness_refutes()
        result = {
            "verdict": "NOT_CONVERGENT",
            "witness": _maybe_nbhd(cert.witness),
            "witness_recheck": "PASS" if passed else "FAIL",
            "provenance": "uniform-convergence definitions with witness recheck",
        }
    return {f"converge:{net_name}:{mode}": result}, passed


def cmd_gallery(doc: None, args: dict):
    suite = run_all(seed=args["seed"], cases=args["cases"])
    results = {f"case:{case.case_id}": case.render() for case in suite.cases}
    results.update({f"law:{law.name}": law.render() for law in suite.law_results})
    return results, suite.passed


def cmd_run(doc: SpecDoc, args: dict):
    """Run each task's command with the task's arguments; an input error names its task."""
    merged: dict = {}
    all_passed = True
    for i, task in enumerate(doc.tasks):
        try:
            results, ok = COMMANDS[task["op"]].run(doc, {"seed": args["seed"], "cases": args["cases"], **task})
        except InputError as exc:
            raise SpecFileError(f"tasks[{i}]: {exc}") from exc
        merged.update({f"{task['name']}:{key}": value for key, value in results.items()})
        all_passed = all_passed and ok
    return merged, all_passed


class Command(NamedTuple):
    run: Callable  # (doc, args) -> (results, passed)
    positional: tuple[str, ...]
    spec: bool  # reads --spec
    echo: tuple[str, ...]  # arguments the report repeats ahead of its results
    help: str
    options: tuple = ()  # (flag, add_argument keywords) ahead of the common options


# One row per command, in `--help` order.
COMMANDS = {
    "laws": Command(cmd_laws, ("instance",), False, ("instance", "seed", "cases"),
                    "run the algebraic law suites on a shipped instance"),
    "classify": Command(cmd_classify, ("hom",), True, ("hom",),
                        "bounded-class label for a named homomorphism"),
    "posp": Command(cmd_posp, ("hom",), True, ("hom", "seed"),
                    "positive part of a named homomorphism, with oracle cross-check"),
    "decompose": Command(cmd_decompose, ("x", "y1", "y2"), True, (),
                         "split x against |y1|, |y2| and audit the postconditions"),
    "converge": Command(cmd_converge, ("net",), True, ("net", "mode"),
                        "convergence certificate for a named net",
                        (("--mode", {"choices": ("nr", "br", "cr"), "required": True}),
                         ("--region", {"help": "named set: the neighborhood (nr) or bounded set (br)"}))),
    "gallery": Command(cmd_gallery, (), False, ("seed", "cases"),
                       "counterexample cases plus every module's law suite"),
    "run": Command(cmd_run, (), True, ("seed",), "execute the tasks section of a spec file"),
}


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.positional:
            p.add_argument(arg)
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cases", type=int, default=1000)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if command.spec:
            p.add_argument("--spec", required=True, help="path to a JSON spec file")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = COMMANDS[args["command"]]
    try:
        doc = load_specdoc(args["spec"]) if command.spec else None
        if args["cases"] < 1:
            raise InvalidArgument(f"--cases must be a positive integer, got {args['cases']}")
        results, passed = command.run(doc, args)
        echoed = {key: args[key] for key in command.echo}
        report = {"command": args["command"], **echoed, "results": results, "passed": passed}
        out = render_machine(report) if args["format"] == "machine" else render_text(report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatringError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # Input nested deeper than the interpreter's stack lets the library evaluate it.
        print("error: input nested too deeply to evaluate", file=sys.stderr)
        return 2
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
