"""Mutated copies of the shipped spec files against the CLI's exit-code contract.

Each example takes one file from `specs/`, makes one mutation (drop a key,
change a value's JSON type, put a float in, put a decimal or exponent string
where a rational literal goes, wrap a value in a list, or change the `dim`
of a Q^n space) and runs `latring run` on it.  The contract: no traceback,
an exit code in {0, 1, 2}, and exit 2 naming the section whenever the loader
refuses the file.  Floats and wrapped values are refused anywhere, a literal
outside the grammar `[+-]?[0-9]+(/[0-9]+)?` is refused wherever a literal
goes, and every shipped Q^n spec has matrices or elements that no longer fit
a changed `dim`.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from latring.cli import main
from latring.errors import LatringError
from latring.specfile import parse_specdoc

_REPO = Path(__file__).resolve().parents[1]
SPECS = {path.name: json.loads(path.read_text()) for path in sorted((_REPO / "specs").glob("*.json"))}

# Keys whose values are rational literals, or lists or lists of lists of them,
# and the integer literal of an element of Z.
LITERAL_KEYS = {"entries", "prefix", "tail", "rows", "block", "radii", "radius", "int"}
BAD_LITERALS = ["1e3", "1.5", "2E-1", ".5", "3.", "1e100000", "0x10", "1/2.0", "+-1", "½"]
FLOATS = [0.5, 2.0, -1.25, 1e300]
OTHER_TYPES = [0, "x", None, True, [], {}]


def _paths(node, path=()):
    """The path of every value below `node`, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _is_literal(path, value) -> bool:
    keys = [k for k in path if isinstance(k, str)]
    return isinstance(value, (str, int)) and not isinstance(value, bool) and keys[-1] in LITERAL_KEYS


def _section(path) -> str:
    """The section name a refusal of the value at `path` must carry."""
    if len(path) == 1 or path[0] in ("space", "codomain_space"):
        return path[0]
    if path[0] == "tasks":
        return f"tasks[{path[1]}]"
    return f"{path[0]}.{path[1]}"


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    doc = copy.deepcopy(SPECS[name])
    kinds = ["drop", "retype", "float", "literal", "wrap"] + (["dim"] if "dim" in doc["space"] else [])
    kind = draw(st.sampled_from(kinds))
    paths = list(_paths(doc))
    if kind == "dim":
        paths = [(("space", "dim"), doc["space"]["dim"])]
    elif kind == "drop":
        paths = [(p, v) for p, v in paths if isinstance(p[-1], str)]
    elif kind == "literal":
        paths = [(p, v) for p, v in paths if _is_literal(p, v)]
    path, value = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    must_refuse = True
    if kind == "drop":
        del parent[path[-1]]
        must_refuse = False
    elif kind == "retype":
        new = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
        parent[path[-1]] = new
        must_refuse = _is_literal(path, value) and type(new) is not int
    elif kind == "float":
        parent[path[-1]] = draw(st.sampled_from(FLOATS))
    elif kind == "literal":
        parent[path[-1]] = draw(st.sampled_from(BAD_LITERALS))
    elif kind == "dim":
        parent[path[-1]] = draw(st.sampled_from([v for v in (1, 3, 64) if v != value]))
    else:
        parent[path[-1]] = [value]
    # A changed dim is refused in whichever section first stops fitting.
    section = _section(path) if must_refuse and kind != "dim" else None
    return name, kind, path, doc, must_refuse, section


def _run(text: str):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--spec", str(path), "--format", "machine"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(mutations())
def test_mutated_spec_keeps_the_exit_code_contract(mutation):
    name, kind, path, doc, must_refuse, section = mutation
    text = json.dumps(doc)
    try:
        parse_specdoc(text)
        refused = False
    except LatringError:
        refused = True
    code, out, err = _run(text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if must_refuse:
        assert refused, f"{name}: {kind} at {path} was accepted"
    if section is not None:
        assert section in err
    if refused:
        assert code == 2 and out == "", f"{name}: {kind} at {path} exited {code}: {err}"
