"""Print the `src/latring` statements that no tier-1 test executes.

A `sys.settrace` line probe, re-armed around every test's setup and call
(and around collection, where the modules are imported), so a test that
resets the trace hook hides only its own lines, not the rest of the suite's.
Runs pytest on the repository's `tests/` tree, or on the pytest arguments
given, from a temporary directory with bytecode writing, the pytest cache and
the Hypothesis database off, so nothing is written into the checkout:

    python benchmarks/unhit_lines.py                 # about 90 s
    python benchmarks/unhit_lines.py tests/test_topology.py

Each unexecuted line prints as `path:line: source`, then a count.  Lines run
only by a subprocess (the CLI entry-point tests) show as unexecuted.  The
exit status is pytest's, so a failing suite is not mistaken for a probe.
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latring"
PREFIX = str(PACKAGE) + os.sep

hit: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    """Trace only frames whose code lives in the package; record the first line too."""
    if frame.f_code.co_filename.startswith(PREFIX):
        return _line
    return None


class Probe:
    """Arms the tracer before each phase that runs package code and disarms it after."""

    def _armed(self):
        sys.settrace(_call)
        try:
            yield
        finally:
            sys.settrace(None)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_collection(self, session):
        yield from self._armed()

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        yield from self._armed()

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        yield from self._armed()


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that the interpreter can report as executed."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    args = argv or [str(ROOT / "tests")]
    args = [str(Path(a).resolve()) if Path(a).exists() else a for a in args]
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # the Hypothesis database goes under the working directory
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[Probe()])
    unhit = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - {l for f, l in hit if f == str(path)}):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            unhit += 1
    print(f"{unhit} statement lines in src/latring executed by no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
