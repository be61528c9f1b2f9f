"""Opt-in pytest plugin that fails the run if an executable line of
``src/m2dne`` never ran, or if an ``if`` or ``while`` statement there never
took one of its two outcomes.

    PYTHONPATH=src:tests python -m pytest -q -p line_trace

Load it into the whole tier-1 command: a run of some tests only leaves
lines unrun that others reach. A ``sys.settrace`` hook, also set for new
threads, records the line-to-line arcs of frames whose code lives under
``src/m2dne``, from before tests/conftest.py imports the package, so
module-level lines count. A module's executable lines are those in the line tables
(``co_lines``) of its compiled code objects. Code that tests run in a
subprocess is not traced, so every line must also run in the test process.

``ALLOWED`` names the lines that may stay unrun, and why. An allowed line
that runs, or that no longer exists, fails the run too, so the list
cannot go stale.

An ``if`` or ``while`` statement took its true outcome when an arc left a
line of its test for a line of its body, and its false outcome when an arc
left a line of its test for any other line outside the test (its ``else``,
the next statement, the loop around it) or for the frame's return. An arc
after an exception is not recorded, so a test that raises takes neither.
Two rules exempt an outcome, by the kind of statement, not by its line:
a ``while True:`` loop has no false outcome, and the true outcome of the
``if __name__ == "__main__":`` guard runs only under ``python -m``, which
the tests run in a subprocess.
"""

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "m2dne"
EXIT = 0    # the destination of an arc out of the frame: no line is 0

# (module file, name of the code object, stripped source line) -> reason
ALLOWED = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "the __main__ guard runs only under `python -m m2dne.cli`, and the "
        "tests that run the CLI that way run it in a subprocess",
    ("util.py", "resolve_workers", "return 1"):
        "only bench/run.py's environment record calls resolve_workers",
}


def executable_lines(path: Path) -> dict:
    """{line number: name of the innermost code object holding it}."""
    lines = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        for _, _, line in code.co_lines():
            if line:    # None, or 0 for a module's entry instruction
                lines[line] = code.co_name
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def branches(tree: ast.Module) -> list:
    """(statement, outcomes that must run) per ``if`` and ``while``
    statement, the outcomes a subset of (True, False) by the two rules."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)):
            test = ast.unparse(node.test)
            must = {True, False}
            if node in tree.body and test == "__name__ == '__main__'":
                must.discard(True)
            if isinstance(node, ast.While) and test == "True":
                must.discard(False)
            out.append((node, must))
    return out


def outcomes(node, arcs: set) -> set:
    """The outcomes the arcs ``(from line, to line)`` of the statement's
    file show it took."""
    test = range(node.lineno, node.test.end_lineno + 1)
    body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
    took = set()
    for src, dst in arcs:
        if src in test and dst not in test:
            took.add(dst in body)
    return took


def unrun_report(arcs: set) -> list:
    """One message per unrun line outside ALLOWED, per ALLOWED entry that
    ran or matches no line, and per outcome of an ``if`` or ``while`` that
    never ran; ``arcs`` holds (path, from line, to line) triples."""
    by_file = defaultdict(set)
    for path, src, dst in arcs:
        by_file[path].add((src, dst))
    problems, matched = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        ran = {dst for _, dst in by_file[str(path)]}
        for line, name in sorted(executable_lines(path).items()):
            key = (path.name, name, source[line - 1].strip())
            hit = line in ran
            if key in ALLOWED:
                matched.add(key)
                if hit:
                    problems.append(f"{path.name}:{line} is allowed to stay "
                                    f"unrun but ran: {key[2]}")
            elif not hit:
                problems.append(f"{path.name}:{line} never ran: {key[2]}")
        for node, must in branches(ast.parse(text)):
            for outcome in sorted(must - outcomes(node, by_file[str(path)])):
                problems.append(
                    f"{path.name}:{node.lineno} never took its "
                    f"{str(outcome).lower()} outcome: "
                    f"{source[node.lineno - 1].strip()}")
    problems += [f"allowed line not found: {key}"
                 for key in ALLOWED.keys() - matched]
    return problems


class LineTrace:
    """The arcs run, as (co_filename, from line, to line) triples, and the
    report made of them at the end of the session."""

    def __init__(self):
        self.arcs = set()
        self.inside = {}      # co_filename -> whether it lies under PACKAGE
        self.problems = []

    def start(self):
        arcs, inside = self.arcs, self.inside

        def calls(frame, event, arg):
            name = frame.f_code.co_filename
            if name not in inside:
                inside[name] = Path(os.path.realpath(name)).parent == PACKAGE
            if not inside[name]:
                return None
            last = None

            def lines(frame, event, arg):
                nonlocal last
                if event == "line":
                    arcs.add((name, last, frame.f_lineno))
                    last = frame.f_lineno
                elif event == "return":
                    arcs.add((name, last, EXIT))
                elif event == "exception":
                    last = None
                return lines

            return lines

        sys.settrace(calls)
        threading.settrace(calls)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)
        self.problems = unrun_report({(os.path.realpath(name), src, dst)
                                      for name, src, dst in self.arcs})
        if self.problems and exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.write_sep("=", "line trace of src/m2dne")
        for problem in self.problems:
            terminalreporter.write_line(problem)
        if not self.problems:
            terminalreporter.write_line(
                f"every executable line ran, but the {len(ALLOWED)} allowed, "
                f"and every if and while took both outcomes, but the exempt")


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    # before tests/conftest.py imports the package, so that its
    # module-level lines are traced too
    trace = LineTrace()
    early_config.pluginmanager.register(trace, "line_trace_state")
    trace.start()
