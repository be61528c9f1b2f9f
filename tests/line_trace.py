"""Opt-in pytest plugin that fails the run if an executable line of
``src/m2dne`` never ran.

    PYTHONPATH=src:tests python -m pytest -q -p line_trace

Load it into the whole tier-1 command: a run of some tests only leaves
lines unrun that others reach. A ``sys.settrace`` hook, also set for new
threads, records the line events of frames whose code lives under
``src/m2dne``, from before tests/conftest.py imports the package, so
module-level lines count. A module's executable lines are those in the line tables
(``co_lines``) of its compiled code objects. Code that tests run in a
subprocess is not traced, so every line must also run in the test process.

``ALLOWED`` names the lines that may stay unrun, and why. An allowed line
that runs, or that no longer exists, fails the run too, so the list
cannot go stale.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "m2dne"

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


def unrun_report(ran: set) -> list:
    """One message per unrun line outside ALLOWED and per ALLOWED entry that
    ran or matches no line; ``ran`` holds (path, line) pairs."""
    problems, matched = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, name in sorted(executable_lines(path).items()):
            key = (path.name, name, source[line - 1].strip())
            hit = (str(path), line) in ran
            if key in ALLOWED:
                matched.add(key)
                if hit:
                    problems.append(f"{path.name}:{line} is allowed to stay "
                                    f"unrun but ran: {key[2]}")
            elif not hit:
                problems.append(f"{path.name}:{line} never ran: {key[2]}")
    problems += [f"allowed line not found: {key}"
                 for key in ALLOWED.keys() - matched]
    return problems


class LineTrace:
    """The lines run, as (co_filename, line number) pairs, and the report
    made of them at the end of the session."""

    def __init__(self):
        self.ran = set()
        self.inside = {}      # co_filename -> whether it lies under PACKAGE
        self.problems = []

    def start(self):
        ran, inside = self.ran, self.inside

        def lines(frame, event, arg):
            if event == "line":
                ran.add((frame.f_code.co_filename, frame.f_lineno))
            return lines

        def calls(frame, event, arg):
            name = frame.f_code.co_filename
            if name not in inside:
                inside[name] = Path(os.path.realpath(name)).parent == PACKAGE
            return lines if inside[name] else None

        sys.settrace(calls)
        threading.settrace(calls)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)
        self.problems = unrun_report({(os.path.realpath(name), line)
                                      for name, line in self.ran})
        if self.problems and exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.write_sep("=", "line trace of src/m2dne")
        for problem in self.problems:
            terminalreporter.write_line(problem)
        if not self.problems:
            terminalreporter.write_line(
                f"every executable line ran, but the {len(ALLOWED)} allowed")


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    # before tests/conftest.py imports the package, so that its
    # module-level lines are traced too
    trace = LineTrace()
    early_config.pluginmanager.register(trace, "line_trace_state")
    trace.start()
