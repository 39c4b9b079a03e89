"""A pytest plugin that fails the run when a function of the package never starts.

Load it with `-p uncalled`, tests/ on sys.path, on Python 3.12 or later, for
a run of the whole suite. Its sys.monitoring (PEP 669) PY_START callback is
installed when the plugin is imported, before the package is, so code that
runs at package import counts too. The callback notes the code object and
returns DISABLE, so each code object costs one event. When the session
ends, every code object compiled from the package's source with
CO_OPTIMIZED set (functions, lambdas and generator expressions; module and
class bodies are not) that never started is named, and the run fails.
UNCALLED_OK names the functions only the benchmark calls.
"""

from __future__ import annotations

import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import pytest

UNCALLED_OK = {"engine.py:scan_packets"}  # perfbench/spans.py wraps it; no package code calls it

_TOOL = sys.monitoring.COVERAGE_ID
_started = set()
_MISSING = pytest.StashKey[list]()


def _note(code, offset):
    _started.add(code)
    return sys.monitoring.DISABLE


sys.monitoring.use_tool_id(_TOOL, "uncalled")
sys.monitoring.register_callback(_TOOL, sys.monitoring.events.PY_START, _note)
sys.monitoring.set_events(_TOOL, sys.monitoring.events.PY_START)


def _functions(code):
    """The code objects with CO_OPTIMIZED set nested in code, at any depth."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def uncalled() -> list[str]:
    """`file:qualname (line n)` of each package function that has not started, less UNCALLED_OK."""
    import debilandia

    started = {(code.co_filename, code.co_firstlineno, code.co_qualname) for code in _started}
    missing = []
    for path in sorted(Path(debilandia.__file__).parent.glob("*.py")):
        for code in _functions(compile(path.read_text(), str(path), "exec")):
            name = f"{path.name}:{code.co_qualname}"
            if (str(path), code.co_firstlineno, code.co_qualname) not in started and name not in UNCALLED_OK:
                missing.append(f"{name} (line {code.co_firstlineno})")
    return missing


def pytest_sessionfinish(session):
    sys.monitoring.set_events(_TOOL, 0)
    session.config.stash[_MISSING] = missing = uncalled()
    if missing:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    missing = config.stash.get(_MISSING, [])
    if missing:
        terminalreporter.section("package functions no test calls", red=True)
        for name in missing:
            terminalreporter.line(name)
