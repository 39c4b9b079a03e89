"""The benchmark's traced runs wrap package attributes from outside the package.

perfbench/spans.py replaces module attributes such as `engine.step` with
wrappers and counts `engine.step` calls against the generation attempts a
run reports. These tests keep a refactor from silently breaking that.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from corpus import BOUNCE, ZERO_RUNNER, spec_with
from debilandia.embedding import compile_direct
from debilandia.engine import RunStatus
from debilandia.grid import recognize

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_resolves(spans):
    for module, attr, _, _ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(f"debilandia.{module}"), attr, None)), (module, attr)


@pytest.mark.parametrize(
    "rules, tape, max_gens, status",
    [
        (ZERO_RUNNER, "0" * 9 + "1", 50, RunStatus.HALTED),
        (BOUNCE, "0" * 9 + "1", 50, RunStatus.CYCLE),
        (ZERO_RUNNER, "0" * 30 + "1", 12, RunStatus.BUDGET),
    ],
)
def test_run_calls_engine_step_once_per_generation_attempt(spans, atlas, rules, tape, max_gens, status):
    lib = SimpleNamespace(**{m: importlib.import_module(f"debilandia.{m}") for m, *_ in spans.PATCHES})
    tracer = spans.Tracer(lib)
    state = recognize(compile_direct(spec_with(rules, tape), atlas), atlas)
    with tracer.installed():
        result = lib.engine.run(state, max_gens)
    assert result.status is status
    attempts = result.generations_run + (result.status is RunStatus.HALTED)
    assert spans.op_counts(tracer.spans)["steps"] == attempts
