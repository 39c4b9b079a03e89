"""The benchmark's traced runs wrap package attributes from outside the package.

perfbench/spans.py replaces module attributes such as `engine.step` with
wrappers and counts `engine.step` calls against the generation attempts a
run reports. These tests keep a refactor from silently breaking that, and
run every benchmark workload once at its tiny sizes, so a name or flag the
benchmark uses cannot disappear unnoticed.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from corpus import ACCEPT_A, BOUNCE, ZERO_RUNNER, spec_with
from grammar_oracle import build_candidate, instance_obj
from debilandia.embedding import compile_direct
from debilandia.engine import RunStatus
from debilandia.grid import SquarePoints, recognize
from debilandia.instances import Certificate, Instance, load_instance_file

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_resolves(spans):
    for module, attr, _, _ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(f"debilandia.{module}"), attr, None)), (module, attr)


def traced_package(spans):
    lib = SimpleNamespace(**{m: importlib.import_module(f"debilandia.{m}") for m, *_ in spans.PATCHES})
    return lib, spans.Tracer(lib)


@pytest.mark.parametrize(
    "rules, tape, max_gens, status",
    [
        (ZERO_RUNNER, "0" * 9 + "1", 50, RunStatus.HALTED),
        (BOUNCE, "0" * 9 + "1", 50, RunStatus.CYCLE),
        (ZERO_RUNNER, "0" * 30 + "1", 12, RunStatus.BUDGET),
    ],
)
def test_run_calls_engine_step_once_per_generation_attempt(spans, atlas, rules, tape, max_gens, status):
    lib, tracer = traced_package(spans)
    state = recognize(compile_direct(spec_with(rules, tape), atlas), atlas)
    with tracer.installed():
        result = lib.engine.run(state, max_gens)
    assert result.status is status
    attempts = result.generations_run + (result.status is RunStatus.HALTED)
    assert spans.op_counts(tracer.spans)["steps"] == attempts


@pytest.mark.parametrize(
    "a_values, gens, verdict",
    [
        ((10, 11, 13, 16, 19, 20, 22), 9, "reject"),  # a skeleton with no machine on it
        (ACCEPT_A, 5000, "accept"),  # the four run spans more than one of scan_tail's slices
    ],
)
def test_verify_ledger_matches_traced_spans(spans, atlas, tmp_path, a_values, gens, verdict):
    # the traced benchmark checks c2_3, c4 and E against the spans of the
    # grammar and recognition calls; inlining one of them breaks this. It is
    # checked for the list and for the Certificate its file loads as, whose
    # pair section is proven on the text and never walked.
    inst = Instance(a_values)
    items = build_candidate(inst, gens, 25)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_obj(inst, items)))
    _, loaded = load_instance_file(path)
    assert type(loaded.prefix) is SquarePoints
    for certificate in (items, loaded):
        lib, tracer = traced_package(spans)
        with tracer.installed():
            report = lib.verifier.verify(inst, certificate, atlas).to_json_obj()
        assert report["verdict"] == verdict
        counts = spans.op_counts(tracer.spans)
        probes = 4 if counts["extract_failed"] else counts["probes"]  # c4 charges 4 when extraction fails
        assert counts["pair_tokens"] == report["counters"]["c2_3"]
        assert counts["recognized"] == report["counters"]["c4"] - probes
        assert counts["fours"] == report["E"] == gens


@pytest.fixture(scope="module")
def bench():
    """perfbench's run.py, which imports its sibling modules by plain name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["tape-sweep", "certificate-check", "rule-load"])
def test_every_workload_passes_at_tiny_sizes(bench, tmp_path, workload):
    assert workload in bench.workloads.WORKLOADS
    lib = SimpleNamespace(**{m: importlib.import_module(f"debilandia.{m}") for m in bench.MODULES})
    ops = bench.workloads.build(workload, 1, tmp_path, lib, bench.workloads.TINY)
    bench.workloads.work_out_answers(ops)
    checker = bench.Checker()
    # traced, so each call also runs untraced and its spans are cross-checked against its output
    bench.run_pass(lib, ops, checker, bench.spans.Tracer(lib))
    assert checker.attempted == 2 * len(ops)
    assert checker.failed == 0, checker.messages


def test_every_benchmarked_verify_loads_a_proven_certificate(bench, tmp_path):
    # certificate-check times verify on canonical files only, so every one
    # loads with its section proven on the text, never parsed whole
    lib = SimpleNamespace(**{m: importlib.import_module(f"debilandia.{m}") for m in bench.MODULES})
    ops = bench.workloads.build("certificate-check", 1, tmp_path, lib, bench.workloads.TINY)
    verifies = [op for op in ops if op.name.startswith("verify:")]
    assert verifies
    for op in verifies:
        _, loaded = load_instance_file(op.argv[op.argv.index("--instance") + 1])
        assert type(loaded) is Certificate and type(loaded.prefix) is SquarePoints, op.name
