"""Smoke tests of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def declared(section: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == declared(section)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_outputs_repeat_for_a_seed_and_change_with_it():
    def digest(seed: str, trace: str) -> str:
        done = bench("--workload", "certificate-check", "--seed", seed, "--seconds", "0.1", "--trace", trace, "--tiny")
        assert done.returncode == 0, done.stderr
        return next(line.split()[1] for line in done.stdout.splitlines() if line.startswith("outputs_sha256"))

    assert digest("3", "0") == digest("3", "1")
    assert digest("3", "0") != digest("4", "0")


def test_wrong_expected_answer_counts_as_failed(tmp_path):
    lib = SimpleNamespace(**{m: importlib.import_module(f"debilandia.{m}") for m in run.MODULES})
    ops = workloads.build("tape-sweep", 1, tmp_path, lib, workloads.TINY)
    workloads.work_out_answers(ops)
    checker = run.Checker()
    run.run_pass(lib, ops, checker)
    assert checker.failed == 0, checker.messages

    ops[0].expect["summary"]["generations"] += 1
    run.run_pass(lib, ops, checker)
    assert checker.failed == 1 and checker.failed / checker.attempted > 0
    assert not checker.correct
    assert "summary.generations" in checker.messages[0]


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "tape-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
