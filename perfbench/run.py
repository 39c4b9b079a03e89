#!/usr/bin/env python3
"""End-to-end benchmark of the debilandia CLI, with an optional traced run.

    python3 perfbench/run.py --workload tape-sweep --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each pass calls `debilandia.cli.main`
in-process once per operation of the workload, in a fixed order, and checks
every output against an independently derived answer and against the first
pass byte for byte. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones (see perfbench/README.md).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The package is imported from the checkout's src/ directory only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "engine", "grid", "embedding", "instances", "verifier", "solver", "tiles", "tm")
SETUP_REPEATS = 21

# Every timing is reported in reference seconds: host seconds scaled by how
# long a fixed pure-Python loop takes right next to the timed call, relative
# to CALIBRATION_S. On a 2-core shared virtual machine identical calls ran
# 20-35% slower for minutes at a time (CPU time equal to wall time), which no
# number of passes in a run averages out. perfbench/BASELINE.json records the
# spread over ten seeds of wall_s in host seconds (host_wall_s) beside that of
# wall_s in reference seconds.
CALIBRATION_S = 0.001  # the loop's time on the reference host


def calibrate() -> float:
    """Median of three timings of the reference loop (dict, tuple and sort
    work, about 1 ms each)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table = {(i, i & 7): i for i in range(3000)}
        ordered = sorted(dict(table), key=lambda key: key[1])
        times.append(time.perf_counter() - start)
        if len(ordered) != len(table):
            raise AssertionError("calibration loop lost keys")
    return statistics.median(times)


def import_package() -> SimpleNamespace:
    """Import the package afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "debilandia" or m.startswith("debilandia.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"debilandia.{m}") for m in MODULES})
    if Path(lib.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"debilandia was imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def setup(workload: str, seed: int, work: Path, sizes: workloads.Sizes):
    """Import, atlas load and input generation, repeated; returns the median
    time in reference seconds. The expected answers are worked out after the
    last repeat, outside the timed region."""
    times = []
    for i in range(SETUP_REPEATS):
        root = work / f"inputs-{i}"
        root.mkdir()
        before = calibrate()
        start = time.perf_counter()
        lib = import_package()
        ops = workloads.build(workload, seed, root, lib, sizes)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * CALIBRATION_S / (before + calibrate()))
        if i:
            shutil.rmtree(work / f"inputs-{i - 1}")
    workloads.work_out_answers(ops)
    return statistics.median(times), lib, ops


def call(lib, op: workloads.Op, tracer: spans.Tracer | None = None) -> workloads.Result:
    for path in op.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    wrappers = tracer.installed() if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), wrappers:
        root = tracer.open(f"cli.{op.command}") if tracer else None
        start = time.perf_counter()
        try:
            rc = lib.cli.main(op.argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            rc = None
            traceback.print_exc()
        finally:
            seconds = time.perf_counter() - start
            if tracer:
                tracer.close(root)
    files = {p.name: p.read_bytes() if p.exists() else None for p in op.outputs}
    # messages name output paths, which hold the process id; keep the digest free of them
    stdout, stderr = (text.getvalue().replace(str(op.root), "<inputs>") for text in (out, err))
    return workloads.Result(rc, stdout, stderr, files, seconds)


class Checker:
    """Counts operations attempted and failed; a failure is never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reference: dict[str, str] = {}
        self.failed_checks = 0  # run-level checks, such as counts that differ between passes

    def record(self, op: workloads.Op, result: workloads.Result, problems: list[str]) -> None:
        fingerprint = result.fingerprint()
        if self.reference.setdefault(op.name, fingerprint) != fingerprint:
            problems.append("output differs from the first pass")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{op.name}: {'; '.join(problems)}")

    def fail(self, message: str) -> None:
        self.failed_checks += 1
        self.messages.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.failed_checks == 0

    def digest(self) -> str:
        """One hash over every operation's output; equal seeds give equal digests."""
        text = "".join(f"{name}={self.reference[name]}\n" for name in sorted(self.reference))
        return hashlib.sha256(text.encode()).hexdigest()


def cross_check(op: workloads.Op, result: workloads.Result, counts) -> list[str]:
    """Counts seen by the spans must equal the counts in the call's own output."""
    problems = []
    if op.command in ("simulate", "verify"):
        attempts = workloads.generation_attempts(op, result)
        if counts["steps"] != attempts:
            problems.append(f"traced {counts['steps']} steps, output reports {attempts} generation attempts")
    if op.command == "verify":
        report = json.loads(result.files[op.outputs[0].name])
        counters = report["counters"]
        # c4 charges points, tiles and junk cells, then the probes, or 4 when extraction fails
        probes = 4 if counts["extract_failed"] else counts["probes"]
        seen = {"c2_3": counts["pair_tokens"], "c4": counts["recognized"] + probes, "E": counts["fours"]}
        want = {"c2_3": counters["c2_3"], "c4": counters["c4"], "E": report["E"]}
        problems += [f"traced {k} = {seen[k]}, report says {want[k]}" for k in seen if seen[k] != want[k]]
    return problems


def checked_call(lib, op: workloads.Op, checker: Checker, tracer: spans.Tracer | None = None) -> workloads.Result:
    first = len(tracer.spans) if tracer else 0
    result = call(lib, op, tracer)
    problems = workloads.check(op, result)
    if tracer and not problems:
        problems = cross_check(op, result, spans.op_counts(tracer.spans[first:]))
    checker.record(op, result, problems)
    return result


def run_pass(lib, ops, checker: Checker, tracer: spans.Tracer | None = None, flip: int = 0):
    """Call every operation once and check it; each result carries the scale
    from its host seconds to reference seconds, from the loop timed on either side.

    With a tracer the calls are traced, and each is paired with the same call
    untraced, right before it or right after it as `flip` and the operation's
    index alternate; the loop is timed between the two as well. Returns the
    traced (or only) results and the untraced twins' reference seconds.
    """
    results, untraced = [], 0.0
    before = calibrate()
    for i, op in enumerate(ops):
        order = [tracer]
        if tracer:
            order.insert((i + flip) % 2, None)  # the untraced twin
        for traced_by in order:
            result = checked_call(lib, op, checker, traced_by)
            after = calibrate()
            result.scale = 2 * CALIBRATION_S / (before + after)
            before = after
            if traced_by is tracer:
                results.append(result)
            else:
                untraced += result.ref_seconds
    return results, untraced


def reported_attempts(ops, results) -> list[int]:
    """Generation attempts each correct output reports; 0 for a wrong one."""
    return [0 if workloads.check(op, r) else workloads.generation_attempts(op, r) for op, r in zip(ops, results)]


def end_to_end(lib, ops, checker: Checker, seconds: float) -> dict:
    reference, _ = run_pass(lib, ops, checker)  # warm-up; also the byte-for-byte reference
    gens = sum(reported_attempts(ops, reference))
    tokens = sum(op.tokens for op in ops)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(lib, ops, checker)[0])
    walls = [sum(r.ref_seconds for r in p) for p in passes]
    per_op = [statistics.median(p[i].ref_seconds for p in passes) for i in range(len(ops))]
    return {
        "wall_s": statistics.median(walls),
        "gens_per_s": statistics.median(gens / w for w in walls),
        "tokens_per_s": statistics.median(tokens / w for w in walls),
        "op_s.p50": statistics.median(per_op),
        "op_s.max": max(per_op),
        # peak resident set of this process, which runs this one workload (KiB on Linux)
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / spans.MB,
        "passes": len(passes),
        "host_wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
    }


def per_layer(lib, ops, checker: Checker, seconds: float, declared: dict) -> dict:
    reference, _ = run_pass(lib, ops, checker)  # warm-up; also the byte-for-byte reference
    tracer = spans.Tracer(lib)
    traced_s = untraced_s = 0.0
    layers = []
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() < deadline:
        tracer.spans = []
        results, untraced = run_pass(lib, ops, checker, tracer, flip=len(layers) % 2)
        rerun_s = tracer.rerun_without_callback()
        host = sum(r.seconds for r in results)
        scale = sum(r.ref_seconds for r in results) / host
        traced_s, untraced_s = traced_s + host * scale, untraced_s + untraced
        layers.append(to_reference(spans.pass_metrics(tracer.spans, rerun_s), scale, declared))
    for key in spans.COUNTS:
        values = {p[key] for p in layers}
        if len(values) > 1:
            checker.fail(f"{key} differs between traced passes: {sorted(values)}")
    metrics = spans.medians(layers)
    # allocation peak of engine.run, under tracemalloc, on the operation that
    # runs the most generations (the first of equals)
    attempts = reported_attempts(ops, reference)
    op = ops[attempts.index(max(attempts))]
    tracer.spans, tracer.measure_memory = [], True
    result = call(lib, op, tracer)
    checker.record(op, result, workloads.check(op, result))
    metrics["engine.run.peak_mem_mb"] = spans.run_peak_mb(tracer.spans)
    # every traced call against its untraced twin, in reference seconds, summed over the run
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    metrics["passes"] = len(layers)
    return metrics


def to_reference(metrics: dict, scale: float, declared: dict) -> dict:
    """Scale host-second timings (s, us) and rates (1/s) to reference seconds."""
    power = {"s": 1, "us": 1, "1/s": -1}
    return {k: v * scale ** power.get(declared[k][0], 0) for k, v in metrics.items()}


def units() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, section) as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], section) for section in ("end_to_end", "per_layer") for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes: a run takes seconds")
    args = parser.parse_args(argv)
    sizes = workloads.TINY if args.tiny else workloads.FULL

    if not (SRC / "debilandia" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = units()
    os.environ.pop("DEBILANDIA_ATLAS", None)  # the workloads use the packaged atlas
    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s, lib, ops = setup(args.workload, args.seed, work, sizes)
        checker = Checker()
        if args.trace:
            measured = per_layer(lib, ops, checker, args.seconds, declared)
        else:
            measured = end_to_end(lib, ops, checker, args.seconds) | {"setup_s": setup_s}
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [name for name, (_, s) in declared.items() if s == section]
    missing = [name for name in wanted if name not in measured]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for message in checker.messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}, {measured['passes']} passes of {len(ops)} operations")
    print(f"# timings in reference seconds (the calibration loop takes {CALIBRATION_S * 1e3:g} ms)")
    if "host_wall_s" in measured:
        print(f"{'wall_s in host seconds':40s} {measured['host_wall_s']:>16.6g} s")
    for name in wanted:
        print(f"{name:40s} {measured[name]:>16.6g} {declared[name][0]}")
    print(f"{'fail_ratio':40s} {checker.failed / checker.attempted:>16.6g} ratio")
    print(f"outputs_sha256 {checker.digest()}")
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {name: {"value": measured[name], "unit": declared[name][0]} for name in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
