"""Spans around the calls the CLI makes into each layer of the package.

`Tracer.installed` replaces the module attributes through which one layer
calls the next (for example `debilandia.cli.recognize` or
`debilandia.engine.step`) with wrappers that record a span, and restores
them on exit. The package itself carries no tracing code. Spans are kept in
memory as [name, parent index, start, end, info] and summarized per pass.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

MB = 1e6


def _points(args, kwargs, result):
    return {"points": len(args[0]), "tiles": len(result.tiles), "junk": result.junk_cells}


def _step(args, kwargs, result):
    kind = type(result[1]).__name__
    return {"name": {"Fired": "engine.step.fire", "RuleCopied": "engine.step.copy"}.get(kind, "engine.step.halt")}


def _packets(args, kwargs, result):
    return {"packets": len(result)}


def _run(args, kwargs, result):
    cycle = result.status.value == "cycle"
    # run records one hash per generation plus the initial one; a cycle ends
    # on a hit that is not recorded
    return {"seen": result.generations_run + (0 if cycle else 1), "hits": int(cycle)}


def _probes(args, kwargs, result):
    return {"probes": result[1]}


def _touched(args, kwargs, result):
    # group_tuples and scan_tail return (..., ..., tokens touched)
    return {"tokens": result[2]}


def _covered(args, kwargs, result):
    return {"tokens": result}


def _ledger(args, kwargs, result):
    return {"bound_ratio": result.ledger.total_counted / result.bound}


# (module, attribute, span name, info from args and result)
PATCHES = (
    ("cli", "recognize", "grid.recognize", _points),
    ("cli", "run", "engine.run", _run),
    ("cli", "state_hash", "grid.state_hash", None),
    ("cli", "load_instance_file", "instances.load_instance_file", None),
    ("cli", "verify", "verifier.verify", _ledger),
    ("cli", "construct_certificate", "solver.construct_certificate", None),
    ("engine", "step", "engine.step", _step),
    ("engine", "state_hash", "grid.state_hash", None),
    ("engine", "scan_packets", "engine.scan_packets", _packets),
    ("verifier", "group_tuples", "instances.group_tuples", _touched),
    ("verifier", "check_coverage", "instances.check_coverage", _covered),
    ("verifier", "scan_tail", "instances.scan_tail", _touched),
    ("verifier", "recognize", "grid.recognize", _points),
    ("verifier", "extract_tm_counted", "embedding.extract_tm_counted", _probes),
    ("verifier", "run", "engine.run", _run),
    ("solver", "recognize", "grid.recognize", _points),
    ("solver", "run", "engine.run", _run),
    ("embedding", "extract_tm_counted", "embedding.extract_tm_counted", _probes),
)


class Tracer:
    def __init__(self, lib: SimpleNamespace):
        self.lib = lib
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.callback_runs: list[tuple] = []  # (state, max_gens) of runs given an on_step callback
        self.measure_memory = False

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, info: dict | None = None) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        self.stack.pop()
        if info:
            span[0] = info.pop("name", span[0])
            span[4] = info

    def _wrap(self, fn, name, describe):
        def traced(*args, **kwargs):
            # tracemalloc slows allocation-heavy code about tenfold, so it runs
            # only inside engine.run, and only when asked
            memory = self.measure_memory and name == "engine.run"
            index = self.open(name)
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] if memory else 0
            except BaseException as exc:
                self.close(index, {"raised": type(exc).__name__})
                raise
            finally:
                if memory:
                    tracemalloc.stop()
            info = describe(args, kwargs, result) if describe else {}
            if memory:
                info["peak_mb"] = peak / MB
            if name == "engine.run" and kwargs.get("on_step", args[2] if len(args) > 2 else None):
                info["callback"] = 1
                self.callback_runs.append(args[:2])
            self.close(index, info)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers; one wrapper per wrapped function."""
        wrappers, saved = {}, []
        try:
            for module_name, attr, name, describe in PATCHES:
                module = getattr(self.lib, module_name)
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, name, describe)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def rerun_without_callback(self) -> float:
        """Repeat each recorded callback run with no callback, under the same
        wrappers but into a discarded span list; returns their total time."""
        kept, self.spans, self.stack = self.spans, [], []
        total = 0.0
        try:
            with self.installed():
                for args in self.callback_runs:
                    start = time.perf_counter()
                    self.lib.engine.run(*args)
                    total += time.perf_counter() - start
        finally:
            self.spans, self.stack = kept, []
            self.callback_runs = []
        return total


# Per-layer metrics whose value is a count: each traced pass must give the same.
COUNTS = (
    "grid.state_hash.calls",
    "engine.step.calls",
    "engine.scan.packets_built",
    "engine.scan.useful_ratio",
    "engine.run.seen_entries",
    "engine.run.hash_hits",
    "embedding.extract_tm_counted.probes",
    "verifier.ledger.bound_ratio",
)


def op_counts(spans: list[list]) -> dict:
    """Exact counts of one operation's spans, for the cross-check against its output."""
    counts = Counter()
    for name, _, _, _, info in spans:
        info = info or {}
        if name.startswith("engine.step."):
            counts["steps"] += 1
        if name == "grid.recognize":
            counts["recognized"] += sum(info.get(k, 0) for k in ("points", "tiles", "junk"))
        if name == "embedding.extract_tm_counted":
            counts["probes"] += info.get("probes", 0)
            counts["extract_failed"] += "raised" in info
        if name in ("instances.group_tuples", "instances.check_coverage"):
            counts["pair_tokens"] += info.get("tokens", 0)
        if name == "instances.scan_tail":
            counts["fours"] += info.get("tokens", 0)
    return counts


def pass_metrics(spans: list[list], untraced_run_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    untraced_run_s is the time of the same callback runs repeated without a
    callback (engine.trace_overhead_s is the difference).
    """
    total, calls, info_sum = defaultdict(float), Counter(), defaultdict(float)
    child = defaultdict(float)
    root_total = 0.0
    callback_run_s = 0.0
    bound_ratio = 0.0
    for name, parent, start, end, info in spans:
        info = info or {}
        seconds = end - start
        total[name] += seconds
        calls[name] += 1
        if parent is None:
            root_total += seconds
        else:
            child[parent] += seconds
        for key, value in info.items():
            if isinstance(value, (int, float)):
                info_sum[f"{name}.{key}"] += value
        if info.get("callback"):
            callback_run_s += seconds
        bound_ratio = max(bound_ratio, info.get("bound_ratio", 0.0))
    self_s = defaultdict(float)
    for index, (name, parent, start, end, _) in enumerate(spans):
        if parent is None:
            self_s[name] += end - start - child[index]

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    fires = calls["engine.step.fire"]
    built = info_sum["engine.scan_packets.packets"]
    return {
        "grid.state_hash.calls": calls["grid.state_hash"],
        "grid.state_hash.us_per_call": per_call_us("grid.state_hash"),
        "grid.state_hash.share": rate(total["grid.state_hash"], root_total),
        "engine.step.calls": sum(calls[f"engine.step.{k}"] for k in ("fire", "copy", "halt")),
        "engine.step.fire.us_per_call": per_call_us("engine.step.fire"),
        "engine.step.copy.us_per_call": per_call_us("engine.step.copy"),
        "engine.scan.packets_built": int(built),
        "engine.scan.useful_ratio": rate(fires, built),
        "engine.run.s": total["engine.run"],
        "engine.run.seen_entries": int(info_sum["engine.run.seen"]),
        "engine.run.hash_hits": int(info_sum["engine.run.hits"]),
        "engine.trace_overhead_s": callback_run_s - untraced_run_s,
        "grid.recognize.s": total["grid.recognize"],
        "grid.recognize.points_per_s": rate(info_sum["grid.recognize.points"], total["grid.recognize"]),
        "embedding.extract_tm_counted.s": total["embedding.extract_tm_counted"],
        "embedding.extract_tm_counted.probes": int(info_sum["embedding.extract_tm_counted.probes"]),
        "instances.load_instance_file.s": total["instances.load_instance_file"],
        "instances.group_tuples.tokens_per_s": rate(
            info_sum["instances.group_tuples.tokens"], total["instances.group_tuples"]
        ),
        "instances.check_coverage.s": total["instances.check_coverage"],
        "instances.scan_tail.tokens_per_s": rate(info_sum["instances.scan_tail.tokens"], total["instances.scan_tail"]),
        "verifier.verify.s": total["verifier.verify"],
        "verifier.ledger.bound_ratio": bound_ratio,
        "solver.construct_certificate.s": total["solver.construct_certificate"],
        "cli.simulate.self_s": self_s["cli.simulate"],
        "cli.verify.self_s": self_s["cli.verify"],
        "cli.solve.self_s": self_s["cli.solve"],
    }


def run_peak_mb(spans: list[list]) -> float:
    return max((info.get("peak_mb", 0.0) for _, _, _, _, info in spans if info), default=0.0)


def medians(passes: list[dict]) -> dict:
    """Median of each timing over the passes; counts are the same in every pass."""
    return {key: passes[0][key] if key in COUNTS else statistics.median(p[key] for p in passes) for key in passes[0]}
