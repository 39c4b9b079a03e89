"""Seeded inputs, CLI operations and their independently derived answers.

Each workload is a list of `Op`s: one `debilandia` CLI invocation, the input
files it reads, and the answer it must give. `build` writes the inputs;
`work_out_answers` fills in the answers afterwards, so that the timed set-up
never includes them. Answers come from the two-state Turing machine
interpreter (`tm`), from the atlas data and from the closed forms of the
certificate grammar; the engine, recognizer, verifier and solver under
measurement are never used to compute them.
The seed changes board translations, point order, rule bits, the sets A,
the generation counts and the markers, but not the amount of work, so runs
on different seeds measure the same thing.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("tape-sweep", "certificate-check", "rule-load")

# Pinned explicitly (it is also the CLI's default) so the workloads stay fixed.
MAX_GENS = 1000
RESERVED = frozenset({2, 4, 5, 7, 25, 43})
CELL = 4

# The hand-derived accepting instance: its A x A points recognize to a tape
# tile, the tip stack and one complete packet, and the game halts on its
# first read, so any certificate with E >= 1 and marker 25 is accepted.
ACCEPT_A = (51, 54, 55, 56, 59, 60, 61, 62, 63, 65, 67, 68, 69, 71, 72, 74)


@dataclass(frozen=True)
class Sizes:
    tape_len: int  # L: tape-sweep boards read "0"*L + "1"
    rule_packets: int  # K: rule-load packets loaded from tape
    payload: int  # P: rule-load payload zeros
    skeleton_sizes: tuple[int, ...]  # |A| of the rejected skeletons
    accept_gens: int  # E of the accepted fixture


FULL = Sizes(tape_len=400, rule_packets=100, payload=100, skeleton_sizes=(200, 400), accept_gens=10**6)
TINY = Sizes(tape_len=12, rule_packets=4, payload=6, skeleton_sizes=(8, 12), accept_gens=50)


@dataclass
class Op:
    """One CLI call and the answer it must give.

    `answer` works out `expect` (see `work_out_answers`). expect keys: rc (exit code), summary (subset of the simulate JSON line),
    report (subset of the report file), certificate (the solved file's JSON,
    or None when no file may be written), stderr_prefix.
    """

    name: str
    argv: list[str]
    tokens: int  # integers the call reads from its input files and flags
    answer: Callable[[], dict]
    root: Path  # the directory holding the inputs and outputs
    outputs: tuple[Path, ...] = ()
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    files: dict[str, bytes | None] = field(default_factory=dict)
    seconds: float = 0.0  # host seconds
    scale: float = 1.0  # host seconds -> reference seconds, from the calibration loop

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for part in (str(self.rc), self.stdout, self.stderr):
            digest.update(part.encode() + b"\0")
        for name in sorted(self.files):
            digest.update(name.encode() + b"\0" + (self.files[name] or b"<absent>") + b"\0")
        return digest.hexdigest()


def _report(op: Op, result: Result) -> dict | None:
    path = next((p for p in op.outputs if p.name.startswith("report")), None)
    raw = result.files.get(path.name) if path else None
    return json.loads(raw) if raw else None


def check(op: Op, result: Result) -> list[str]:
    """Every way the result disagrees with the expected answer."""
    want = op.expect
    problems = []
    if result.rc != want["rc"]:
        problems.append(f"exit code {result.rc}, expected {want['rc']}")
    if "summary" in want:
        try:
            summary = json.loads(result.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return problems + ["no JSON summary on stdout"]
        problems += _diff("summary", summary, want["summary"])
    if "report" in want:
        report = _report(op, result)
        if report is None:
            return problems + ["no report file"]
        problems += _diff("report", report, want["report"])
        if report.get("total_counted", 0) > report.get("bound", -1):
            problems.append("total_counted exceeds the 2N^2+33N bound")
        verdict = {k: report.get(k) for k in ("verdict", "reason", "step")}
        if result.stdout.strip() != json.dumps(verdict, sort_keys=True):
            problems.append("stdout verdict differs from the report")
    if "certificate" in want:
        raw = next(iter(result.files.values()), None)
        got = json.loads(raw) if raw else None
        if got != want["certificate"]:
            problems.append("solved certificate differs from the expected one")
    if "stderr_prefix" in want and not result.stderr.startswith(want["stderr_prefix"]):
        problems.append(f"stderr {result.stderr.strip()[:80]!r} lacks {want['stderr_prefix']!r}")
    return problems


def _diff(label: str, got: dict, want: dict) -> list[str]:
    return [f"{label}.{k} = {got.get(k)!r}, expected {v!r}" for k, v in want.items() if got.get(k) != v]


def generation_attempts(op: Op, result: Result) -> int:
    """Generations the engine attempted, read off the call's own output.

    simulate: successful generations plus the terminating attempt of a halt;
    verify: the phase-5 counter minus the E fours and its constant 1; solve
    reports no run, so it counts none.
    """
    if op.command == "simulate":
        summary = json.loads(result.stdout.strip().splitlines()[-1])
        return summary["generations"] + (summary["status"] == "halted")
    if op.command == "verify":
        report = _report(op, result)
        return report["counters"]["c5"] - report["E"] - 1
    return 0


def build(workload: str, seed: int, root: Path, lib: SimpleNamespace, sizes: Sizes = FULL) -> list[Op]:
    """Write the workload's input files under root and return its operations,
    their answers not yet worked out."""
    rng = random.Random(f"{workload}:{seed}")
    atlas = lib.tiles.atlas_default()
    if workload == "tape-sweep":
        return _tape_sweep(rng, root, lib, atlas, sizes)
    if workload == "certificate-check":
        return _certificate_check(rng, root, lib, atlas, sizes)
    if workload == "rule-load":
        return _rule_load(rng, root, lib, atlas, sizes)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def work_out_answers(ops: list[Op]) -> None:
    """Fill in every operation's expected answer, running the oracle."""
    for op in ops:
        op.expect = op.answer()


# ---------------------------------------------------------------- boards


def _tape_sweep(rng, root, lib, atlas, sizes):
    Rule, TmSpec = lib.tm.Rule, lib.tm.TmSpec
    right, left = lib.tm.MOVE_RIGHT, lib.tm.MOVE_LEFT
    machines = {
        # walks right over the zeros and halts on the 1 after L generations
        "zero-runner": (Rule(0, 0, 0, 0, right),),
        # walks right to the 1, then bounces between it and its left neighbour
        "bounce": (Rule(0, 0, 0, 0, right), Rule(1, 0, 1, 1, left), Rule(0, 1, 0, 0, right)),
    }
    tape = "0" * sizes.tape_len + "1"
    ops = []
    for name, rules in machines.items():
        spec = TmSpec(rules, tape)
        points = lib.embedding.compile_direct(spec, atlas)
        tiles = len(tape) + 3 + 5 * len(rules)
        ops.append(_simulate_op(name, root, rng, points, partial(_board_answer, lib.tm, spec, tiles, 0)))
    return ops


def _rule_load(rng, root, lib, atlas, sizes):
    # One board per pass: each call takes about a second, and a single
    # operation gives op_s twice the samples that two boards would.
    Rule, TmSpec = lib.tm.Rule, lib.tm.TmSpec
    # K-1 packets keyed on state 1, which the machine never enters, sit
    # below the one rule that fires; every fire scans the whole stack.
    never = [
        Rule(rng.randrange(2), 1, rng.randrange(2), rng.randrange(2), rng.randrange(2))
        for _ in range(sizes.rule_packets - 1)
    ]
    rules = never + [Rule(0, 0, 0, 0, lib.tm.MOVE_LEFT)]
    payload = "1" + "0" * sizes.payload
    cells = _tape_loaded_cells(lib.tiles, rules, payload)
    points = {(CELL * col + dx, CELL * row + dy) for (col, row), kind in cells.items() for dx, dy in atlas.points(kind)}
    # The scan is bottom-up and the first loaded packet is the lowest, so the
    # first rule of each (read, state) key is the one that can fire.
    first = {}
    for rule in rules:
        first.setdefault((rule.read, rule.state), rule)
    spec = TmSpec(tuple(first.values()), payload, head=len(payload) - 1)
    answer = partial(_board_answer, lib.tm, spec, len(cells), 5 * len(rules))
    return [_simulate_op("rules", root, rng, points, answer)]


def _tape_loaded_cells(tiles, rules, payload):
    """The layout compile_universal produces, for rule lists with repeated keys.

    Row 0 holds the payload followed by the rule tokens in reverse
    consumption order; the tip, read placeholder and status 0 stand over the
    rightmost token.
    """
    tokens = []
    for rule in rules:
        tokens += [
            tiles.read_tile(rule.read),
            tiles.status_tile(rule.state),
            tiles.write_tile(rule.write),
            tiles.change_tile(rule.next_state),
            tiles.move_tile(1 - rule.move),
        ]
    row = [tiles.tape_tile(int(ch)) for ch in payload] + tokens[::-1]
    cells = {(col, 0): kind for col, kind in enumerate(row)}
    tip = len(row) - 1
    cells[(tip, 1)] = tiles.TileKind.TIP
    cells[(tip, 2)] = tiles.read_tile(0)
    cells[(tip, 3)] = tiles.status_tile(0)
    return cells


def _board_answer(tm, spec, tiles: int, loading_gens: int) -> dict:
    """The simulate summary fields the oracle fixes for a compiled machine.

    The board state is the tape seen from the fixed tip, the status tile and
    the read slot, so the oracle keys configurations on (tape, head, state,
    last read) to find the board's first exact repeat.
    """
    config, last_read = tm.initial_config(spec), 0
    seen = {}
    for n in range(MAX_GENS - loading_gens + 1):
        key = (frozenset(config.cells.items()), config.head, config.state, last_read)
        if key in seen:
            first = seen[key]
            status = {"status": "cycle", "reason": None, "period": n - first, "first_index": loading_gens + first}
            return _summary(status, loading_gens + n, tiles)
        seen[key] = n
        if not 0 <= config.head < len(spec.tape):
            raise ValueError("the head left the compiled tape; lengthen the tape")
        nxt = tm.tm_step(spec, config)
        if nxt is None:
            status = {"status": "halted", "reason": "no_matching_packet", "period": None, "first_index": None}
            return _summary(status, loading_gens + n, tiles)
        config, last_read = nxt, config.read()
    raise ValueError(f"the machine neither halts nor repeats within {MAX_GENS} generations")


def _summary(status: dict, generations: int, tiles: int) -> dict:
    return {**status, "generations": generations, "tiles": tiles, "junk_cells": 0}


def _simulate_op(name, root, rng, points, summary: Callable[[], dict]) -> Op:
    # A seeded translation moves the anchor (and so every state hash) without
    # changing the work; the point order in the file is shuffled too.
    ox, oy = rng.randrange(10**5, 10**6), rng.randrange(10**5, 10**6)
    shifted = [[x + ox, y + oy] for x, y in sorted(points)]
    rng.shuffle(shifted)
    path = root / f"{name}.points.json"
    path.write_text(json.dumps({"points": shifted}))
    argv = ["simulate", "--points", str(path), "--max-gens", str(MAX_GENS)]
    return Op(f"simulate:{name}", argv, 2 * len(shifted), lambda: {"rc": 0, "summary": summary()}, root)


# ---------------------------------------------------------- certificates


def _certificate_check(rng, root, lib, atlas, sizes):
    tip_rows = frozenset(dy for _, dy in atlas.points(lib.tiles.TileKind.TIP))
    ops = []
    largest = None
    for size in sizes.skeleton_sizes:
        a_values = _tipless_set(rng, size, tip_rows)
        gens, marker = rng.randrange(1000, 2000), rng.choice((25, 43))
        # No 4-block of A has exactly the tip's row offsets, so no cell of
        # A x A can be the tip: the skeleton passes the grammar and is
        # rejected at step 6.
        verdict = {"verdict": "reject", "reason": "not_a_turing_machine", "step": 6, "stopped": None, "marker": None}
        ops.append(_verify_op(f"skeleton-{size}", root, rng, a_values, gens, marker, verdict))
        largest = a_values

    shift = rng.randrange(10**5)  # a translated fixture recognizes to the same board
    accept = [a + shift for a in ACCEPT_A]
    gens = sizes.accept_gens + rng.randrange(1000)
    verdict = {"verdict": "accept", "reason": None, "step": None, "stopped": True, "marker": 25}
    ops.append(_verify_op("accept", root, rng, accept, gens, 25, verdict))

    out = root / "solved-accept.json"
    argv = ["solve", "--set-a", _csv(accept), "--cap", str(len(accept)), "--max-gens", str(MAX_GENS), "--out", str(out)]
    ops.append(Op("solve:accept", argv, len(accept), partial(_solved_answer, accept), root, (out,)))

    out = root / "solved-none.json"
    argv = ["solve", "--set-a", _csv(largest), "--cap", str(len(largest)), "--max-gens", str(MAX_GENS), "--out", str(out)]
    expect = {"rc": 1, "certificate": None, "stderr_prefix": "no certificate: not_a_turing_machine"}
    ops.append(Op(f"solve:none-{len(largest)}", argv, len(largest), expect.copy, root, (out,)))
    return ops


def _tipless_set(rng, size: int, tip_rows: frozenset[int]) -> list[int]:
    """size values above the reserved markers, density about 1 in 10, with no
    4-block (aligned from the minimum) whose offsets equal tip_rows."""
    low = max(RESERVED) + 1
    values = set(rng.sample(range(low, low + 10 * size), size))
    base = min(values)
    blocks = {}
    for v in values:
        blocks.setdefault((v - base) // CELL, set()).add((v - base) % CELL)
    for block, offsets in blocks.items():
        if offsets == tip_rows:
            # move the block's highest member up one place: the block no longer
            # matches, and the minimum (hence the alignment) is unchanged
            top = base + CELL * block + max(offsets)
            free = next(o for o in range(max(offsets) + 1, CELL))
            values.remove(top)
            values.add(base + CELL * block + free)
    ordered = sorted(values)
    rng.shuffle(ordered)
    return ordered


def _ledger_answer(size: int, gens: int) -> dict:
    t = size * size
    n = 3 * t + gens + 4
    return {"T": t, "P": 2 * t, "E": gens, "N": n, "bound": 2 * n * n + 33 * n}


def _solved_answer(a_values: list[int]) -> dict:
    """The certificate solve writes for the accepting fixture: E = 1, marker 25."""
    return {"rc": 0, "certificate": {"A": sorted(a_values), "L": _skeleton(sorted(a_values), 1, 25)}}


def _skeleton(a_values: list[int], gens: int, marker: int) -> list[int]:
    """2, every pair of A x A in order with 7 between pairs, 5, E fours, marker."""
    items = [2]
    for a in a_values:
        for b in a_values:
            items += [a, b, 7]
    items[-1] = 5
    return items + [4] * gens + [marker]


def _verify_op(name, root, rng, a_values, gens, marker, verdict) -> Op:
    items = _skeleton(sorted(a_values), gens, marker)
    path = root / f"{name}.instance.json"
    path.write_text(json.dumps({"A": a_values, "L": items}))
    out = root / f"report-{name}.json"
    argv = ["verify", "--instance", str(path), "--report", str(out)]
    rc = 0 if verdict["verdict"] == "accept" else 1

    def answer():
        return {"rc": rc, "report": _ledger_answer(len(a_values), gens) | verdict}

    return Op(f"verify:{name}", argv, len(a_values) + len(items), answer, root, (out,))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)
