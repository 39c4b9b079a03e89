"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
timings. Every tolerance here is exact (integer equality) unless a runtime
ceiling is stated.
"""

import math
import random
import time
from contextlib import contextmanager

from corpus import (
    ACCEPT_A,
    ZERO_RUNNER,
    clone_state,
    game_status,
    game_tape_text,
    lockstep_corpus,
    oracle_trajectory,
    padding_for,
    save_atlas,
    spec_with,
    sweep_candidates,
    tape_text,
)
from debilandia.embedding import compile_direct, compile_universal
from debilandia.engine import Fired, RuleCopied, RunStatus, Terminated, run, step
from debilandia.grid import recognize, state_hash
from debilandia.instances import Instance, RejectReason, build_candidate
from debilandia.solver import construct_certificate, growth_probe
from debilandia.tiles import TileAtlas, TileKind, atlas_default, classify_cell
from debilandia.tm import Rule
from debilandia.verifier import bound_of, bracket_ceiling_total, f_formula, verify


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s (limit {limit_seconds}s)"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_atlas_integrity(tmp_path):
    with criterion(1, "atlas integrity and exact classification", 1.0):
        atlas = atlas_default()
        masks = list(atlas.patterns.values())
        assert len(set(masks)) == 13 and all(m for m in masks)
        path = tmp_path / "atlas.json"
        save_atlas(atlas, path)
        assert TileAtlas.load(path).patterns == atlas.patterns
        save_atlas(atlas, tmp_path / "atlas2.json")
        assert (tmp_path / "atlas2.json").read_bytes() == path.read_bytes()
        by_mask = {m: k for k, m in atlas.patterns.items()}
        for kind, mask in atlas.patterns.items():
            assert classify_cell(mask, atlas) is kind
            for bit in range(16):
                flipped = mask ^ (1 << bit)
                assert classify_cell(flipped, atlas) is by_mask.get(flipped)


def _random_machine(rng: random.Random):
    keys = rng.sample([(0, 0), (0, 1), (1, 0), (1, 1)], k=rng.randint(1, 4))
    rules = tuple(
        Rule(read, state, rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
        for read, state in keys
    )
    tape = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
    return spec_with(rules, tape, head=rng.randrange(len(tape)))


def _random_recognized_state(rng: random.Random, atlas: TileAtlas):
    flavor = rng.random()
    if flavor < 0.45:
        # a compiled machine, sometimes with one tile's points knocked out
        points = compile_direct(_random_machine(rng), atlas, pad=rng.randint(0, 2))
        if rng.random() < 0.3:
            x = 4 * rng.randint(0, 3)
            points = {(px, py) for px, py in points if not (x <= px < x + 4 and py < 4)}
        return recognize(points, atlas)
    points = set()
    base_col = rng.randint(0, 3)
    if flavor < 0.9:  # hand layout: tip context with random packet rows
        below = rng.choice(
            [TileKind.TAPE_0, TileKind.TAPE_1, TileKind.READ_0, TileKind.WRITE_1, None]
        )
        layout = {
            (base_col, 1): TileKind.TIP,
            (base_col, 3): rng.choice([TileKind.STATUS_0, TileKind.STATUS_1]),
        }
        if below is not None:
            layout[(base_col, 0)] = below
        for i in range(rng.randint(0, 2)):
            layout[(base_col - 1 - i, 0)] = rng.choice([TileKind.TAPE_0, TileKind.TAPE_1])
        if rng.random() < 0.8:
            for slot in range(1, rng.randint(2, 7)):
                if slot > 5:
                    break
                layout[(base_col + slot, 2)] = rng.choice([k for k in TileKind if k.slot == slot])
        if rng.random() < 0.15:
            layout[(base_col + 3, 5)] = TileKind.TIP  # second tip
        for cell, kind in layout.items():
            points |= {(8 + 4 * cell[0] + dx, 8 + 4 * cell[1] + dy) for dx, dy in atlas.points(kind)}
        for _ in range(rng.randint(0, 2)):  # sparse noise, clear of the layout rows
            points.add((rng.randint(0, 40), rng.randint(32, 60)))
    else:  # pure noise
        for _ in range(rng.randint(1, 10)):
            points.add((rng.randint(0, 40), rng.randint(0, 40)))
    return recognize(points, atlas)


def test_criterion_2_engine_determinism_and_absorption():
    with criterion(2, "engine determinism and absorbing termination", 10.0):
        atlas = atlas_default()
        rng = random.Random(2024)
        for _ in range(100):
            state = _random_recognized_state(rng, atlas)
            traces = []
            for _ in range(2):
                cursor, trace = clone_state(state), []
                for _ in range(8):
                    cursor, outcome = step(cursor)
                    trace.append((state_hash(cursor), outcome))
                    if isinstance(outcome, Terminated):
                        break
                traces.append(trace)
            assert traces[0] == traces[1]
            final_hash, last_outcome = traces[0][-1]
            if isinstance(last_outcome, Terminated):
                cursor = clone_state(state)
                for _ in range(len(traces[0]) - 1):
                    cursor, _ = step(cursor)
                again, re_outcome = step(cursor)
                assert re_outcome == last_outcome
                assert again.tiles == cursor.tiles


def test_criterion_3_lockstep_equivalence():
    with criterion(3, "machine embedding runs in lockstep with the oracle", 60.0):
        atlas = atlas_default()
        budget = 1000
        checked = 0
        for name, rules, tapes in lockstep_corpus():
            for tape in tapes:
                spec = spec_with(rules, tape)
                configs, halted = oracle_trajectory(spec, budget)
                pad = padding_for(spec, budget)
                state = recognize(compile_direct(spec, atlas, pad=pad), atlas)
                assert game_tape_text(state) == tape_text(configs[0])
                assert game_status(state) == configs[0].state
                for cfg in configs[1:]:
                    state, outcome = step(state)
                    assert isinstance(outcome, Fired), (name, tape, outcome)
                    assert game_tape_text(state) == tape_text(cfg), (name, tape)
                    assert game_status(state) == cfg.state, (name, tape)
                if halted:
                    _, outcome = step(state)
                    assert isinstance(outcome, Terminated), (name, tape)
                checked += 1
        assert checked >= 100


def test_criterion_4_universal_load_equivalence():
    with criterion(4, "tape-loaded rules reproduce pre-placed rules exactly", 60.0):
        atlas = atlas_default()
        budget = 1000
        pairs = 0
        for name, rules, tapes in lockstep_corpus():
            if not rules:
                continue
            for tape in tapes:
                head = len(tape) - 1  # the loader leaves the head on the last cell
                spec = spec_with(rules, tape, head=head)
                if not tm_halts(spec, budget):
                    continue
                direct = recognize(compile_direct(spec, atlas), atlas)
                loaded = recognize(compile_universal(spec, tape, atlas), atlas)
                for _ in range(5 * len(rules)):
                    loaded, outcome = step(loaded)
                    assert isinstance(outcome, RuleCopied), (name, tape, outcome)
                d = run(direct, budget)
                u = run(loaded, budget)
                assert game_tape_text(d.final_state) == game_tape_text(u.final_state), (name, tape)
                pairs += 1
        assert pairs >= 60


def tm_halts(spec, budget):
    _, halted = oracle_trajectory(spec, budget)
    return halted


def test_criterion_5_step_accounting_formulas():
    with criterion(5, "closed-form step count and polynomial bound", 1.0):
        for t in range(51):
            for e in range(51):
                p = 2 * t
                n = p + e + t + 4
                f = f_formula(t, p, e)
                assert f == 2 * e * t + 2 * e + 3 * p + 18 * t + 10
                assert f <= bound_of(n)
                itemized = bracket_ceiling_total(t, p, e)
                assert itemized == 2 * e * t + 2 * e + 3 * p + 18 * t + 9
                assert itemized == f - 1  # the documented off-by-one


def test_criterion_6_verifier_condition_coverage():
    with criterion(6, "each structural condition rejects with its own code", 10.0):
        atlas = atlas_default()
        inst = Instance(ACCEPT_A)
        good = build_candidate(inst, 1, 25)
        assert verify(inst, good, atlas).accepted
        five_at = good.index(5)
        duplicated = list(good)
        duplicated[4:6] = duplicated[1:3]  # second pair repeats the first
        mutations = [
            ("wrong first element", [3] + good[1:], RejectReason.CONDITION_1),
            ("pair too short", good[:2] + good[3:], RejectReason.CONDITION_2),
            ("duplicate pair", duplicated, RejectReason.CONDITION_3),
            ("missing 5", good[:five_at] + good[five_at + 1 :], RejectReason.CONDITION_4),
            ("non-4 in the run", good[:-1] + [9, 25], RejectReason.CONDITION_5),
            ("flipped marker", good[:-1] + [43], RejectReason.VERDICT_MISMATCH),
            ("trailing element", good + [4], RejectReason.TRAILING_INPUT),
        ]
        deepest = 8  # the accepted run reaches the final step
        for label, items, expected in mutations:
            report = verify(inst, items, atlas)
            assert not report.accepted, label
            assert report.reason is expected, (label, report.reason)
            assert report.step <= deepest


def test_criterion_7_solver_verifier_agreement():
    with criterion(7, "constructed certificates and refusals agree with the checker", 300.0):
        atlas = atlas_default()
        max_gens = 8
        small_corpus = [(1,), (3,), (1, 3), (9, 10), (1, 3, 9), (8, 9, 10), (50, 90, 130)]
        for values in small_corpus:
            inst = Instance(values)
            outcome = construct_certificate(inst, max_gens, atlas)
            assert not outcome.found, values  # |A| <= 5 cannot span a packet
            assert sweep_candidates(inst, max_gens, atlas) == [], values
        # the shipped accepting instance exercises the other branch
        inst = Instance(ACCEPT_A)
        outcome = construct_certificate(inst, 16, atlas, cap=len(ACCEPT_A))
        assert outcome.found
        assert verify(inst, outcome.certificate, atlas).accepted


def test_criterion_8_growth_measurement():
    with criterion(8, "construction cost table with the divergent factorial claim", 300.0):
        atlas = atlas_default()
        rows = growth_probe([1, 2, 3, 4], trials=3, atlas=atlas, max_gens=8, seed=7)
        assert len(rows) == 12
        for row in rows:
            assert row.cells_placed == row.size_m**2
            assert row.factorial_sq_claim == math.factorial(row.size_m) ** 2


def test_criterion_9_engine_pace_is_linear():
    # 5000 generations over a 5001-cell tape: the whole-board dict engine
    # took about two minutes for this on a 2-core VM
    with criterion(9, "a 5000-generation run on a 5001-cell tape", 10.0):
        atlas = atlas_default()
        state = recognize(compile_direct(spec_with(ZERO_RUNNER, "0" * 5000 + "1"), atlas), atlas)
        result = run(state, 6000)
        assert result.status is RunStatus.HALTED
        assert result.generations_run == 5000
