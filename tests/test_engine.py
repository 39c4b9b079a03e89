import os
import subprocess
import sys
from pathlib import Path

import dict_engine
import pytest

from corpus import BOUNCE, PING_PONG, ZERO_RUNNER, drive_fires, oracle_trajectory, spec_with
from debilandia import engine
from debilandia.embedding import compile_direct, compile_universal
from debilandia.engine import (
    Fired,
    RuleCopied,
    RunStatus,
    StopReason,
    Terminated,
    position_key,
    run,
    step,
)
from debilandia.grid import GameState, recognize, state_hash
from debilandia.tiles import TileKind, slot_tile


def state_of(tiles):
    return GameState(dict(tiles), (0, 0), 0)


def minimal_fire_state():
    """One tip over a 1-tape cell, empty read slot, status 0, one packet.

    Packet (R1..R5) = (1, 0, 0, 1, 0): matches read 1 in status 0, writes 0,
    flips the status to 1, and shifts the tape row right.
    """
    return state_of(
        {
            (0, 0): TileKind.TAPE_1,
            (0, 1): TileKind.TIP,
            (0, 3): TileKind.STATUS_0,
            (1, 2): TileKind.READ_1,
            (2, 2): TileKind.STATUS_0,
            (3, 2): TileKind.WRITE_0,
            (4, 2): TileKind.CHANGE_1,
            (5, 2): TileKind.MOVE_0,
        }
    )


def test_fire_hand_trace():
    # Hand trace: read Q=1 lands in the read slot, packet at row 2 fires,
    # below-tip becomes tape 0, status becomes 1, and the single tape tile
    # (the freshly written one) slides right to cell (1, 0).
    before = minimal_fire_state()
    after, outcome = step(before)
    assert outcome == Fired(packet_row=2)
    expected = dict(before.tiles)
    expected[(0, 2)] = TileKind.READ_1  # read slot now holds Q = 1
    expected[(0, 3)] = TileKind.STATUS_1
    del expected[(0, 0)]
    expected[(1, 0)] = TileKind.TAPE_0  # written value, shifted right
    assert after.tiles == expected
    # untouched input state
    assert (0, 2) not in before.tiles


def test_fire_touches_only_the_documented_cells():
    before = minimal_fire_state()
    after, _ = step(before)
    changed = {
        cell
        for cell in set(before.tiles) | set(after.tiles)
        if before.tiles.get(cell) is not after.tiles.get(cell)
    }
    tape_row_or_stack = {(0, 0), (1, 0), (0, 2), (0, 3)}
    assert changed <= tape_row_or_stack


def test_step_after_fire_finds_nothing_below():
    state, _ = step(minimal_fire_state())
    state2, outcome = step(state)
    assert outcome == Terminated(StopReason.NOTHING_BELOW_TIP)
    assert state2.tiles == state.tiles


def test_two_tips_terminate_unchanged():
    state = state_of({(0, 1): TileKind.TIP, (5, 5): TileKind.TIP, (0, 0): TileKind.TAPE_1})
    after, outcome = step(state)
    assert outcome == Terminated(StopReason.MULTIPLE_TIPS)
    assert after.tiles == state.tiles


def test_no_tip_terminates():
    _, outcome = step(state_of({(0, 0): TileKind.TAPE_1}))
    assert outcome == Terminated(StopReason.NO_TIP)


def test_empty_below_tip_terminates():
    _, outcome = step(state_of({(0, 1): TileKind.TIP, (0, 3): TileKind.STATUS_0}))
    assert outcome == Terminated(StopReason.NOTHING_BELOW_TIP)


def test_missing_status_is_malformed():
    state = state_of({(0, 0): TileKind.TAPE_1, (0, 1): TileKind.TIP})
    _, outcome = step(state)
    assert outcome == Terminated(StopReason.MALFORMED_TIP_CONTEXT)


def test_no_matching_packet_terminates():
    tiles = minimal_fire_state().tiles | {(0, 3): TileKind.STATUS_1}  # status 1, packet wants 0
    _, outcome = step(state_of(tiles))
    assert outcome == Terminated(StopReason.NO_MATCHING_PACKET)


def test_scan_skips_incomplete_and_takes_first_matching_row():
    # an incomplete packet below the complete one: row 2 becomes R1-only,
    # the full packet moves to row 4
    tiles = {cell: k for cell, k in minimal_fire_state().tiles.items() if cell[1] != 2}
    tiles[(1, 2)] = TileKind.READ_1
    tiles.update(
        {
            (1, 4): TileKind.READ_1,
            (2, 4): TileKind.STATUS_0,
            (3, 4): TileKind.WRITE_1,
            (4, 4): TileKind.CHANGE_0,
            (5, 4): TileKind.MOVE_1,
        }
    )
    after, outcome = step(state_of(tiles))
    assert outcome == Fired(packet_row=4)
    assert after.tiles[(0, 3)] == TileKind.STATUS_0  # R4 = 0
    assert after.tiles[(-1, 0)] == TileKind.TAPE_1  # R5 = 1 shifts left


def test_fire_takes_the_lowest_of_duplicate_packets():
    tiles = dict(minimal_fire_state().tiles)
    tiles.update({(i, 4): slot_tile(i, bit) for i, bit in enumerate([1, 0, 1, 0, 0], start=1)})
    after, outcome = step(state_of(tiles))
    assert outcome == Fired(packet_row=2)
    assert after.tiles[(1, 0)] is TileKind.TAPE_0  # row 2 writes 0, row 4 would write 1


def test_tape_shift_collision_with_non_tape_tile_terminates():
    tiles = dict(minimal_fire_state().tiles)
    tiles[(1, 0)] = TileKind.READ_0  # rule tile parked where the tape would land
    before = state_of(tiles)
    after, outcome = step(before)
    assert outcome == Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    assert after.tiles == before.tiles


def test_rule_copy_opens_first_packet():
    state = state_of(
        {
            (0, 0): TileKind.READ_1,
            (0, 1): TileKind.TIP,
            (-1, 0): TileKind.TAPE_0,
        }
    )
    after, outcome = step(state)
    assert outcome == RuleCopied(target_row=2, slot=1)
    assert after.tiles[(1, 2)] is TileKind.READ_1
    # the consumed cell is replaced by its left neighbour
    assert after.tiles[(0, 0)] is TileKind.TAPE_0
    assert (-1, 0) not in after.tiles


def test_rule_copy_fills_highest_incomplete_packet():
    state = state_of(
        {
            (0, 0): TileKind.STATUS_1,
            (0, 1): TileKind.TIP,
            (1, 2): TileKind.READ_0,  # incomplete packet, next slot is R2
        }
    )
    after, outcome = step(state)
    assert outcome == RuleCopied(target_row=2, slot=2)
    assert after.tiles[(2, 2)] is TileKind.STATUS_1


def test_rule_copy_out_of_order_is_malformed():
    state = state_of(
        {
            (0, 0): TileKind.WRITE_1,  # next expected slot is R1
            (0, 1): TileKind.TIP,
        }
    )
    after, outcome = step(state)
    assert outcome == Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    assert after.tiles == state.tiles


def test_rule_copy_with_no_left_tile_clears_the_cell():
    state = state_of({(0, 0): TileKind.READ_0, (0, 1): TileKind.TIP})
    after, outcome = step(state)
    assert outcome == RuleCopied(target_row=2, slot=1)
    assert (0, 0) not in after.tiles


def test_rule_copy_opens_row_above_complete_packets():
    tiles = {
        (0, 0): TileKind.READ_1,
        (0, 1): TileKind.TIP,
        (1, 2): TileKind.READ_1,
        (2, 2): TileKind.STATUS_0,
        (3, 2): TileKind.WRITE_0,
        (4, 2): TileKind.CHANGE_1,
        (5, 2): TileKind.MOVE_0,
    }
    after, outcome = step(state_of(tiles))
    assert outcome == RuleCopied(target_row=3, slot=1)
    assert after.tiles[(1, 3)] is TileKind.READ_1


def test_rule_copy_falls_back_to_the_next_incomplete_packet():
    # rows 2 and 4 are both incomplete: slot 5 completes row 4, then slot 2
    # goes to row 2, the highest packet still incomplete
    tiles = {
        (0, 0): TileKind.MOVE_1,
        (-1, 0): TileKind.STATUS_0,
        (0, 1): TileKind.TIP,
        (1, 2): TileKind.READ_0,
    }
    tiles.update({(i, 4): slot_tile(i, 1) for i in range(1, 5)})
    once, first = step(state_of(tiles))
    twice, second = step(once)
    assert (first, second) == (RuleCopied(target_row=4, slot=5), RuleCopied(target_row=2, slot=2))
    assert twice.tiles[(2, 2)] is TileKind.STATUS_0


def test_step_is_deterministic():
    before = minimal_fire_state()
    a1, o1 = step(before.clone())
    a2, o2 = step(before.clone())
    assert o1 == o2
    assert a1.tiles == a2.tiles
    assert state_hash(a1) == state_hash(a2)


def test_termination_is_absorbing():
    state = state_of({(0, 1): TileKind.TIP})
    for _ in range(3):
        state, outcome = step(state)
        assert outcome == Terminated(StopReason.NOTHING_BELOW_TIP)


def test_run_halts_at_generation_zero(atlas):
    # a machine whose single rule never matches terminates on the first read
    state = recognize(compile_direct(spec_with(PING_PONG[:1], "0"), atlas), atlas)
    result = run(state, 100)
    assert result.status is RunStatus.HALTED
    assert result.reason is StopReason.NO_MATCHING_PACKET
    assert result.generations_run == 0


def test_run_budget_zero_is_exhausted():
    state = state_of({(0, 1): TileKind.TIP})
    result = run(state, 0)
    assert result.status is RunStatus.BUDGET
    assert result.generations_run == 0


def test_run_detects_ping_pong_cycle(atlas):
    # Hand trace: on tape 11 the two rules alternate, sliding the tape left
    # then right. Generation 2 differs from generation 0 only in the read
    # slot, so the first repeat is generation 3 matching generation 1.
    state = recognize(compile_direct(spec_with(PING_PONG, "11"), atlas), atlas)
    result = run(state, 100)
    assert result.status is RunStatus.CYCLE
    assert result.period == 2
    assert result.first_index == 1
    assert result.generations_run == 3


def test_cycle_replay_reproduces_the_hash(atlas):
    state = recognize(compile_direct(spec_with(PING_PONG, "11"), atlas), atlas)
    result = run(state, 100)
    snapshot = drive_fires(state, result.first_index)
    replayed = drive_fires(snapshot.clone(), result.period)
    assert state_hash(replayed) == state_hash(snapshot)


def test_run_trace_records_every_generation(atlas):
    state = recognize(compile_direct(spec_with(PING_PONG, "11"), atlas), atlas)
    records = []
    result = run(state, 100, on_step=records.append)
    assert [r.gen for r in records] == list(range(1, result.generations_run + 1))
    assert all(isinstance(r.outcome, Fired) for r in records)
    assert records[0].changed_cells  # a fired step changes cells


def test_run_hash_sequences_identical_for_clones(atlas):
    state = recognize(compile_direct(spec_with(PING_PONG, "11"), atlas), atlas)
    seqs = []
    for _ in range(2):
        records = []
        run(state.clone(), 50, on_step=records.append)
        seqs.append([r.state_hash for r in records])
    assert seqs[0] == seqs[1]


def test_run_rejects_negative_budget():
    with pytest.raises(ValueError):
        run(state_of({}), -1)


def test_layouts_2_pow_20_cells_apart_get_distinct_keys():
    # state_hash wraps relative offsets at 2**20, so it cannot tell these
    # apart; the position key must, or run could call them one state. The
    # key covers only the tip context, so the tiles move in the tape row:
    # one further out on the right, one from the left of the tip to its right
    base = {(0, 1): TileKind.TIP, (0, 3): TileKind.STATUS_0, (-2, 0): TileKind.TAPE_1}
    base |= {(-1, 0): TileKind.TAPE_0, (1, 0): TileKind.TAPE_0}
    for near in ((1, 0), (-1, 0)):
        moved = dict(base)
        del moved[near]
        moved[(near[0] + 2**20, 0)] = TileKind.TAPE_0
        assert state_hash(state_of(base)) == state_hash(state_of(moved))
        assert position_key(state_of(base)) != position_key(state_of(moved))


def test_position_key_covers_exactly_the_tip_context():
    base = {(0, 1): TileKind.TIP, (0, 3): TileKind.STATUS_0, (0, 0): TileKind.TAPE_1}
    base |= {(-1, 0): TileKind.TAPE_0, (1, 0): TileKind.TAPE_0}
    changed = [
        base | {(0, 3): TileKind.STATUS_1},
        base | {(0, 2): TileKind.READ_0},
        base | {(0, 2): TileKind.READ_1},
        base | {(0, 0): TileKind.TAPE_0},
        base | {(-2, 0): TileKind.TAPE_1},
        base | {(2, 0): TileKind.READ_1},
        {cell: kind for cell, kind in base.items() if cell != (0, 3)},
        {cell: kind for cell, kind in base.items() if cell != (0, 0)},
    ]
    keys = [position_key(state_of(tiles)) for tiles in [base, *changed]]
    assert len(set(keys)) == len(keys)
    # every other cell is left out: run starts its record afresh at each copy instead
    assert position_key(state_of(base | {(1, 2): TileKind.READ_1, (-5, -9): TileKind.MOVE_0})) == keys[0]
    # a board without exactly one tip has no tip context
    assert position_key(state_of(base | {(5, 9): TileKind.TIP})) is None
    assert position_key(state_of({})) is None


def test_position_key_is_the_same_in_every_process():
    # Python salts hash() of strings, and so of enum members, per process
    code = (
        "from debilandia.engine import position_key; from debilandia.grid import GameState; "
        "from debilandia.tiles import TileKind as K; "
        "print(position_key(GameState({(0, 1): K.TIP, (0, 2): K.READ_0, (0, 3): K.STATUS_1, (-3, 0): K.TAPE_1})))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
    keys = [
        subprocess.run([sys.executable, "-c", code], env=env | {"PYTHONHASHSEED": seed}, capture_output=True, text=True)
        for seed in ("1", "2")
    ]
    assert keys[0].returncode == 0, keys[0].stderr
    assert keys[0].stdout == keys[1].stdout


def test_forced_key_collisions_do_not_fake_a_cycle(atlas, monkeypatch):
    # every generation shares one key, so every generation is a key hit
    spec = spec_with(ZERO_RUNNER, "0" * 12 + "1")
    configs, halted = oracle_trajectory(spec, 100)
    assert halted
    state = recognize(compile_direct(spec, atlas), atlas)
    monkeypatch.setattr(engine, "position_key", lambda state: 0)
    result = run(state, 100)
    assert result.status is RunStatus.HALTED
    assert result.generations_run == len(configs) - 1 == 12


def test_forced_key_collisions_find_the_same_cycle(atlas, monkeypatch):
    state = recognize(compile_direct(spec_with(BOUNCE, "0" * 6 + "1"), atlas), atlas)
    exact = dict_engine.run(state.clone(), 100)
    unforced = run(state, 100)
    monkeypatch.setattr(engine, "position_key", lambda state: 0)
    forced = run(state, 100)
    for result in (unforced, forced):
        assert result.status is RunStatus.CYCLE
        assert (result.first_index, result.period) == (exact.first_index, exact.period) == (6, 2)
        assert result.final_state.tiles == exact.final_state.tiles


def test_forced_key_collisions_across_rule_copies(atlas, monkeypatch):
    # fifteen copies load BOUNCE's packets, then the machine cycles: with one
    # key for every generation, each hit replays from the last copy's state
    tape = "0" * 6 + "1"
    state = recognize(compile_universal(spec_with(BOUNCE, tape, head=len(tape) - 1), tape, atlas), atlas)
    exact = dict_engine.run(state.clone(), 100)
    monkeypatch.setattr(engine, "position_key", lambda state: 0)
    steps = []
    inner = engine._step
    monkeypatch.setattr(engine, "_step", lambda state: steps.append(state) or inner(state))
    forced = run(state, 100)
    for result in (forced, exact):
        got = (result.status, result.generations_run, result.first_index, result.period)
        assert got == (RunStatus.CYCLE, 17, 15, 2)
    assert forced.final_state.tiles == exact.final_state.tiles
    # both hits compare against generation 15, the last copy's state, so
    # neither replays a step
    assert len(steps) == forced.generations_run
