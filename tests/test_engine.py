import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import (
    BOUNCE,
    PING_PONG,
    assert_keys_match_tip_contexts,
    clone_state,
    drive_fires,
    one_family,
    spec_with,
    tip_context,
)
from debilandia import engine
from debilandia.embedding import compile_direct
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
    a1, o1 = step(clone_state(before))
    a2, o2 = step(clone_state(before))
    assert o1 == o2
    assert a1.tiles == a2.tiles
    assert state_hash(a1) == state_hash(a2)


def test_step_outcomes_are_frozen_values():
    # a fire returns the Fired its packet's index entry holds, made once;
    # it must still be a value equal to a fresh one, and not be changeable
    state = minimal_fire_state()
    fired = [step(clone_state(state))[1] for _ in range(2)]
    copied = step(state_of({(0, 0): TileKind.READ_1, (0, 1): TileKind.TIP}))[1]
    for outcome, fresh in ((fired[0], Fired(2)), (fired[1], Fired(2)), (copied, RuleCopied(2, 1))):
        assert outcome == fresh and hash(outcome) == hash(fresh)
        with pytest.raises(AttributeError):
            setattr(outcome, outcome._fields[0], 7)
        assert outcome == fresh  # unchanged by the refused assignment


def test_copies_onto_one_row_and_slot_share_their_outcome():
    # a copy returns the RuleCopied its board made once for that (row, slot);
    # it must still be a value equal to a fresh one, and not be changeable
    state = state_of({(0, 0): TileKind.READ_1, (0, 1): TileKind.TIP})
    copied, again = step(state)[1], step(state)[1]
    assert copied is again
    assert copied == RuleCopied(2, 1) and hash(copied) == hash(RuleCopied(2, 1))
    with pytest.raises(AttributeError):
        copied.slot = 7
    assert copied == RuleCopied(2, 1)


def test_two_runs_of_one_board_give_equal_results(atlas):
    # the second run reuses the board, its packet index and node table
    for rules, tape in ((PING_PONG, "11"), (BOUNCE, "0001")):
        state = recognize(compile_direct(spec_with(rules, tape), atlas), atlas)
        first, second = run(state, 40), run(state, 40)
        assert first == second
        assert first == run(clone_state(state), 40)


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
    replayed = drive_fires(clone_state(snapshot), result.period)
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
        run(clone_state(state), 50, on_step=records.append)
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
    layouts = [base]
    for near in ((1, 0), (-1, 0)):
        moved = dict(base)
        del moved[near]
        moved[(near[0] + 2**20, 0)] = TileKind.TAPE_0
        assert state_hash(state_of(base)) == state_hash(state_of(moved))
        layouts.append(moved)
    keys = [position_key(state) for state in one_family(layouts * 2)]
    assert len(set(keys)) == 3
    assert keys[:3] == keys[3:]


def test_position_key_covers_exactly_the_tip_context():
    # within one board family, keys are equal exactly when the tip contexts are
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
    # every other cell is left out: run starts its record afresh at each copy instead
    elsewhere = base | {(1, 2): TileKind.READ_1, (-5, -9): TileKind.MOVE_0}
    # a board without exactly one tip has no tip context
    no_context = [base | {(5, 9): TileKind.TIP}, {}]
    tile_maps = [base, *changed, elsewhere, *no_context]
    keys = [position_key(state) for state in one_family(tile_maps)]
    assert len(set(keys[: len(changed) + 1])) == len(changed) + 1
    assert keys[len(changed) + 1] == keys[0]
    assert keys[-2:] == [None, None]
    # tape tiles on one side of an empty head cell, each at its gap from the
    # one before (some stacks differ only below their top run): equal tiles
    # at gap 1 make a run, so a run stands against the same tiles at gap 2,
    # a run one tile longer, and a run broken by another kind, on top and
    # below; then every map laid out twice
    one, zero = TileKind.TAPE_1, TileKind.TAPE_0
    rows = [[1], [2], [1, 2], [1, 3], [3, 1], [2, 2], []]
    rows = [[(gap, one) for gap in gaps] for gaps in rows]
    rows += [
        [(1, one), (1, one)],
        [(1, one), (1, one), (1, one)],
        [(1, one), (1, zero), (1, one)],
        [(1, zero), (1, one), (1, one)],
        [(1, zero), (1, one), (2, one)],
        [(1, zero), (1, one), (1, one), (1, one)],
        [(1, zero), (1, one), (1, zero), (1, one)],
        [(1, one), (1, one), (2, zero), (1, zero)],
        [(1, one), (1, one), (2, zero), (1, zero), (1, zero)],
    ]
    for row in rows:
        for side in (-1, 1):
            col, tiles = 0, {(0, 1): TileKind.TIP, (0, 3): TileKind.STATUS_0}
            for gap, kind in row:
                col += side * gap
                tiles[(col, 0)] = kind
            tile_maps.append(tiles)
    tile_maps *= 2
    keys = [position_key(state) for state in one_family(tile_maps)]
    assert_keys_match_tip_contexts(keys, [tip_context(tiles) for tiles in tile_maps])


def test_simulate_is_the_same_in_every_process(atlas, tmp_path):
    # Python salts hash() of strings, and so of enum members, per process;
    # run keys its record on nodes, which hash by identity
    points = tmp_path / "points.json"
    board = compile_direct(spec_with(BOUNCE, "0" * 6 + "1"), atlas)
    points.write_text(json.dumps({"points": [list(p) for p in sorted(board)]}))
    env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
    outputs = []
    for seed in ("1", "2"):
        trace = tmp_path / f"trace{seed}.jsonl"
        argv = [sys.executable, "-m", "debilandia", "simulate", "--points", str(points), "--trace", str(trace)]
        done = subprocess.run(argv, env=env | {"PYTHONHASHSEED": seed}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, trace.read_bytes()))
    assert json.loads(outputs[0][0])["status"] == "cycle"
    assert outputs[0] == outputs[1]
