"""Differential tests: the row-board engine against the dict engine.

Both engines step the same boards; outcomes and tile maps must agree after
every generation, and run must agree with the dict engine's exact-repeat run
on status, counts, cycle position, final tiles and every trace record. Every
run is copies, then fires: no copy follows a fire, and every fire keeps the
record of the first.
Extraction reads the board: on a board the engine carried through a run it
must read what it reads on a fresh board of the same tiles, and on a fresh
board what the dict engine's extraction reads off the tile map. Its probes
count the rows above the tip with a rule tile in the packet columns, which
the engine's record keeps through the copies of a run; one-tip squares are
checked the same way.
"""

import random

import dict_engine
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    BOUNCE,
    INCREMENTER,
    PING_PONG,
    ZERO_RUNNER,
    assert_keys_match_tip_contexts,
    lockstep_corpus,
    one_family,
    padding_for,
    spec_with,
    tip_context,
)
from test_word_oracle import one_tip_words
from word_oracle import values_of
from debilandia.embedding import NotATuringMachine, compile_direct, compile_universal, extract_tm_counted
from debilandia.engine import Fired, RuleCopied, RunStatus, StopReason, Terminated, position_key, run, step
from debilandia.grid import GameState, SquarePoints, recognize, state_hash
from debilandia.tiles import TileKind, TileType, read_tile, slot_tile, status_tile, tape_tile
from debilandia.tm import MOVE_LEFT, MOVE_RIGHT, Rule, TmSpec

TAPES = [TileKind.TAPE_0, TileKind.TAPE_1]
RULES = [k for k in TileKind if k.tile_type is TileType.RULE]
STATUSES = [TileKind.STATUS_0, TileKind.STATUS_1]
NOT_TIP = [k for k in TileKind if k is not TileKind.TIP]
GAPS = st.sampled_from([0] * 12 + [1, 2, 3, 5])
TAIL = st.lists(st.sampled_from(TAPES + [TileKind.READ_0, TileKind.READ_1]), max_size=4)  # after a fresh row's R1


def extracted(extract, state: GameState):
    try:
        return extract(state)
    except NotATuringMachine as exc:
        return exc.reason


def assert_extraction_agrees(state: GameState, budgets) -> None:
    """Extraction of the state run for each budget reads as it does on fresh tiles."""
    for budget in budgets:
        carried = run(state, budget).final_state
        fresh = GameState(dict(carried.tiles), carried.anchor, carried.junk_cells)
        assert extracted(extract_tm_counted, carried) == extracted(extract_tm_counted, fresh)
        fresh = GameState(dict(carried.tiles), carried.anchor, carried.junk_cells)
        assert extracted(extract_tm_counted, fresh) == extracted(dict_engine.extract_tm_counted, fresh)


def off_tip_context(tiles: dict) -> dict:
    """The tiles of a one-tip board outside the tape row, the read slot and the status cell."""
    ((tc, tr),) = [cell for cell, kind in tiles.items() if kind is TileKind.TIP]
    context = {(tc, tr + 1), (tc, tr + 2)}
    return {(col, r): kind for (col, r), kind in tiles.items() if r != tr - 1 and (col, r) not in context}


def assert_engines_agree(state: GameState, max_gens: int) -> None:
    ours, theirs = state, GameState(dict(state.tiles), state.anchor, state.junk_cells)
    keys, contexts = [position_key(ours)], [tip_context(theirs.tiles)]
    fired_in = None  # the record of the first fire
    for _ in range(max_gens):
        ours_next, outcome = step(ours)
        theirs_next, expected = dict_engine.step(theirs)
        assert outcome == expected
        assert ours_next.tiles == theirs_next.tiles
        # a fire leaves a tape tile or nothing under the tip and moves only
        # tape tiles, so no copy follows it, and the record a run fires in
        # is its last
        if isinstance(outcome, RuleCopied):
            assert fired_in is None
        elif isinstance(outcome, Fired):
            fired_in = fired_in or ours.shared
            assert ours.shared is ours_next.shared is fired_in
        # what run's restart at copies rests on: a copy adds one tile off the
        # tip context and a fire changes nothing there, so no state recurs
        # across a copy
        if not isinstance(outcome, Terminated):
            before, after = off_tip_context(theirs.tiles), off_tip_context(theirs_next.tiles)
            if isinstance(outcome, RuleCopied):
                assert before.items() < after.items() and len(after) == len(before) + 1
            else:
                assert after == before
        # the key kept up by the zipper equals the key of a fresh index in
        # the same board family, and keys match exactly when tip contexts do
        (fresh,) = one_family([ours_next.tiles], ours_next.shared.nodes)
        assert position_key(ours_next) == position_key(fresh)
        keys.append(position_key(ours_next))
        contexts.append(tip_context(theirs_next.tiles))
        if isinstance(outcome, Terminated):
            assert ours_next is ours
            break
        ours, theirs = ours_next, theirs_next
    assert_keys_match_tip_contexts(keys, contexts)

    records, expected_records = [], []
    result = run(state, max_gens, on_step=records.append)
    # a copy fills a slot that no later step empties, so a run's copies name
    # pairwise distinct (row, slot) cells, and a copy makes its own outcome
    copied = [record.outcome for record in records if isinstance(record.outcome, RuleCopied)]
    assert len(set(copied)) == len(copied)
    expected = dict_engine.run(
        GameState(dict(state.tiles), state.anchor, state.junk_cells), max_gens, on_step=expected_records.append
    )
    got = (result.status, result.generations_run, result.reason, result.period, result.first_index)
    want = (expected.status, expected.generations_run, expected.reason, expected.period, expected.first_index)
    assert got == want
    # simulate's summary counts and hashes the final state before anything builds its tile map
    final = result.final_state
    summary = (final.tile_count(), state_hash(final))
    rebuilt = GameState(dict(final.tiles), final.anchor, final.junk_cells)
    assert summary == (len(rebuilt.tiles), state_hash(rebuilt))
    assert result.final_state.tiles == expected.final_state.tiles
    assert records == expected_records


def packet_cells(flavour: str, bits: list[int], junk: list[TileKind | None]) -> list[TileKind | None]:
    """Five packet cells of one flavour, from five drawn bits and five drawn cells."""
    if flavour == "complete":
        return [slot_tile(i, bits[i - 1]) for i in range(1, 6)]
    if flavour == "prefix":
        return [slot_tile(i, bits[i - 1]) if i <= 1 + bits[4] + bits[3] else None for i in range(1, 6)]
    if flavour == "gapped":
        return [slot_tile(1, bits[0]), None, slot_tile(3, bits[2]), None, None]
    if flavour == "unopened":  # slot 1 empty, a prefix of slots 2-5 laid: a copy of R1 may open or complete it
        laid = 5 if bits[0] else 2 + bits[4] + bits[3]
        return [None] + [slot_tile(i, bits[i - 1]) if i <= laid else None for i in range(2, 6)]
    if flavour == "misordered":
        return [slot_tile(2, bits[0]), slot_tile(1, bits[1]), None, None, None]
    return junk  # anything but a tip


@st.composite
def boards(draw) -> dict:
    """A tip context with packets above, a tape row that may load rules, and noise.

    Covers malformed and gapped packet rows, rule tiles in the tape row (the
    fire collision case) and in the tip's row, cells right of the consumed
    cell during a copy, several tips and a missing status tile.
    """
    tc, tr = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    tiles = {(tc, tr): TileKind.TIP} if draw(st.integers(0, 19)) else {}
    if draw(st.integers(0, 9)):
        tiles[(tc, tr + 2)] = draw(st.sampled_from(STATUSES + STATUSES + [TileKind.READ_0]))
    if draw(st.booleans()):
        tiles[(tc, tr + 1)] = draw(st.sampled_from([TileKind.READ_0, TileKind.READ_1, TileKind.TAPE_1]))
    # the tape row: tokens for whole packets, or an R1 alone (the rest of its
    # packet may be laid in a fresh row), consumed from the tip leftwards,
    # then payload, with occasional stray tiles anywhere in it; gaps of up to
    # five empty cells on both sides of the tip, and now and then an empty
    # cell below the tip, exercise the zipper's stacks
    col = tc
    for slots in draw(st.sampled_from([[], [], [1], [5], [5, 5]])):
        bits = draw(st.lists(st.integers(0, 1), min_size=5, max_size=5))
        for slot in range(1, slots + 1):
            tiles[(col, tr - 1)] = slot_tile(slot, bits[slot - 1])
            col -= 1
    for kind, gap in draw(st.lists(st.tuples(st.sampled_from(TAPES * 6 + RULES), GAPS), max_size=10)):
        col -= gap
        tiles[(col, tr - 1)] = kind
        col -= 1
    col = tc + 1
    for kind, gap in draw(st.lists(st.tuples(st.sampled_from(TAPES * 3 + RULES), GAPS), max_size=4)):
        col += gap
        tiles[(col, tr - 1)] = kind
        col += 1
    if not draw(st.integers(0, 11)):
        tiles.pop((tc, tr - 1), None)
    flavours = st.sampled_from(["complete"] * 4 + ["prefix", "unopened", "gapped", "misordered", "junk", "empty"])
    for row in range(tr + 1, tr + 1 + draw(st.integers(0, 5))):
        flavour = draw(flavours)
        if flavour == "empty":
            continue
        bits = draw(st.lists(st.integers(0, 1), min_size=5, max_size=5))
        junk = draw(st.lists(st.sampled_from(NOT_TIP + [None] * 6), min_size=5, max_size=5))
        for i, kind in enumerate(packet_cells(flavour, bits, junk), start=1):
            if kind is not None:
                tiles[(tc + i, row)] = kind
    if not draw(st.integers(0, 9)):  # a rule tile right of the tip, in the row below every packet
        tiles[(tc + draw(st.integers(1, 5)), tr)] = draw(st.sampled_from(RULES))
    if not draw(st.integers(0, 14)):
        tiles[draw(st.sampled_from([(tc + 3, tr + 5), (tc - 2, tr - 1), (tc + 9, tr)]))] = TileKind.TIP
    for cell in draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-4, 8)), max_size=3)):
        tiles.setdefault(cell, draw(st.sampled_from(NOT_TIP)))
    return tiles


@settings(max_examples=400, deadline=None)
@given(boards(), st.integers(0, 60))
def test_row_board_matches_dict_engine_on_generated_boards(tiles, max_gens):
    assert_engines_agree(GameState(tiles, (0, 0), 0), max_gens)


@st.composite
def machines(draw) -> TmSpec:
    keys = draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]), min_size=1, max_size=4, unique=True))
    rules = tuple(Rule(read, state, *draw(st.tuples(*[st.integers(0, 1)] * 3))) for read, state in keys)
    rules = draw(st.sampled_from([rules, rules, PING_PONG, BOUNCE]))
    tape = draw(st.text("01", min_size=1, max_size=8))
    return spec_with(rules, tape, head=draw(st.integers(0, len(tape) - 1)), state=draw(st.integers(0, 1)))


@settings(max_examples=150, deadline=None)
@given(machines(), st.integers(0, 3))
def test_row_board_matches_dict_engine_on_random_machines(atlas, spec, pad):
    # bouncing machines make the exact cycles, skimming ones the budget runs
    assert_engines_agree(recognize(compile_direct(spec, atlas, pad=pad), atlas), 80)


def test_row_board_matches_dict_engine_on_the_lockstep_corpus(atlas):
    budget = 150
    for _, rules, tapes in lockstep_corpus():
        for tape in tapes:
            spec = spec_with(rules, tape)
            state = recognize(compile_direct(spec, atlas, pad=padding_for(spec, budget)), atlas)
            assert_engines_agree(state, budget)


def test_row_board_matches_dict_engine_on_universal_boards(atlas):
    for _, rules, tapes in lockstep_corpus():
        for tape in tapes[:6]:
            spec = spec_with(rules, tape, head=len(tape) - 1)
            state = recognize(compile_universal(spec, tape, atlas), atlas)
            assert_engines_agree(state, 5 * len(rules) + 100)


def run_facts(result) -> tuple:
    final = result.final_state
    return (result.status, result.generations_run, result.reason, result.period, result.first_index, final.tiles)


# on the tape "00", a step left in status 0, then a step right in status 1:
# after two fires the board is the one the last copy made, read slot and all
SWAY = (Rule(0, 0, 0, 1, MOVE_LEFT), Rule(0, 1, 0, 0, MOVE_RIGHT))
NEVER_READ = (Rule(1, 0, 1, 1, MOVE_RIGHT), Rule(1, 1, 0, 0, MOVE_LEFT))  # keyed on a 1, which SWAY's tape lacks


@pytest.mark.parametrize(
    "rules, tape", [(ZERO_RUNNER, "0011"), (INCREMENTER, "0011"), (BOUNCE, "0011"), (SWAY + NEVER_READ, "00")]
)
def test_run_matches_the_dict_engine_at_every_budget_across_the_first_fire(atlas, rules, tape):
    # 5K copies load the K rules, then the machine fires: every budget from
    # none to three generations past the loading stops in one loop or the
    # other, or on the switch between them; SWAY's cycle closes at 5K + 2
    points = compile_universal(spec_with(rules, tape, head=len(tape) - 1), tape, atlas)
    for max_gens in range(5 * len(rules) + 4):
        state = recognize(points, atlas)
        expected = dict_engine.run(GameState(dict(state.tiles), state.anchor, state.junk_cells), max_gens)
        assert run_facts(run(recognize(points, atlas), max_gens)) == run_facts(expected)


@pytest.mark.parametrize("count", [2, 3, 4])
def test_a_cycle_back_to_the_state_the_last_copy_made_starts_there(atlas, count):
    # the first state the fire loop records is the last copy's: SWAY's two
    # fires return to it, so the cycle's first index is the number of copies
    rules = (SWAY + NEVER_READ)[:count]
    state = recognize(compile_universal(spec_with(rules, "00", head=1), "00", atlas), atlas)
    result = run(state, 100)
    assert (result.status, result.generations_run, result.period, result.first_index) == (
        RunStatus.CYCLE,
        5 * count + 2,
        2,
        5 * count,
    )
    expected = dict_engine.run(GameState(dict(state.tiles), state.anchor, state.junk_cells), 100)
    assert run_facts(result) == run_facts(expected)


def walker(move: int) -> tuple[Rule, ...]:
    """Flips every cell it reads and the status on every 1, always stepping the same way."""
    return tuple(Rule(read, state, 1 - read, state ^ read, move) for read in (0, 1) for state in (0, 1))


@pytest.mark.parametrize("move", [MOVE_LEFT, MOVE_RIGHT])
@pytest.mark.parametrize("from_right_end", [False, True])
def test_row_board_matches_dict_engine_on_long_tapes(atlas, move, from_right_end):
    # a few hundred cells, the head at either end, walked off one end or the
    # other: the zipper's stacks empty out on both sides
    tape = "".join(random.Random(move * 2 + from_right_end).choice("01") for _ in range(300))
    spec = spec_with(walker(move), tape, head=len(tape) - 1 if from_right_end else 0)
    assert_engines_agree(recognize(compile_direct(spec, atlas, pad=2), atlas), 320)
    if from_right_end:  # the universal layout loads four packets, then walks the payload
        assert_engines_agree(recognize(compile_universal(spec, tape, atlas), atlas), 340)


@pytest.mark.parametrize("move", [MOVE_LEFT, MOVE_RIGHT])
def test_a_fire_joins_the_far_run_only_from_one_cell_away(move):
    # the head walks away from an empty cell with a tile of either kind
    # beyond it: the first fire writes its tile two cells from that one,
    # the next ones onto the run it started, until the head crosses into
    # the closing 1 and then leaves the tape
    rules = (Rule(0, 0, 0, 0, move), Rule(1, 0, 1, 0, move))
    packets = {}
    for k, rule in enumerate(rules):
        bits = (rule.read, rule.state, rule.write, rule.next_state, 1 - rule.move)
        packets |= {(i, 2 + k): slot_tile(i, bit) for i, bit in enumerate(bits, start=1)}
    for behind in "01":
        for head in "01":
            row = f"{behind}.{head}{head}1"
            if move == MOVE_LEFT:
                row = row[::-1]
            tc = row.index(".") + (1 if move == MOVE_RIGHT else -1)
            tiles = {(col - tc, 0): tape_tile(int(ch)) for col, ch in enumerate(row) if ch != "."}
            tiles |= {(0, 1): TileKind.TIP, (0, 2): read_tile(0), (0, 3): status_tile(0)} | packets
            assert_engines_agree(GameState(tiles), 10)


def tip_over_tokens(tokens: list[TileKind], packets: dict[int, dict[int, TileKind]]) -> dict:
    """A tip at (0, 0) over tokens, consumed from the tip leftwards, with packet rows above it.

    The read slot holds READ_0 and the status cell STATUS_0; packets maps a
    row to its tiles by column.
    """
    tiles = {(0, 0): TileKind.TIP, (0, 1): TileKind.READ_0, (0, 2): TileKind.STATUS_0}
    tiles |= {(-i, -1): kind for i, kind in enumerate(tokens)}
    for row, cells in packets.items():
        tiles |= {(col, row): kind for col, kind in cells.items()}
    return tiles


def outcomes_of(state: GameState, max_gens: int) -> list:
    outcomes = []
    for _ in range(max_gens):
        state, outcome = step(state)
        outcomes.append(outcome)
        if isinstance(outcome, Terminated):
            break
    return outcomes


def test_copies_onto_stacked_rows_match_the_dict_engine():
    # two unfinished packets: copies fill the higher one (it is on top of
    # the stack), then the lower one, whose prefix the copy extends without
    # reading the row; then the lower of the two finished packets fires
    s0, w1, c0, m0 = TileKind.STATUS_0, TileKind.WRITE_1, TileKind.CHANGE_0, TileKind.MOVE_0
    packets = {1: {1: TileKind.READ_0}, 2: {1: TileKind.READ_0, 2: s0}}
    tokens = [w1, c0, m0, s0, w1, c0, m0, TileKind.TAPE_0, TileKind.TAPE_0]
    state = GameState(tip_over_tokens(tokens, packets), (0, 0), 0)
    copies = [RuleCopied(2, slot) for slot in (3, 4, 5)] + [RuleCopied(1, slot) for slot in (2, 3, 4, 5)]
    assert outcomes_of(state, 9) == copies + [Fired(1), Fired(1)]
    assert_engines_agree(state, 20)


def test_a_fresh_row_opens_above_a_complete_packet_that_lies_over_the_stacked_row():
    # row 1 holds an R1 under row 2's complete packet: four copies complete
    # row 1, and the next copy opens row 3, above the highest complete packet
    packets = {1: {1: TileKind.READ_0}, 2: {i: slot_tile(i, 1) for i in range(1, 6)}}
    tokens = [TileKind.STATUS_0, TileKind.WRITE_1, TileKind.CHANGE_0, TileKind.MOVE_0, TileKind.READ_1, TileKind.TAPE_0]
    state = GameState(tip_over_tokens(tokens, packets), (0, 0), 0)
    copies = [RuleCopied(1, slot) for slot in (2, 3, 4, 5)] + [RuleCopied(3, 1)]
    assert outcomes_of(state, 6) == copies + [Fired(1)]
    assert_engines_agree(state, 10)


def test_a_copy_completing_a_fresh_row_that_holds_r2_to_r5_fires_next():
    # the tip's read-slot row is the fresh row, and it already holds R2-R5:
    # the copy of R1 into slot 1 completes a packet, which the next two
    # generations fire; a copy that went by its slot, not its row's length,
    # would stack the row and end the game with no matching packet
    tiles = {(0, 0): TileKind.TAPE_0, (1, 0): TileKind.TAPE_0, (2, 0): TileKind.READ_0}
    tiles |= {(2, 1): TileKind.TIP, (2, 2): TileKind.READ_0, (2, 3): TileKind.STATUS_0}
    tiles |= {(4, 2): TileKind.STATUS_0, (5, 2): TileKind.WRITE_1, (6, 2): TileKind.CHANGE_0, (7, 2): TileKind.MOVE_0}
    state = GameState(tiles, (0, 0), 0)
    expected = [RuleCopied(2, 1), Fired(2), Fired(2), Terminated(StopReason.NOTHING_BELOW_TIP)]
    assert outcomes_of(state, 5) == expected
    assert_engines_agree(state, 10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.integers(1, 5), st.lists(st.integers(0, 1), min_size=5, max_size=5), TAIL)
def test_a_copy_onto_a_partly_laid_fresh_row_matches_the_dict_engine(packets, laid, bits, tail):
    # `packets` complete all-zero packets, then a fresh row with slots 2 to
    # `laid` laid; under the tip an R1, then tape tiles and R1s: the copy
    # leaves the row short of a packet or completes it, by its length
    rows = {1 + k: {i: slot_tile(i, 0) for i in range(1, 6)} for k in range(packets)}
    rows[1 + packets] = {i: slot_tile(i, bits[i - 1]) for i in range(2, laid + 1)}
    state = GameState(tip_over_tokens([slot_tile(1, bits[0]), *tail], rows), (0, 0), 0)
    assert_engines_agree(state, 8)


def test_a_copy_onto_a_fresh_row_holding_a_later_tile_matches_the_dict_engine():
    # the row above the finished packet already holds a write tile in slot
    # 3's column, so the copied read tile makes it a gapped, malformed row:
    # it goes on no stack, and the next copy targets the same row again
    packet = {i: slot_tile(i, 0) for i in range(1, 6)}
    tokens = [TileKind.READ_1, TileKind.STATUS_1, TileKind.WRITE_1, TileKind.TAPE_1]
    state = GameState(tip_over_tokens(tokens, {1: packet, 2: {3: TileKind.WRITE_0}}), (0, 0), 0)
    assert outcomes_of(state, 5) == [RuleCopied(2, 1), Terminated(StopReason.MALFORMED_TIP_CONTEXT)]
    assert_engines_agree(state, 10)


def test_a_second_copy_onto_a_fresh_row_left_malformed_matches_the_dict_engine():
    # as above, but the next token is a read tile too: it targets the same
    # row, and must find slot 1's cell taken by the copy before it
    packet = {i: slot_tile(i, 0) for i in range(1, 6)}
    tokens = [TileKind.READ_1, TileKind.READ_0, TileKind.TAPE_1]
    state = GameState(tip_over_tokens(tokens, {1: packet, 2: {3: TileKind.WRITE_0}}), (0, 0), 0)
    assert outcomes_of(state, 5) == [RuleCopied(2, 1), Terminated(StopReason.MALFORMED_TIP_CONTEXT)]
    assert_engines_agree(state, 10)


@settings(max_examples=300, deadline=None)
@given(boards(), st.lists(st.integers(0, 12), min_size=1, max_size=3))
def test_extraction_matches_on_generated_boards(tiles, budgets):
    assert_extraction_agrees(GameState(tiles, (0, 0), 0), budgets)


@settings(max_examples=100, deadline=None)
@given(machines(), st.integers(0, 3), st.lists(st.integers(0, 40), min_size=1, max_size=3))
def test_extraction_matches_on_random_machines(atlas, spec, pad, budgets):
    assert_extraction_agrees(recognize(compile_direct(spec, atlas, pad=pad), atlas), budgets)


@pytest.mark.parametrize("held", [{2: TileKind.STATUS_1, 3: TileKind.WRITE_0}, {2: TileKind.TAPE_1}, {}])
def test_extraction_counts_a_fresh_row_once_it_holds_a_rule_tile(held):
    # a copy opens the row above the finished packet; a row that already
    # held a rule tile in the packet columns was counted when indexed, one
    # that held other tiles or none joins the count, and then the tape reads
    # as a machine
    packet = {i: slot_tile(i, 0) for i in range(1, 6)}
    state = GameState(tip_over_tokens([TileKind.READ_1, TileKind.TAPE_0, TileKind.TAPE_1], {1: packet, 2: held}))
    assert outcomes_of(state, 1) == [RuleCopied(2, 1)]
    assert_extraction_agrees(state, range(4))


def test_extraction_matches_on_a_square_that_copies_rule_tiles(atlas):
    # four copies move the tape row's rule tiles into a fresh packet row
    # (see test_word_oracle); no square whose run copies holds a machine
    # (tests/word_oracle.py), so after a copy the two agree on the reason
    assert_extraction_agrees(recognize(SquarePoints(values_of((7, 5, 15, 9, 15, 3))), atlas), range(11))


@settings(max_examples=100, deadline=None)
@given(values=one_tip_words())
def test_extraction_matches_on_one_tip_squares(atlas, values):
    assert_extraction_agrees(recognize(SquarePoints(values), atlas), range(11))


def test_extraction_matches_on_corpus_and_universal_boards(atlas):
    for _, rules, tapes in lockstep_corpus():
        for tape in tapes[:6]:
            spec = spec_with(rules, tape)
            state = recognize(compile_direct(spec, atlas, pad=padding_for(spec, 40)), atlas)
            assert_extraction_agrees(state, [0, 1, 5, 40])
            # loading copies rules into packets one tile per generation, so
            # every budget up to the end of loading stops mid-packet
            spec = spec_with(rules, tape, head=len(tape) - 1)
            state = recognize(compile_universal(spec, tape, atlas), atlas)
            assert_extraction_agrees(state, range(5 * len(rules) + 3))
