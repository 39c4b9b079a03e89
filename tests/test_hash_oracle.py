"""Differential tests: the lane-packed digest against the per-tile oracle.

`grid.state_hash` hands the terms of every run of equal tiles to a lane mixer
that packs them into one big int and mixes them all at once, and each kind of
state supplies its terms from what it holds. `grid_oracle.state_hash` lays
out the state's rows and mixes one tile at a time. They must agree bit for
bit on every kind of state: hand-made, recognized, A x A, and every state an
engine run makes, through copies, fires, re-laid rows and halts; with
offsets that wrap at 2**20, runs that straddle the wrap, and runs longer
than one block of lanes. `engine._diff_cells` reads the same runs, so it is
checked against the dict engine's tile-map diff on the same steps.
"""

import dict_engine
import grid_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ZERO_RUNNER, lockstep_corpus, padding_for, spec_with
from test_engine_oracle import boards
from test_engine_pace import direct_board, universal_board
from test_grid_oracle import point_lists
from test_word_oracle import one_tip_words
from word_oracle import values_of
from debilandia import grid
from debilandia.embedding import compile_direct, compile_universal
from debilandia.engine import StopReason, Terminated, _diff_cells, run, step
from debilandia.grid import GameState, SquarePoints, _SquareState, recognize, state_hash
from debilandia.tiles import TileKind
from debilandia.tm import MOVE_LEFT, Rule

WRAP = 2**20
KINDS = list(TileKind)
# a run's first column: near the origin, or about 2**20 away on either side
STARTS = st.one_of(st.integers(-40, 40), st.integers(WRAP - 300, WRAP + 40), st.integers(-WRAP - 40, -WRAP + 300))


def assert_digest_agrees(state: GameState) -> None:
    assert state_hash(state) == grid_oracle.state_hash(state)


def assert_walk_agrees(state: GameState, gens: int) -> GameState:
    """Step up to gens generations, checking the digest of every state and the diff of every step."""
    assert_digest_agrees(state)
    for _ in range(gens):
        new, outcome = step(state)
        assert_digest_agrees(new)
        if isinstance(outcome, Terminated):
            break
        assert _diff_cells(state, new, outcome) == dict_engine.diff_cells(state, new)
        state = new
    return state


@st.composite
def run_boards(draw) -> GameState:
    """Runs of equal tiles, some long and some far apart, in a few rows, one of them perhaps far below."""
    rows = st.one_of(st.integers(-3, 3), st.just(-WRAP - 1))
    counts = st.one_of(st.integers(1, 40), st.integers(1, 3 * grid._BLOCK))
    tiles = {}
    for row, start, count, kind in draw(st.lists(st.tuples(rows, STARTS, counts, st.sampled_from(KINDS)), max_size=5)):
        tiles |= dict.fromkeys(((col, row) for col in range(start, start + count)), kind)
    anchor = draw(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    return GameState(tiles, anchor, draw(st.integers(0, 3)))


def test_the_empty_board_digests_as_the_oracle(atlas):
    empty = [GameState({}), recognize([], atlas), recognize(SquarePoints([]), atlas), recognize(SquarePoints([50]), atlas)]
    for state in empty:
        assert state.tile_count() == 0
        assert state_hash(state) == grid_oracle.state_hash(state) == grid._EMPTY_HASH


@settings(max_examples=150, deadline=None)
@given(run_boards())
def test_hand_made_boards_digest_as_the_oracle(state):
    assert_digest_agrees(state)


@settings(max_examples=100, deadline=None)
@given(point_lists())
def test_recognized_boards_digest_as_the_oracle(atlas, points):
    assert_digest_agrees(recognize(points, atlas))


@settings(max_examples=200, deadline=None)
@given(boards(), st.integers(0, 40))
def test_every_state_of_a_generated_board_digests_as_the_oracle(tiles, gens):
    # copies, fires, rule tiles in the tape row that re-lay it, an empty read
    # slot or cell below the tip, several tips and halts
    assert_walk_agrees(GameState(tiles, (3, 5), 1), gens)


def test_every_state_of_the_lockstep_corpus_digests_as_the_oracle(atlas):
    budget = 60
    for _, rules, tapes in lockstep_corpus():
        for tape in tapes[:8]:
            spec = spec_with(rules, tape)
            assert_walk_agrees(recognize(compile_direct(spec, atlas, pad=padding_for(spec, budget)), atlas), budget)
            spec = spec_with(rules, tape, head=len(tape) - 1)
            assert_walk_agrees(recognize(compile_universal(spec, tape, atlas), atlas), 5 * len(rules) + budget)


@settings(max_examples=60, deadline=None)
@given(one_tip_words())
def test_every_state_of_a_square_digests_as_the_oracle(atlas, values):
    # rows of one block group alias one map; a square copies rule tiles, then halts
    assert_walk_agrees(recognize(SquarePoints(values), atlas), 12)


@pytest.mark.parametrize("blocks", [9, 40])
def test_a_square_of_long_rows_and_its_copies_digest_as_the_oracle(atlas, blocks):
    # full blocks left of the word of a square that copies four rule tiles:
    # every row of a y group is one long map, and the engine's record shares
    # those maps but for the rows its copies write
    word = (15,) * blocks + (7, 5, 15, 9, 15, 3)
    final = assert_walk_agrees(recognize(SquarePoints(values_of(word)), atlas), 12)
    assert isinstance(step(final)[1], Terminated) and final.shared.copied is not None


def test_rows_of_one_map_longer_than_a_block_digest_as_the_oracle():
    # one y group of three rows, one of them 2**20 rows up, each row more
    # than two blocks of lanes long and wrapping past 2**20 columns, so
    # blocks of loose terms span rows
    columns = list(range(WRAP - grid._BLOCK, WRAP + grid._BLOCK + 50)) + [-5, 7]
    state = _SquareState([(columns, [0, 9, WRAP + 3], TileKind.TAPE_1), ([-9], [4], TileKind.TIP)], (8, 12), 2)
    assert len(state.rows()[0]) > 2 * grid._BLOCK
    assert_digest_agrees(state)


# a tile offset cells from the board, and its kind, by where it lies
FAR = {
    "left": (lambda offset: (-offset, 5), TileKind.READ_0),
    "below": (lambda offset: (3, -offset), TileKind.WRITE_1),
    "riding in the tape row": (lambda offset: (-offset, 0), TileKind.TAPE_1),
    "staying in the tape row": (lambda offset: (-offset, 0), TileKind.READ_0),
}


@pytest.mark.parametrize("offset", [WRAP - 60, WRAP, WRAP + 30, 2 * WRAP + 10])
@pytest.mark.parametrize("where", FAR)
def test_runs_that_straddle_the_wrap_digest_as_the_oracle(offset, where):
    # ZERO_RUNNER walks right over 100 zeros, so the tape slides left under
    # the tip; one far tile sets the lowest column or row, so the tape run's
    # offsets cross 2**20 as it slides, or its row's offset wraps. A tape
    # tile far left in the tape row rides along; a read tile there stays,
    # and every fire re-lays the row around it
    cell, kind = FAR[where]
    board = dict(direct_board(ZERO_RUNNER, "0" * 100 + "1").tiles) | {cell(offset): kind}
    final = assert_walk_agrees(GameState(board), 102)
    assert step(final)[1] == Terminated(StopReason.NO_MATCHING_PACKET)


def test_runs_longer_than_a_block_digest_as_the_oracle():
    length = 2 * grid._BLOCK + 77
    state = direct_board(ZERO_RUNNER, "0" * length + "1")
    state = assert_walk_agrees(state, 5)
    for gens in (grid._BLOCK - 5, length - 5):
        assert_digest_agrees(run(state, gens).final_state)


@pytest.mark.parametrize("far", [{}, {(-WRAP - 3, 9): TileKind.STATUS_1}])
def test_a_loaded_universal_board_digests_as_the_oracle(far):
    # five copies load each rule into a packet row above the tip; the copied
    # cells are the record's, the payload's zeros one run of the tape row; a
    # far tile puts the copied cells more than 2**20 columns right of the lowest
    rules = [Rule(k & 1, 1, k >> 1 & 1, 0, 0) for k in range(20)] + [Rule(0, 0, 0, 0, MOVE_LEFT)]
    board = GameState(dict(universal_board(rules, "1" + "0" * 300).tiles) | far)
    assert_walk_agrees(board, 5 * len(rules) + 310)
