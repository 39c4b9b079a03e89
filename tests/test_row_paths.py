"""Differential tests: recognize's state of a point list against the same board built in full.

`recognize` of a point list holds the board's tiles by row, with its tip
cells and tile count, and builds the tile map only when `tiles` is read; the
engine indexes those rows and changes none of them. Each such state must
count, find, hash and build the same tiles as a `GameState` made from the
map, which files that map by row when it is made, before and after it is
indexed, and run as that state runs. `simulate` reads a run's final state by
`tile_count()` and `state_hash`, so from recognize to the summary no tile
map is built. A state is a value: changing the map it was made from changes
no state.
"""

import contextlib
import copy

import pytest
from hypothesis import given, settings

import dict_engine
from corpus import BOUNCE, lockstep_corpus, padding_for, spec_with
from debilandia.embedding import NotATuringMachine, compile_direct, compile_universal, extract_tm_counted
from debilandia.engine import run, shared_of
from debilandia.grid import GameState, Pairs, SquarePoints, points_of, recognize, state_hash
from debilandia.tiles import CELL, TileKind
from test_engine_oracle import boards
from test_square_paths import TIP_X, TIP_Y, blocks_of


def built(points, atlas) -> GameState:
    """recognize with the tile map built at once, as a state made by hand."""
    state = recognize(points, atlas)
    return GameState(dict(state.tiles), state.anchor, state.junk_cells)


def unbuilt_facts(state: GameState) -> tuple:
    """What the engine and simulate read off a state, none of which builds its tile map."""
    return state.tile_count(), state.junk_cells, state.tip_count(), state.tip_cells(), state.rows(), state_hash(state)


def summary(result) -> tuple:
    """simulate's summary of a run: it counts and hashes the final state, building no tile map."""
    final = result.final_state
    facts = (result.status, result.generations_run, result.reason, result.period, result.first_index)
    return (*facts, final.tile_count(), final.junk_cells, state_hash(final))


def assert_runs_as_built(state: GameState, full: GameState, max_gens: int) -> None:
    result, expected = run(state, max_gens), run(full, max_gens)
    assert summary(result) == summary(expected)
    assert result.final_state._tiles is None
    assert result.final_state.tiles == expected.final_state.tiles


def assert_recognized_as_built(points, atlas, max_gens: int) -> None:
    state, full = recognize(points, atlas), built(points, atlas)
    assert unbuilt_facts(state) == unbuilt_facts(full)
    assert state._tiles is None
    for budget in (0, max_gens):  # simulate's path, from a state no one has indexed
        assert_runs_as_built(recognize(points, atlas), built(points, atlas), budget)
    shared_of(state)
    shared_of(full)
    assert unbuilt_facts(state) == unbuilt_facts(full)  # read after indexing, off the engine's record
    assert state._tiles is None
    assert_runs_as_built(state, full, max_gens)
    assert state.tiles == full.tiles and points_of(state, atlas) == points_of(full, atlas)
    assert unbuilt_facts(state) == unbuilt_facts(full)  # read once more, the map built
    assert state == full


def test_the_lockstep_corpus_is_recognized_as_built(atlas):
    for _, rules, tapes in lockstep_corpus():
        for tape in tapes[:6]:
            spec = spec_with(rules, tape)
            assert_recognized_as_built(compile_direct(spec, atlas, pad=padding_for(spec, 60)), atlas, 60)
            spec = spec_with(rules, tape, head=len(tape) - 1)
            assert_recognized_as_built(compile_universal(spec, tape, atlas), atlas, 5 * len(rules) + 60)


@settings(max_examples=200, deadline=None)
@given(boards())
def test_generated_boards_are_recognized_as_built(atlas, tiles):
    # the tiles' points, rebased by recognize; a board whose lowest points do
    # not start a cell is carved differently, into other tiles and junk
    assert_recognized_as_built(Pairs.of(points_of(GameState(tiles), atlas)), atlas, 30)


@settings(max_examples=100, deadline=None)
@given(boards())
def test_changing_a_map_after_its_state_is_made_changes_no_state(atlas, tiles):
    # GameState files the map by row when it is made and keeps no reference
    # to it: a tile added to the map afterwards, or one taken from it, is not
    # counted, found, run or hashed, before or after the state is indexed
    tiles = {**tiles, (20, 20): TileKind.TAPE_0}
    state, kept = GameState(tiles, (4, 8), 3), GameState(dict(tiles), (4, 8), 3)
    tiles[(-20, -20)] = TileKind.TIP
    del tiles[(20, 20)]
    assert unbuilt_facts(state) == unbuilt_facts(kept)
    shared_of(state)
    tiles.clear()
    assert unbuilt_facts(state) == unbuilt_facts(kept)
    result, expected = run(state, 10), dict_engine.run(kept, 10)
    assert summary(result) == summary(expected) and result.final_state.tiles == expected.final_state.tiles
    assert state == kept


def one_tip_square(atlas) -> GameState:
    """recognize's state of A x A with one tip: a tape tile below it, and a read tile above it among others."""
    values = blocks_of([frozenset(TIP_X), frozenset(TIP_Y), frozenset(range(CELL))], [0, 1, 1])
    return recognize(SquarePoints(values), atlas)


@pytest.mark.parametrize(
    "make",
    [
        lambda atlas: recognize(compile_direct(spec_with(BOUNCE, "0110"), atlas), atlas),
        one_tip_square,
        lambda atlas: built(compile_direct(spec_with(BOUNCE, "0110"), atlas), atlas),
    ],
    ids=["rows", "square", "hand-made"],
)
def test_indexing_changes_nothing_a_state_handed_out(atlas, make):
    # the record shares the rows it keeps whole; the tape row and the tip
    # column's cells stay in the maps rows() handed out. A square's rows of
    # one y block group are one map, so a write to one row would show in
    # every row of its group; extraction and a run write to none
    state = make(atlas)
    handed = state.rows()
    kept = copy.deepcopy(handed)
    assert state.tip_count() == 1
    shared = shared_of(state)
    assert handed == kept and state.rows() == kept
    with contextlib.suppress(NotATuringMachine):
        extract_tm_counted(state)
    assert handed == kept and state.rows() == kept
    run(state, 30)
    assert handed == kept and state.rows() == kept
    tc, tr = shared.tip
    assert all(cells == kept[r] for r, cells in shared.rows.items() if r not in (tr + 1, tr + 2))
