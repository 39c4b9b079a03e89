"""Differential tests: recognize's state of A x A against the same board built in full.

`recognize(SquarePoints(A))` holds the board as its block groups and the
tile kind of each group pair, lays out its rows from them when `rows()` is
read, one map per y block group, and builds the tile map only when `tiles`
is read. Patched to build the map at once (a `GameState` made from it),
`verify` and `construct_certificate` must give the same reports, traces and
outcomes, and the state must count, find and build the same tiles before and
after its map is read. A board without exactly one tip is refused without
building a tile, and one with a tip is indexed off its rows, so an untraced
check or solve builds no tile map either; it lays the rows out and
classifies those above the tip once, when indexing, and extraction reads
the engine's record.
"""

import contextlib
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import accept_a_with_full_blocks, near_the_fixture
from word_oracle import values_of
from debilandia import engine
from debilandia.embedding import NotATuringMachine, extract_tm_counted
from debilandia.engine import run
from debilandia.grid import GameState, SquarePoints, _SquareState, points_of, recognize, state_hash
from debilandia.instances import MARKER_RUNS, MARKER_STOPS, RESERVED, Certificate, Instance
from debilandia.solver import SAMPLE_POOL, construct_certificate
from debilandia.tiles import CELL, TileKind, atlas_default
from debilandia.verifier import verify

TIP_X, TIP_Y = ({point[axis] for point in atlas_default().points(TileKind.TIP)} for axis in (0, 1))
LOW = max(RESERVED) + 1  # every value at or above it is free to use


def built(points, atlas) -> GameState:
    """recognize with the tile map built at once, as a state made by hand."""
    state = recognize(points, atlas)
    return GameState(dict(state.tiles), state.anchor, state.junk_cells)


@contextlib.contextmanager
def built_at_once():
    with mock.patch("debilandia.verifier.recognize", built), mock.patch("debilandia.solver.recognize", built):
        yield


def blocks_of(masks: list[frozenset[int]], gaps: list[int]) -> set[int]:
    """A made of one 4-block per offset set, each gap blocks above the last, from LOW."""
    values, block = set(), 0
    for offsets, gap in zip(masks, gaps):
        block += gap
        values |= {LOW + CELL * block + offset for offset in offsets}
    return values


OFFSETS = st.frozensets(st.integers(0, CELL - 1), min_size=1).filter(lambda offsets: 0 in offsets)


@st.composite
def single_mask(draw) -> set[int]:
    """Every 4-block of A has the same offsets."""
    offsets = draw(OFFSETS)
    gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=12))
    return blocks_of([offsets] * len(gaps), gaps)


@st.composite
def tip_pairs(draw) -> set[int]:
    """A with some blocks on the tip's column offsets and some on its row offsets, among others.

    Each block on the column offsets crossed with each block on the row
    offsets is a tip, so such a board has one tip or several.
    """
    masks = [frozenset(TIP_X)] * draw(st.integers(1, 3)) + [frozenset(TIP_Y)] * draw(st.integers(1, 3))
    masks += draw(st.lists(OFFSETS, max_size=6))
    masks = draw(st.permutations(masks))
    return blocks_of(masks, draw(st.lists(st.integers(1, 3), min_size=len(masks), max_size=len(masks))))


SETS = st.one_of(
    st.sets(st.sampled_from(SAMPLE_POOL), min_size=1, max_size=40),
    near_the_fixture().filter(lambda values: not values & RESERVED),
    single_mask(),
    tip_pairs(),
)


def run_facts(result) -> tuple:
    return (result.generations_run, result.status, result.reason, result.period, result.first_index)


def report_facts(inst: Instance, cert: Certificate, atlas) -> tuple:
    """A verify report's JSON, its run, and its trace records."""
    records = []
    report = verify(inst, cert, atlas, on_step=records.append)
    return report.to_json_obj(), run_facts(report.run_result), report.run_result.final_state, records


def solve_facts(outcome) -> tuple:
    cert = outcome.certificate
    held = None if cert is None else (cert.prefix.values, cert.gens, cert.marker)
    return (outcome.reason, outcome.cells_placed, outcome.cells_scanned, outcome.generations, held)


def extraction(state: GameState):
    try:
        return extract_tm_counted(state)
    except NotATuringMachine as exc:
        return exc.reason


@settings(max_examples=60, deadline=None)
@given(values=SETS, gens=st.integers(0, 6), marker=st.sampled_from((MARKER_STOPS, MARKER_RUNS)))
def test_verify_and_solve_see_the_board_built_in_full(atlas, values, gens, marker):
    inst = Instance(tuple(values))
    cert = Certificate(SquarePoints(inst.a_values), gens, marker)
    product = report_facts(inst, cert, atlas), solve_facts(construct_certificate(inst, 16, atlas))
    with built_at_once():
        full = report_facts(inst, cert, atlas), solve_facts(construct_certificate(inst, 16, atlas))
    assert product == full


@settings(max_examples=80, deadline=None)
@given(values=SETS)
def test_the_state_counts_and_builds_the_tiles_of_the_full_board(atlas, values):
    points = SquarePoints(values)
    state, full = recognize(points, atlas), built(points, atlas)
    counts = (full.tile_count(), full.junk_cells, full.tip_count())
    assert (state.tile_count(), state.junk_cells, state.tip_count()) == counts
    assert state._tiles is None  # counting builds no tile
    assert state.tip_cells() == full.tip_cells()
    assert state.tiles == full.tiles and state.rows() == full.rows()
    assert (state.tile_count(), state.junk_cells, state.tip_count()) == counts
    assert state == full and state_hash(state) == state_hash(full) and points_of(state, atlas) == points_of(full, atlas)


@settings(max_examples=80, deadline=None)
@given(values=SETS)
def test_a_board_without_one_tip_is_refused_without_building_a_tile(atlas, values):
    points = SquarePoints(values)
    state, full = recognize(points, atlas), built(points, atlas)
    assert extraction(state) == extraction(full)
    assert run_facts(run(state, 4)) == run_facts(run(full, 4))
    if full.tip_count() != 1:
        assert state._tiles is None
    # read after indexing, the tiles are still the board's
    assert (state.tiles, state.tip_cells(), state.tile_count()) == (full.tiles, full.tip_cells(), full.tile_count())


@pytest.mark.parametrize("full_blocks", [200, 800])
def test_a_one_tip_board_of_large_a_is_checked_and_solved_without_its_tile_map(atlas, full_blocks):
    # blocks on the tip's column and row offsets, then full blocks: one tip
    # and |A|^2 / 16 tiles, which extraction finds malformed at the tip. The
    # rows of one y block group are one map, so checking and solving |A| =
    # 3,204 peak at about 0.6 MB, where a map per row would take 59 MB
    masks = [frozenset(TIP_X), frozenset(TIP_Y)] + [frozenset(range(CELL))] * full_blocks
    values = blocks_of(masks, [0] + [1] * (full_blocks + 1))
    inst = Instance(tuple(values))
    cert = Certificate(SquarePoints(inst.a_values), 3, MARKER_STOPS)
    made = []

    def recognized(points, atlas):
        made.append(recognize(points, atlas))
        return made[-1]

    with mock.patch("debilandia.verifier.recognize", recognized), mock.patch("debilandia.solver.recognize", recognized):
        tracemalloc.start()
        try:
            report, outcome = verify(inst, cert, atlas), construct_certificate(inst, 16, atlas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 10**6, f"peaked at {peak} bytes"
    assert [(state.shared.tip is not None, state._tiles) for state in made] == [(True, None)] * 2
    with built_at_once():
        full = verify(inst, cert, atlas), construct_certificate(inst, 16, atlas)
    assert (report.to_json_obj(), run_facts(report.run_result), solve_facts(outcome)) == (
        full[0].to_json_obj(),
        run_facts(full[0].run_result),
        solve_facts(full[1]),
    )
    assert outcome.reason == "not_a_turing_machine:malformed_stack"


def test_checking_or_solving_a_one_tip_square_lays_out_and_classifies_its_rows_once(atlas):
    # a found set of 1,016, and a set whose run copies four rule tiles into
    # a fresh packet row; extraction once laid the rows out and classified
    # them a second time
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return call

    rows, classify = counted(_SquareState.rows), counted(engine.packet_rows)
    with mock.patch.object(_SquareState, "rows", rows), mock.patch("debilandia.engine.packet_rows", classify):
        for values in (accept_a_with_full_blocks(250), values_of((7, 5, 15, 9, 15, 3))):
            inst = Instance(values)
            cert = Certificate(SquarePoints(inst.a_values), 1, MARKER_STOPS)
            for check in (lambda: verify(inst, cert, atlas), lambda: construct_certificate(inst, 16, atlas)):
                calls.clear()
                check()
                assert sorted(calls) == ["packet_rows", "rows"], values
