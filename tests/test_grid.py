import copy
import pickle
import random
import tracemalloc
from functools import reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A, ZERO_RUNNER, clone_state, spec_with
from debilandia.embedding import compile_direct
from debilandia.engine import step
from debilandia.grid import (
    GameState,
    Pairs,
    SquarePoints,
    points_of,
    recognize,
    state_hash,
)
from debilandia.tiles import CELL, TileAtlas, TileKind, atlas_default


def place(atlas, kind, cell, origin=(0, 0)):
    ox, oy = origin
    col, row = cell
    return {(ox + 4 * col + dx, oy + 4 * row + dy) for dx, dy in atlas.points(kind)}


def test_empty_points_give_empty_state(atlas):
    state = recognize(set(), atlas)
    assert state.tiles == {} and state.junk_cells == 0


def test_an_empty_square_gives_the_empty_state(atlas):
    state = recognize(SquarePoints(()), atlas)
    assert state == GameState({}, (0, 0), 0)


def test_a_state_shows_its_fields_and_equals_only_a_state():
    state = GameState({(0, 1): TileKind.TIP}, (4, 8), 2)
    assert repr(state) == "GameState(tiles={(0, 1): <TileKind.TIP: 'tip'>}, anchor=(4, 8), junk_cells=2)"
    assert state != (state.tiles, state.anchor, state.junk_cells)


STATE_KINDS = ("made from a map", "recognized from points", "recognized from A x A", "made by step")


def state_of_kind(kind: str, atlas) -> GameState:
    """A one-tip board of the kind named: each kind holds its board in its own form."""
    points = compile_direct(spec_with(ZERO_RUNNER, "0011"), atlas)
    if kind == "made from a map":
        return GameState(dict(recognize(points, atlas).tiles), (3, 5), 2)
    if kind == "recognized from points":
        return recognize(points, atlas)
    if kind == "recognized from A x A":
        return recognize(SquarePoints(ACCEPT_A), atlas)
    return step(recognize(points, atlas))[0]


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_the_tile_map_is_a_read_only_view(atlas, kind):
    # the rows are the board: a write through the map would make tiles and
    # repr tell of a board that ==, state_hash, tile_count and the engine
    # do not see
    state = state_of_kind(kind, atlas)
    cell, tile = next(iter(state.tiles.items()))
    with pytest.raises(TypeError):
        state.tiles[(cell[0] + 100, cell[1])] = tile
    with pytest.raises(TypeError):
        del state.tiles[cell]
    with pytest.raises(TypeError):
        dict.pop(state.tiles, cell)
    with pytest.raises(TypeError):
        dict.update(state.tiles, {(cell[0] + 100, cell[1]): tile})
    assert not hasattr(state.tiles, "pop") and not hasattr(state.tiles, "update")
    assert state.tiles[cell] is tile and len(state.tiles) == state.tile_count()


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_a_state_whose_tiles_were_read_pickles_and_deep_copies(atlas, kind):
    state = state_of_kind(kind, atlas)
    tiles = dict(state.tiles)
    for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert type(copied) is type(state) and copied == state and copied.tiles == tiles
        assert state_hash(copied) == state_hash(state)


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_equality_repr_and_points_read_as_the_tile_map(atlas, kind):
    # == and points_of read rows(); each must tell what the tile map tells
    state = state_of_kind(kind, atlas)
    tiles, (x0, y0), junk = dict(state.tiles), state.anchor, state.junk_cells
    assert repr(state) == f"GameState(tiles={tiles!r}, anchor={state.anchor!r}, junk_cells={junk!r})"
    cells = [(x0 + CELL * col, y0 + CELL * row, k) for (col, row), k in tiles.items()]
    assert points_of(state, atlas) == {(x + dx, y + dy) for x, y, k in cells for dx, dy in atlas.points(k)}
    cell = next(iter(tiles))
    flipped = {**tiles, cell: TileKind.TAPE_1 if tiles[cell] is TileKind.TAPE_0 else TileKind.TAPE_0}
    assert state == GameState(tiles, state.anchor, junk) == state
    for other in (GameState(flipped, state.anchor, junk), GameState(tiles, state.anchor, junk + 1)):
        assert state != other and other != state
    assert state.tip_count() == list(tiles.values()).count(TileKind.TIP) == len(state.tip_cells()) == 1


def test_single_pattern_at_offset(atlas):
    # a tip pattern dropped at (10, 20) anchors there and fills cell (0, 0)
    state = recognize(place(atlas, TileKind.TIP, (0, 0), (10, 20)), atlas)
    assert state.anchor == (10, 20)
    assert state.tiles == {(0, 0): TileKind.TIP}
    assert state.junk_cells == 0


def test_two_tiles_plus_stray_point(atlas):
    pts = place(atlas, TileKind.TAPE_1, (0, 0)) | place(atlas, TileKind.TAPE_0, (1, 0))
    pts.add((9, 2))  # lone point in cell (2, 0): junk
    state = recognize(pts, atlas)
    assert state.tiles == {(0, 0): TileKind.TAPE_1, (1, 0): TileKind.TAPE_0}
    assert state.junk_cells == 1


def test_extra_point_inside_a_tile_cell_makes_junk(atlas):
    pts = place(atlas, TileKind.TAPE_1, (0, 0))
    pts.add((1, 1))  # tape_1 has no point at (1, 1)
    state = recognize(pts, atlas)
    assert state.tiles == {}
    assert state.junk_cells == 1


@settings(max_examples=60)
@given(
    st.sets(st.sampled_from(list(TileKind)), min_size=0, max_size=5),
    st.integers(min_value=0, max_value=57),
    st.integers(min_value=0, max_value=57),
)
def test_translation_covariance(kinds, dx, dy):
    atlas = atlas_default()
    pts = set()
    for i, kind in enumerate(sorted(kinds, key=lambda k: k.value)):
        pts |= place(atlas, kind, (i, i % 2))
    base = recognize(pts, atlas)
    moved = recognize({(x + dx, y + dy) for x, y in pts}, atlas)
    assert moved.tiles == base.tiles
    assert moved.junk_cells == base.junk_cells
    if pts:
        assert moved.anchor == (base.anchor[0] + dx, base.anchor[1] + dy)


def test_recognize_round_trips_through_points(atlas):
    pts = (
        place(atlas, TileKind.TIP, (2, 3))
        | place(atlas, TileKind.TAPE_1, (2, 2))
        | place(atlas, TileKind.READ_0, (2, 4))
    )
    state = recognize(pts, atlas)
    again = recognize(points_of(state, atlas), atlas)
    assert again.tiles == state.tiles
    assert state_hash(again) == state_hash(state)


@pytest.mark.parametrize("point", [(1, 2, 3), (1,), ()])
def test_a_point_that_is_not_a_pair_raises_value_error(atlas, point):
    with pytest.raises(ValueError):
        recognize([(0, 0), point], atlas)


def test_recognize_reads_columns_with_repeats(atlas):
    pts = sorted(place(atlas, TileKind.TAPE_1, (0, 0), (8, 12)) | {(30, 13)})
    columns = Pairs([x for x, _ in pts] * 2, [y for _, y in pts] * 2)
    assert len(columns) == 2 * len(pts)
    state = recognize(columns, atlas)
    assert (state.tiles, state.anchor, state.junk_cells) == ({(0, 0): TileKind.TAPE_1}, (8, 12), 1)


def test_recognize_builds_no_per_point_objects(atlas):
    # binning the columns keeps one int key and one mask per cell: 29 bytes a
    # point here, with nine points a tile; the set of point tuples it replaced
    # peaked at 124, and a list of point tuples alone costs 64
    pts = sorted(compile_direct(spec_with(ZERO_RUNNER, "0" * 5500 + "1"), atlas))
    columns = Pairs([x for x, _ in pts], [y for _, y in pts])
    recognize(columns, atlas)  # warm up
    tracemalloc.start()
    try:
        state = recognize(columns, atlas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns) > 49_000 and len(state.tiles) == 5509
    assert peak < 60 * len(columns)


def test_hash_round_trip_survives_engine_drift(atlas):
    # after a leftward shift the state holds cells at negative columns;
    # re-recognition rebases them but the digest must not move
    from corpus import PING_PONG, spec_with
    from debilandia.embedding import compile_direct
    from debilandia.engine import step

    state = recognize(compile_direct(spec_with(PING_PONG, "11"), atlas), atlas)
    state, _ = step(state)  # tape now reaches cell (-1, 0)
    assert min(c for c, _ in state.tiles) < 0
    again = recognize(points_of(state, atlas), atlas)
    assert state_hash(again) == state_hash(state)


def test_hash_equal_for_clones(atlas):
    state = recognize(place(atlas, TileKind.STATUS_1, (0, 0)), atlas)
    assert state_hash(state) == state_hash(clone_state(state))


def test_hash_ignores_insertion_order():
    tiles = [((0, 0), TileKind.TAPE_1), ((1, 0), TileKind.TAPE_0), ((0, 1), TileKind.TIP)]
    forward = GameState(dict(tiles), (0, 0), 0)
    backward = GameState(dict(reversed(tiles)), (0, 0), 0)
    assert state_hash(forward) == state_hash(backward)


def test_hash_differs_when_one_tile_flips():
    rng = random.Random(7)
    kinds = list(TileKind)
    collisions = 0
    for _ in range(120):
        tiles = {
            (rng.randint(0, 8), rng.randint(0, 8)): rng.choice(kinds)
            for _ in range(rng.randint(1, 7))
        }
        state = GameState(dict(tiles), (0, 0), 0)
        cell = rng.choice(list(tiles))
        other = rng.choice([k for k in kinds if k is not tiles[cell]])
        flipped_tiles = dict(tiles)
        flipped_tiles[cell] = other
        flipped = GameState(flipped_tiles, (0, 0), 0)
        if state_hash(state) == state_hash(flipped):
            collisions += 1
    assert collisions == 0


def test_hash_distinguishes_translated_layouts():
    # sliding the whole layout is not a repeat of the same state
    tiles = {(0, 0): TileKind.TAPE_1, (1, 0): TileKind.TAPE_0}
    slid = {(1, 0): TileKind.TAPE_1, (2, 0): TileKind.TAPE_0}
    assert state_hash(GameState(tiles, (0, 0), 0)) != state_hash(GameState(slid, (0, 0), 0))


def test_square_points_are_a_times_a():
    points = SquarePoints([3, 1, 3])
    assert len(points) == 4
    assert set(points) == {(1, 1), (1, 3), (3, 1), (3, 3)}


def assert_square_recognition_matches_points(values, atlas):
    """Per-axis recognition of A x A equals recognition of its materialized points."""
    square = recognize(SquarePoints(values), atlas)
    points = recognize(set(product(values, repeat=2)), atlas)
    assert (square.tiles, square.anchor, square.junk_cells) == (points.tiles, points.anchor, points.junk_cells)
    return square


def axis_masks(pattern: int) -> tuple[int, int]:
    """The x offsets and the y offsets of a cell pattern, as 4-bit masks."""
    rows = [pattern >> (CELL * dy) & 0xF for dy in range(CELL)]
    return reduce(or_, rows), sum(1 << dy for dy, row in enumerate(rows) if row)


def test_square_recognition_of_the_accepting_fixture(atlas):
    state = assert_square_recognition_matches_points(ACCEPT_A, atlas)
    assert state.tiles  # the fixture is a machine board


ATLASES = st.one_of(
    st.just(atlas_default()),
    st.permutations(list(atlas_default().patterns.values())).map(lambda masks: TileAtlas(dict(zip(TileKind, masks)))),
)


@settings(max_examples=150, deadline=None)
@given(values=st.sets(st.integers(1, 10**6), min_size=1, max_size=40), atlas=ATLASES)
def test_square_recognition_matches_points_on_sparse_sets(values, atlas):
    assert_square_recognition_matches_points(values, atlas)


@settings(max_examples=150, deadline=None)
@given(
    base=st.integers(1, 10**5),
    blocks=st.lists(st.integers(0, 15), max_size=24),
    kind=st.sampled_from(list(TileKind)),
    where=st.integers(0, 24),
    atlas=ATLASES,
)
def test_square_recognition_matches_points_on_dense_sets(base, blocks, kind, where, atlas):
    # block 0 carries the x offsets of one pattern and another block its y
    # offsets, so the cell they cross is that tile; every pattern holds the
    # cell origin, so block 0 starts at the minimum and fixes the alignment
    x_mask, y_mask = axis_masks(atlas.patterns[kind])
    blocks = [x_mask] + blocks
    blocks.insert(1 + where % len(blocks), y_mask)
    values = {base + CELL * i + offset for i, mask in enumerate(blocks) for offset in range(CELL) if mask >> offset & 1}
    state = assert_square_recognition_matches_points(values, atlas)
    assert kind in state.tiles.values()
