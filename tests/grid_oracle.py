"""Recognition from a set of point tuples, and the digest one tile at a time.

`recognize` was the package's `recognize` for raw points before it read them
as two columns. It builds one tuple per point and a set of them to drop
repeats, then bins the set with `//` and `%`, so it is kept only as the
differential oracle that `test_grid_oracle.py` checks the package's
`recognize` against. It reads any iterable of pairs: `grid.Pairs`,
`grid.SquarePoints` (whose points it materializes) and plain collections
alike.

`state_hash` was the package's `state_hash` before it packed terms into
lanes: it lays out the state's rows and runs splitmix64 on each tile's term
in a Python loop. `test_hash_oracle.py` checks the package's digest against
it bit for bit.
"""

from __future__ import annotations

from typing import Iterable

from debilandia.grid import _EMPTY_HASH, _MASK64, GameState, _mix
from debilandia.tiles import CELL, CellAddr, Point, TileAtlas, TileKind, classify_cell


def recognize(points: Iterable[Point], atlas: TileAtlas) -> GameState:
    """Carve aligned 4x4 cells from the per-axis minimum point and classify each."""
    pts = set(points)
    if not pts:
        return GameState({}, (0, 0), 0)
    x0 = min(x for x, _ in pts)
    y0 = min(y for _, y in pts)
    masks: dict[CellAddr, int] = {}
    for x, y in pts:
        dx, dy = x - x0, y - y0
        cell = (dx // CELL, dy // CELL)
        masks[cell] = masks.get(cell, 0) | 1 << ((dy % CELL) * CELL + dx % CELL)
    tiles: dict[CellAddr, TileKind] = {}
    junk = 0
    for cell, mask in masks.items():
        kind = classify_cell(mask, atlas)
        if kind is None:
            junk += 1
        else:
            tiles[cell] = kind
    return GameState(tiles, (x0, y0), junk)


def state_hash(state: GameState) -> int:
    """The 64-bit digest of the state's tiles, each tile's term mixed on its own."""
    rows = state.rows()
    if not rows:
        return _EMPTY_HASH
    min_col = min(map(min, rows.values()))
    min_row = min(rows)
    ox = state.anchor[0] + CELL * min_col
    oy = state.anchor[1] + CELL * min_row
    acc = _mix(_mix(ox) ^ _mix(oy ^ 0xA5A5A5A5) ^ sum(map(len, rows.values())))
    mask = _MASK64
    for row, cells in rows.items():
        y = ((row - min_row) & 0xFFFFF) << 8
        for col, kind in cells.items():
            # _mix of the tile's term, inlined (the term is under 2**48); code - 1 is the kind's index
            x = ((col - min_col) & 0xFFFFF) << 28 | y | kind.code - 1
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            acc ^= x ^ (x >> 31)
    return acc & mask
