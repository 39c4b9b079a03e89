"""Recognition from a set of point tuples.

This was the package's `recognize` for raw points before it read them as two
columns. It builds one tuple per point and a set of them to drop repeats,
then bins the set with `//` and `%`, so it is kept only as the differential
oracle that `test_grid_oracle.py` checks the package's `recognize` against.
It reads any iterable of pairs: `grid.Pairs`, `grid.SquarePoints` (whose
points it materializes) and plain collections alike.
"""

from __future__ import annotations

from typing import Iterable

from debilandia.grid import GameState
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
