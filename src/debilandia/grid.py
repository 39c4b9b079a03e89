"""Board state: tile recognition from raw points, point reconstruction, hashing.

States are sparse: a mapping from cell address to tile kind plus the lattice
anchor and a count of junk cells. The engine treats states as values; nothing
here mutates a state after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .tiles import CELL, CellAddr, Point, TileAtlas, TileKind, classify_cell

_KIND_INDEX = {kind: i for i, kind in enumerate(TileKind)}
_MASK64 = (1 << 64) - 1
_EMPTY_HASH = 0x9E3779B97F4A7C15


@dataclass
class GameState:
    """Sparse board: cell -> tile, with the recognition anchor and junk tally.

    Junk cells (occupied but matching no pattern) are inert: they never block
    movement or rule matching, so only their count is kept.
    """

    tiles: dict[CellAddr, TileKind]
    anchor: Point = (0, 0)
    junk_cells: int = 0

    def clone(self) -> "GameState":
        return GameState(dict(self.tiles), self.anchor, self.junk_cells)

    def tip_cells(self) -> list[CellAddr]:
        return sorted(c for c, k in self.tiles.items() if k is TileKind.TIP)


def recognize(points: Iterable[Point], atlas: TileAtlas) -> GameState:
    """Carve aligned 4x4 cells from the per-axis minimum point and classify each.

    Deterministic; malformed arrangements are still valid states (their cells
    just count as junk). An empty point set yields the empty state.
    """
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


def points_of(state: GameState, atlas: TileAtlas) -> set[Point]:
    """Reconstruct the lattice points of the state's tiles (junk is not stored)."""
    x0, y0 = state.anchor
    pts: set[Point] = set()
    for (col, row), kind in state.tiles.items():
        for dx, dy in atlas.points(kind):
            pts.add((x0 + col * CELL + dx, y0 + row * CELL + dy))
    return pts


def _mix(x: int) -> int:
    # splitmix64 finalizer; keeps hashing stable across processes
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def state_hash(state: GameState) -> int:
    """64-bit digest of the absolute tile layout.

    Equal layouts hash equal regardless of tile-map insertion order, and the
    digest is a function of absolute lattice content: a state re-recognized
    from its own points (which rebases cell addresses) hashes identically,
    while a translated copy does not.
    """
    if not state.tiles:
        return _EMPTY_HASH
    min_col = min(c for c, _ in state.tiles)
    min_row = min(r for _, r in state.tiles)
    ox = state.anchor[0] + CELL * min_col
    oy = state.anchor[1] + CELL * min_row
    acc = _mix(_mix(ox) ^ _mix(oy ^ 0xA5A5A5A5) ^ len(state.tiles))
    for (col, row), kind in state.tiles.items():
        acc ^= _mix(
            ((col - min_col) & 0xFFFFF) << 28
            | ((row - min_row) & 0xFFFFF) << 8
            | _KIND_INDEX[kind]
        )
    return acc & _MASK64
