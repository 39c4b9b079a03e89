"""Board state: tile recognition from raw points, point reconstruction, hashing.

States are sparse: a mapping from cell address to tile kind plus the lattice
anchor and a count of junk cells. The engine treats states as values; nothing
here mutates a state's tiles after construction.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .tiles import CELL, CellAddr, Point, TileAtlas, TileKind, classify_cell

_KIND_INDEX = {kind: i for i, kind in enumerate(TileKind)}
_MASK64 = (1 << 64) - 1
_EMPTY_HASH = 0x9E3779B97F4A7C15


class GameState:
    """Sparse board: cell -> tile, with the recognition anchor and junk tally.

    Junk cells (occupied but matching no pattern) are inert: they never block
    movement or rule matching, so only their count is kept.

    States are values. A state made by hand holds its `tiles` mapping; the
    engine indexes it on first use (`board`), when it is stepped or a machine
    is extracted from it, so mutate `tiles` only before either. A state the
    engine makes holds only its board and builds `tiles` from it when
    someone reads it.
    """

    __slots__ = ("_tiles", "anchor", "junk_cells", "board")

    def __init__(self, tiles: dict[CellAddr, TileKind], anchor: Point = (0, 0), junk_cells: int = 0) -> None:
        self._tiles = tiles
        self.anchor = anchor
        self.junk_cells = junk_cells
        self.board = None  # the engine's index of this state, built on first use

    @classmethod
    def of_board(cls, board, anchor: Point, junk_cells: int) -> "GameState":
        """A state held as an engine board; board.tiles() builds its mapping."""
        state = cls(None, anchor, junk_cells)
        state.board = board
        return state

    @property
    def tiles(self) -> dict[CellAddr, TileKind]:
        if self._tiles is None:
            self._tiles = self.board.tiles()
        return self._tiles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameState):
            return NotImplemented
        return (self.tiles, self.anchor, self.junk_cells) == (other.tiles, other.anchor, other.junk_cells)

    def __repr__(self) -> str:
        return f"GameState(tiles={self.tiles!r}, anchor={self.anchor!r}, junk_cells={self.junk_cells!r})"

    def tip_cells(self) -> list[CellAddr]:
        if self.board is not None and self.board.tip is not None:
            return [self.board.tip]
        return sorted(c for c, k in self.tiles.items() if k is TileKind.TIP)


class SquarePoints:
    """The point set A x A (x and y both range over A), held as A alone.

    len() is |A|^2 and iteration yields the points, but recognize reads the
    set per axis and never builds its |A|^2 points.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]) -> None:
        self.values = tuple(sorted(set(values)))

    def __len__(self) -> int:
        return len(self.values) ** 2

    def __iter__(self) -> Iterator[Point]:
        return product(self.values, repeat=2)


class Pairs:
    """Points held as two columns: point k is (xs[k], ys[k]).

    len() is the number of points, repeats included, and iteration yields
    the points, but recognize reads the columns and builds no per-point
    tuple. A certificate's pair section is one (pair (a, b) places the point
    x=a, y=b), and so is a points file. `square` is the sorted set A when
    the columns are known to be A x A in lexicographic order, else None.
    """

    __slots__ = ("xs", "ys", "square")

    def __init__(self, xs: list[int], ys: list[int], square: tuple[int, ...] | None = None) -> None:
        self.xs = xs
        self.ys = ys
        self.square = square

    @classmethod
    def of(cls, points: Iterable[Point]) -> "Pairs":
        """The columns of any iterable of pairs; a point that is not a pair raises ValueError."""
        xs: list[int] = []
        ys: list[int] = []
        for x, y in points:
            xs.append(x)
            ys.append(y)
        return cls(xs, ys)

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self) -> Iterator[Point]:
        return zip(self.xs, self.ys)


def recognize(points: Iterable[Point], atlas: TileAtlas) -> GameState:
    """Carve aligned 4x4 cells from the per-axis minimum point and classify each.

    Deterministic; malformed arrangements are still valid states (their cells
    just count as junk). An empty point set yields the empty state. Points
    may repeat. `SquarePoints` is read per axis; any other input is read as
    two columns (`Pairs`, or the columns of an iterable of pairs, made once).
    The columns are binned in one loop of int arithmetic: each point ORs its
    bit into its cell's 16-bit mask, keyed by one int per cell, so a repeated
    point changes nothing and no per-point tuple or set is built. Time is
    O(points + cells), extra memory O(cells).
    """
    if isinstance(points, SquarePoints):
        return _recognize_square(points.values, atlas)
    if not isinstance(points, Pairs):
        points = Pairs.of(points)
    xs, ys = points.xs, points.ys
    if not xs:
        return GameState({}, (0, 0), 0)
    x0 = min(xs)
    y0 = min(ys)
    # CELL is 4: point (dx, dy) from the anchor lies in cell (dx >> 2, dy >> 2)
    # at bit (dy & 3) * 4 + (dx & 3); the cell is keyed as row << shift | col
    shift = (max(xs) - x0 >> 2).bit_length()
    masks: dict[int, int] = {}
    get = masks.get
    for x, y in zip(xs, ys):
        dx = x - x0
        dy = y - y0
        key = dy >> 2 << shift | dx >> 2
        masks[key] = get(key, 0) | 1 << ((dy & 3) << 2 | dx & 3)
    col_mask = (1 << shift) - 1
    tiles: dict[CellAddr, TileKind] = {}
    junk = 0
    for key, mask in masks.items():
        kind = classify_cell(mask, atlas)
        if kind is None:
            junk += 1
        else:
            tiles[key & col_mask, key >> shift] = kind
    return GameState(tiles, (x0, y0), junk)


def _recognize_square(values: tuple[int, ...], atlas: TileAtlas) -> GameState:
    """recognize of A x A in O(|A| + tiles).

    Cell (bx, by) holds the points of block bx of A crossed with those of
    block by, so its mask is fixed by the two blocks' 4-bit offset masks.
    Blocks are grouped by mask (at most 15 groups) and each pair of groups is
    classified once.
    """
    if not values:
        return GameState({}, (0, 0), 0)
    base = values[0]
    block_masks: dict[int, int] = {}
    for v in values:
        block, offset = divmod(v - base, CELL)
        block_masks[block] = block_masks.get(block, 0) | 1 << offset
    groups: dict[int, list[int]] = {}
    for block, mask in block_masks.items():
        groups.setdefault(mask, []).append(block)
    tiles: dict[CellAddr, TileKind] = {}
    junk = 0
    for y_mask, y_blocks in groups.items():
        y_offsets = [dy for dy in range(CELL) if y_mask >> dy & 1]
        for x_mask, x_blocks in groups.items():
            cell_mask = sum(x_mask << CELL * dy for dy in y_offsets)
            kind = classify_cell(cell_mask, atlas)
            if kind is None:
                junk += len(x_blocks) * len(y_blocks)
            else:
                tiles.update(dict.fromkeys(product(x_blocks, y_blocks), kind))
    return GameState(tiles, (base, base), junk)


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
    """64-bit output digest of the absolute tile layout (final_hash, trace lines).

    Equal layouts hash equal regardless of tile-map insertion order, and the
    digest is a function of absolute lattice content: a state re-recognized
    from its own points (which rebases cell addresses) hashes identically,
    while a translated copy does not. It is not an identity: cell offsets
    relative to the lowest column and row wrap at 2**20, so layouts whose
    tiles lie 2**20 cells apart can share a digest. Cycle detection keys on
    the engine's position key instead, which is exact.
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
