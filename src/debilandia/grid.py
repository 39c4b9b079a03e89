"""Board state: reading a points file, tile recognition from raw points,
point reconstruction, hashing.

States are sparse: a board's tiles plus the lattice anchor and a count of
junk cells. Every state built from a tile map or from a point list holds its
tiles by row, with its tip cells and tile count, filed once when it is made;
a state of A x A holds its block groups instead. The cell -> tile mapping is
built only when it is read. States are values; nothing here mutates one
after construction.
"""

from __future__ import annotations

import json
from itertools import chain, product
from pathlib import Path
from typing import Iterable, Iterator

from .tiles import CELL, CellAddr, Point, TileAtlas, TileKind, decode_text, parse_json

_TIP = TileKind.TIP  # a module global: reading a member off its Enum class costs several times more
_MASK64 = (1 << 64) - 1
_EMPTY_HASH = 0x9E3779B97F4A7C15
# a 4-bit y offset mask to the cell mask of one point at dx = 0 on each row it names
_SPREAD = [sum(1 << CELL * dy for dy in range(CELL) if mask >> dy & 1) for mask in range(1 << CELL)]


class GameState:
    """A board held by row: its tiles by row, then column, its tip cells and tile count.

    Also the recognition anchor and the junk tally: junk cells (occupied but
    matching no pattern) never block movement or rule matching, so only
    their count is kept. States are values: `GameState(tiles, ...)` files
    the map by row once, when it is made, and keeps no reference to it, and
    recognize fills the same fields from a point list. `tiles` is built from
    the rows when read. recognize's state of A x A (_SquareState) and a
    state step made (engine._Made) answer from what they hold instead. The
    engine changes none of the maps rows() hands out.
    """

    __slots__ = ("_rows", "tips", "count", "_tiles", "anchor", "junk_cells", "shared", "key")

    def __init__(self, tiles: dict[CellAddr, TileKind], anchor: Point = (0, 0), junk_cells: int = 0) -> None:
        rows: dict[int, dict[int, TileKind]] = {}
        for (col, r), kind in tiles.items():
            rows.setdefault(r, {})[col] = kind
        self._rows, self.tips, self.count = rows, [cell for cell, kind in tiles.items() if kind is _TIP], len(tiles)
        self._tiles, self.anchor, self.junk_cells = None, anchor, junk_cells
        self.shared = None  # the engine's record, set with the key when it indexes the state

    @property
    def tiles(self) -> dict[CellAddr, TileKind]:
        if self._tiles is None:
            self._tiles = {(col, r): kind for r, cells in self.rows().items() for col, kind in cells.items()}
        return self._tiles

    def rows(self) -> dict[int, dict[int, TileKind]]:
        """The tiles by row, then by column, no row empty; they are the state's own maps: do not change them."""
        return self._rows

    def tile_count(self) -> int:
        """len(tiles), without building them."""
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameState):
            return NotImplemented
        return (self.tiles, self.anchor, self.junk_cells) == (other.tiles, other.anchor, other.junk_cells)

    def __repr__(self) -> str:
        return f"GameState(tiles={self.tiles!r}, anchor={self.anchor!r}, junk_cells={self.junk_cells!r})"

    def tip_cells(self) -> list[CellAddr]:
        return sorted(self.tips)

    def tip_count(self) -> int:
        return len(self.tips)


class _SquareState(GameState):
    """recognize's state of A x A: its tiles held as block-group pairs.

    pairs: (x blocks, y blocks, kind) for each pair of block groups whose
    cells make a tile; every cell of the x blocks crossed with the y blocks
    holds that kind. Tiles and tips are counted as sums of products of group
    sizes, in O(groups^2), so a board without exactly one tip is told apart,
    counted and refused without building a tile. rows() lays them out in
    O(|A| * groups): a cell's kind is fixed by its x group and its y group,
    so every row of one y group holds the same tiles, as one map.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[list[int], list[int], TileKind]], anchor: Point, junk_cells: int) -> None:
        self.pairs, self._tiles, self.anchor, self.junk_cells, self.shared = pairs, None, anchor, junk_cells, None

    def rows(self) -> dict[int, dict[int, TileKind]]:
        """The tiles by row, then by column; the rows of one y group alias one map: change none of them."""
        by_group: dict[int, tuple[list[int], dict[int, TileKind]]] = {}
        for x_blocks, y_blocks, kind in self.pairs:  # a group's first block names it: groups share no block
            by_group.setdefault(y_blocks[0], (y_blocks, {}))[1].update(dict.fromkeys(x_blocks, kind))
        return {y: cells for y_blocks, cells in by_group.values() for y in y_blocks}

    def tile_count(self) -> int:
        return sum(len(x_blocks) * len(y_blocks) for x_blocks, y_blocks, _ in self.pairs)

    def tip_cells(self) -> list[CellAddr]:
        return sorted(chain.from_iterable(product(xs, ys) for xs, ys, kind in self.pairs if kind is _TIP))

    def tip_count(self) -> int:
        return sum(len(x_blocks) * len(y_blocks) for x_blocks, y_blocks, kind in self.pairs if kind is _TIP)


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
    x=a, y=b), and so is a points file.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs: list[int], ys: list[int]) -> None:
        self.xs = xs
        self.ys = ys

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


_POINTS_OPEN = b'{"points": [['  # the bytes json.dumps writes around a non-empty list
_POINTS_CLOSE = b"]]}"


def read_points(path: str | Path) -> Pairs:
    """The points of a file {"points": [[x, y], ...]} of non-negative ints, as two columns.

    The file's bytes are read once. Bytes in the layout json.dumps writes by
    default are proven as they stand (see _proven_points) and parsed as one
    flat array; any other file is decoded by tiles.decode_text, parsed whole
    and checked in C-level passes over the lists. Both give the same points
    and raise the same errors.
    """
    data = Path(path).read_bytes()
    points = _proven_points(data)
    return points if points is not None else _parsed_points(decode_text(data, path), path)


def _proven_points(data: bytes) -> Pairs | None:
    """The points of `json.dumps({"points": [[x, y], ...]})`, the list non-empty; None for other bytes.

    The bytes must open with `{"points": [[` and close with `]]}` verbatim,
    and the list between them must read `[, ], [, ], ..., [, ]` with its
    ASCII digits deleted. So the file is ASCII, holds no newline, and reads
    as its decoded text would. Every coordinate is a run of digits, two to a
    point, parsed as one flat JSON array; a run the parser refuses (empty, a
    leading zero, too many digits) sends the file back to the caller. Each
    `], [` between two points becomes the same-length ` ,  ` first, so the
    replace fills its copy in place, and a digit run written against a bracket
    (`[1, 2]5` or `5[3, 4]`) leaves a stray bracket that the parser refuses.
    No list is built per point and no type is checked: digits make an int >= 0.
    """
    if not (data.startswith(_POINTS_OPEN) and data.endswith(_POINTS_CLOSE)):
        return None
    points = data[len(_POINTS_OPEN) - 1 : len(data) - len(_POINTS_CLOSE) + 1]  # "[x, y], [x, y], ..."
    skeleton = points.translate(None, b"0123456789")  # "[, ]" a point, ", " between two
    if skeleton != b"[, ], " * (len(skeleton) // 6) + b"[, ]":
        return None
    try:
        flat = json.loads(points.replace(b"], [", b" ,  "))  # "[x, y ,  x, y ,  ...]", one flat array
    except ValueError:
        return None
    return Pairs(flat[0::2], flat[1::2])


def _parsed_points(text: str, path: str | Path) -> Pairs:
    """The points of any JSON text, checked in whole-list passes; exact types turn JSON booleans away."""
    obj = parse_json(text, path)
    raw = obj.get("points") if isinstance(obj, dict) else None
    pairs = isinstance(raw, list) and set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}
    flat = list(chain.from_iterable(raw)) if pairs else []
    if not pairs or not set(map(type, flat)) <= {int} or min(flat, default=0) < 0:
        raise ValueError('points file must look like {"points": [[x, y], ...]} with non-negative ints')
    # the points as two strided columns of flat; repeats are harmless
    return Pairs(flat[0::2], flat[1::2])


def recognize(points: Iterable[Point], atlas: TileAtlas) -> GameState:
    """Carve aligned 4x4 cells from the per-axis minimum point and classify each.

    Deterministic; malformed arrangements are still valid states (their cells
    just count as junk). An empty point set yields the empty state. Points
    may repeat. `SquarePoints` is read per axis; any other input is read as
    two columns (`Pairs`, or the columns of an iterable of pairs, made once).
    The columns are binned in one loop of int arithmetic: each point ORs its
    bit into its cell's 16-bit mask, keyed by one int per cell, so a repeated
    point changes nothing and no per-point tuple or set is built. A second
    loop files each cell's tile under its row and column and notes the tips,
    so the state hands the engine its rows and tip as they are and builds no
    tile map unless `tiles` is read (a GameState made field by field). Time
    is O(points + cells), extra memory O(cells).
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
    rows: dict[int, dict[int, TileKind]] = {}
    tips: list[CellAddr] = []
    junk = 0
    kind_of = atlas._by_mask.get  # classify_cell without a Python call per cell
    for key, mask in masks.items():
        kind = kind_of(mask)
        if kind is None:  # a cell that is no tile is junk
            junk += 1
            continue
        try:
            rows[key >> shift][key & col_mask] = kind
        except KeyError:
            rows[key >> shift] = {key & col_mask: kind}
        if kind is _TIP:
            tips.append((key & col_mask, key >> shift))
    state = object.__new__(GameState)  # the map is filed by row already, so GameState's __init__ is skipped
    state._rows, state.tips, state.count = rows, tips, len(masks) - junk
    state._tiles, state.anchor, state.junk_cells, state.shared = None, (x0, y0), junk, None
    return state


def _recognize_square(values: tuple[int, ...], atlas: TileAtlas) -> GameState:
    """recognize of A x A in O(|A| + groups^2); the tiles are built when read (see _SquareState).

    Cell (bx, by) holds the points of block bx of A crossed with those of
    block by, so its mask is fixed by the two blocks' 4-bit offset masks:
    x_mask * _SPREAD[y_mask], the x mask once on each row the y mask names.
    Blocks are grouped by mask (at most 15 groups) and each pair of groups
    is classified once.
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
    pairs = []
    junk = 0
    for y_mask, y_blocks in groups.items():
        spread = _SPREAD[y_mask]
        for x_mask, x_blocks in groups.items():
            kind = atlas._by_mask.get(x_mask * spread)
            if kind is None:
                junk += len(x_blocks) * len(y_blocks)
            else:
                pairs.append((x_blocks, y_blocks, kind))
    return _SquareState(pairs, (base, base), junk)


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
    the engine's position key instead, which is exact. It reads the state's
    rows, so an engine-made state never builds its tile map for it.
    """
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
