"""Board state: reading a points file, tile recognition from raw points,
point reconstruction, hashing.

States are sparse: a board's tiles plus the lattice anchor and a count of
junk cells. Every state built from a tile map or from a point list holds its
tiles by row, with its tip cells, filed once when it is made; a state of
A x A holds its block groups instead. The rows are the only stored board:
the cell -> tile mapping is a read-only view, built only when it is read.
States are values; nothing here mutates one after construction.
"""

from __future__ import annotations

import json
from itertools import chain, islice, product, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .tiles import CELL, CellAddr, Point, TileAtlas, TileKind, decode_text, parse_json

_TIP = TileKind.TIP  # a module global: reading a member off its Enum class costs several times more
_MASK64 = (1 << 64) - 1
_EMPTY_HASH = 0x9E3779B97F4A7C15
_WRAP = 0xFFFFF  # digest offsets wrap at 2**20 cells
_LANE = 128  # bits a digest term takes when packed: 64, and room for a 64-bit product
_BLOCK = 4096  # lanes packed and mixed at once, a power of two
_SHORT = 16  # a run piece shorter than this is mixed as loose terms: _block breaks even at 13 to 16 tiles
# a 4-bit y offset mask to the cell mask of one point at dx = 0 on each row it names
_SPREAD = [sum(1 << CELL * dy for dy in range(CELL) if mask >> dy & 1) for mask in range(1 << CELL)]


class GameState:
    """A board held by row: its tiles by row, then column, and its tip cells.

    Also the recognition anchor and the junk tally: junk cells (occupied but
    matching no pattern) never block movement or rule matching, so only
    their count is kept. States are values: `GameState(tiles, ...)` files
    the map by row once and keeps no reference to it, and recognize fills
    the same fields from a point list. The rows are the only stored board:
    `==`, points_of, state_hash and the engine read them, and `tiles` is a
    read-only view built from them when read. _SquareState and engine._Made
    answer from what they hold instead; nothing changes rows()' maps.
    """

    __slots__ = ("_rows", "tips", "_tiles", "anchor", "junk_cells", "shared", "key")

    def __init__(self, tiles: dict[CellAddr, TileKind], anchor: Point = (0, 0), junk_cells: int = 0) -> None:
        rows: dict[int, dict[int, TileKind]] = {}
        for (col, r), kind in tiles.items():
            rows.setdefault(r, {})[col] = kind
        self._rows, self.tips = rows, [cell for cell, kind in tiles.items() if kind is _TIP]
        self._tiles, self.anchor, self.junk_cells = None, anchor, junk_cells
        self.shared = None  # the engine's record, set with the key when it indexes the state

    @property
    def tiles(self) -> Mapping[CellAddr, TileKind]:
        """The tiles by cell, a read-only view of a plain dict built from rows() once, when first read."""
        if self._tiles is None:
            self._tiles = {(col, r): kind for r, cells in self.rows().items() for col, kind in cells.items()}
        return MappingProxyType(self._tiles)

    def rows(self) -> dict[int, dict[int, TileKind]]:
        """The tiles by row, then by column, no row empty; they are the state's own maps: do not change them."""
        return self._rows

    def tile_count(self) -> int:
        """len(tiles), without building them: the row sizes, summed at C speed."""
        return sum(map(len, self._rows.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameState):
            return NotImplemented
        return (self.rows(), self.anchor, self.junk_cells) == (other.rows(), other.anchor, other.junk_cells)

    def __repr__(self) -> str:
        return f"GameState(tiles={dict(self.tiles)!r}, anchor={self.anchor!r}, junk_cells={self.junk_cells!r})"

    def tip_cells(self) -> list[CellAddr]:
        return sorted(self.tips)

    def _hash_parts(self) -> tuple[Mapping[int, Mapping[int, TileKind]], list[tuple[int, int, int, int]], list[tuple]]:
        """state_hash's tiles, each once: rows, runs and single tiles (see _lane_digest); here, the rows alone.

        A kind of state hands over what it holds. Single tiles lie in or
        right of the lowest column of the rows and runs, and in or above
        their lowest row.
        """
        return self.rows(), [], []

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
    state._rows, state.tips = rows, tips
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
    """Reconstruct the lattice points of the state's tiles (junk is not stored); walks rows(), no tile map."""
    x0, y0 = state.anchor
    pts: set[Point] = set()
    for row, cells in state.rows().items():
        for col, kind in cells.items():
            pts.update((x0 + col * CELL + dx, y0 + row * CELL + dy) for dx, dy in atlas.points(kind))
    return pts


def _mix(x: int) -> int:
    # splitmix64 finalizer; keeps hashing stable across processes
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


_FOLDS = tuple(_LANE << k for k in reversed(range(_BLOCK.bit_length() - 1)))  # widths halving _BLOCK lanes to one
_LANE_CONSTANTS: tuple[int, ...] = ()  # _lanes(), once a digest has needed them


def _lanes() -> tuple[int, ...]:
    """_BLOCK lanes each of 1, of the column parts of offsets _BLOCK - 1 down to 0, and of 2**64 - 1.

    Built by doubling the first time a digest needs them, and kept: about
    200 KB, which importing the package does not pay for.
    """
    global _LANE_CONSTANTS
    ones, down = 1, (_BLOCK - 1) << 28
    for shift in reversed(_FOLDS):  # one lane, two, four, ...
        down |= (down - (shift // _LANE << 28) * ones) << shift
        ones |= ones << shift
    _LANE_CONSTANTS = ones, down, ones * _MASK64
    return _LANE_CONSTANTS


def _block(packed: int, low: int) -> int:
    """The XOR over packed's lanes of splitmix64's finalizer short of its last xor-shift, on each lane's term.

    At most _BLOCK terms under 2**48, one to a lane. Every step is one
    big-int operation on all the lanes at once (SWAR): a lane keeps 64 bits
    and has room for a 64-bit product; the AND with low (2**64 - 1 in every
    lane) drops what a shift brought in from the lane above and what a
    product carried past 64 bits; and the lanes are XOR-folded, halving
    _BLOCK lanes to one in a fixed number of steps. The finalizer's last
    xor-shift is linear, so _lane_digest applies it once, to the XOR of
    every block's.
    """
    packed = (packed ^ packed >> 30) & low
    packed = packed * 0xBF58476D1CE4E5B9 & low
    packed = (packed ^ packed >> 27) & low
    packed *= 0x94D049BB133111EB
    for width in _FOLDS:
        high = packed >> width
        packed ^= high << width ^ high
    return packed & _MASK64


def _packed(terms: list[int]) -> int:
    """At most _BLOCK terms, one to a lane, packed by int.to_bytes at C speed."""
    return int.from_bytes(b"".join(map(int.to_bytes, terms, repeat(_LANE // 8), repeat("little"))), "little")


def _lane_digest(
    rows: Mapping[int, Mapping[int, TileKind]],
    runs: list[tuple[int, int, int, int]],
    singles: list[tuple],
    min_col: int,
    min_row: int,
) -> int:
    """The XOR of splitmix64's finalizer over the terms of the tiles in rows, in runs and in singles.

    A tile's term is ((col - min_col) & _WRAP) << 28 | ((row - min_row) &
    _WRAP) << 8 | code - 1. rows map a row to its tiles by column. A run
    (row, first, count, code) is count tiles of one kind side by side from
    column first on, so its terms are an arithmetic progression. A single
    tile is a (row, col, kind, _) tuple. A run is split where its offsets
    wrap and into blocks of _BLOCK lanes; a piece of _SHORT or more tiles is
    packed in four big-int operations, and a shorter one joins the loose
    terms. Every tile of rows and every single tile is a loose term, made in
    Python and packed at C speed, _BLOCK at a time. So Python work is per
    run, per block and per other tile, and extra memory is one int per
    single tile and per term of a short piece, plus O(_BLOCK) lanes.
    """
    acc = 0
    ones, down, low = _LANE_CONSTANTS or _lanes()
    terms = [(col - min_col & _WRAP) << 28 | (row - min_row & _WRAP) << 8 | kind.code - 1 for row, col, kind, _ in singles]
    for row, first, count, code in runs:
        offset, part = first - min_col, (row - min_row & _WRAP) << 8 | code - 1
        while count:
            offset &= _WRAP
            n = min(count, _WRAP + 1 - offset, _BLOCK)
            base = offset << 28 | part
            if n < _SHORT:
                terms += range(base, base + (n << 28), 1 << 28)
            else:
                cut = _LANE * (_BLOCK - n)
                acc ^= _block(base * (ones >> cut) + (down >> cut), low)
            offset += n
            count -= n
    in_rows = (
        (col - min_col & _WRAP) << 28 | (row - min_row & _WRAP) << 8 | kind.code - 1
        for row, cells in rows.items()
        for col, kind in cells.items()
    )
    tiles = chain(terms, in_rows)
    while block := list(islice(tiles, _BLOCK)):
        acc ^= _block(_packed(block), low)
    return acc ^ acc >> 31


def state_hash(state: GameState) -> int:
    """64-bit output digest of the absolute tile layout (final_hash, trace lines).

    Equal layouts hash equal regardless of tile-map insertion order, and the
    digest is a function of absolute lattice content: a state re-recognized
    from its own points (which rebases cell addresses) hashes identically,
    while a translated copy does not. It is not an identity: cell offsets
    relative to the lowest column and row wrap at 2**20, so layouts whose
    tiles lie 2**20 cells apart can share a digest. Cycle detection keys on
    the engine's position key instead, which is exact.

    The digest is a header, mixed from the origin and the tile count, XOR
    splitmix64's finalizer of one term per tile: the tile's column and row
    offsets from the lowest column and row, each wrapped at 2**20, and its
    kind's index (see _lane_digest). Each kind of state hands over its tiles
    from what it holds (_hash_parts), and _lane_digest packs a run of equal
    tiles into lanes without a Python step per tile. A state the engine made
    hands over its tape row as the position key's runs, so its digest costs
    O(runs + other tiles) Python work and builds no tile map or tape row.
    """
    rows, runs, singles = state._hash_parts()
    lowest = [(first, row) for row, first, _, _ in runs]
    if rows:
        lowest.append((min(map(min, rows.values())), min(rows)))
    if not lowest:
        return _EMPTY_HASH
    min_col, min_row = map(min, zip(*lowest))
    ox = state.anchor[0] + CELL * min_col
    oy = state.anchor[1] + CELL * min_row
    header = _mix(_mix(ox) ^ _mix(oy ^ 0xA5A5A5A5) ^ state.tile_count())
    return header ^ _lane_digest(rows, runs, singles, min_col, min_row)
