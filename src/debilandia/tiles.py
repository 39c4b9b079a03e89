"""Tile identities, the canonical point-pattern atlas, and cell geometry.

The game board is an integer lattice carved into aligned 4x4 cells. A cell
whose points exactly match one of the 13 canonical patterns is a tile; any
other occupied cell is junk. Every pattern in the canonical atlas is a
combinatorial rectangle (a set of columns crossed with a set of rows) and
every pattern contains the cell-local origin (0, 0). The origin property
means the bottom-left point of any tile arrangement is always cell-aligned,
so recognition round-trips exactly through point reconstruction.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from enum import Enum
from functools import cache
from pathlib import Path
from types import MappingProxyType

from .frozen import Frozen

CELL = 4  # cells are 4x4 blocks of lattice points

Point = tuple[int, int]
CellAddr = tuple[int, int]


class TileType(Enum):
    TIP = "tip"
    TAPE = "tape"
    RULE = "rule"


# Packet slot order R1..R5.
SLOT_FAMILIES = ("read", "status", "write", "change_status", "movement")


class TileKind(Enum):
    """The 13 tile identities.

    Rule tiles fill packet slots R1..R5 in the fixed order read, status,
    write, change-status, movement. A movement value of 1 shifts the tape
    row left, 0 shifts it right.

    Each member derives its facts from its value, "<family>_<bit>" or "tip":
    family (identity with the constant stripped), bit (None for the tip),
    slot (packet slot 1..5 for rule tiles, None otherwise) and tile_type.
    code (1..13, the member's place in this list) stands for the kind in keys
    and digests, where hashing the member would run Enum.__hash__ in Python;
    as codes are at most 15, a key packs one in four bits, 0 for no tile.
    """

    TIP = "tip"
    TAPE_1 = "tape_1"
    TAPE_0 = "tape_0"
    READ_1 = "read_1"
    READ_0 = "read_0"
    STATUS_1 = "status_1"
    STATUS_0 = "status_0"
    WRITE_1 = "write_1"
    WRITE_0 = "write_0"
    CHANGE_1 = "change_status_1"
    CHANGE_0 = "change_status_0"
    MOVE_1 = "movement_1"
    MOVE_0 = "movement_0"

    def __init__(self, value: str) -> None:
        family, _, bit = value.rpartition("_")
        self.family: str = family or value
        self.bit: int | None = int(bit) if family else None
        self.slot: int | None = SLOT_FAMILIES.index(family) + 1 if family in SLOT_FAMILIES else None
        self.tile_type: TileType = TileType.RULE if self.slot else TileType(self.family)
        self.code: int = len(type(self)._member_names_) + 1


_KIND_FOR = {(k.family, k.bit): k for k in TileKind}


def tape_tile(value: int) -> TileKind:
    return _KIND_FOR[("tape", value)]


def read_tile(value: int) -> TileKind:
    return _KIND_FOR[("read", value)]


def status_tile(value: int) -> TileKind:
    return _KIND_FOR[("status", value)]


def write_tile(value: int) -> TileKind:
    return _KIND_FOR[("write", value)]


def change_tile(value: int) -> TileKind:
    return _KIND_FOR[("change_status", value)]


def move_tile(value: int) -> TileKind:
    return _KIND_FOR[("movement", value)]


def slot_tile(slot: int, value: int) -> TileKind:
    """Rule tile for packet slot 1..5 carrying the given bit."""
    return _KIND_FOR[(SLOT_FAMILIES[slot - 1], value)]


class AtlasError(ValueError):
    """Raised for atlas files that violate the atlas invariants."""


class TileAtlas(Frozen):
    """Mapping from tile kind to its 16-bit cell occupancy mask.

    Bit i of a mask is the point at (dx, dy) = (i % 4, i // 4), with dy
    counted upward from the cell's bottom edge. An atlas is read-only
    (`patterns` is a read-only copy of the mapping it was given), so one
    instance can be shared: `atlas_default` hands out the same one. Atlases
    compare on `patterns` alone; the lookup tables built from it are not
    fields.
    """

    __slots__ = ("patterns", "_by_mask", "_points")
    _fields = ("patterns",)
    patterns: Mapping[TileKind, int]
    _by_mask: dict[int, TileKind]
    _points: dict[TileKind, frozenset[Point]]

    def __init__(self, patterns: Mapping[TileKind, int]) -> None:
        patterns = MappingProxyType(dict(patterns))
        if set(patterns) != set(TileKind):
            raise AtlasError("atlas must define exactly the 13 tile kinds")
        if any(mask == 0 or mask >> 16 for mask in patterns.values()):
            raise AtlasError("atlas masks must be non-empty 16-bit values")
        by_mask = {mask: kind for kind, mask in patterns.items()}
        if len(by_mask) != len(patterns):
            raise AtlasError("atlas masks must be pairwise distinct")
        points = {
            kind: frozenset((i % CELL, i // CELL) for i in range(16) if mask >> i & 1)
            for kind, mask in patterns.items()
        }
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "_by_mask", by_mask)
        object.__setattr__(self, "_points", points)

    def points(self, kind: TileKind) -> frozenset[Point]:
        """Cell-local (dx, dy) offsets of the pattern's points, built once per atlas."""
        return self._points[kind]

    def to_json_obj(self) -> dict[str, str]:
        return {kind.value: _mask_to_string(mask) for kind, mask in self.patterns.items()}

    @classmethod
    def from_json_obj(cls, obj: dict[str, str]) -> "TileAtlas":
        names = {k.value for k in TileKind}
        if not isinstance(obj, dict) or set(obj) != names:
            raise AtlasError(f"atlas file must map exactly the names {sorted(names)}")
        return cls({TileKind(name): _string_to_mask(text) for name, text in obj.items()})

    @classmethod
    def load(cls, path: str | Path) -> "TileAtlas":
        return cls.from_json_obj(parse_json(read_text(path), path))


def decode_text(data: bytes, path: str | Path) -> str:
    """The text of a UTF-8 file's bytes, its newlines translated as a text-mode
    read translates them; bytes that are not UTF-8 are a ValueError naming the path."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text, decoded as decode_text decodes its bytes."""
    return decode_text(Path(path).read_bytes(), path)


def parse_json(text: str, path: str | Path):
    """Parse the text of the file at path; malformed JSON, nesting too deep for
    the parser, or an integer too long to convert is a ValueError naming the path."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or int()'s limit on digits
        raise ValueError(f"{path}: {exc}") from None


# A pattern string is 16 chars, row-major, top row (dy = 3) first: char i
# is the point (dx, dy) = (i % 4, 3 - i // 4).
def _mask_to_string(mask: int) -> str:
    return "".join(str(mask >> ((CELL - 1 - i // CELL) * CELL + i % CELL) & 1) for i in range(CELL * CELL))


def _string_to_mask(text: str) -> int:
    if not isinstance(text, str) or len(text) != 16 or set(text) - {"0", "1"}:
        raise AtlasError(f"pattern string must be 16 chars of 0/1, got {text!r}")
    return sum(1 << ((CELL - 1 - i // CELL) * CELL + i % CELL) for i, ch in enumerate(text) if ch == "1")


@cache
def atlas_default() -> TileAtlas:
    """The canonical atlas shipped with the package, loaded once per process.

    The file `data/atlas.json` is read through the loader that imported this
    module, so it is found wherever the package was imported from, a
    directory or a zip archive, and reading it imports no module.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "atlas.json")
    return TileAtlas.from_json_obj(json.loads(__spec__.loader.get_data(path)))


def classify_cell(mask: int, atlas: TileAtlas) -> TileKind | None:
    """Exact-match a cell occupancy mask; None means junk."""
    return atlas._by_mask.get(mask)
