"""The decision problem under the packaged atlas, in closed form: an oracle for the tests.

Cell (bx, by) of A x A holds block bx of A crossed with block by, so its mask
is fixed by the two blocks' 4-bit offset masks (`grid._SPREAD`), and the
board is a function of A's block-mask word, `word(A)`. PAIRS lists the
(x mask, y mask) pairs each tile kind arises from, read off the atlas's
masks and `_SPREAD`, not copied; under the packaged atlas each of the 13
kinds has exactly one (`tests/test_word_oracle.py` checks it). So:

* The board has exactly one tip when the word holds one block of the tip's
  x mask (9) and one of its y mask (3).
* It holds a machine exactly when, besides, FIXTURE_WORD stands at six
  consecutive blocks: 9, 3, 15, 5, 7, 11, the x masks of the tip and of the
  packet `STATUS_1` `WRITE_1` `CHANGE_1` `MOVE_1` after it (a tip's y mask is
  `READ_1`'s x mask, the packet's first tile). The tape below the tip is
  one `TAPE_1`, the read slot holds `READ_0` and the status `STATUS_0`, so
  the machine is one rule, (read 1, state 1), on the tape "1" in state 0: it
  halts at its first read. `decide(A)` is that test.
* A found certificate is E = 1 with marker 25, and `verify` accepts exactly
  (0, 43) and (E, 25) for every E >= 1 of a set `decide` accepts:
  `accepted(A, E, marker)`.
* Under this atlas, no run of a board of A x A fires, and none runs more
  than 10 generations. The tile below the tip lies in the tip's column,
  the one block of x mask 9, so it is `TAPE_1`, `READ_0` or `STATUS_0`. A
  fire needs a packet whose R2 is the status tile, also in that column, so
  `STATUS_0`; a packet lies right of the tip, where R2 can only be
  `STATUS_1`. So a run is copies. `STATUS_0` lies only in a row of y mask
  5, which holds nothing else: one copy at most. Every packet that copies
  open takes a slot-1 tile off the tape row, `READ_0` (x mask 9) or
  `READ_1` (x mask 3), each in one block only, and at most five copies:
  ten in all. Under another atlas a square can copy and then fire, for as
  long as its tape allows, or cycle: see the firing corpus of
  `tests/atlas_oracle.py`, which states what holds under every atlas.
"""

from __future__ import annotations

from typing import Iterable

from debilandia.grid import _SPREAD
from debilandia.instances import MARKER_RUNS, MARKER_STOPS, RESERVED
from debilandia.tiles import CELL, TileAtlas, TileKind, atlas_default


def kind_pairs(atlas: TileAtlas) -> dict[TileKind, list[tuple[int, int]]]:
    """Each tile kind's (x mask, y mask) pairs of blocks on A x A, from the atlas's masks and grid._SPREAD."""
    pairs: dict[TileKind, list[tuple[int, int]]] = {}
    for x_mask in range(1, 1 << CELL):
        for y_mask in range(1, 1 << CELL):
            kind = atlas._by_mask.get(x_mask * _SPREAD[y_mask])
            if kind is not None:
                pairs.setdefault(kind, []).append((x_mask, y_mask))
    return pairs


PAIRS = kind_pairs(atlas_default())
TIP_X, TIP_Y = PAIRS[TileKind.TIP][0]
FIXTURE_WORD = (TIP_X, TIP_Y) + tuple(
    PAIRS[kind][0][0] for kind in (TileKind.STATUS_1, TileKind.WRITE_1, TileKind.CHANGE_1, TileKind.MOVE_1)
)


def word(values: Iterable[int]) -> list[int]:
    """The 4-bit offset mask of each block of 4 counted from min A, 0 for an empty block."""
    values = set(values)
    base = min(values)
    masks = [0] * ((max(values) - base) // CELL + 1)
    for v in values:
        block, offset = divmod(v - base, CELL)
        masks[block] |= 1 << offset
    return masks


def values_of(masks: tuple[int, ...]) -> tuple[int, ...]:
    """A set whose word is masks less its leading and trailing 0s, from the first value above the reserved ones."""
    base = max(RESERVED) + 1
    return tuple(base + CELL * block + at for block, mask in enumerate(masks) for at in range(CELL) if mask >> at & 1)


def decide(values: Iterable[int]) -> bool:
    """Whether A x A holds a machine: one block of mask 9, one of mask 3, and FIXTURE_WORD from the 9 on."""
    masks = word(values)
    if masks.count(TIP_X) != 1 or masks.count(TIP_Y) != 1:
        return False
    at = masks.index(TIP_X)
    return tuple(masks[at : at + len(FIXTURE_WORD)]) == FIXTURE_WORD


def accepted(values: Iterable[int], gens: int, marker: int) -> bool:
    """Whether verify accepts the certificate of A with E = gens fours and the marker."""
    claim = (gens == 0 and marker == MARKER_RUNS) or (gens >= 1 and marker == MARKER_STOPS)
    return claim and decide(values)
