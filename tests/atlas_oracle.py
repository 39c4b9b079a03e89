"""The decision problem under any atlas: generated (word, atlas) pairs and the theorem they check.

`word_oracle` decides a set A in closed form under the packaged atlas. Under
any atlas the same argument proves less, but enough to fix every answer the
solver can give:

* Cell (bx, by) of A x A holds block bx of A crossed with block by, so its
  mask is x * _SPREAD[y] for the two blocks' 4-bit offset masks: a rank-1
  4x4 pattern, which fixes both. An atlas gives each kind one mask, so each
  kind arises from at most one (x mask, y mask) pair, and a kind whose mask
  is not rank-1 from none.
* A square with one tip at (tc, tr) has one block of the tip's x mask, so no
  column but tc holds the status kind S of the cell (tc, tr + 2). A fire
  needs a complete packet whose R2 is S. A packet laid right of the tip has
  its R2 in column tc + 2, so only a copy of the tile under the tip can
  bring S into a packet.
* A square that extracts has a tape tile under the tip. So its run ends at
  its first attempt with `no_matching_packet`: `solve` finds (1, 25), and
  `verify` accepts exactly (0, 43) and (E >= 1, 25). No run of it fires
  or cycles, and a budget of one generation witnesses its halt.
* A square whose tape row tr - 1 has the y mask of the status row tr + 2
  holds S under the tip, so it does not extract. Copies can carry S into
  slot 2 of a stacked packet, which may then fire (`firing_roles`). Only
  that packet can fire when every kind outside the roles has a mask that is
  not rank-1, as here. It changes the status to one no other packet reads,
  or keeps it and moves the tape one way, so the run halts, but after any
  number of fires: each block of the tape kind's x mask put in front adds
  one (`long_fire` in FIRING_DIR). Under an atlas that also lays a second
  packet, keyed on the other status, the two packets can send the tape
  back and forth, and the run cycles (`cycle` in FIRING_DIR).

`pairs(seed, count)` draws (word, atlas) pairs built around these roles, and
`check` tests one square against the theorem. Tier-1 checks 10**4 pairs;
`tests/atlas_sweep.py` checks many more.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Iterator

from word_oracle import values_of

from debilandia.embedding import NotATuringMachine, extract_tm
from debilandia.engine import Fired, RunStatus, StopReason, run, step
from debilandia.grid import _SPREAD, SquarePoints, recognize
from debilandia.instances import MARKER_RUNS, MARKER_STOPS, Certificate, Instance
from debilandia.solver import construct_certificate
from debilandia.tiles import (
    CELL,
    TileAtlas,
    TileKind,
    change_tile,
    move_tile,
    read_tile,
    slot_tile,
    status_tile,
    tape_tile,
    write_tile,
)
from debilandia.verifier import verify

MASKS = range(1, 1 << CELL)  # a block's offset mask; 0 is an empty block
RANK_1 = {x * _SPREAD[y]: (x, y) for x in MASKS for y in MASKS}  # a cell mask of A x A to its blocks' masks
NOT_RANK_1 = [mask for mask in range(1, 1 << CELL * CELL) if mask not in RANK_1]
CELL_MASKS = list(RANK_1)
BUDGET = 64  # generations: a generated square halts well within it
CLAIMS = [(gens, marker) for gens in (0, 1, 3) for marker in (MARKER_STOPS, MARKER_RUNS)]
FIRING_DIR = Path(__file__).parent / "firing"  # the firing corpus: <name>.json atlases and words.json


def mask_of(x: int, y: int) -> int:
    """The mask of a cell of A x A whose x block has offset mask x and whose y block y."""
    return x * _SPREAD[y]


def firing_roles(rng: random.Random, tc: int, tr: int, r: int) -> list[tuple[tuple[int, int], TileKind]]:
    """The cells and kinds of a square that copies and then fires: the tip at (tc, tr), S under it, and so on.

    Columns tc - 1 .. tc - 3 of the tape row hold a WRITE, CHANGE and MOVE
    tile, column tc - 4 a tape tile, and (tc + 1, r) the READ tile of a
    stacked packet row r: four copies complete its packet, and it fires when
    the tape tile's bit is the READ tile's.
    """
    read = rng.randrange(2)
    tape = read if rng.randrange(4) else 1 - read
    row = [status_tile(rng.randrange(2)), write_tile(rng.randrange(2)), change_tile(rng.randrange(2))]
    row += [move_tile(rng.randrange(2)), tape_tile(tape)]
    return [((tc, tr), TileKind.TIP), ((tc + 1, r), read_tile(read))] + [
        ((tc - i, tr - 1), kind) for i, kind in enumerate(row)
    ]


def machine_roles(rng: random.Random, tc: int, tr: int, r: int) -> list[tuple[tuple[int, int], TileKind]]:
    """The cells and kinds of a square that may hold a machine: a tape under the tip, a status and a packet in row r."""
    roles = [((tc, tr), TileKind.TIP), ((tc, tr - 1), tape_tile(rng.randrange(2)))]
    roles.append(((tc, tr + 2), status_tile(rng.randrange(2))))
    if rng.randrange(2):
        roles.append(((tc, tr + 1), read_tile(rng.randrange(2))))
    for col in (tc - 1, tc + 1):
        if rng.randrange(2):
            roles.append(((col, tr - 1), tape_tile(rng.randrange(2))))
    roles += [((tc + slot, r), slot_tile(slot, rng.randrange(2))) for slot in range(1, 6) if rng.randrange(8)]
    return roles


def draw(rng: random.Random) -> tuple[tuple[int, ...], TileAtlas]:
    """One (word, atlas) pair: a random word, roles placed on it, and an atlas that makes the roles' tiles.

    A role names a cell and a kind; it fixes the kind's mask to the cell's
    (x mask, y mask) pair, unless the kind or the pair is taken already.
    The firing roles need the tape row's y mask on the status row too. The
    other kinds get masks that are not rank-1, so they make no tile, but
    beside the machine roles a few get free pairs: such a square cannot
    fire, since the tile under its tip is the tape role's, or none.
    """
    while True:
        firing = rng.randrange(2)
        length = rng.randint(11, 16)
        word = [rng.choice(MASKS) if rng.randrange(6) else 0 for _ in range(length)]
        if firing:
            tc, tr = rng.randint(4, length - 2), rng.randint(1, length - 4)
            r = rng.randint(tr + 3, length - 1)
            if rng.randrange(4):  # the role columns, tc - 4 .. tc + 1, of distinct masks
                word[tc - 4 : tc + 2] = rng.sample(MASKS, 6)
            word[tr + 2] = word[tr - 1] = word[tr - 1] or 1
        else:
            tc, tr = rng.randint(1, length - 6), rng.randint(1, length - 3)
            r = rng.randint(tr + 1, length - 1)
            if rng.randrange(4):  # the tip's and the packet's columns, of distinct masks
                word[tc : tc + 6] = rng.sample(MASKS, 6)
        word[tc], word[tr] = word[tc] or 1, word[tr] or 1
        if word[0] & 1 and word.count(word[tc]) == word.count(word[tr]) == 1:
            break
    roles = (firing_roles if firing else machine_roles)(rng, tc, tr, r)
    masks: dict[TileKind, int] = {}
    for (col, row), kind in roles:
        mask = mask_of(word[col], word[row])
        if mask and kind not in masks and mask not in masks.values():
            masks[kind] = mask
    free = [kind for kind in TileKind if kind not in masks]
    rng.shuffle(free)
    for kind in free:
        mask = rng.choice(CELL_MASKS) if not firing and rng.randrange(4) == 0 else rng.choice(NOT_RANK_1)
        while mask in masks.values():
            mask = rng.choice(NOT_RANK_1)
        masks[kind] = mask
    return tuple(word), TileAtlas(masks)


def pairs(seed: int, count: int) -> Iterator[tuple[tuple[int, ...], TileAtlas]]:
    """count (word, atlas) pairs drawn from one seed."""
    rng = random.Random(seed)
    return (draw(rng) for _ in range(count))


def outcomes(state, gens: int) -> list:
    """The outcomes of the state's first gens generations, stepped one at a time and traced by none."""
    made = []
    for _ in range(gens):
        state, outcome = step(state)
        made.append(outcome)
    return made


def check(masks: tuple[int, ...], atlas: TileAtlas) -> tuple[bool, int] | None:
    """(extracts, fires) of the word's square under the atlas, None without one tip; AssertionError against the theorem.

    The run halts within BUDGET, so it does not cycle. A square that
    extracts halts at its first attempt with `no_matching_packet`, so it
    does not fire; `solve` finds (1, 25) for it, and `verify` accepts
    exactly the claims of CLAIMS that the theorem says. `solve` and
    `verify` refuse any other square at extraction, which
    tests/test_solver.py checks, so only its run is checked here.
    """
    values = values_of(masks)
    state = recognize(SquarePoints(values), atlas)
    if state.tip_count() != 1:
        return None
    try:
        extract_tm(state)
        found = True
    except NotATuringMachine:
        found = False
    result = run(state, BUDGET)
    assert result.status is RunStatus.HALTED, (masks, result.status)
    fires = sum(type(outcome) is Fired for outcome in outcomes(state, result.generations_run))
    assert not (found and fires), masks
    if not found:
        return found, fires
    assert (result.reason, result.generations_run) == (StopReason.NO_MATCHING_PACKET, 0), (masks, result)
    inst = Instance(values)
    outcome = construct_certificate(inst, BUDGET, atlas)
    assert outcome.found and (outcome.certificate.gens, outcome.certificate.marker) == (1, MARKER_STOPS), masks
    for gens, marker in CLAIMS:
        accepted = verify(inst, Certificate(SquarePoints(values), gens, marker), atlas).accepted
        assert accepted == ((gens >= 1) == (marker == MARKER_STOPS)), (masks, gens, marker)
    return found, fires


def firing_squares() -> Iterator[tuple[str, tuple[int, ...], TileAtlas]]:
    """The firing corpus: (name, word, atlas) for each square in FIRING_DIR, in name order."""
    words = json.loads((FIRING_DIR / "words.json").read_text())
    for name in sorted(words):
        yield name, tuple(words[name]), TileAtlas.load(FIRING_DIR / f"{name}.json")
