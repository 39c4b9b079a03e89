"""One-generation step semantics and multi-generation runs with cycle detection.

Each generation the tip reads the cell directly below it:

* Tape tile below: the read value Q is copied into the read slot directly
  above the tip (overwriting whatever is there), and complete rule packets in
  the five columns right of the tip are scanned upward starting one row above
  the tip. The first packet whose R1 equals Q and whose R2 equals the status
  tile two cells above the tip fires: R3 is written below the tip as a tape
  tile, R4 replaces the status tile, and every tape tile in the row below the
  tip shifts one cell in the direction named by R5 (1 = left, 0 = right).
  No matching packet ends the game.

* Rule tile below: the tile is copied into the next in-order slot of the
  highest (greatest-row) incomplete packet above the tip, opening a fresh row
  above the highest packet when none is incomplete (or at tip_row + 1 when
  there are no packets). Every tile strictly left of the consumed cell in its
  row then shifts one cell right; the consumed tile is removed, replaced by
  its left neighbour when one exists.

* Anything else (empty cell, no tip, several tips, missing status tile at
  read time, slot-order violations, shift collisions) terminates the game.

A terminating step never mutates: it returns the input state unchanged, so
termination is absorbing and re-stepping reproduces the same outcome.
Shifting moves whole rows at once, one cell per generation, so tiles stay
cell-aligned and same-row collisions cannot happen; a tape tile shifted onto
a non-tape tile is a rules violation and terminates the game instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .grid import GameState, state_hash
from .tiles import CellAddr, TileKind, TileType, read_tile, status_tile, tape_tile

PACKET_WIDTH = 5


class StopReason(Enum):
    NO_TIP = "no_tip"
    MULTIPLE_TIPS = "multiple_tips"
    NOTHING_BELOW_TIP = "nothing_below_tip"
    NO_MATCHING_PACKET = "no_matching_packet"
    MALFORMED_TIP_CONTEXT = "malformed_tip_context"


@dataclass(frozen=True)
class Fired:
    packet_row: int


@dataclass(frozen=True)
class RuleCopied:
    target_row: int
    slot: int


@dataclass(frozen=True)
class Terminated:
    reason: StopReason


StepOutcome = Fired | RuleCopied | Terminated


class RunStatus(Enum):
    HALTED = "halted"
    CYCLE = "cycle"
    BUDGET = "budget_exhausted"


@dataclass
class RunResult:
    final_state: GameState
    generations_run: int
    status: RunStatus
    reason: StopReason | None = None
    period: int | None = None
    first_index: int | None = None

    @property
    def stopped(self) -> bool:
        """Stabilized within budget: terminated, or entered a repeating cycle."""
        return self.status is not RunStatus.BUDGET


@dataclass
class StepRecord:
    gen: int
    outcome: StepOutcome
    state_hash: int
    changed_cells: list[CellAddr]


def packet_rows(state: GameState, tip: CellAddr) -> list[tuple[int, list[TileKind] | None]]:
    """Classify every row above the tip that holds a rule tile in the packet columns.

    Returns (row, prefix) in ascending row order. The prefix is the row's
    well-formed packet: slot-i tiles at columns tip_col + i with no gaps and
    nothing after the first empty column; five tiles make it complete. A row
    breaking that shape gets None (malformed). Rows with no rule tiles cannot
    host a packet, so they are skipped rather than walked.
    """
    tc, tr = tip
    rows = {
        row
        for (col, row), kind in state.tiles.items()
        if kind.tile_type is TileType.RULE and tc + 1 <= col <= tc + PACKET_WIDTH and row > tr
    }
    classified: list[tuple[int, list[TileKind] | None]] = []
    for row in sorted(rows):
        cells = [state.tiles.get((tc + i, row)) for i in range(1, PACKET_WIDTH + 1)]
        filled = cells.index(None) if None in cells else PACKET_WIDTH
        prefix = cells[:filled]
        well_formed = all(kind.slot == i for i, kind in enumerate(prefix, start=1)) and all(
            kind is None for kind in cells[filled:]
        )
        classified.append((row, prefix if well_formed else None))
    return classified


def scan_packets(state: GameState, tip: CellAddr) -> list[tuple[int, list[TileKind]]]:
    """Complete packets above the tip in scan (bottom-up) order."""
    return complete_packets(packet_rows(state, tip))


def complete_packets(rows: list[tuple[int, list[TileKind] | None]]) -> list[tuple[int, list[TileKind]]]:
    """The complete packets among classified packet rows."""
    return [(row, prefix) for row, prefix in rows if prefix is not None and len(prefix) == PACKET_WIDTH]


def _shift_row(
    tiles: dict[CellAddr, TileKind], row: int, dx: int, moves: Callable[[int, TileKind], bool]
) -> bool:
    """Move the tiles of one row that moves(col, kind) selects dx cells, in place.

    Returns False, leaving tiles untouched, when a mover would land on a tile
    of the row that stays.
    """
    movers = {cell: kind for cell, kind in tiles.items() if cell[1] == row and moves(cell[0], kind)}
    if any((col + dx, row) in tiles and (col + dx, row) not in movers for col, _ in movers):
        return False
    for cell in movers:
        del tiles[cell]
    for (col, _), kind in movers.items():
        tiles[(col + dx, row)] = kind
    return True


def step(state: GameState) -> tuple[GameState, StepOutcome]:
    """Run exactly one generation; pure, deterministic."""
    tips = state.tip_cells()
    if not tips:
        return state, Terminated(StopReason.NO_TIP)
    if len(tips) > 1:
        return state, Terminated(StopReason.MULTIPLE_TIPS)
    tc, tr = tips[0]
    below = state.tiles.get((tc, tr - 1))
    if below is None or below.tile_type is TileType.TIP:
        return state, Terminated(StopReason.NOTHING_BELOW_TIP)
    if below.tile_type is TileType.TAPE:
        return _fire(state, (tc, tr), below)
    return _copy_rule(state, (tc, tr), below)


def _fire(state: GameState, tip: CellAddr, below: TileKind) -> tuple[GameState, StepOutcome]:
    tc, tr = tip
    q = below.bit
    status = state.tiles.get((tc, tr + 2))
    if status is None or status.family != "status":
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    s = status.bit
    match = None
    for row, tiles in scan_packets(state, tip):
        if tiles[0].bit == q and tiles[1].bit == s:
            match = (row, tiles)
            break
    if match is None:
        return state, Terminated(StopReason.NO_MATCHING_PACKET)
    row, (_, _, r3, r4, r5) = match

    new_tiles = dict(state.tiles)
    new_tiles[(tc, tr + 1)] = read_tile(q)
    new_tiles[(tc, tr - 1)] = tape_tile(r3.bit)
    new_tiles[(tc, tr + 2)] = status_tile(r4.bit)
    dx = -1 if r5.bit == 1 else 1
    if not _shift_row(new_tiles, tr - 1, dx, lambda col, kind: kind.tile_type is TileType.TAPE):
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    return GameState(new_tiles, state.anchor, state.junk_cells), Fired(row)


def _copy_rule(state: GameState, tip: CellAddr, below: TileKind) -> tuple[GameState, StepOutcome]:
    tc, tr = tip
    packets = [(row, prefix) for row, prefix in packet_rows(state, tip) if prefix is not None]
    incomplete = [(row, len(prefix)) for row, prefix in packets if len(prefix) < PACKET_WIDTH]
    if incomplete:
        target, filled = incomplete[-1]
    else:
        target = packets[-1][0] + 1 if packets else tr + 1
        filled = 0
    slot = filled + 1
    if below.slot != slot:
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    dest = (tc + slot, target)
    if dest in state.tiles:
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)

    new_tiles = dict(state.tiles)
    new_tiles[dest] = below
    del new_tiles[(tc, tr - 1)]  # consumed; its left neighbours slide into the gap
    _shift_row(new_tiles, tr - 1, 1, lambda col, kind: col < tc)
    return GameState(new_tiles, state.anchor, state.junk_cells), RuleCopied(target, slot)


def _diff_cells(before: GameState, after: GameState) -> list[CellAddr]:
    changed = {
        cell
        for cell in set(before.tiles) | set(after.tiles)
        if before.tiles.get(cell) is not after.tiles.get(cell)
    }
    return sorted(changed)


def run(
    state: GameState,
    max_gens: int,
    on_step: Callable[[StepRecord], None] | None = None,
) -> RunResult:
    """Iterate generations until termination, a repeated state, or budget.

    Hashes are recorded every generation; the first repeated hash reports a
    cycle whose period is the distance between the two occurrences (a fixed
    point is a period-1 cycle). The terminating attempt consumes no budget,
    so witnessing a halt after g successful generations needs max_gens > g.
    """
    if max_gens < 0:
        raise ValueError("max_gens must be >= 0")
    seen = {state_hash(state): 0}
    gens = 0
    while True:
        if gens == max_gens:
            return RunResult(state, gens, RunStatus.BUDGET)
        new_state, outcome = step(state)
        if isinstance(outcome, Terminated):
            if on_step is not None:
                on_step(StepRecord(gens + 1, outcome, state_hash(state), []))
            return RunResult(state, gens, RunStatus.HALTED, reason=outcome.reason)
        gens += 1
        h = state_hash(new_state)
        if on_step is not None:
            on_step(StepRecord(gens, outcome, h, _diff_cells(state, new_state)))
        state = new_state
        if h in seen:
            first = seen[h]
            return RunResult(state, gens, RunStatus.CYCLE, period=gens - first, first_index=first)
        seen[h] = gens
