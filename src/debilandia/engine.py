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

The engine plays on a row board, built once from a state's tiles and then
carried from each state to its successor. A row keeps its cells keyed by
column minus a row offset, so sliding a whole row is one change of offset,
and a successor shares every row it does not change with its parent. Above
the tip the board indexes the packets: the incomplete well-formed rows as a
stack (highest on top), the highest well-formed row, and for each (R1, R2)
the lowest complete packet. Packets only ever gain tiles, by copies, so a
copy updates one entry and a fire reads one. The position key,
sum(z(kind) * B**col * C**row) mod 2**61 - 1, changes by one term per
changed row. (Modulo 2**64 every odd base lets Thue-Morse rows collide.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .grid import GameState, state_hash
from .tiles import CellAddr, TileKind, TileType, read_tile, status_tile, tape_tile

PACKET_WIDTH = 5

_P = (1 << 61) - 1
_COL_BASE = 0x5DEECE66D1F0A3B7 % _P
_ROW_BASE = 0x2545F4914F6CDD1D % _P
_COL_STEP = {1: _COL_BASE, -1: pow(_COL_BASE, -1, _P)}
_Z = {kind: (i + 1) * 0x9E3779B97F4A7C15 % _P for i, kind in enumerate(TileKind)}


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


def packet_rows(rows: dict[int, _Row], tip: CellAddr) -> list[tuple[int, list[TileKind] | None]]:
    """Classify every board row above the tip that holds a rule tile in the packet columns.

    Returns (row, classify_packet(cells)) in ascending row order, where cells
    are the row's tiles at columns tip_col + 1 .. tip_col + 5. Rows with no
    rule tiles cannot host a packet, so they are skipped.
    """
    tc, tr = tip
    classified = []
    for r in sorted(r for r in rows if r > tr):
        cells = [rows[r].get(tc + i) for i in range(1, PACKET_WIDTH + 1)]
        if any(kind is not None and kind.tile_type is TileType.RULE for kind in cells):
            classified.append((r, classify_packet(cells)))
    return classified


def classify_packet(cells: list[TileKind | None]) -> list[TileKind] | None:
    """The well-formed packet in one row's five packet cells, or None (malformed).

    Well-formed means slot-i tiles at cell i with no gaps and nothing after
    the first empty cell; five tiles make the packet complete.
    """
    filled = cells.index(None) if None in cells else PACKET_WIDTH
    prefix = cells[:filled]
    well_formed = all(kind.slot == i for i, kind in enumerate(prefix, start=1)) and all(
        kind is None for kind in cells[filled:]
    )
    return prefix if well_formed else None


def scan_packets(state: GameState, tip: CellAddr) -> list[tuple[int, list[TileKind]]]:
    """Complete packets above the tip in scan (bottom-up) order."""
    rows = packet_rows(board_of(state).rows, tip)
    return [(row, prefix) for row, prefix in rows if prefix is not None and len(prefix) == PACKET_WIDTH]


class _Row:
    """One board row, never changed once built: successors share it.

    cells maps column - off to tile; h = sum(z(kind) * B**col) mod _P over
    absolute columns; nontape counts the tiles that are not tape tiles; right
    is an upper bound on the highest occupied column.
    """

    __slots__ = ("off", "cells", "h", "nontape", "right")

    def __init__(self, off: int, cells: dict[int, TileKind], h: int, nontape: int, right: int) -> None:
        self.off = off
        self.cells = cells
        self.h = h
        self.nontape = nontape
        self.right = right

    @classmethod
    def of(cls, cells: dict[int, TileKind]) -> "_Row":
        """A row from its tiles by absolute column; O(len(cells))."""
        h = sum(_Z[kind] * pow(_COL_BASE, col, _P) for col, kind in cells.items()) % _P
        nontape = sum(kind.tile_type is not TileType.TAPE for kind in cells.values())
        return cls(0, cells, h, nontape, max(cells, default=0))

    def get(self, col: int) -> TileKind | None:
        return self.cells.get(col - self.off)

    def absolute(self) -> dict[int, TileKind]:
        off = self.off
        return {k + off: kind for k, kind in self.cells.items()}

    def put(self, col: int, kind: TileKind) -> "_Row":
        """This row with kind written at col."""
        cells = dict(self.cells)
        old = cells.get(col - self.off)
        cells[col - self.off] = kind
        dz = _Z[kind] - (0 if old is None else _Z[old])
        nontape = self.nontape + (kind.tile_type is not TileType.TAPE)
        if old is not None:
            nontape -= old.tile_type is not TileType.TAPE
        h = (self.h + dz * pow(_COL_BASE, col, _P)) % _P
        return _Row(self.off, cells, h, nontape, max(self.right, col))

    def without(self, col: int) -> "_Row":
        """This row with the tile at col removed."""
        cells = dict(self.cells)
        kind = cells.pop(col - self.off)
        h = (self.h - _Z[kind] * pow(_COL_BASE, col, _P)) % _P
        nontape = self.nontape - (kind.tile_type is not TileType.TAPE)
        return _Row(self.off, cells, h, nontape, col - 1 if col >= self.right else self.right)

    def slid(self, dx: int) -> "_Row":
        """This whole row dx = +-1 cells over, sharing its cell map; O(1)."""
        return _Row(self.off + dx, self.cells, self.h * _COL_STEP[dx] % _P, self.nontape, self.right + dx)

    def relaid(self, dx: int, moves: Callable[[int, TileKind], bool]) -> "_Row | None":
        """This row with the tiles moves(col, kind) selects dx cells over; O(row).

        None when a mover would land on a tile that stays.
        """
        cells = self.absolute()
        movers = {col: kind for col, kind in cells.items() if moves(col, kind)}
        if any(col + dx in cells and col + dx not in movers for col in movers):
            return None
        for col in movers:
            del cells[col]
        for col, kind in movers.items():
            cells[col + dx] = kind
        return _Row.of(cells)


_EMPTY_ROW = _Row(0, {}, 0, 0, 0)


class _Board:
    """A state's rows, position key and packet index; never changed once built.

    tip is None unless the board has exactly one tip. stack holds the
    incomplete well-formed packet rows as nested (row, prefix, rest) tuples,
    highest first; top is the highest well-formed packet row; first maps
    (R1, R2) bits to (row, R3, R4, R5) of the lowest complete packet.
    touched names the rows this board replaced in its parent's.
    """

    __slots__ = ("rows", "key", "tip", "stack", "top", "first", "touched")

    def __init__(self, rows, key, tip, stack, top, first, touched) -> None:
        self.rows: dict[int, _Row] = rows
        self.key: int = key
        self.tip: CellAddr | None = tip
        self.stack: tuple | None = stack
        self.top: int | None = top
        self.first: dict[tuple[int, int], tuple[int, TileKind, TileKind, TileKind]] = first
        self.touched: tuple[int, ...] = touched

    def row(self, r: int) -> _Row:
        return self.rows.get(r, _EMPTY_ROW)

    def tiles(self) -> dict[CellAddr, TileKind]:
        return {(k + row.off, r): kind for r, row in self.rows.items() for k, kind in row.cells.items()}

    def successor(self, changed: dict[int, _Row], stack, top, first) -> "_Board":
        """This board with the changed rows replaced and the given packet index."""
        rows = dict(self.rows)
        key = self.key
        for r, row in changed.items():
            key += pow(_ROW_BASE, r, _P) * (row.h - self.row(r).h)
            rows[r] = row
        return _Board(rows, key % _P, self.tip, stack, top, first, tuple(changed))


def _index(state: GameState) -> _Board:
    """Build the board of a state from its tiles; O(tiles)."""
    by_row: dict[int, dict[int, TileKind]] = {}
    for (col, r), kind in state.tiles.items():
        by_row.setdefault(r, {})[col] = kind
    rows = {r: _Row.of(cells) for r, cells in by_row.items()}
    key = sum(pow(_ROW_BASE, r, _P) * row.h for r, row in rows.items()) % _P
    tips = state.tip_cells()
    if len(tips) != 1:
        return _Board(rows, key, None, None, None, {}, ())
    stack, top, first = None, None, {}
    for r, prefix in packet_rows(rows, tips[0]):
        stack, top, first = _indexed(r, prefix, stack, top, first)
    return _Board(rows, key, tips[0], stack, top, first, ())


def _indexed(row: int, prefix: list[TileKind] | None, stack, top, first):
    """The packet index (stack, top, first) with one classified row added.

    The row must lie above every row on the stack.
    """
    if prefix is None:
        return stack, top, first
    if top is None or row > top:
        top = row
    if len(prefix) < PACKET_WIDTH:
        return (row, prefix, stack), top, first
    key = (prefix[0].bit, prefix[1].bit)
    if key not in first or row < first[key][0]:
        first = {**first, key: (row, prefix[2], prefix[3], prefix[4])}
    return stack, top, first


def board_of(state: GameState) -> _Board:
    """The state's board, built from its tiles on first use and cached on it."""
    if state.board is None:
        state.board = _index(state)
    return state.board


def position_key(state: GameState) -> int:
    """The state's position key: sum(z(kind) * B**col * C**row) mod 2**61 - 1.

    Equal layouts give equal keys. Distinct layouts share a key only when the
    polynomial difference vanishes at (B, C), which run never trusts: it
    confirms every key hit exactly.
    """
    return board_of(state).key


def step(state: GameState) -> tuple[GameState, StepOutcome]:
    """Run exactly one generation; pure, deterministic."""
    return _step(state)


def _step(state: GameState) -> tuple[GameState, StepOutcome]:
    board = board_of(state)
    if board.tip is None:
        return state, Terminated(StopReason.MULTIPLE_TIPS if state.tip_cells() else StopReason.NO_TIP)
    tc, tr = board.tip
    below = board.row(tr - 1).get(tc)
    if below is None:  # with one tip on the board, the cell below is never a tip
        return state, Terminated(StopReason.NOTHING_BELOW_TIP)
    if below.tile_type is TileType.TAPE:
        return _fire(state, board, below)
    return _copy_rule(state, board, below)


def _fire(state: GameState, board: _Board, below: TileKind) -> tuple[GameState, StepOutcome]:
    tc, tr = board.tip
    status = board.row(tr + 2).get(tc)
    if status is None or status.family != "status":
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    match = board.first.get((below.bit, status.bit))
    if match is None:
        return state, Terminated(StopReason.NO_MATCHING_PACKET)
    row, r3, r4, r5 = match

    dx = -1 if r5.bit == 1 else 1
    tape = board.rows[tr - 1].put(tc, tape_tile(r3.bit))
    if tape.nontape:
        tape = tape.relaid(dx, lambda col, kind: kind.tile_type is TileType.TAPE)
        if tape is None:
            return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    else:
        tape = tape.slid(dx)
    changed = {
        tr - 1: tape,
        tr + 1: board.row(tr + 1).put(tc, read_tile(below.bit)),
        tr + 2: board.rows[tr + 2].put(tc, status_tile(r4.bit)),
    }
    new = board.successor(changed, board.stack, board.top, board.first)
    return GameState.of_board(new, state.anchor, state.junk_cells), Fired(row)


def _copy_rule(state: GameState, board: _Board, below: TileKind) -> tuple[GameState, StepOutcome]:
    tc, tr = board.tip
    if board.stack is not None:
        target, prefix, rest = board.stack
    else:
        target, prefix, rest = (tr if board.top is None else board.top) + 1, [], None
    slot = len(prefix) + 1
    if below.slot != slot:
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    packet = board.row(target)
    if packet.get(tc + slot) is not None:
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)

    packet = packet.put(tc + slot, below)
    tape = board.rows[tr - 1].without(tc)  # consumed; its left neighbours slide into the gap
    tape = tape.slid(1) if tape.right < tc else tape.relaid(1, lambda col, kind: col < tc)
    cells = [packet.get(tc + i) for i in range(1, PACKET_WIDTH + 1)]
    index = _indexed(target, classify_packet(cells), rest, board.top, board.first)
    new = board.successor({target: packet, tr - 1: tape}, *index)
    return GameState.of_board(new, state.anchor, state.junk_cells), RuleCopied(target, slot)


def _diff_cells(before: GameState, after: GameState) -> list[CellAddr]:
    """Cells whose tile differs between a state and its successor.

    Only the rows the step replaced can differ, so only they are compared.
    """
    old, new = before.board, after.board
    changed = []
    for r in new.touched:
        a, b = old.row(r).absolute(), new.rows[r].absolute()
        changed += [(col, r) for col in a.keys() | b.keys() if a.get(col) is not b.get(col)]
    return sorted(changed)


def _first_equal(initial: GameState, indices: list[int], state: GameState) -> int | None:
    """The first of the ascending generation indices whose state equals state.

    Replays from initial with the internal step, so a replay never counts as
    a generation attempt of engine.step.
    """
    tiles = state.tiles
    cursor, at = initial, 0
    for index in indices:
        while at < index:
            cursor, _ = _step(cursor)
            at += 1
        if cursor.tiles == tiles:
            return index
    return None


def run(
    state: GameState,
    max_gens: int,
    on_step: Callable[[StepRecord], None] | None = None,
) -> RunResult:
    """Iterate generations until termination, a repeated state, or budget.

    Every generation's position key is recorded. A key seen before is
    checked exactly: the run replays from the initial state to each earlier
    generation holding that key and compares tiles. A match reports a cycle
    whose period is the distance between the two occurrences (a fixed point
    is a period-1 cycle); a false hit keeps running and files the generation
    under the same key. The terminating attempt consumes no budget, so
    witnessing a halt after g successful generations needs max_gens > g.

    Cost, for a state of n tiles and G generations: O(n) time to index the
    state, then O(1) Python work per generation plus one C-level copy of the
    row map and of each changed row, plus O(first_index) replayed generations
    per key hit. With on_step, each record adds an O(n) state_hash. Memory is
    O(n + G): the initial and current states and one key per generation.
    """
    if max_gens < 0:
        raise ValueError("max_gens must be >= 0")
    initial = state
    seen: dict[int, int | list[int]] = {position_key(state): 0}
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
        if on_step is not None:
            on_step(StepRecord(gens, outcome, state_hash(new_state), _diff_cells(state, new_state)))
        state = new_state
        key = position_key(state)
        earlier = seen.get(key)
        if earlier is None:
            seen[key] = gens
            continue
        earlier = earlier if isinstance(earlier, list) else [earlier]
        first = _first_equal(initial, earlier, state)
        if first is not None:
            return RunResult(state, gens, RunStatus.CYCLE, period=gens - first, first_index=first)
        seen[key] = earlier + [gens]
