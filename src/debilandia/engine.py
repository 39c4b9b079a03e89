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

The engine plays on a board (_Board), built once from a state's tiles and
carried from each state to its successor: the row below the tip as a zipper
(Huet, "The Zipper", 1997) of hash-consed stacks (Goto 1974; Filliatre and
Conchon, "Type-safe modular hash-consing", 2006), the read-slot and status
cells as fields, and an index of the packets above the tip. A fire changes
only those three places and reads one index entry; a copy adds a packet tile
that no step removes, so no state recurs across it. So run starts cycle
detection afresh at every copy and keys a state on its tip context alone,
exactly, and an untraced generation costs O(1) Python work at any tape
length (see run for what a fire and a copy cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .grid import GameState, state_hash
from .tiles import CellAddr, TileKind, TileType, read_tile, status_tile, tape_tile

PACKET_WIDTH = 5

# module globals: reading a member off its Enum class costs several times more
_TAPE, _RULE = TileType.TAPE, TileType.RULE
_READ = (read_tile(0), read_tile(1))


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


def packet_rows(rows: dict[int, dict[int, TileKind]], tip: CellAddr) -> list[tuple[int, list[TileKind] | None]]:
    """Classify every board row above the tip that holds a rule tile in the packet columns.

    Returns (row, classify_packet(cells)) in ascending row order, where cells
    are the row's tiles at columns tip_col + 1 .. tip_col + 5. Rows with no
    rule tiles cannot host a packet, so they are skipped.
    """
    tc, tr = tip
    classified = []
    for r in sorted(r for r in rows if r > tr):
        cells = [rows[r].get(tc + i) for i in range(1, PACKET_WIDTH + 1)]
        if any(kind is not None and kind.tile_type is _RULE for kind in cells):
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


_EMPTY_ROW: dict[int, TileKind] = {}


class _Node:
    """One tile of a tape stack, linked to the tiles beyond it (away from the tip).

    gap is the distance to the next tile, 0 at the bottom of the stack. Nodes
    are made only by _node, so two stacks of the same tiles at the same gaps
    share their nodes.
    """

    __slots__ = ("kind", "gap", "next")

    def __init__(self, kind: TileKind | None, gap: int, next: "_Node | None") -> None:
        self.kind = kind
        self.gap = gap
        self.next = next


_NIL = _Node(None, 0, None)  # the bottom of every stack: no tile


def _node(nodes: dict, kind: TileKind, gap: int, next: _Node) -> _Node:
    """The one node of this tile over next at distance gap, from the board family's table."""
    key = (kind.code, gap, next)
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = _Node(kind, gap, next)
    return node


class _Tape:
    """The row below the tip, as a zipper around the tip column tc.

    head is the tile at tc, or None. left and right are the tops of the
    persistent stacks of the tiles left and right of tc, nearest tile on
    top, and ld and rd their distances from tc; an empty stack is _NIL at
    distance 0. nontape counts the row's tiles that are not tape tiles.
    """

    __slots__ = ("head", "left", "ld", "right", "rd", "nontape")

    def __init__(self, head: TileKind | None, left: _Node, ld: int, right: _Node, rd: int, nontape: int) -> None:
        self.head = head
        self.left = left
        self.ld = ld
        self.right = right
        self.rd = rd
        self.nontape = nontape

    @classmethod
    def of(cls, cells: dict[int, TileKind], tc: int, nodes: dict) -> "_Tape":
        """The zipper of a row's tiles by absolute column, its nodes drawn from nodes."""
        sides = []
        for sign in (-1, 1):  # left, then right; each stack is built from its far end
            top, d = _NIL, 0
            for dist in sorted(((col - tc) * sign for col in cells if (col - tc) * sign > 0), reverse=True):
                top, d = _node(nodes, cells[tc + sign * dist], d and d - dist, top), dist
            sides += (top, d)
        nontape = sum(kind.tile_type is not _TAPE for kind in cells.values())
        return cls(cells.get(tc), *sides, nontape)

    def cells(self, tc: int) -> dict[int, TileKind]:
        """The row's tiles by absolute column; O(row)."""
        cells = {} if self.head is None else {tc: self.head}
        for top, col, sign in ((self.left, tc - self.ld, -1), (self.right, tc + self.rd, 1)):
            while top is not _NIL:
                cells[col] = top.kind
                col += sign * top.gap
                top = top.next
        return cells

    def fired(self, kind: TileKind, dx: int, nodes: dict) -> "_Tape":
        """This row with kind written at the tip column, then all of it dx = +-1 cells over; O(1)."""
        # the near stack slides towards the tip, kind goes on top of the far one
        if dx == 1:
            near, d, far, fd = self.left, self.ld, self.right, self.rd
        else:
            near, d, far, fd = self.right, self.rd, self.left, self.ld
        if d == 1:
            head, near, d = near.kind, near.next, near.gap
        else:
            head, d = None, d and d - 1
        far = _node(nodes, kind, fd, far)
        if dx == 1:
            return _Tape(head, near, d, far, 1, self.nontape)
        return _Tape(head, far, 1, near, d, self.nontape)

    def consumed(self) -> "_Tape":
        """This row with the tip column's rule tile gone and every tile left of it one cell right; O(1)."""
        left, d = self.left, self.ld
        if d == 1:
            head, left, d = left.kind, left.next, left.gap
        else:
            head, d = None, d and d - 1
        return _Tape(head, left, d, self.right, self.rd, self.nontape - 1)


def _relaid(cells: dict[int, TileKind], dx: int) -> dict[int, TileKind] | None:
    """A row's tiles with every tape tile dx cells over; None when one lands on a tile that stays."""
    moved = {col + dx: kind for col, kind in cells.items() if kind.tile_type is _TAPE}
    stays = {col: kind for col, kind in cells.items() if kind.tile_type is not _TAPE}
    return None if stays.keys() & moved.keys() else stays | moved


class _Board:
    """A state's rows and packet index; never changed once built.

    rows maps a row to its tiles by absolute column; a successor shares every
    row it does not change. tip is None unless the board has exactly one tip.
    With one tip at (tc, tr), rows leaves out row tr - 1, held as the zipper
    tape, and the read-slot and status cells (tc, tr + 1) and (tc, tr + 2),
    held as read and status. stack holds the incomplete well-formed packet
    rows as nested (row, prefix, rest) tuples, highest first; top is the
    highest well-formed packet row; first maps (R1, R2) bits to the lowest
    complete packet's (row, R3, R4, R5) and what firing it makes: Fired(row),
    made once, the tape tile written, the status tile set and the shift dx.
    nodes is the table every tape stack node of this board and its
    successors comes from.
    """

    __slots__ = ("rows", "tape", "read", "status", "tip", "stack", "top", "first", "nodes")

    def __init__(self, rows, tape, read, status, tip, stack, top, first, nodes) -> None:
        self.rows: dict[int, dict[int, TileKind]] = rows
        self.tape: _Tape | None = tape
        self.read: TileKind | None = read
        self.status: TileKind | None = status
        self.tip: CellAddr | None = tip
        self.stack: tuple | None = stack
        self.top: int | None = top
        self.first: dict[tuple[int, int], tuple] = first
        self.nodes: dict[tuple, _Node] = nodes

    def row(self, r: int) -> dict[int, TileKind]:
        """Row r's tiles by absolute column; O(row). Do not change it: it may be the board's own map."""
        cells = self.rows.get(r, _EMPTY_ROW)
        if self.tip is None:
            return cells
        tc, tr = self.tip
        if r == tr - 1:
            return self.tape.cells(tc)
        cell = self.read if r == tr + 1 else self.status if r == tr + 2 else None
        return cells if cell is None else {**cells, tc: cell}

    def tiles(self) -> dict[CellAddr, TileKind]:
        rows = self.rows.keys()
        if self.tip is not None:
            tr = self.tip[1]
            rows |= {tr - 1, tr + 1, tr + 2}
        return {(col, r): kind for r in rows for col, kind in self.row(r).items()}


def _index(state: GameState) -> _Board:
    """Build the board of a state from its tiles, with a fresh node table; O(tiles)."""
    by_row: dict[int, dict[int, TileKind]] = {}
    for (col, r), kind in state.tiles.items():
        by_row.setdefault(r, {})[col] = kind
    tips = state.tip_cells()
    if len(tips) != 1:
        return _Board(by_row, None, None, None, None, None, None, {}, {})
    tc, tr = tips[0]
    tape = by_row.pop(tr - 1, {})
    read = by_row.get(tr + 1, {}).pop(tc, None)
    status = by_row.get(tr + 2, {}).pop(tc, None)
    rows = {r: cells for r, cells in by_row.items() if cells}
    stack, top, first = None, None, {}
    for r, prefix in packet_rows(rows, tips[0]):
        stack, top, first = _indexed(r, prefix, stack, top, first)
    nodes: dict[tuple, _Node] = {}
    return _Board(rows, _Tape.of(tape, tc, nodes), read, status, tips[0], stack, top, first, nodes)


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
        r3, r4, r5 = prefix[2:]
        fire = (Fired(row), tape_tile(r3.bit), status_tile(r4.bit), -1 if r5.bit == 1 else 1)
        first = {**first, key: (row, r3, r4, r5, *fire)}
    return stack, top, first


def board_of(state: GameState) -> _Board:
    """The state's board, built from its tiles on first use and cached on it."""
    if state.board is None:
        state.board = _index(state)
    return state.board


def position_key(state: GameState) -> tuple | None:
    """The key of the state's tip context; None on a board without exactly one tip.

    The tuple (left top, left d, right top, right d, code): the tape row's
    two stacks, each as its top node and that tile's distance from the tip
    column, and the head, read-slot and status tiles in four bits each. It
    covers only what a fire changes, so it tells apart the states between
    two copies, where every other cell stays as it is. Within one board
    family, whose nodes come from one table, equal stacks are one node, so
    two keys are equal exactly when the tip contexts are. Nodes compare by
    identity: keys of separately indexed boards never match. O(1).
    """
    board = state.board or board_of(state)
    if board.tip is None:
        return None
    tape, read, status = board.tape, board.read, board.status
    code = 0 if tape.head is None else tape.head.code << 8
    if read is not None:
        code |= read.code << 4
    if status is not None:
        code |= status.code
    return (tape.left, tape.ld, tape.right, tape.rd, code)


def step(state: GameState) -> tuple[GameState, StepOutcome]:
    """Run exactly one generation; pure, deterministic."""
    board = state.board or board_of(state)
    if board.tip is None:
        return state, Terminated(StopReason.MULTIPLE_TIPS if state.tip_cells() else StopReason.NO_TIP)
    below = board.tape.head
    if below is None:  # with one tip on the board, the cell below is never a tip
        return state, Terminated(StopReason.NOTHING_BELOW_TIP)
    if below.tile_type is _TAPE:
        return _fire(state, board, below)
    return _copy_rule(state, board, below)


def _fire(state: GameState, board: _Board, below: TileKind) -> tuple[GameState, StepOutcome]:
    status = board.status
    if status is None or status.family != "status":
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    match = board.first.get((below.bit, status.bit))
    if match is None:
        return state, Terminated(StopReason.NO_MATCHING_PACKET)
    _, _, _, _, fired, write, status, dx = match

    tape = board.tape
    if tape.nontape:  # tiles that are not tape tiles stay put, and a tape tile may not land on one
        tc = board.tip[0]
        cells = _relaid({**tape.cells(tc), tc: write}, dx)
        if cells is None:
            return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
        tape = _Tape.of(cells, tc, board.nodes)
    else:
        tape = tape.fired(write, dx, board.nodes)
    read = _READ[below.bit]
    new = _Board(board.rows, tape, read, status, board.tip, board.stack, board.top, board.first, board.nodes)
    return GameState.of_board(new, state.anchor, state.junk_cells), fired


def _copy_rule(state: GameState, board: _Board, below: TileKind) -> tuple[GameState, StepOutcome]:
    tc, tr = board.tip
    if board.stack is not None:
        target, prefix, rest = board.stack
    else:
        target, prefix, rest = (tr if board.top is None else board.top) + 1, [], None
    slot = len(prefix) + 1
    if below.slot != slot:
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
    old = board.rows.get(target, _EMPTY_ROW)
    if tc + slot in old:
        return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)

    packet = {**old, tc + slot: below}
    if board.stack is None:  # a fresh row may already hold tiles, so it is classified
        prefix = classify_packet([packet.get(tc + i) for i in range(1, PACKET_WIDTH + 1)])
    else:  # a stacked row is well-formed with nothing past its prefix
        prefix = [*prefix, below]
    stack, top, first = _indexed(target, prefix, rest, board.top, board.first)
    rows = {**board.rows, target: packet}
    tape = board.tape.consumed()
    new = _Board(rows, tape, board.read, board.status, board.tip, stack, top, first, board.nodes)
    return GameState.of_board(new, state.anchor, state.junk_cells), RuleCopied(target, slot)


def _diff_cells(before: GameState, after: GameState, outcome: Fired | RuleCopied) -> list[CellAddr]:
    """Cells whose tile differs between a state and its successor.

    Only the rows the step changed can differ, so only they are compared: a
    fire's tape row, read slot and status rows, a copy's packet and tape rows.
    """
    old, new = before.board, after.board
    tr = old.tip[1]
    rows = (tr - 1, tr + 1, tr + 2) if isinstance(outcome, Fired) else (outcome.target_row, tr - 1)
    changed = []
    for r in rows:
        a, b = old.row(r), new.row(r)
        changed += [(col, r) for col in a.keys() | b.keys() if a.get(col) is not b.get(col)]
    return sorted(changed)


def run(state: GameState, max_gens: int, on_step: Callable[[StepRecord], None] | None = None) -> RunResult:
    """Iterate generations until termination, a repeated state, or budget.

    A copy adds a tile that no step removes, so no state before a copy
    recurs after it: the record of keys starts afresh at every copy, from
    the state the copy made. Every later generation's position key is
    recorded. All the states of a run share one board family, so their keys
    are exact: a key seen before is a repeat of that generation's state,
    reported as a cycle whose period is the distance between the two
    occurrences (a fixed point is a period-1 cycle). The terminating attempt
    consumes no budget, so witnessing a halt after g successful generations
    needs max_gens > g.

    Cost, for a state of n tiles, G generations, g of them since the last
    copy, and F nodes made since the state was indexed: O(n) time to index
    the state, then O(1) Python work per generation at any tape length (a
    copy also copies the map of rows above the tip, at C level). With
    on_step, each record adds an O(n) state_hash and an O(row) diff of the
    tape row, so a traced run stays O(n) per generation. Memory is
    O(n + g + F): the current state, one key per generation since the last
    copy, and the node table, which keeps every node it made. A fire makes
    at most one node, but one that re-lays a row holding other tiles can
    make one per tile of the row. A fire builds one tape, board and state
    and reads its outcome, tiles and shift off the packet's index entry; a
    copy onto an unfinished packet extends its prefix. Per step call, in
    perfbench's traced reference microseconds (span wrapper included;
    medians of three alternating runs): a fire 4.2 on tape-sweep and 4.1 on
    rule-load, down from 5.8 and 5.5 when tiles were keyed by Enum hashes
    and each fire built its outcome and tiles; a copy 6.2, down from 9.1.
    """
    if max_gens < 0:
        raise ValueError("max_gens must be >= 0")
    seen: dict[tuple | None, int] = {position_key(state): 0}
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
            on_step(StepRecord(gens, outcome, state_hash(new_state), _diff_cells(state, new_state, outcome)))
        state = new_state
        key = position_key(state)
        if isinstance(outcome, RuleCopied):
            seen = {key: gens}
            continue
        first = seen.setdefault(key, gens)
        if first != gens:
            return RunResult(state, gens, RunStatus.CYCLE, period=gens - first, first_index=first)
