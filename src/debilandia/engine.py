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

A state the engine makes is one GameState. Its slots hold the tip context:
the tile under the tip, the read-slot and status tiles, and the position
key, whose first ten fields are the row below the tip as a zipper (Huet,
"The Zipper", 1997) of two run-length stacks. A run is a maximal stretch of
equal tiles at gap 1; each stack keeps its top run unboxed in the key, and
the runs below it are hash-consed nodes (Goto 1974; Filliatre and Conchon,
"Type-safe modular hash-consing", 2006). The rest of the board is a _Shared
record that a state shares with its successors up to the next copy: the rows
as indexed, the cells each copy wrote since, the packet index and the node
table. A fire changes only the tip context and reads one index entry; a copy
adds a packet tile that no step removes, so no state recurs across it. So
run starts cycle detection afresh at every copy and keys a state on its tip
context alone, exactly, and an untraced generation costs O(1) Python work at
any tape length and any number of packets (see run).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Callable, NamedTuple

from .grid import GameState, state_hash
from .tiles import CellAddr, TileKind, TileType, read_tile, status_tile, tape_tile

PACKET_WIDTH = 5

# module globals: reading a member off its Enum class costs several times more
_TAPE, _RULE = TileType.TAPE, TileType.RULE
# the packet index key part of the read tile a fire writes, by the code of the tape tile under the tip
_READ_KEY = {tape_tile(bit).code: read_tile(bit).code << 4 for bit in (0, 1)}


class StopReason(Enum):
    NO_TIP = "no_tip"
    MULTIPLE_TIPS = "multiple_tips"
    NOTHING_BELOW_TIP = "nothing_below_tip"
    NO_MATCHING_PACKET = "no_matching_packet"
    MALFORMED_TIP_CONTEXT = "malformed_tip_context"


class Fired(NamedTuple):
    packet_row: int


class RuleCopied(NamedTuple):
    target_row: int
    slot: int


class Terminated(NamedTuple):
    reason: StopReason


StepOutcome = Fired | RuleCopied | Terminated


class RunStatus(Enum):
    HALTED = "halted"
    CYCLE = "cycle"
    BUDGET = "budget_exhausted"


class RunResult(NamedTuple):
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


class StepRecord(NamedTuple):
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
    rows = packet_rows(state.rows(), tip)
    return [(row, prefix) for row, prefix in rows if prefix is not None and len(prefix) == PACKET_WIDTH]


_EMPTY_ROW: dict[int, TileKind] = {}
_new = object.__new__  # a node, record or state made field by field skips a Python __init__ call


class _Node:
    """A run of a tape stack below its top run, linked to the runs beyond it (away from the tip).

    A run is a maximal stretch of count equal tiles, of kind code, at gap 1.
    gap is the distance from the run's far end to the next run, 0 at the
    bottom of the stack. A node is made only where it is interned in its
    board's node table under (code, count, gap, next), so two stacks of the
    same tiles at the same gaps share their nodes.
    """

    __slots__ = ("code", "count", "gap", "next")


_NIL = _new(_Node)  # the bottom of every stack: no run; an empty top run reads (0, 0, 0, 0, _NIL) off it
_NIL.code, _NIL.count, _NIL.gap, _NIL.next = 0, 0, 0, _NIL
_KIND = (None, *TileKind)  # a tile kind by its code


def _node(nodes: dict, code: int, count: int, gap: int, beyond: _Node) -> _Node:
    """The node of one run, interned in nodes."""
    key = (code, count, gap, beyond)
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = _new(_Node)
        node.code, node.count, node.gap, node.next = key
    return node


def _stacks(nodes: dict, cells: dict[int, TileKind], tc: int) -> list:
    """The zipper of a row's tiles around column tc, as two sides, left then right; O(row).

    A side is its top run, unboxed: the run's kind code, its count, its
    distance from the tip column and its gap to the next run, then the node
    of that next run. Each side is built from its far end, one node per run
    but the top one, interned in nodes; an empty side is (0, 0, 0, 0, _NIL).
    """
    cols = sorted(cells)
    stacks = []
    for side, sign in ((cols[: bisect_left(cols, tc)], -1), (cols[bisect_right(cols, tc) :][::-1], 1)):
        k = c = d = g = 0
        beyond = _NIL
        for col in side:
            dist = (col - tc) * sign
            code = cells[col].code
            if code == k and dist == d - 1:
                c += 1
            else:
                if k:
                    beyond, g = _node(nodes, k, c, g, beyond), d - dist
                k, c = code, 1
            d = dist
        stacks += (k, c, d, g, beyond)
    return stacks


def _tape_cells(state: GameState) -> dict[int, TileKind]:
    """The tape row's tiles by absolute column, off the state's zipper; O(row)."""
    tc = state.shared.tip[0]
    key = state.key
    cells = {} if state.head is None else {tc: state.head}
    for sign, (k, c, d, g, beyond) in ((-1, key[:5]), (1, key[5:10])):
        col = tc + sign * d
        while k:
            cells.update(dict.fromkeys(range(col, col + sign * c, sign), _KIND[k]))
            col += sign * (c - 1 + g)
            k, c, g, beyond = beyond.code, beyond.count, beyond.gap, beyond.next
    return cells


def _relaid(cells: dict[int, TileKind], dx: int) -> dict[int, TileKind] | None:
    """A row's tiles with every tape tile dx cells over; None when one lands on a tile that stays."""
    moved = {col + dx: kind for col, kind in cells.items() if kind.tile_type is _TAPE}
    stays = {col: kind for col, kind in cells.items() if kind.tile_type is not _TAPE}
    return None if stays.keys() & moved.keys() else stays | moved


class _Shared:
    """The board off a state's tip context, shared by the states from one copy to the next; made field by field.

    tip: the one tip, or None.
    rows: a row's tiles by column as indexed, which no step changes, without the tape row tr - 1 and the
        cells (tc, tr + 1) and (tc, tr + 2).
    copied: the cells each copy wrote since, newest first, as nested (row, col, kind, rest) tuples, or None.
    stack: the incomplete well-formed packet rows, highest first, as nested (row, prefix, rest) tuples, or None.
    top: the highest well-formed packet row, or None.
    first: R1.code << 4 | R2.code to what firing the lowest complete packet with them makes: (Fired(row), made
        once, the code of the tape tile written, the read and status tiles set, the shift dx, the low byte of
        the new key's code, the packet).
    nontape: the number of the tape row's tiles that are not tape tiles.
    count: the number of the board's tiles, the read slot's not counted.
    nodes: the node table, shared by every record of the board.
    """

    __slots__ = ("tip", "rows", "copied", "stack", "top", "first", "nontape", "count", "nodes")

    def rows_of(self, state: GameState) -> dict[int, dict[int, TileKind]]:
        """The state's tiles by row, then column, sharing the maps of rows; O(rows + copied cells + row)."""
        rows = dict(self.rows)
        if self.tip is None:
            return rows
        tc, tr = self.tip
        laid = {r: {tc: kind} for r, kind in ((tr + 1, state.read), (tr + 2, state.status)) if kind is not None}
        copied = self.copied
        while copied is not None:
            r, col, kind, copied = copied
            laid.setdefault(r, {})[col] = kind
        for r, cells in laid.items():
            rows[r] = {**rows.get(r, _EMPTY_ROW), **cells}
        tape = _tape_cells(state)
        if tape:
            rows[tr - 1] = tape
        return rows


def shared_of(state: GameState) -> _Shared:
    """The state's shared record; a state the engine has not seen is indexed in place first, in O(tiles)."""
    if state.shared is not None:
        return state.shared
    rows = state.rows()
    tips = state.tip_cells()
    shared = _new(_Shared)
    shared.tip, shared.rows, shared.copied = None, rows, None
    shared.stack, shared.top, shared.first = None, None, {}
    shared.nontape, shared.count, shared.nodes = 0, len(state.tiles), {}
    state.head = state.read = state.status = state.key = None
    if len(tips) == 1:
        tc, tr = shared.tip = tips[0]
        tape = rows.pop(tr - 1, {})
        read = state.read = rows.get(tr + 1, {}).pop(tc, None)
        status = state.status = rows.get(tr + 2, {}).pop(tc, None)
        rows = shared.rows = {r: cells for r, cells in rows.items() if cells}
        for r, prefix in packet_rows(rows, (tc, tr)):
            shared.stack, shared.top, shared.first = _indexed(r, prefix, shared.stack, shared.top, shared.first)
        shared.nontape = len([kind for kind in tape.values() if kind.tile_type is not _TAPE])
        shared.count -= read is not None
        head = state.head = tape.get(tc)
        code = sum(kind.code << shift for kind, shift in ((head, 8), (read, 4), (status, 0)) if kind is not None)
        state.key = (*_stacks(shared.nodes, tape, tc), code)
    state.shared = shared
    return shared


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
    r1, r2, r3, r4, r5 = prefix
    key = r1.code << 4 | r2.code
    if key not in first or row < first[key][0].packet_row:
        status = status_tile(r4.bit)
        fire = (Fired(row), tape_tile(r3.bit).code, r1, status, -1 if r5.bit == 1 else 1, r1.code << 4 | status.code)
        first = {**first, key: (*fire, prefix)}
    return stack, top, first


def position_key(state: GameState) -> tuple | None:
    """The key of the state's tip context; None on a board without exactly one tip.

    The tuple (left code, count, d, gap, next, right code, count, d, gap,
    next, code): the tape row's two stacks, each as its top run (the run's
    kind code and count, its distance from the tip column, and its gap to
    the next run) and the node of the next run, then the head, read-slot
    and status tiles in four bits each. An empty stack is (0, 0, 0, 0,
    _NIL). It covers only what a fire changes, so it tells apart the states
    between one copy and the next, where every other cell stays as it is.
    Runs are maximal, so equal stacks have equal top runs, and within one
    board family, whose nodes come from one table, equal runs below them
    are one node: two keys are equal exactly when the tip contexts are.
    Nodes compare by identity: keys of separately indexed boards never
    match.
    O(1): a state holds its key.
    """
    shared_of(state)
    return state.key


def step(state: GameState) -> tuple[GameState, StepOutcome]:
    """Run exactly one generation; pure, deterministic.

    Both moves slide the row below the tip by one cell, inline, in this one
    call. A fire reads its packet's index entry, writes its tape tile under
    the tip and slides the tape: the near stack gives its first tile to the
    head, and the write goes on top of the far stack. A copy adds the tile
    under the tip to the packet index, makes the next shared record and a
    new RuleCopied, then slides the left stack one cell right and writes
    nothing; it fills a slot that no later step empties, so one run fills
    each cell at most once. Taking a tile off a run, or writing one onto an
    equal run at distance 1, changes a count; only a write that starts a new
    run interns a node, the old top run. A fire on a row that also holds
    non-tape tiles re-lays the row.
    """
    shared = state.shared or shared_of(state)
    below = state.head
    if below is None:  # with one tip on the board, the cell below is never a tip
        if shared.tip is None:
            return state, Terminated(StopReason.MULTIPLE_TIPS if state.tip_cells() else StopReason.NO_TIP)
        return state, Terminated(StopReason.NOTHING_BELOW_TIP)
    read_key = _READ_KEY.get(below.code)
    if read_key is None:  # not a tape tile: copy it into the next packet slot
        tc, tr = shared.tip
        if shared.stack is not None:  # a stacked row is well-formed with nothing past its prefix
            target, prefix, rest = shared.stack
            slot = len(prefix) + 1
            if below.slot != slot:
                return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
            prefix = [*prefix, below]
        else:
            target, slot, rest = (tr if shared.top is None else shared.top) + 1, 1, None
            old = shared.rows.get(target, _EMPTY_ROW)
            # a fresh row lies above every row a copy wrote, but for one a copy
            # left malformed; that row is still the target, and the newest copy's
            newest = shared.copied
            if below.slot != 1 or tc + 1 in old or (newest is not None and newest[0] == target):
                return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
            # a fresh row that already holds tiles is classified; an empty one holds the copied tile alone
            prefix = [below]
            if old:
                prefix = classify_packet([below, *[old.get(tc + i) for i in range(2, PACKET_WIDTH + 1)]])
        outcome = RuleCopied(target, slot)
        last, shared = shared, _new(_Shared)
        shared.stack, shared.top, shared.first = _indexed(target, prefix, rest, last.top, last.first)
        shared.tip, shared.rows, shared.copied = last.tip, last.rows, (target, tc + slot, below, last.copied)
        shared.nontape, shared.count, shared.nodes = last.nontape - 1, last.count, last.nodes
        # the tiles left of the consumed one slide one cell right; nothing is written, and the key loses its head
        write, read, status, dx, code = 0, state.read, state.status, 1, state.key[10] & 0xFF
    else:
        status = state.status
        match = None if status is None else shared.first.get(read_key | status.code)
        if match is None:
            malformed = status is None or status.family != "status"
            return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT if malformed else StopReason.NO_MATCHING_PACKET)
        outcome, write, read, status, dx, code, _ = match

    if shared.nontape and write:  # tiles that are not tape tiles stay put, and a tape tile may not land on one
        tc = shared.tip[0]
        cells = _relaid({**_tape_cells(state), tc: _KIND[write]}, dx)
        if cells is None:
            return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
        head = cells.get(tc)
        key = (*_stacks(shared.nodes, cells, tc), code if head is None else head.code << 8 | code)
    else:  # the near stack slides towards the tip, a write goes on top of the far one
        if dx == 1:
            nk, nc, nd, ng, beyond, fk, fc, fd, fg, far, _ = state.key
        else:
            fk, fc, fd, fg, far, nk, nc, nd, ng, beyond, _ = state.key
        if nd == 1:  # the near run's first tile comes under the tip
            head, code = _KIND[nk], nk << 8 | code
            if nc > 1:
                nc -= 1
            else:
                nk, nc, nd, ng, beyond = beyond.code, beyond.count, ng, beyond.gap, beyond.next
        else:
            head, nd = None, nd and nd - 1
        if fd == 1 and fk == write:  # an empty far stack has fd == 0, so a copy never joins a run
            fc += 1
        elif write:
            if fk:
                far, fg = _node(shared.nodes, fk, fc, fg, far), fd
            fk, fc, fd = write, 1, 1
        if dx == 1:
            key = (nk, nc, nd, ng, beyond, fk, fc, fd, fg, far, code)
        else:
            key = (fk, fc, fd, fg, far, nk, nc, nd, ng, beyond, code)
    new = _new(GameState)  # assigned three at a time, which builds no tuple
    new._tiles, new.anchor, new.junk_cells = None, state.anchor, state.junk_cells
    new.shared, new.head, new.read = shared, head, read
    new.status, new.key = status, key
    return new, outcome


def _diff_cells(before: GameState, after: GameState, outcome: Fired | RuleCopied) -> list[CellAddr]:
    """Cells whose tile differs between a state and its successor.

    Only the cells the step changed can differ, so only they are compared:
    the tape row, and a fire's read-slot and status cells or the cell a copy
    wrote.
    """
    tc, tr = before.shared.tip
    old, new = _tape_cells(before), _tape_cells(after)
    changed = [(col, tr - 1) for col in old.keys() | new.keys() if old.get(col) is not new.get(col)]
    if isinstance(outcome, RuleCopied):
        changed.append((tc + outcome.slot, outcome.target_row))
    else:
        pairs = ((tr + 1, before.read, after.read), (tr + 2, before.status, after.status))
        changed += [(tc, r) for r, a, b in pairs if a is not b]
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

    Cost, for a state of n tiles, r runs in its tape row, g generations
    since the last copy, and F nodes made since the state was indexed: O(n)
    time to index the state, then O(1) Python work per generation at any
    tape length and any number of packets. A generation builds one state;
    a fire also makes at most one node, only when it starts a new run, and
    a copy one record, one list cell and its RuleCopied. With on_step, each
    record adds an O(n) state_hash and an O(row) diff of the tape row, so a
    traced run stays O(n) per generation. Memory is O(n + g + F): the
    current state, one key per generation since the last copy, and the
    node table, which holds at most r nodes when the state is indexed and
    keeps every node it made. A fire that re-lays a row holding other tiles
    takes O(row) time and makes a node for each run below the top one out
    to the farthest run whose gap changed: none when only the top run's gap
    changed.
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
        key = state.key
        if isinstance(outcome, RuleCopied):
            seen = {key: gens}
            continue
        first = seen.setdefault(key, gens)
        if first != gens:
            return RunResult(state, gens, RunStatus.CYCLE, period=gens - first, first_index=first)
