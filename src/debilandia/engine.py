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

A state the engine makes, a _Made, holds a record and a position key, the
only copy of its tip context. The key's first ten fields are the row
below the tip as a zipper (Huet, "The Zipper", 1997) of two run-length
stacks, its last the codes of the head, read-slot and status tiles. A run
is a maximal stretch of equal tiles at gap 1; each stack keeps its top run
unboxed in the key, and the runs below it are hash-consed nodes (Goto 1974;
Filliatre and Conchon, "Type-safe modular hash-consing", 2006). The record,
a _Shared, is the rest of the board, shared with the state's successors up
to the next copy: the rows as indexed, the cells each copy wrote since, the
packet index and the node table. A fire finds its index entry by the key's
code and changes only the key; a copy adds a packet tile that no step
removes, so no state recurs across it, and no copy follows a fire. So run
records no key while rules load, and from the first fire's predecessor on
keys a state on its tip context alone, exactly; an untraced generation costs
O(1) Python work at any tape and packet count (see run).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from collections import namedtuple
from typing import Callable

from .grid import GameState, state_hash
from .tiles import CellAddr, TileKind, TileType, status_tile, tape_tile

PACKET_WIDTH = 5

# module globals: reading a member off its Enum class costs several times more
_TAPE, _RULE = TileType.TAPE, TileType.RULE


class StopReason(Enum):
    NO_TIP = "no_tip"
    MULTIPLE_TIPS = "multiple_tips"
    NOTHING_BELOW_TIP = "nothing_below_tip"
    NO_MATCHING_PACKET = "no_matching_packet"
    MALFORMED_TIP_CONTEXT = "malformed_tip_context"


class Fired(namedtuple("Fired", "packet_row")):
    __slots__ = ()


class RuleCopied(namedtuple("RuleCopied", "target_row slot")):
    __slots__ = ()


class Terminated(namedtuple("Terminated", "reason")):
    __slots__ = ()


StepOutcome = Fired | RuleCopied | Terminated


class RunStatus(Enum):
    HALTED = "halted"
    CYCLE = "cycle"
    BUDGET = "budget_exhausted"


class RunResult(
    namedtuple("RunResult", "final_state generations_run status reason period first_index", defaults=(None,) * 3)
):
    __slots__ = ()

    @property
    def stopped(self) -> bool:
        """Stabilized within budget: terminated, or entered a repeating cycle."""
        return self.status is not RunStatus.BUDGET


class StepRecord(namedtuple("StepRecord", "gen outcome state_hash changed_cells")):
    __slots__ = ()


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
    """The node of one run, interned in nodes; _stacks interns its runs inline, the same way."""
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
    but the top one, interned in nodes inline, as _node does, with no call
    per run; an empty side is (0, 0, 0, 0, _NIL).
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
                    node = nodes.get(key := (k, c, g, beyond))
                    if node is None:
                        node = nodes[key] = _new(_Node)
                        node.code, node.count, node.gap, node.next = key
                    beyond, g = node, d - dist
                k, c = code, 1
            d = dist
        stacks += (k, c, d, g, beyond)
    return stacks


def _tape_runs(state: GameState) -> list[tuple[int, int, int]]:
    """The tape row off the key, left to right: (first column, count, kind code) per run, the head a run of one; O(runs)."""
    tc = state.shared.tip[0]
    key = state.key
    sides = []
    for sign, (k, c, d, g, beyond) in ((-1, key[:5]), (1, key[5:10])):
        runs = []
        while k:
            runs.append((tc - d - c + 1 if sign < 0 else tc + d, c, k))
            d += c - 1 + g
            k, c, g, beyond = beyond.code, beyond.count, beyond.gap, beyond.next
        sides.append(runs)
    left, right = sides
    head = key[10] >> 8
    return [*reversed(left), (tc, 1, head), *right] if head else [*reversed(left), *right]


def tip_context(state: GameState) -> tuple[TileKind | None, TileKind | None, dict[int, TileKind]]:
    """The read-slot and status tiles, None when empty, and the tape row's tiles by column, left to right; O(row)."""
    cells: dict[int, TileKind] = {}
    for first, count, code in _tape_runs(state):
        cells.update(dict.fromkeys(range(first, first + count), _KIND[code]))
    code = state.key[10]
    return _KIND[code >> 4 & 0xF], _KIND[code & 0xF], cells


def _relaid(cells: dict[int, TileKind], dx: int) -> dict[int, TileKind] | None:
    """A row's tiles with every tape tile dx cells over; None when one lands on a tile that stays."""
    moved = {col + dx: kind for col, kind in cells.items() if kind.tile_type is _TAPE}
    stays = {col: kind for col, kind in cells.items() if kind.tile_type is not _TAPE}
    return None if stays.keys() & moved.keys() else stays | moved


class _Shared:
    """The board off a state's tip context, shared by the states from one copy to the next; made field by field.

    tip: the one tip, or None: the record of a board without exactly one tip has no rows and no packets.
    rows: a row's tiles by column as indexed, without the tape row tr - 1 and the cells (tc, tr + 1) and
        (tc, tr + 2); the indexed state's own maps, but copies of those two rows, and nothing changes them.
    copied: the cells each copy wrote since, newest first, as nested (row, col, kind, rest) tuples, or None.
    stack: the incomplete well-formed packet rows, highest first, as nested (row, prefix, rest) tuples, or None.
    top: the highest complete packet row, or None; a fresh row opens above it once the stack is empty.
    first: tape_tile(R1.bit).code << 8 | R2.code, the key's code less its read field, to what firing the lowest
        complete packet with them makes: (Fired(row), made once, the code of the tape tile written, the shift
        dx, the new key's read and status fields, the packet).
    nontape: the number of the tape row's tiles that are not tape tiles.
    count: the number of the board's tiles, the read slot's not counted.
    nodes: the node table, shared by every record of the board.
    ruled: packet_rows' length, the rows above the tip with a rule tile in the packet columns; each copy keeps it.
    """

    __slots__ = ("tip", "rows", "copied", "stack", "top", "first", "nontape", "count", "nodes", "ruled")


class _Made(GameState):
    """A state step made: the engine's record of its board and its position key; `tiles` is built when read."""

    __slots__ = ()

    def rows(self) -> dict[int, dict[int, TileKind]]:
        """The tiles by row, then column, sharing the record's maps; O(rows + copied cells + row)."""
        shared, (read, status, tape) = self.shared, tip_context(self)
        rows, (tc, tr), copied = dict(shared.rows), shared.tip, shared.copied
        laid = {r: {tc: kind} for r, kind in ((tr + 1, read), (tr + 2, status)) if kind}
        while copied is not None:
            r, col, kind, copied = copied
            laid.setdefault(r, {})[col] = kind
        for r, cells in laid.items():
            rows[r] = {**rows.get(r, _EMPTY_ROW), **cells}
        if tape:
            rows[tr - 1] = tape
        return rows

    def tile_count(self) -> int:
        return self.shared.count + (self.key[10] & 0xF0 != 0)

    def _hash_parts(self) -> tuple[dict[int, dict[int, TileKind]], list[tuple[int, int, int, int]], list[tuple]]:
        """state_hash's tiles, building no row: the record's rows, the tape row's runs, and the cells off both.

        Those single tiles are the read-slot and status tiles, and the
        copied cells as the record's (row, col, kind, rest) tuples; all lie
        in or right of the tip's column and above its row.
        """
        shared, code = self.shared, self.key[10]
        (tc, tr), copied = shared.tip, shared.copied
        singles = [(r, tc, _KIND[k], None) for r, k in ((tr + 1, code >> 4 & 0xF), (tr + 2, code & 0xF)) if k]
        while copied is not None:
            singles.append(copied)
            copied = copied[3]
        return shared.rows, [(tr - 1, first, count, code) for first, count, code in _tape_runs(self)], singles

    def tip_cells(self) -> list[CellAddr]:
        return [self.shared.tip]

    def tip_count(self) -> int:
        return 1


def shared_of(state: GameState) -> _Shared:
    """The state's shared record; a state the engine has not seen is indexed in place first.

    Indexing a board with one tip takes O(rows + the tape row's tiles) past
    what rows() costs. It reads the state's rows and tip, changing neither:
    the record shares each row but the two it copies without the tip
    column's cell. A board without exactly one tip gets a record with no tip
    after its tips are counted, which the state of A x A does off its block
    groups, building no tile.
    """
    if state.shared is not None:
        return state.shared
    shared = _new(_Shared)
    shared.tip, shared.rows, shared.copied = None, None, None
    shared.stack, shared.top, shared.first = None, None, {}
    shared.nontape, shared.count, shared.nodes, shared.ruled = 0, 0, {}, 0
    state.key = None
    if state.tip_count() == 1:
        rows = state.rows()
        tc, tr = shared.tip = state.tip_cells()[0]
        tape = rows.get(tr - 1, _EMPTY_ROW)
        above = {r: {**rows[r]} for r in (tr + 1, tr + 2) if r in rows}
        read, status = (above.get(r, {}).pop(tc, None) for r in (tr + 1, tr + 2))
        rows = shared.rows = {r: cells for r, cells in {**rows, **above}.items() if cells and r != tr - 1}
        for r, prefix in (classified := packet_rows(rows, (tc, tr))):
            shared.stack, shared.top, shared.first = _indexed(r, prefix, shared.stack, shared.top, shared.first)
        shared.nontape = len(tape) - sum(map(list(tape.values()).count, (TileKind.TAPE_0, TileKind.TAPE_1)))
        shared.count, shared.ruled = state.tile_count() - (read is not None), len(classified)
        code = sum(kind.code << shift for kind, shift in ((tape.get(tc), 8), (read, 4), (status, 0)) if kind)
        state.key = (*_stacks(shared.nodes, tape, tc), code)
    state.shared = shared
    return shared


def _indexed(row: int, prefix: list[TileKind] | None, stack, top, first):
    """The packet index (stack, top, first) with one classified row added; step calls it only to complete a packet.

    The row must lie above every row on the stack.
    """
    if prefix is None:
        return stack, top, first
    if len(prefix) < PACKET_WIDTH:
        return (row, prefix, stack), top, first
    if top is None or row > top:
        top = row
    r1, r2, r3, r4, r5 = prefix
    key = tape_tile(r1.bit).code << 8 | r2.code
    if key not in first or row < first[key][0].packet_row:
        fire = (Fired(row), tape_tile(r3.bit).code, -1 if r5.bit == 1 else 1, r1.code << 4 | status_tile(r4.bit).code)
        first = {**first, key: (*fire, prefix)}
    return stack, top, first


def position_key(state: GameState) -> tuple | None:
    """The key of the state's tip context; None on a board without exactly one tip.

    The tuple (left code, count, d, gap, next, right code, count, d, gap,
    next, code): the tape row's two stacks, each as its top run (the run's
    kind code and count, its distance from the tip column, and its gap to
    the next run) and the node of the next run, then the tip context's tile
    codes, head << 8 | read << 4 | status, 0 for an empty cell: the state's
    only record of those tiles. An empty stack is (0, 0, 0, 0, _NIL). It
    covers only what a fire changes, so it tells apart the states between
    one copy and the next, where every other cell stays as it is. Runs are
    maximal, so equal stacks have equal top runs, and within one board
    family, whose nodes come from one table, equal runs below them are one
    node: two keys are equal exactly when the tip contexts are. Nodes
    compare by identity: keys of separately indexed boards never match.
    O(1): a state holds its key.
    """
    shared_of(state)
    return state.key


def step(state: GameState) -> tuple[GameState, StepOutcome]:
    """Run exactly one generation; pure, deterministic.

    Both moves slide the row below the tip by one cell, inline. A fire looks
    up the key's head and status fields in the packet index, writes its
    entry's tape tile under the tip and slides the tape: the near stack
    gives its first tile to the head, and the write goes on top of the far
    stack. Only a miss decodes the head, to copy a rule tile or end the
    game. A copy makes the next shared record and its RuleCopied (by
    tuple.__new__) and stacks a row it leaves short of a packet; only a
    completed packet goes through _indexed. It slides the left stack one
    cell right and writes nothing; it fills a slot that no later step
    empties, so one run fills each cell at most once. Taking a tile off a
    run, or writing one onto an equal run at distance 1, changes a count;
    only a write that starts a new run interns a node, the old top run. A
    fire on a row that also holds non-tape tiles re-lays the row.
    """
    shared = state.shared or shared_of(state)
    key = state.key
    match = key and shared.first.get(key[10] & 0xF0F)
    if match:
        outcome, write, dx, code, _ = match
    else:  # a miss ends the game, or copies the rule tile under the tip (with one tip, the cell below is no tip)
        below = key and _KIND[key[10] >> 8]
        if below is None or below.tile_type is _TAPE:
            if key is None:
                return state, Terminated(StopReason.MULTIPLE_TIPS if state.tip_count() else StopReason.NO_TIP)
            if below is None:
                return state, Terminated(StopReason.NOTHING_BELOW_TIP)
            status = _KIND[key[10] & 0xF]
            malformed = status is None or status.family != "status"
            return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT if malformed else StopReason.NO_MATCHING_PACKET)
        tc, tr = shared.tip
        if shared.stack is not None:  # a stacked row is well-formed with nothing past its prefix
            target, prefix, rest = shared.stack
            slot, ruled = len(prefix) + 1, shared.ruled
            if below.slot != slot:
                return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
            prefix = [*prefix, below]
        else:
            target, slot, rest = (tr if shared.top is None else shared.top) + 1, 1, None
            old, newest = shared.rows.get(target, _EMPTY_ROW), shared.copied
            # a fresh row lies above every row a copy wrote, but for one a copy
            # left malformed; that row is still the target, and the newest copy's
            if below.slot != 1 or tc + 1 in old or (newest is not None and newest[0] == target):
                return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
            # a fresh row that already holds tiles is classified; an empty one holds the copied tile alone. It
            # joins packet_rows unless it held a rule tile in the packet columns
            prefix = classify_packet([below, *map(old.get, range(tc + 2, tc + PACKET_WIDTH + 1))]) if old else [below]
            ruled = shared.ruled + (not (old and packet_rows({target: old}, shared.tip)))
        outcome = tuple.__new__(RuleCopied, (target, slot))  # skips the namedtuple's Python __new__
        last, shared = shared, _new(_Shared)
        if prefix and len(prefix) < PACKET_WIDTH:  # a well-formed row short of a packet tops the stack
            shared.stack, shared.top, shared.first = (target, prefix, rest), last.top, last.first
        else:
            shared.stack, shared.top, shared.first = _indexed(target, prefix, rest, last.top, last.first)
        shared.tip, shared.rows, shared.copied = last.tip, last.rows, (target, tc + slot, below, last.copied)
        shared.nontape, shared.count, shared.nodes, shared.ruled = last.nontape - 1, last.count, last.nodes, ruled
        # the tiles left of the consumed one slide one cell right; nothing is written, and the key loses its head
        write, dx, code = 0, 1, key[10] & 0xFF

    if shared.nontape and write:  # tiles that are not tape tiles stay put, and a tape tile may not land on one
        tc = shared.tip[0]
        cells = _relaid({**tip_context(state)[2], tc: _KIND[write]}, dx)
        if cells is None:
            return state, Terminated(StopReason.MALFORMED_TIP_CONTEXT)
        key = (*_stacks(shared.nodes, cells, tc), code | cells[tc].code << 8 if tc in cells else code)
    else:  # the near stack slides towards the tip, a write goes on top of the far one
        if dx == 1:
            nk, nc, nd, ng, beyond, fk, fc, fd, fg, far, _ = key
        else:
            fk, fc, fd, fg, far, nk, nc, nd, ng, beyond, _ = key
        if nd == 1:  # the near run's first tile comes under the tip
            code |= nk << 8
            if nc > 1:
                nc -= 1
            else:
                nk, nc, nd, ng, beyond = beyond.code, beyond.count, ng, beyond.gap, beyond.next
        else:
            nd = nd and nd - 1
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
    new = _new(_Made)  # assigned three at a time, which builds no tuple
    new._tiles, new.anchor, new.junk_cells = None, state.anchor, state.junk_cells
    new.shared, new.key = shared, key
    return new, outcome


def _diff_cells(before: GameState, after: GameState, outcome: Fired | RuleCopied) -> list[CellAddr]:
    """Cells whose tile differs between a state and its successor; O(runs + cells changed).

    Only the cells the step changed can differ, so only they are compared:
    the tape row, and a fire's read-slot and status cells or the cell a copy
    wrote. The tape row is compared run by run: each row's runs mark where
    its tiles change, and between two marks of either row both rows hold one
    kind each (or nothing), so a stretch where they differ differs in every
    cell. A step shifts the tape by one cell, so each run's two ends change
    at most two cells.
    """
    tc, tr = before.shared.tip
    marks = []
    for runs in (_tape_runs(before), _tape_runs(after)):
        kinds: dict[int, int] = {}
        for first, count, code in runs:
            kinds[first] = code
            kinds[first + count] = 0  # unless the next run starts there
        marks.append(kinds)
    old, new = marks
    was = now = 0
    cols = sorted(old.keys() | new.keys())
    changed = []
    for col, end in zip(cols, cols[1:]):
        was, now = old.get(col, was), new.get(col, now)
        if was != now:
            changed += [(c, tr - 1) for c in range(col, end)]
    diff = before.key[10] ^ after.key[10]  # the read-slot and status fields, which a copy leaves as they are
    changed += [(tc, r) for r, field in ((tr + 1, diff & 0xF0), (tr + 2, diff & 0xF)) if field]
    if isinstance(outcome, RuleCopied):
        changed.append((tc + outcome.slot, outcome.target_row))
    return sorted(changed)


def run(state: GameState, max_gens: int, on_step: Callable[[StepRecord], None] | None = None) -> RunResult:
    """Iterate generations until termination, a repeated state, or budget.

    A run is copies, then fires: a fire leaves a tape tile or nothing under
    the tip and moves only tape tiles, so no copy follows a fire, and the
    record a run fires in is its last. So run plays two loops. A copy adds a
    tile that no step removes, so no state before a copy recurs after it:
    the copy loop records no key. The fire loop records the position key of
    the first fire's predecessor, the state the last copy made (or the state
    run was given), and of every later generation. All the states of a run
    share one board family, so their keys are exact: a key seen before is a
    repeat of that generation's state, reported as a cycle whose period is
    the distance between the two occurrences (a fixed point is a period-1
    cycle). The terminating attempt consumes no budget, so witnessing a
    halt after g successful generations needs max_gens > g.

    Cost, for a state of n tiles, r runs in its tape row, g generations
    since the first fire, and F nodes made since the state was indexed: O(n)
    time to index the state, then O(1) Python work per generation at any
    tape length and any number of packets. A generation builds one state;
    a fire also makes at most one node, only when it starts a new run, and
    a copy one record, one list cell and its RuleCopied. With on_step, each
    record adds a state_hash and a diff that read the tape row as its r runs:
    O(r + m) Python work, m the tiles off the tape row, and the digest's
    O(n) lanes mixed at C speed, a block of up to 4,096 tiles of a run in a
    fixed number of big-int operations. Memory is O(n + g + F): the
    current state, one key per generation since the first fire, and the
    node table, which holds at most r nodes when the state is indexed and
    keeps every node it made. A fire that re-lays a row holding other tiles
    takes O(row) time and makes a node for each run below the top one out
    to the farthest run whose gap changed: none when only the top run's gap
    changed.
    """
    if max_gens < 0:
        raise ValueError("max_gens must be >= 0")
    gens = 0
    while True:  # copies, until the first step that is no copy
        if gens == max_gens:
            return RunResult(state, gens, RunStatus.BUDGET)
        new_state, outcome = step(state)
        if not isinstance(outcome, RuleCopied):
            break
        gens += 1
        if on_step is not None:
            on_step(StepRecord(gens, outcome, state_hash(new_state), _diff_cells(state, new_state, outcome)))
        state = new_state
    seen = {state.key: gens}
    while True:  # fires, each state's key recorded
        if isinstance(outcome, Terminated):
            if on_step is not None:
                on_step(StepRecord(gens + 1, outcome, state_hash(state), []))
            return RunResult(state, gens, RunStatus.HALTED, reason=outcome.reason)
        gens += 1
        if on_step is not None:
            on_step(StepRecord(gens, outcome, state_hash(new_state), _diff_cells(state, new_state, outcome)))
        state = new_state
        first = seen.setdefault(state.key, gens)
        if first != gens:
            return RunResult(state, gens, RunStatus.CYCLE, period=gens - first, first_index=first)
        if gens == max_gens:
            return RunResult(state, gens, RunStatus.BUDGET)
        new_state, outcome = step(state)
