"""Compile Turing machines onto the board and read them back off the engine's record.

Layout produced by the compilers (cell coordinates, rows grow upward):

* row 0: the tape, one tape tile per symbol, optionally zero-padded
* row 1: the tip, directly above the tape cell under the head
* row 2: the read-slot placeholder; also the first packet row
* row 3: the status tile carrying the initial state; also packet row two
* rule k (0-based) occupies columns tip+1 .. tip+5 of row 2+k

Movement mapping: a machine rule that moves the head right slides the tape
left under the fixed tip, so slot R5 carries 1 - rule.move. This fixed
correspondence is pinned by the lockstep tests.

The tape-prefix loader places the rule tokens of each rule in consumption
order R1..R5. Rule reads consume the cell under the tip and pull the row
rightward, so consumption walks leftward through the row: spatially the
token run is mirrored, the payload sits left of all tokens, and the tip
starts over the first token to be consumed (the rightmost). After the
5 * rule-count loading generations the head sits over the last payload cell.
"""

from __future__ import annotations

from enum import Enum

from .engine import shared_of, tip_context
from .grid import GameState, points_of
from .tiles import (
    CellAddr,
    Point,
    TileAtlas,
    TileKind,
    TileType,
    move_tile,
    read_tile,
    slot_tile,
    status_tile,
    tape_tile,
)
from .tm import Rule, TmSpec

TAPE_ROW = 0
TIP_ROW = 1


class ExtractFailure(Enum):
    NO_TIP = "no_tip"
    BROKEN_TAPE = "broken_tape"
    NO_PACKETS = "no_packets"
    MALFORMED_STACK = "malformed_stack"


class NotATuringMachine(Exception):
    def __init__(self, reason: ExtractFailure):
        super().__init__(reason.value)
        self.reason = reason


def _rule_tokens(rule: Rule) -> list[TileKind]:
    """Packet tiles for one rule, in slot order R1..R5."""
    return [
        read_tile(rule.read),
        status_tile(rule.state),
        slot_tile(3, rule.write),
        slot_tile(4, rule.next_state),
        move_tile(1 - rule.move),
    ]


def _stack_cells(tip_col: int, initial_state: int) -> dict[CellAddr, TileKind]:
    return {
        (tip_col, TIP_ROW): TileKind.TIP,
        (tip_col, TIP_ROW + 1): read_tile(0),  # placeholder, overwritten at first read
        (tip_col, TIP_ROW + 2): status_tile(initial_state),
    }


def compile_direct(spec: TmSpec, atlas: TileAtlas, pad: int = 0) -> set[Point]:
    """Points for a board with the machine's packets already in place.

    pad adds that many blank (zero) tape tiles on each side; the board has no
    blank-extension rule, so a run whose head would leave the compiled tape
    terminates instead of reading a blank. Pad by the expected head excursion
    to avoid that.
    """
    if not spec.tape:
        raise ValueError("cannot compile a machine with an empty tape")
    if not 0 <= spec.head < len(spec.tape):
        raise ValueError("head index must sit on the initial tape")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    tip_col = pad + spec.head
    cells: dict[CellAddr, TileKind] = {}
    padded = "0" * pad + spec.tape + "0" * pad
    for col, ch in enumerate(padded):
        cells[(col, TAPE_ROW)] = tape_tile(int(ch))
    cells.update(_stack_cells(tip_col, spec.initial_state))
    for k, rule in enumerate(spec.rules):
        for i, kind in enumerate(_rule_tokens(rule), start=1):
            cells[(tip_col + i, TIP_ROW + 1 + k)] = kind
    return points_of(GameState(cells), atlas)


def compile_universal(spec: TmSpec, payload_tape: str, atlas: TileAtlas) -> set[Point]:
    """Points for a board that loads its rules from a tape prefix.

    The engine consumes the prefix one token per generation (building the
    same packet stack compile_direct lays out), then runs the machine on the
    payload with the head over the payload's last cell.
    """
    if not payload_tape:
        raise ValueError("cannot compile a machine with an empty tape")
    if set(payload_tape) - {"0", "1"}:
        raise ValueError("payload must be a string of 0/1")
    tokens: list[TileKind] = []
    for rule in spec.rules:
        tokens.extend(_rule_tokens(rule))
    row: list[TileKind] = [tape_tile(int(ch)) for ch in payload_tape]
    row.extend(reversed(tokens))  # consumption order is right-to-left
    cells: dict[CellAddr, TileKind] = {(col, TAPE_ROW): kind for col, kind in enumerate(row)}
    tip_col = len(row) - 1
    cells.update(_stack_cells(tip_col, spec.initial_state))
    return points_of(GameState(cells), atlas)


def extract_tm(state: GameState) -> TmSpec:
    """Recover the machine structure: tape line, tip stack, rule packets.

    Tolerates unrelated tiles elsewhere (correct answers may carry plenty),
    but the tape row itself must be a single contiguous run of tape tiles
    through the cell under the tip. Packets sharing a (read, state) key keep
    the first in scan order, matching which packet would actually fire.
    """
    spec, _ = extract_tm_counted(state)
    return spec


def extract_tm_counted(state: GameState) -> tuple[TmSpec, int]:
    """extract_tm plus the number of cell probes spent, for cost accounting.

    Reads the engine's record of the state, made on the state so a run of
    it reuses it, and lays out no row: the read-slot, status and tape tiles
    off the position key (engine.tip_context), the rules off the record's
    first-match map in row order (the first complete packet per (R1, R2) in
    scan order). Past indexing, O(tape row + rules). Probes, counted once:
    1 for the tip, 2 for the read slot and status, tape cells + 1, and 5 per
    row of packet_rows (the record's count) + 1; verify charges a refusal 4.
    """
    shared = shared_of(state)
    if shared.tip is None:
        raise NotATuringMachine(ExtractFailure.NO_TIP)
    tc = shared.tip[0]

    read_slot, status, tape_row = tip_context(state)
    if read_slot is not None and read_slot.family != "read":
        raise NotATuringMachine(ExtractFailure.MALFORMED_STACK)
    if status is None or status.family != "status":
        raise NotATuringMachine(ExtractFailure.MALFORMED_STACK)

    tape_cols = sorted(col for col, k in tape_row.items() if k.tile_type is TileType.TAPE)
    if tc not in tape_cols:
        raise NotATuringMachine(ExtractFailure.BROKEN_TAPE)
    if tape_cols[-1] - tape_cols[0] + 1 != len(tape_cols):
        raise NotATuringMachine(ExtractFailure.BROKEN_TAPE)

    if not shared.first:
        raise NotATuringMachine(ExtractFailure.NO_PACKETS)
    entries = sorted(shared.first.values(), key=lambda entry: entry[0].packet_row)  # scan order: ascending row
    rules = [Rule(r1.bit, r2.bit, r3.bit, r4.bit, 1 - r5.bit) for *_, (r1, r2, r3, r4, r5) in entries]

    tape = "".join(str(tape_row[c].bit) for c in tape_cols)
    return (
        TmSpec(tuple(rules), tape, head=tc - tape_cols[0], initial_state=status.bit),
        5 * shared.ruled + len(tape_cols) + 5,
    )
