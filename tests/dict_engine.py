"""The dict engine: one generation as whole-board dict rewrites.

This was the package's engine before the row board replaced it. It walks the
whole board every generation, so it is kept only as the differential oracle
that `test_engine_oracle.py` checks the row board against, step by step.
`run` plays engine.run's contract on it, finding cycles by comparing whole
tile maps, and traces with the whole-board diff. `packet_rows` finds packet
rows and `tip_cells` finds the tips by walking the tile map, as the package
did before, so the oracle shares only `classify_packet` (the rule for one
row's five cells) with the board.
`extract_tm_counted` is the package's extraction as it was on the tile map,
the oracle for extraction from the board.
"""

from __future__ import annotations

from typing import Callable

from debilandia.engine import (
    PACKET_WIDTH,
    Fired,
    RuleCopied,
    RunResult,
    RunStatus,
    StepOutcome,
    StepRecord,
    StopReason,
    Terminated,
    classify_packet,
)
from debilandia.embedding import ExtractFailure, NotATuringMachine
from debilandia.grid import GameState, state_hash
from debilandia.tiles import CellAddr, TileKind, TileType, read_tile, status_tile, tape_tile
from debilandia.tm import Rule, TmSpec


def packet_rows(state: GameState, tip: CellAddr) -> list[tuple[int, list[TileKind] | None]]:
    """Classify every row above the tip that holds a rule tile in the packet columns.

    Returns (row, classify_packet(cells)) in ascending row order, where cells
    are the row's tiles at columns tip_col + 1 .. tip_col + 5. Rows with no
    rule tiles cannot host a packet, so they are skipped rather than walked.
    """
    tc, tr = tip
    rows = {
        row
        for (col, row), kind in state.tiles.items()
        if kind.tile_type is TileType.RULE and tc + 1 <= col <= tc + PACKET_WIDTH and row > tr
    }
    return [
        (row, classify_packet([state.tiles.get((tc + i, row)) for i in range(1, PACKET_WIDTH + 1)]))
        for row in sorted(rows)
    ]


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


def tip_cells(state: GameState) -> list[CellAddr]:
    """The tip cells, read off the tile map: the package's tip bookkeeping is not consulted."""
    return sorted(cell for cell, kind in state.tiles.items() if kind is TileKind.TIP)


def step(state: GameState) -> tuple[GameState, StepOutcome]:
    """Run exactly one generation; pure, deterministic."""
    tips = tip_cells(state)
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


def diff_cells(before: GameState, after: GameState) -> list[CellAddr]:
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
    """engine.run's contract: a cycle is the first exact repeat of a tile map."""
    seen = {frozenset(state.tiles.items()): 0}
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
            on_step(StepRecord(gens, outcome, state_hash(new_state), diff_cells(state, new_state)))
        state = new_state
        layout = frozenset(state.tiles.items())
        if layout in seen:
            first = seen[layout]
            return RunResult(state, gens, RunStatus.CYCLE, period=gens - first, first_index=first)
        seen[layout] = gens


def extract_tm_counted(state: GameState) -> tuple[TmSpec, int]:
    """The package's extract_tm_counted before it read the engine board: it walks the tile map."""
    probes = 0
    tips = tip_cells(state)
    probes += 1
    if len(tips) != 1:
        raise NotATuringMachine(ExtractFailure.NO_TIP)
    tc, tr = tips[0]

    probes += 2
    read_slot = state.tiles.get((tc, tr + 1))
    status = state.tiles.get((tc, tr + 2))
    if read_slot is not None and read_slot.family != "read":
        raise NotATuringMachine(ExtractFailure.MALFORMED_STACK)
    if status is None or status.family != "status":
        raise NotATuringMachine(ExtractFailure.MALFORMED_STACK)

    tape_cols = sorted(
        col for (col, row), k in state.tiles.items() if row == tr - 1 and k.tile_type is TileType.TAPE
    )
    probes += len(tape_cols) + 1
    if tc not in tape_cols:
        raise NotATuringMachine(ExtractFailure.BROKEN_TAPE)
    if tape_cols[-1] - tape_cols[0] + 1 != len(tape_cols):
        raise NotATuringMachine(ExtractFailure.BROKEN_TAPE)

    rows = packet_rows(state, (tc, tr))
    probes += 5 * len(rows) + 1
    packets = complete_packets(rows)
    if not packets:
        raise NotATuringMachine(ExtractFailure.NO_PACKETS)
    rules: list[Rule] = []
    seen_keys: set[tuple[int, int]] = set()
    for _, tiles in packets:
        r1, r2, r3, r4, r5 = tiles
        key = (r1.bit, r2.bit)
        if key in seen_keys:
            continue  # unreachable duplicate; the first packet wins the scan
        seen_keys.add(key)
        rules.append(Rule(r1.bit, r2.bit, r3.bit, r4.bit, 1 - r5.bit))

    tape = "".join(str(state.tiles[(c, tr - 1)].bit) for c in tape_cols)
    return (
        TmSpec(tuple(rules), tape, head=tc - tape_cols[0], initial_state=status.bit),
        probes,
    )
