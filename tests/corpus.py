"""Shared machines, instances, and comparison helpers for the test suite."""

from __future__ import annotations

import json
import random
from operator import attrgetter
from pathlib import Path

from hypothesis import strategies as st

from debilandia import engine
from debilandia.engine import Fired, step
from debilandia.grid import GameState
from debilandia.instances import MARKER_RUNS, MARKER_STOPS, Instance
from debilandia.tiles import CELL, TileAtlas, TileKind, TileType
from debilandia.tm import MOVE_LEFT, MOVE_RIGHT, Rule, TmConfig, TmSpec, initial_config, tm_step
from debilandia.verifier import verify
from grammar_oracle import build_candidate

# Halts immediately from state 0: its only rule needs state 1.
NEVER_MATCH = (Rule(1, 1, 1, 1, MOVE_RIGHT),)

# Skims right over zeros forever; halts at the first 1.
ZERO_RUNNER = (Rule(0, 0, 0, 0, MOVE_RIGHT),)

# Binary increment, least-significant bit at the right end of the tape.
INCREMENTER = (
    Rule(1, 0, 0, 0, MOVE_LEFT),  # carry: 1 -> 0, keep walking left
    Rule(0, 0, 1, 1, MOVE_LEFT),  # settle: 0 -> 1, done (state 1 halts)
)

# Flips 1s to 0s rightward; flips the first 0 to 1 and halts.
FLIP_UNTIL_ZERO = (
    Rule(1, 0, 0, 0, MOVE_RIGHT),
    Rule(0, 0, 1, 1, MOVE_RIGHT),
)

# Skims over 1s rightward; halts one step after the first 0.
SKIM_ONES = (
    Rule(1, 0, 1, 0, MOVE_RIGHT),
    Rule(0, 0, 0, 1, MOVE_RIGHT),
)

# Never halts: bounces between two cells forever (the board run cycles).
PING_PONG = (
    Rule(1, 0, 1, 1, MOVE_RIGHT),
    Rule(1, 1, 1, 0, MOVE_LEFT),
)

# Walks right to the first 1, then bounces between it and its left neighbour
# forever: the board run reaches an exact period-2 cycle.
BOUNCE = (
    Rule(0, 0, 0, 0, MOVE_RIGHT),
    Rule(1, 0, 1, 1, MOVE_LEFT),
    Rule(0, 1, 0, 0, MOVE_RIGHT),
)

LOCKSTEP_MACHINES = {
    "never_match": NEVER_MATCH,
    "zero_runner": ZERO_RUNNER,
    "incrementer": INCREMENTER,
    "flip_until_zero": FLIP_UNTIL_ZERO,
    "skim_ones": SKIM_ONES,
}

# Hand-derived accepting instance: the block offsets of A along each axis are
# {0,3} {0,1} {0,1,2,3} {0,2} {0,1,2} {0,1,3}, so the product points A x A
# recognize to exactly a tape tile, the tip stack, and one complete packet.
ACCEPT_A = (51, 54, 55, 56, 59, 60, 61, 62, 63, 65, 67, 68, 69, 71, 72, 74)


def accept_a_with_full_blocks(blocks: int) -> tuple[int, ...]:
    """ACCEPT_A and the CELL * blocks values above it, blocks full blocks.

    Each full block is a row above the tip that holds a complete packet, so
    the set is found, as E = 1 with marker 25, at any number of blocks.
    """
    return ACCEPT_A + tuple(range(max(ACCEPT_A) + 1, max(ACCEPT_A) + 1 + CELL * blocks))


@st.composite
def near_the_fixture(draw) -> set[int]:
    """The accepting set translated, then maybe with one element added or removed."""
    shift = draw(st.integers(-7, 10**4))
    values = {a + shift for a in ACCEPT_A}
    edit = draw(st.sampled_from(["none", "add", "remove"]))
    if edit == "add":
        values.add(draw(st.integers(min(values) - 8, max(values) + 8)))
    elif edit == "remove":
        values.discard(draw(st.sampled_from(sorted(values))))
    return values


def random_tapes(seed: int, count: int = 20, max_len: int = 12) -> list[str]:
    rng = random.Random(seed)
    tapes = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        tapes.append("".join(rng.choice("01") for _ in range(length)))
    return tapes


def lockstep_corpus() -> list[tuple[str, tuple[Rule, ...], list[str]]]:
    """(name, rules, tapes) for every lockstep machine, 20 seeded tapes each, then BOUNCE.

    Every lockstep machine moves one way only. BOUNCE walks right across a
    run of zeros to the first one, then its head crosses the boundary
    between them both ways, one way each generation; where another run lies
    beyond it, the crossing boxes and unboxes the run it writes onto.
    """
    corpus = []
    for seed, (name, rules) in enumerate(sorted(LOCKSTEP_MACHINES.items())):
        tapes = random_tapes(seed * 7 + 1, count=20, max_len=12)
        if name == "zero_runner":
            tapes[0] = "0" * 12  # the guaranteed budget-exhausting case
        corpus.append((name, rules, tapes))
    corpus.append(("bounce", BOUNCE, ["1", "01", "0101", "0011", "00110", "0001011"]))
    return corpus


def spec_with(rules: tuple[Rule, ...], tape: str, head: int = 0, state: int = 0) -> TmSpec:
    return TmSpec(rules, tape, head, state)


def oracle_trajectory(spec: TmSpec, budget: int):
    """All configurations reached within budget, plus whether it halted."""
    cfg = initial_config(spec)
    configs = [cfg]
    for _ in range(budget):
        nxt = tm_step(spec, cfg)
        if nxt is None:
            return configs, True
        configs.append(nxt)
        cfg = nxt
    return configs, False


def padding_for(spec: TmSpec, budget: int) -> int:
    """Blank padding wide enough for the head excursion within budget."""
    configs, _ = oracle_trajectory(spec, budget)
    heads = [c.head for c in configs]
    left = max(0, -min(heads))
    right = max(0, max(heads) - (len(spec.tape) - 1))
    return max(left, right)


def tip_cell(state: GameState):
    (cell,) = state.tip_cells()
    return cell


def one_family(tile_maps, nodes: dict | None = None) -> list[GameState]:
    """States of the tile maps whose boards draw their tape nodes from one table, as the boards of a run do.

    Nodes compare by identity, so the position keys of separately indexed
    boards never match; re-laying each tape row from one table (nodes, or a
    new one) makes them comparable.
    """
    nodes = {} if nodes is None else nodes
    states = [GameState(dict(tiles)) for tiles in tile_maps]
    for state in states:
        shared = engine.shared_of(state)
        if shared.tip is not None:
            tc, tr = shared.tip
            tape = state.rows().get(tr - 1, {})
            state.key = (*engine._stacks(nodes, tape, tc), state.key[-1])
            shared.nodes = nodes
    return states


def tip_context(tiles: dict):
    """The tape row relative to the tip column, with the read and status tiles; None without one tip."""
    tips = [cell for cell, kind in tiles.items() if kind is TileKind.TIP]
    if len(tips) != 1:
        return None
    ((tc, tr),) = tips
    row = frozenset((col - tc, kind) for (col, r), kind in tiles.items() if r == tr - 1)
    return row, tiles.get((tc, tr + 1)), tiles.get((tc, tr + 2))


def assert_keys_match_tip_contexts(keys: list, contexts: list) -> None:
    """Two keys are equal exactly when their tip contexts are; no context, no key."""
    by_context, by_key = {}, {}
    for key, context in zip(keys, contexts):
        assert (key is None) == (context is None)
        assert by_context.setdefault(context, key) == key
        assert by_key.setdefault(key, context) == context


# keyed by (family, bit): hashing TileKind itself runs Python code per tile
_TAPE_TEXT = {(k.family, k.bit): str(k.bit) if k.tile_type is TileType.TAPE else "" for k in TileKind}
_FAMILY_BIT = attrgetter("family", "bit")


def row_tiles(state: GameState, r: int) -> list[TileKind]:
    """Row r's tiles in column order.

    Reads the state's rows, so an engine-made state never builds its whole
    tile map for this.
    """
    cells = state.rows().get(r, {})
    return list(map(cells.__getitem__, sorted(cells)))


def tape_text(config: TmConfig) -> str:
    """A machine's tape content between the outermost 1s; empty when all blank."""
    ones = [i for i, v in config.cells.items() if v == 1]
    if not ones:
        return ""
    return "".join(str(config.cells.get(i, 0)) for i in range(min(ones), max(ones) + 1))


def save_atlas(atlas: TileAtlas, path: Path) -> None:
    """Write an atlas file in the layout of the packaged one."""
    path.write_text(json.dumps(atlas.to_json_obj(), indent=2, sort_keys=True) + "\n")


def game_tape_text(state: GameState) -> str:
    """Tape row content left to right, trimmed to the outermost 1s."""
    tc, tr = tip_cell(state)
    text = "".join(map(_TAPE_TEXT.__getitem__, map(_FAMILY_BIT, row_tiles(state, tr - 1))))
    return text.strip("0")


def game_status(state: GameState) -> int:
    """The bit of the status tile, two cells above the tip; read off the rows, as row_tiles does."""
    tc, tr = tip_cell(state)
    return state.rows()[tr + 2][tc].bit


def clone_state(state: GameState) -> GameState:
    """A new state with a copy of state's tile map; the engine indexes it afresh."""
    return GameState(dict(state.tiles), state.anchor, state.junk_cells)


def drive_fires(state: GameState, count: int) -> GameState:
    """Advance exactly count generations, asserting each one fires a packet."""
    for _ in range(count):
        state, outcome = step(state)
        assert isinstance(outcome, Fired), outcome
    return state


def sweep_candidates(inst: Instance, max_gens: int, atlas) -> list[tuple[int, int]]:
    """Every (gen_count, marker) skeleton candidate the checker accepts.

    Exhausts gen_count 0..max_gens against both markers, O(max_gens^2)
    generations in all; confirms that a no-certificate answer of the solver
    really has no accepted candidate.
    """
    accepted = []
    for gen_count in range(max_gens + 1):
        for marker in (MARKER_STOPS, MARKER_RUNS):
            if verify(inst, build_candidate(inst, gen_count, marker), atlas).accepted:
                accepted.append((gen_count, marker))
    return accepted
