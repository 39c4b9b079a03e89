"""Certificate construction and growth measurement.

Conditions 1-4 force the certificate skeleton completely (the opening 2, all
|A|^2 coordinate pairs in canonical order, the closing 5), so the only free
choices are the generation count and the final marker. The solver therefore
constructs rather than enumerates: place the forced points, recognize, check
the machine structure, run the game, and read the answer off the run.

Note the built-in floor: a recognized machine needs one rule packet spanning
the five cell columns right of the tip, so A must populate at least six
consecutive 4-wide blocks - any instance with |A| <= 5 is unsolvable no
matter how the points land.

In this formalisation the answer is fixed by the board's structure: once
extraction finds a machine, its run ends at the first attempt, under every
atlas (tests/atlas_oracle.py), so a certificate exists exactly when
extraction succeeds, and every certificate found is E = 1 with marker 25;
under the packaged atlas, exactly when A's block-mask word holds a fixed
pattern (tests/word_oracle.py). Deciding costs recognition plus extraction:
O(|A| + groups^2) without exactly one tip, which builds no tile, and
O(|A| * groups) with one, to lay out and index the rows once, after which
extraction reads the engine's record in O(tape row + rules);
construct_certificate adds the run's one attempt, O(1). Every |A| is
solved. The certificate is `Certificate(SquarePoints(A), 1, 25)`, O(|A|) in
memory, and instances.write_certificate streams its O(|A|^2) bytes.
growth_probe measures the cost next to (M!)^2.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .embedding import NotATuringMachine, extract_tm
from .engine import RunStatus, run
from .grid import recognize
from .instances import MARKER_STOPS, RESERVED, Certificate, Instance
from .tiles import TileAtlas

SAMPLE_POOL = tuple(v for v in range(1, 201) if v not in RESERVED)  # growth_probe's random elements


class SolveOutcome(namedtuple("SolveOutcome", "certificate reason cells_placed cells_scanned generations")):
    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.certificate is not None


def construct_certificate(inst: Instance, max_gens: int, atlas: TileAtlas) -> SolveOutcome:
    """Decide the unique skeleton's generation count and marker.

    No machine structure means no certificate at all. A board that holds a
    machine has a tape tile under its one tip, and the status tile above it
    lies in the tip's column, the one block of its x mask, so no packet can
    read it: the run halts at its first attempt, under every atlas. The
    engine still decides: the board is run, and the halt is asserted. One
    generation is the fewest that witness it, so the certificate is E = 1
    with marker 25, and max_gens (at least 1) changes nothing.

    There is no limit on |A|. Time is O(|A| * groups), and O(|A| +
    groups^2) on a board without exactly one tip (see grid._SquareState).
    The certificate is `Certificate(SquarePoints(A), 1, 25)`, O(|A|) in
    memory; writing it streams its bytes (instances.write_certificate).
    """
    if max_gens < 1:
        raise ValueError("max_gens must be >= 1")
    state = recognize(inst.square, atlas)
    placed, scanned = len(inst.square), state.tile_count() + state.junk_cells
    try:
        extract_tm(state)
    except NotATuringMachine as exc:
        return SolveOutcome(None, f"not_a_turing_machine:{exc.reason.value}", placed, scanned, 0)
    result = run(state, max_gens)
    assert result.status is RunStatus.HALTED and result.generations_run == 0, result
    return SolveOutcome(Certificate(inst.square, 1, MARKER_STOPS), None, placed, scanned, 0)


class GrowthRow(
    namedtuple("GrowthRow", "size_m trial cells_placed factorial_sq_claim generations cells_scanned found")
):
    __slots__ = ()


def random_instance(rng: random.Random, size: int) -> Instance:
    return Instance(tuple(rng.sample(SAMPLE_POOL, size)))


def growth_probe(
    sizes: list[int],
    trials: int,
    atlas: TileAtlas,
    max_gens: int = 32,
    seed: int = 0,
) -> list[GrowthRow]:
    """Measure construction cost over random instances of each size.

    cells_placed is always M^2 (the skeleton forces every pair); the
    factorial_sq_claim column carries (M!)^2 alongside for comparison with
    the much larger advertised figure.
    """
    rng = random.Random(seed)
    rows = []
    for size in sizes:
        for trial in range(trials):
            inst = random_instance(rng, size)
            outcome = construct_certificate(inst, max_gens, atlas)
            rows.append(
                GrowthRow(
                    size_m=size,
                    trial=trial,
                    cells_placed=outcome.cells_placed,
                    factorial_sq_claim=math.factorial(size) ** 2,
                    generations=outcome.generations,
                    cells_scanned=outcome.cells_scanned,
                    found=outcome.found,
                )
            )
    return rows
