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
extraction finds a machine, the markers 25 and 43 are complementary at
every generation count, so a certificate exists exactly when extraction
succeeds. Deciding costs recognition plus extraction, O(|A| + tiles), and
construct_certificate adds one run, O(max_gens). Every |A| is solved, with
no limit on its size. The certificate is `Certificate(SquarePoints(A), E,
marker)`, O(|A|) in memory: no |A|^2-sized list is built, and
instances.write_certificate streams its O(|A|^2 + E) bytes. growth_probe
measures the cost next to (M!)^2.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .embedding import NotATuringMachine, extract_tm
from .engine import RunStatus, run
from .grid import SquarePoints, recognize
from .instances import MARKER_RUNS, MARKER_STOPS, RESERVED, Certificate, Instance
from .tiles import TileAtlas

SAMPLE_POOL = tuple(v for v in range(1, 201) if v not in RESERVED)  # growth_probe's random elements


class SolveOutcome(NamedTuple):
    certificate: Certificate | None
    reason: str | None
    cells_placed: int
    cells_scanned: int
    generations: int

    @property
    def found(self) -> bool:
        return self.certificate is not None


def construct_certificate(inst: Instance, max_gens: int, atlas: TileAtlas) -> SolveOutcome:
    """Decide the unique skeleton's generation count and marker.

    Markers: a halt witnessed within max_gens yields 25 with the earliest
    budget that witnesses it; a detected cycle also stabilizes the game, so
    it yields 25 with the earliest budget that exposes the repeat; a run
    that survives max_gens without repeating yields 43 with max_gens, which
    certifies exactly what the checker checks (no stabilization within the
    claimed generations). No machine structure means no certificate at all.

    There is no limit on |A|. Time is O(|A| + tiles + max_gens), and the
    certificate is `Certificate(SquarePoints(A), E, marker)`, O(|A|) in
    memory; writing it streams its bytes (instances.write_certificate).
    """
    if max_gens < 1:
        raise ValueError("max_gens must be >= 1")
    points = SquarePoints(inst.a_values)
    state = recognize(points, atlas)
    placed, scanned = len(points), len(state.tiles) + state.junk_cells
    try:
        extract_tm(state)
    except NotATuringMachine as exc:
        return SolveOutcome(None, f"not_a_turing_machine:{exc.reason.value}", placed, scanned, 0)

    result = run(state, max_gens)
    if result.status is RunStatus.HALTED:
        gen_count, marker = result.generations_run + 1, MARKER_STOPS
    elif result.status is RunStatus.CYCLE:
        gen_count, marker = result.first_index + result.period, MARKER_STOPS
    else:
        gen_count, marker = max_gens, MARKER_RUNS
    return SolveOutcome(Certificate(points, gen_count, marker), None, placed, scanned, result.generations_run)


class GrowthRow(NamedTuple):
    size_m: int
    trial: int
    cells_placed: int
    factorial_sq_claim: int
    generations: int
    cells_scanned: int
    found: bool


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
