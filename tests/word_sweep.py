"""Exhaustive word sweep: every 7-block word with one tip, checked against the closed form.

Each word has one block of mask 9 and one of mask 3, the tip's x and y
masks, and its other five blocks drawn from {0, 1, 5, 7, 11, 13, 15}, 0
being an empty block: 42 * 7**5 = 705,894 boards. For each, A is built from
the word, and:

* `extract_tm` of `recognize(SquarePoints(A))` finds a machine exactly
  when `word_oracle.decide(A)` holds, and `construct_certificate` then finds
  (1, 25);
* the run of that board has no `Fired` step and stops within 10
  generations (see `word_oracle`).

Not part of the tier-1 tests: it takes about a minute (63 s on a 2-core VM,
Python 3.11). Run it from the repository root as

    PYTHONPATH=src python tests/word_sweep.py

It prints the number of boards, of found sets and the longest run, and
exits 1 on the first board that disagrees.
"""

from __future__ import annotations

import sys
import time
from itertools import permutations, product

from word_oracle import TIP_X, TIP_Y, decide, values_of

from debilandia.embedding import NotATuringMachine, extract_tm
from debilandia.engine import Fired, RunStatus, run
from debilandia.grid import SquarePoints, recognize
from debilandia.instances import MARKER_STOPS, Instance
from debilandia.solver import construct_certificate
from debilandia.tiles import atlas_default

LENGTH = 7
ALPHABET = (0, 1, 5, 7, 11, 13, 15)
MAX_GENS = 10


def words():
    for tip_x, tip_y in permutations(range(LENGTH), 2):
        for rest in product(ALPHABET, repeat=LENGTH - 2):
            masks = list(rest)
            for at, mask in sorted(((tip_x, TIP_X), (tip_y, TIP_Y))):
                masks.insert(at, mask)
            yield tuple(masks)


def check(masks: tuple[int, ...], atlas) -> tuple[bool, int]:
    """(found, generations) of one word's board; AssertionError when it disagrees with the closed form."""
    values = values_of(masks)
    state = recognize(SquarePoints(values), atlas)
    try:
        extract_tm(state)
        found = True
    except NotATuringMachine:
        found = False
    assert found == decide(values), masks
    steps = []
    result = run(state, MAX_GENS + 1, on_step=steps.append)
    assert result.status is RunStatus.HALTED and result.generations_run <= MAX_GENS, (masks, result)
    assert not any(isinstance(record.outcome, Fired) for record in steps), masks
    if found:  # the solver reads the same board, so only a found set is solved again
        outcome = construct_certificate(Instance(values), MAX_GENS + 1, atlas)
        assert (outcome.certificate.gens, outcome.certificate.marker) == (1, MARKER_STOPS), masks
    return found, result.generations_run


def main() -> int:
    atlas = atlas_default()
    start = time.monotonic()
    boards = found = longest = 0
    for masks in words():
        try:
            hit, gens = check(masks, atlas)
        except AssertionError as exc:
            print(f"word {masks} disagrees with the closed form: {exc}", file=sys.stderr)
            return 1
        boards += 1
        found += hit
        longest = max(longest, gens)
    print(f"{boards} boards, {found} found, longest run {longest} generations, {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
