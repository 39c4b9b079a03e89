"""Atlas sweep: generated (word, atlas) pairs checked against the theorem of tests/atlas_oracle.py.

Draws 200,000 pairs from seed 1, twenty times the 10,000 of seed 0 that
tier-1 checks, through word_sweep's runner: a one-tip square that extracts
halts at its first attempt, `solve` finds (1, 25) for it and `verify`
accepts exactly (0, 43) and (E >= 1, 25); one that fires does not extract;
and no run cycles. Not part of the tier-1 tests: it takes about 80 s on a
2-core VM, Python 3.11. Run it from the repository root as

    PYTHONPATH=src python tests/atlas_sweep.py

It prints the number of pairs, of one-tip squares, of found sets and of
squares that fire, and the most fires of one run, and exits 1 on the first
pair that disagrees; the case number it prints is the pair's place in
`pairs(SEED, COUNT)`.
"""

from __future__ import annotations

import sys
from collections import Counter

from atlas_oracle import check, pairs
from word_sweep import sweep

SEED = 1
COUNT = 200_000


def summary(tally: Counter) -> str:
    squares = {result: n for result, n in tally.items() if result is not None}
    found = sum(n for (hit, _), n in squares.items() if hit)
    fired = sum(n for (_, fires), n in squares.items() if fires)
    most = max((fires for _, fires in squares), default=0)
    return (
        f"{sum(tally.values())} pairs, {sum(squares.values())} with one tip, {found} found, "
        f"{fired} fire, at most {most} fires"
    )


def main() -> int:
    return sweep(pairs(SEED, COUNT), check, summary)


if __name__ == "__main__":
    sys.exit(main())
