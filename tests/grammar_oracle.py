"""The per-token certificate grammar: the pair section, coverage and the four run.

These were the package's `group_tuples`, `check_coverage` and `scan_tail`
before list and set operations replaced their accept paths. They walk the
list one token (or pair) at a time, so they are kept only as the
differential oracle that `test_grammar_oracle.py` checks the package's
versions against, reject reason and position included. This
`group_tuples` returns a list of pair tuples and this `check_coverage`
reads any sequence of pairs, members of A or not; the package's pass the
pairs on as two columns (`grid.Pairs`) whose members `group_tuples`
has already proven, or as `grid.SquarePoints` for a section that
`load_instance_file` proved A x A on the file text.

`read_sections` runs the package's three in the verifier's order, for tests
of reject positions that only make sense across the sections; its pairs
are the package's.

`build_candidate`, `instance_obj`, `json_text` and `flat_text` were the
package's writer: the canonical certificate as a list of 3|A|^2 + E + 2
ints, then rendered whole by `json.dumps` or `str.join`. `instances.write_certificate` streams the
same bytes from a `Certificate`; these stay as its oracle and as a way to
build lists for the grammar tests.
"""

from __future__ import annotations

import json
from itertools import product
from typing import Sequence

from debilandia import instances
from debilandia.grid import Pairs
from debilandia.instances import (
    MARKER_END_TUPLES,
    MARKER_GENERATION,
    MARKER_RUNS,
    MARKER_SEP,
    MARKER_START,
    MARKER_STOPS,
    Instance,
    RejectedCertificate,
    RejectReason,
)


def build_candidate(inst: Instance, gen_count: int, marker: int) -> list[int]:
    """The canonical certificate skeleton: A x A in lexicographic order, E fours, marker."""
    if marker not in (MARKER_STOPS, MARKER_RUNS):
        raise ValueError("marker must be 25 or 43")
    if gen_count < 0:
        raise ValueError("gen_count must be >= 0")
    items = [MARKER_START]
    for pair in product(inst.a_values, repeat=2):
        items += pair
        items.append(MARKER_SEP)
    items[-1] = MARKER_END_TUPLES  # no 7 after the last pair
    items += [MARKER_GENERATION] * gen_count
    items.append(marker)
    return items


def instance_obj(inst: Instance, items: Sequence[int]) -> dict:
    """The instance file's object: sorted A, then L."""
    return {"A": list(inst.a_values), "L": list(items)}


def json_text(obj: dict) -> str:
    """An instance file in the layout encode and solve write."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def flat_text(items: Sequence[int]) -> str:
    """The text form encode writes beside the JSON: L's ints on one line."""
    return " ".join(str(v) for v in items) + "\n"


def group_tuples(inst: Instance, items: Sequence[int], start: int) -> tuple[list[tuple[int, int]], int, int]:
    """Read ``a b 7 a b 7 ... a b 5`` from items[start:].

    Returns (pairs, index one past the 5, tokens touched). Raises
    RejectedCertificate for shape violations; pair coverage is not checked
    here.
    """
    members = set(inst.a_values)
    pairs: list[tuple[int, int]] = []
    current: list[int] = []
    touched = 0
    i = start
    while i < len(items):
        token = items[i]
        touched += 1
        if token == MARKER_SEP:
            if len(current) != 2:
                raise RejectedCertificate(RejectReason.CONDITION_2, i, "pair must have exactly two members")
            pairs.append((current[0], current[1]))
            current = []
        elif token == MARKER_END_TUPLES:
            if len(current) == 2:
                pairs.append((current[0], current[1]))
                return pairs, i + 1, touched
            if not current and not pairs:
                return pairs, i + 1, touched  # zero pairs; coverage rejects later
            raise RejectedCertificate(RejectReason.CONDITION_2, i, "pair must have exactly two members")
        elif token in members:
            if len(current) == 2:
                raise RejectedCertificate(RejectReason.CONDITION_4, i, "expected 7 or 5 after a pair")
            current.append(token)
        else:
            reason = RejectReason.CONDITION_4 if len(current) == 2 else RejectReason.CONDITION_2
            raise RejectedCertificate(reason, i, f"{token} cannot appear inside the pair section")
        i += 1
    raise RejectedCertificate(RejectReason.CONDITION_4, len(items), "no 5 terminates the pair section")


def check_coverage(inst: Instance, pairs: Sequence[tuple[int, int]], end_pos: int) -> int:
    """Pairs must be distinct and enumerate A x A; returns tokens touched."""
    seen: set[tuple[int, int]] = set()
    for k, pair in enumerate(pairs):
        if pair in seen:
            raise RejectedCertificate(RejectReason.CONDITION_3, 1 + 3 * k, "repeated pair")
        seen.add(pair)
    expected = set(product(inst.a_values, repeat=2))
    if seen != expected:
        raise RejectedCertificate(RejectReason.CONDITION_3, end_pos, "pairs must enumerate all of A x A")
    return len(pairs)


def scan_tail(items: Sequence[int], start: int) -> tuple[int, int, int]:
    """Read ``4 ... 4 marker`` from items[start:].

    Returns (E, marker, tokens touched scanning fours). Trailing data is the
    caller's concern.
    """
    i = start
    gens = 0
    while i < len(items) and items[i] == MARKER_GENERATION:
        gens += 1
        i += 1
    if i >= len(items):
        raise RejectedCertificate(RejectReason.CONDITION_7, len(items), "missing final 25/43 marker")
    marker = items[i]
    if marker not in (MARKER_STOPS, MARKER_RUNS):
        raise RejectedCertificate(RejectReason.CONDITION_5, i, "only 4s may precede the final marker")
    return gens, marker, gens


def read_sections(inst: Instance, items: Sequence[int]) -> tuple[Pairs, int, int]:
    """The pairs, E and the marker of items[1:], read as the verifier reads them.

    Raises RejectedCertificate at the first violation. The opening 2 and
    data after the marker are the verifier's own checks.
    """
    pairs, after_five, _ = instances.group_tuples(inst, items, 1)
    instances.check_coverage(inst, pairs, after_five - 1)
    gens, marker, _ = instances.scan_tail(items, after_five)
    return pairs, gens, marker
