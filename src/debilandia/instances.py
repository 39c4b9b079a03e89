"""Problem instances and the certificate list grammar.

An instance is a set A of positive integers avoiding the six reserved marker
values. A certificate is a flat integer list over B = A + markers:

    2  a b  7  a b  7 ... a b  5  4 4 ... 4  25|43

* it opens with 2,
* then coordinate pairs drawn from A, a 7 after every pair except the last,
* a 5 closes the pairs; the pairs must enumerate A x A exactly, no repeats,
* a run of E fours claims the game runs E generations,
* one final marker: 25 claims the spawned machine stops, 43 that it doesn't,
* nothing may follow the marker.

Each pair (a, b) places the lattice point x=a, y=b. For a valid certificate
len(L) = 3T + E + 2 where T is the pair count, while the verifier's input
measure is N = P + E + T + 4 = 3T + E + 4, 2 more by construction. The
verifier is the one reader of this grammar (group_tuples, check_coverage and
scan_tail in turn); build_candidate is the one writer. group_tuples hands
the pair section on as its two member columns (`grid.Pairs`) and builds no
pair tuple; a section in build_candidate's order is proven A x A by
comparing its columns with that order and comes back as `grid.SquarePoints`.
load_instance_file cuts a run of fours in the layout json.dumps writes out
of the file text and returns a `Certificate`: the items before the run, E
as a count and the marker. Each reader reads only its part, so reading a
file in that layout costs the text plus O(T), whatever E.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import islice, product, repeat
from operator import add, mul
from pathlib import Path
from typing import NoReturn

from .grid import Pairs, SquarePoints
from .tiles import read_json, read_text

MARKER_START = 2
MARKER_SEP = 7
MARKER_END_TUPLES = 5
MARKER_GENERATION = 4
MARKER_STOPS = 25
MARKER_RUNS = 43
RESERVED = frozenset({MARKER_START, MARKER_SEP, MARKER_END_TUPLES, MARKER_GENERATION, MARKER_STOPS, MARKER_RUNS})


class RejectReason(Enum):
    """Which structural condition a bad certificate violates."""

    CONDITION_1 = "condition_1"  # first element is not 2
    CONDITION_2 = "condition_2"  # malformed pair (wrong length or non-A member)
    CONDITION_3 = "condition_3"  # repeated pair, or pairs do not cover A x A
    CONDITION_4 = "condition_4"  # no 5 where one is required
    CONDITION_5 = "condition_5"  # non-4 in the generation run before the marker
    CONDITION_7 = "condition_7"  # missing or invalid final marker
    NOT_A_TM = "not_a_turing_machine"  # step-6 structural check (verifier only)
    VERDICT_MISMATCH = "verdict_mismatch"  # marker disagrees with the game outcome
    TRAILING_INPUT = "trailing_input"  # data after the final marker


class RejectedCertificate(Exception):
    def __init__(self, reason: RejectReason, position: int, detail: str = ""):
        super().__init__(f"{reason.value} at position {position}" + (f": {detail}" if detail else ""))
        self.reason = reason
        self.position = position


@dataclass(frozen=True)
class Instance:
    """The set A, canonically ascending. B = A plus the six markers."""

    a_values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = self.a_values
        if not values:
            raise ValueError("set A must not be empty")
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in values):
            raise ValueError("set A must contain positive integers")
        if len(set(values)) != len(values):
            raise ValueError("set A must not repeat values")
        if set(values) & RESERVED:
            raise ValueError(f"set A must avoid the reserved values {sorted(RESERVED)}")
        object.__setattr__(self, "a_values", tuple(sorted(values)))

    @property
    def size(self) -> int:
        return len(self.a_values)


def group_tuples(inst: Instance, items: Sequence[int], start: int) -> tuple[Pairs | SquarePoints, int, int]:
    """Read ``a b 7 a b 7 ... a b 5`` from items[start:].

    Returns (pairs, index one past the 5, tokens touched); every coordinate
    of the pairs is a member of A. Raises RejectedCertificate for shape
    violations; pair coverage is not checked here, but pairs equal to
    build_candidate's come back as `SquarePoints(A)`. A well-formed section
    is checked with list and set operations; the token walk runs only to
    locate a reject.
    """
    members = set(inst.a_values)
    try:
        end = items.index(MARKER_END_TUPLES, start)
    except ValueError:
        end = None
    if end is not None and (end == start or (end - start) % 3 == 2):
        xs, ys, seps = items[start:end:3], items[start + 1 : end : 3], items[start + 2 : end : 3]
        if seps.count(MARKER_SEP) == len(seps):
            if _in_candidate_order(inst.a_values, xs, ys):
                return SquarePoints(inst.a_values), end + 1, end + 1 - start
            if members.issuperset(xs) and members.issuperset(ys):
                return Pairs(xs, ys), end + 1, end + 1 - start
    _raise_pair_reject(members, items, start)


def _in_candidate_order(values: tuple[int, ...], xs: list[int], ys: list[int]) -> bool:
    """Whether the columns are A x A in build_candidate's order.

    That is, xs is each a of A repeated |A| times and ys is A repeated |A|
    times; being equal to them proves the pairs members, distinct and
    complete. Compared |A| items at a time, so no T-sized list is built.
    """
    n = len(values)
    row = list(values)
    return len(xs) == n * n and all(
        xs[i : i + n].count(x) == n and ys[i : i + n] == row for i, x in zip(range(0, n * n, n), values)
    )


def _raise_pair_reject(members: set[int], items: Sequence[int], start: int) -> NoReturn:
    """Walk a pair section that group_tuples refused and raise at its first violation."""
    width = 0  # members read into the current pair
    for i, token in enumerate(islice(items, start, None), start):
        if token in members:
            if width == 2:
                raise RejectedCertificate(RejectReason.CONDITION_4, i, "expected 7 or 5 after a pair")
            width += 1
        elif token in (MARKER_SEP, MARKER_END_TUPLES):
            if width != 2:
                raise RejectedCertificate(RejectReason.CONDITION_2, i, "pair must have exactly two members")
            if token == MARKER_END_TUPLES:
                raise AssertionError("group_tuples refused a well-formed pair section")
            width = 0
        else:
            reason = RejectReason.CONDITION_4 if width == 2 else RejectReason.CONDITION_2
            raise RejectedCertificate(reason, i, f"{token} cannot appear inside the pair section")
    raise RejectedCertificate(RejectReason.CONDITION_4, len(items), "no 5 terminates the pair section")


def check_coverage(inst: Instance, pairs: Pairs | SquarePoints, end_pos: int) -> int:
    """Pairs must be distinct and enumerate A x A; returns pairs read.

    group_tuples has proven every coordinate a member of A, so distinct pairs
    enumerate A x A exactly when there are |A|^2 of them. Pair (x, y) is
    coded as the one int x * (max A + 1) + y, distinct for distinct pairs of
    members, so no pair tuple and no A x A set is built. The pairs are walked
    only to locate a repeat. `SquarePoints`, which group_tuples returns for
    A x A in canonical order, is distinct and complete already and builds no
    codes.
    """
    if isinstance(pairs, SquarePoints):
        return len(pairs)
    codes = set(map(add, map(mul, pairs.xs, repeat(inst.a_values[-1] + 1)), pairs.ys))
    if len(codes) != len(pairs):
        earlier: set[tuple[int, int]] = set()
        for k, pair in enumerate(pairs):
            if pair in earlier:
                raise RejectedCertificate(RejectReason.CONDITION_3, 1 + 3 * k, "repeated pair")
            earlier.add(pair)
    if len(codes) != inst.size**2:
        raise RejectedCertificate(RejectReason.CONDITION_3, end_pos, "pairs must enumerate all of A x A")
    return len(pairs)


_SCAN_CHUNK = 4096


def scan_tail(items: Sequence[int], start: int) -> tuple[int, int, int]:
    """Read ``4 ... 4 marker`` from items[start:].

    Returns (E, marker, tokens touched scanning fours). Trailing data is the
    caller's concern. A `Certificate` read from its run gives E in O(1);
    from an earlier start its prefix is walked, which stops at the 5 ending
    it at the latest. A list's run is counted a fixed-size slice at a time.
    """
    if isinstance(items, Certificate):
        if start == len(items.prefix):
            return items.gens, items.marker, items.gens
        items = items.prefix
    i = start
    while items[i : i + _SCAN_CHUNK].count(MARKER_GENERATION) == _SCAN_CHUNK:
        i += _SCAN_CHUNK
    while i < len(items) and items[i] == MARKER_GENERATION:
        i += 1
    gens = i - start
    if i >= len(items):
        raise RejectedCertificate(RejectReason.CONDITION_7, len(items), "missing final 25/43 marker")
    marker = items[i]
    if marker not in (MARKER_STOPS, MARKER_RUNS):
        raise RejectedCertificate(RejectReason.CONDITION_5, i, "only 4s may precede the final marker")
    return gens, marker, gens


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


def certificate_text(items: Sequence[int]) -> str:
    return " ".join(str(v) for v in items)


def instance_to_json_obj(inst: Instance, items: Sequence[int]) -> dict:
    return {"A": list(inst.a_values), "L": list(items)}


class Certificate:
    """The certificate list prefix + [4] * E + [marker], its run held as E.

    prefix ends in the whole 5 token that the run follows, so the pair
    section and any reject in it lie in prefix. len() is the list's length.
    """

    __slots__ = ("prefix", "gens", "marker")

    def __init__(self, prefix: list[int], gens: int, marker: int) -> None:
        self.prefix = prefix
        self.gens = gens
        self.marker = marker

    def __len__(self) -> int:
        return len(self.prefix) + self.gens + 1


_JSON_WS = " \t\n\r"


def _before_ws(text: str, end: int) -> int:
    """end moved back over the JSON whitespace that ends text[:end]."""
    while end and text[end - 1] in _JSON_WS:
        end -= 1
    return end


def _cut_run(text: str) -> tuple[str, int] | None:
    """text with its last array's run of fours cut out, and the run's length.

    Only for text that ends ``5 SEP (4 SEP)*E marker ] }`` with optional
    JSON whitespace around the brackets, where SEP is a comma and any
    whitespace, the same throughout, and no quote or brace stands between
    the array's opening bracket and the 5. One str.count of ``4 SEP`` whose
    matches fill the run exactly proves it, so no E-sized string or list is
    built. Returns None for any other text.
    """
    close = _before_ws(text, len(text))
    if not text.endswith("}", 0, close):
        return None
    close = _before_ws(text, close - 1)
    if not text.endswith("]", 0, close):
        return None
    marker_end = _before_ws(text, close - 1)
    marker_at = marker_end - 2
    if text[marker_at:marker_end] not in ("25", "43"):
        return None
    comma = text.rfind(",", 0, marker_at)
    sep = text[comma:marker_at]
    if comma < 0 or sep[1:].strip(_JSON_WS):
        return None
    unit = "4" + sep
    five = text.rfind("5" + sep, 0, marker_at)
    if five < 1 or text[five - 1] not in _JSON_WS + ",[":
        return None  # no whole 5 token before the run
    run_at = five + len(unit)
    gens, rest = divmod(marker_at - run_at, len(unit))
    if rest or text.count(unit, run_at, marker_at) != gens:
        return None
    bracket = text.rfind("[", 0, five)
    if bracket < 0 or text.find('"', bracket, five) >= 0 or text.find("{", bracket, five) >= 0:
        return None
    return text[:run_at] + text[marker_at:], gens


def _parse_cut(text: str) -> dict | None:
    """json.loads of a cut text, when "L" is its object's last key and comes once."""
    objects: list[list] = []

    def keep(pairs: list) -> dict:
        objects.append(pairs)
        return dict(pairs)

    try:
        obj = json.loads(text, object_pairs_hook=keep)
    except (ValueError, RecursionError):
        return None
    keys = [key for key, _ in objects[-1]]  # the top-level object closes last
    return obj if keys.count("L") == 1 and keys[-1] == "L" else None


def load_instance_file(path: str | Path) -> tuple[Instance, Sequence[int]]:
    """Read {"A": [...], "L": [...]}; malformed files raise ValueError.

    L comes back as a `Certificate` when its run of fours can be cut out of
    the text (see _cut_run) and "L" is the file's last key, once; the whole
    text is dropped then, and json.loads and the checks read the text
    without the run. Any other file is read again by tiles.read_json and L
    comes back as a list. Both hold the same items, which `verify` reads
    alike, and raise the same errors.
    """
    cut = _cut_run(read_text(path))
    obj = _parse_cut(cut[0]) if cut else None
    if obj is None:
        cut = None
        obj = read_json(path)
    if not isinstance(obj, dict) or "A" not in obj or "L" not in obj:
        raise ValueError("instance file must be a JSON object with keys A and L")
    values = obj["A"]
    items = obj["L"]
    if not isinstance(values, list) or not isinstance(items, list):
        raise ValueError("A and L must be JSON arrays")
    if not set(map(type, items)) <= {int}:
        raise ValueError("L must contain integers only")
    if cut:
        marker = items.pop()
        items = Certificate(items, cut[1], marker)
    return Instance(tuple(values)), items
