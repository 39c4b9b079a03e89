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
scan_tail in turn). The canonical certificate is `Certificate(SquarePoints(A),
E, marker)`, and write_certificate is its one writer. load_instance_file
reads a file's bytes once: bytes proven canonical come back as that
`Certificate`, from the proof itself, which parses only the bytes around the
pairs and the run; the writer and that proof take the section's text from
square_rows. Any other file is decoded and parsed whole into a list, whose
pair section is read as two member columns (`grid.Pairs`).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from enum import Enum
from itertools import islice, repeat
from operator import add, mul
from pathlib import Path
from typing import NoReturn, TextIO

from .frozen import Frozen
from .grid import Pairs, SquarePoints
from .tiles import decode_text, parse_json

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


class Instance(Frozen):
    """The set A, canonically ascending. B = A plus the six markers."""

    __slots__ = _fields = ("a_values",)
    a_values: tuple[int, ...]

    def __init__(self, a_values: tuple[int, ...]) -> None:
        if not a_values:
            raise ValueError("set A must not be empty")
        types = set(map(type, a_values))  # checked per type, then in one min(): an int subclass other than bool passes
        if bool in types or not all(issubclass(t, int) for t in types) or min(a_values) < 1:
            raise ValueError("set A must contain positive integers")
        members = set(a_values)
        if len(members) != len(a_values):
            raise ValueError("set A must not repeat values")
        if members & RESERVED:
            raise ValueError(f"set A must avoid the reserved values {sorted(RESERVED)}")
        object.__setattr__(self, "a_values", tuple(sorted(a_values)))

    @property
    def size(self) -> int:
        return len(self.a_values)


def group_tuples(
    inst: Instance, items: list[int] | Certificate, start: int
) -> tuple[Pairs | SquarePoints, int, int]:
    """Read ``a b 7 a b 7 ... a b 5`` from items[start:].

    Returns (pairs, index one past the 5, tokens touched); every coordinate
    of the pairs is a member of A. Raises RejectedCertificate for shape
    violations; pair coverage is not checked here. A `Certificate` hands on
    its prefix, proven A x A, in O(1). A list is checked with list and set
    operations; the token walk runs only to locate a reject.
    """
    if isinstance(items, Certificate):
        return items.prefix, start + 3 * len(items.prefix), 3 * len(items.prefix)
    members = set(inst.a_values)
    try:
        end = items.index(MARKER_END_TUPLES, start)
    except ValueError:
        end = None
    if end is not None and (end == start or (end - start) % 3 == 2):
        xs, ys, seps = items[start:end:3], items[start + 1 : end : 3], items[start + 2 : end : 3]
        if seps.count(MARKER_SEP) == len(seps) and members.issuperset(xs) and members.issuperset(ys):
            return Pairs(xs, ys), end + 1, end + 1 - start
    _raise_pair_reject(members, items, start)


def _raise_pair_reject(members: set[int], items: list[int], start: int) -> NoReturn:
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
    only to locate a repeat. `SquarePoints`, a section proven A x A on the
    file text, is distinct and complete already: T comes back in O(1).
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
_RUN_BLOCK = 1 << 16  # bytes: the most of a certificate's run of fours _cut_run compares at once


def scan_tail(items: list[int] | Certificate, start: int) -> tuple[int, int, int]:
    """Read ``4 ... 4 marker`` from items[start:].

    Returns (E, marker, tokens touched scanning fours). Trailing data is the
    caller's concern. A `Certificate`, whose run starts one past its 5, gives
    its E and marker in O(1). A list's run is counted a fixed-size slice at a
    time.
    """
    if isinstance(items, Certificate):
        return items.gens, items.marker, items.gens
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


class Certificate:
    """The canonical certificate ``2 <A x A in lexicographic order> 5``, E
    fours and a marker, its pairs held as prefix = `SquarePoints(A)` and its
    run as the count E: the solver's certificate, or a file proven canonical
    on its text. len() is the list's length, 3|A|^2 + E + 2.
    """

    __slots__ = ("prefix", "gens", "marker")

    def __init__(self, prefix: SquarePoints, gens: int, marker: int) -> None:
        self.prefix = prefix
        self.gens = gens
        self.marker = marker

    def __len__(self) -> int:
        return 3 * len(self.prefix) + self.gens + 2


def square_rows(values: tuple[int, ...], sep: str) -> Iterator[str]:
    """The text of the canonical pair section for sorted A, a row at a time.

    Row a is ``a SEP b SEP 7 SEP`` for each b of A, and the last row has no
    ``7 SEP`` after its last pair. Between ``2 SEP`` and ``5``, the rows
    joined hold exactly the pairs of A x A in lexicographic order. Each row
    is O(|A|) long, and only one is built at a time.
    """
    seven = "7" + sep
    tails = [f"{sep}{b}{sep}{seven}" for b in values]
    for a in values:
        head = str(a)
        row = head + head.join(tails)
        yield row if a != values[-1] else row[: -len(seven)]


def write_certificate(handle: TextIO, cert: Certificate, as_json: bool) -> None:
    """Write a certificate whose prefix is `SquarePoints(A)`: as JSON, the text
    of json.dumps({"A": A, "L": L}, indent=2, sort_keys=True) and a newline,
    else L's ints joined by spaces and a newline.

    The pairs are square_rows's, and the run goes out _SCAN_CHUNK fours at a
    time, so memory is O(|A|) for any E; each four takes 7 bytes as JSON
    and 2 as text.
    """
    values = cert.prefix.values
    sep = ",\n    " if as_json else " "  # how json.dumps(indent=2) separates L's items
    if as_json:
        handle.write('{\n  "A": [\n    ' + sep.join(map(str, values)) + '\n  ],\n  "L": [\n    ')
    handle.write("2" + sep)
    handle.writelines(square_rows(values, sep))  # its last pair ends in SEP
    handle.write("5")
    four = sep + "4"
    handle.writelines(repeat(four * _SCAN_CHUNK, cert.gens // _SCAN_CHUNK))
    handle.write(four * (cert.gens % _SCAN_CHUNK) + f"{sep}{cert.marker}" + ("\n  ]\n}\n" if as_json else "\n"))


_JSON_WS = b" \t\n\r"


def _before_ws(data: bytes, end: int) -> int:
    """end moved back over the JSON whitespace that ends data[:end]."""
    while end and data[end - 1] in _JSON_WS:
        end -= 1
    return end


def _cut_run(data: bytes) -> tuple[int, int, int, int] | None:
    """Where the last array of the file bytes opens, and its 5, run and marker start.

    Only for bytes that end ``5 SEP (4 SEP)*E marker ] }`` with optional
    JSON whitespace around the brackets, where SEP is a comma and any
    whitespace, the same throughout, and no quote or brace stands between
    the array's opening bracket and the 5. The run is walked back from the
    marker in blocks of 2**k ``4 SEP`` units, at most _RUN_BLOCK (64 KB)
    long, then over the remainder in halving steps of 2**(k-1), ..., 1
    units, so no E-sized string or list is built and memory stays O(block).
    Returns None for any other bytes.
    """
    close = _before_ws(data, len(data))
    if not data.endswith(b"}", 0, close):
        return None
    close = _before_ws(data, close - 1)
    if not data.endswith(b"]", 0, close):
        return None
    marker_end = _before_ws(data, close - 1)
    marker_at = marker_end - 2
    if data[marker_at:marker_end] not in (b"25", b"43"):
        return None
    comma = data.rfind(b",", 0, marker_at)
    sep = data[comma:marker_at]
    if comma < 0 or sep[1:].strip(_JSON_WS):
        return None
    unit = b"4" + sep
    run_at = marker_at
    # a power of two of units, so halving it down to one unit meets every remainder
    units = 1 << (max(1, _RUN_BLOCK // len(unit)).bit_length() - 1)
    block = unit * units
    while data.endswith(block, 0, run_at):
        run_at -= len(block)
    while units > 1:
        units >>= 1
        if data.endswith(block[: units * len(unit)], 0, run_at):
            run_at -= units * len(unit)
    five = run_at - len(unit)
    if not data.endswith(b"5" + sep, 0, run_at) or five < 1 or data[five - 1] not in _JSON_WS + b",[":
        return None  # no whole 5 token before the run
    bracket = data.rfind(b"[", 0, five)
    if bracket < 0 or data.find(b'"', bracket, five) >= 0 or data.find(b"{", bracket, five) >= 0:
        return None
    return bracket, five, run_at, marker_at


def _parse_cut(data: bytes) -> dict | None:
    """json.loads of cut UTF-8 bytes, when "L" is its object's last key and comes once."""
    objects: list[list] = []

    def keep(pairs: list) -> dict:
        objects.append(pairs)
        return dict(pairs)

    try:
        obj = json.loads(data.decode("utf-8"), object_pairs_hook=keep)
    except (ValueError, RecursionError):
        return None
    keys = [key for key, _ in objects[-1]]  # the top-level object closes last
    return obj if keys.count("L") == 1 and keys[-1] == "L" else None


def _proven_certificate(data: bytes) -> tuple[Instance, Certificate] | None:
    """The file's instance and `Certificate(SquarePoints(A), E, marker)` when
    _cut_run cuts out its run and L is ``[ 2 SEP``, the canonical pairs of
    A x A, ``5``, the run and the marker; None otherwise.

    Only the bytes outside the pairs and the run are parsed. The pairs are
    compared with square_rows's text for sorted A a row at a time: bytes
    equal to it hold exactly the canonical section's ints. E is the run's
    length over the length of one ``4 SEP`` unit.
    """
    cut = _cut_run(data)
    if cut is None:
        return None
    bracket, five, run_at, marker_at = cut
    sep = data[five + 1 : run_at]
    start = bracket + 1
    while data[start] in _JSON_WS:
        start += 1
    if not data.startswith(b"2" + sep, start):
        return None
    start += 1 + len(sep)
    obj = _parse_cut(data[:start] + data[five:run_at] + data[marker_at:])  # L parses as [2, 5, marker]
    if obj is None or not isinstance(obj.get("A"), list):
        return None
    try:
        inst = Instance(tuple(obj["A"]))
    except ValueError:
        return None
    for row in map(str.encode, square_rows(inst.a_values, sep.decode())):  # sep is ASCII, see _cut_run
        if not data.startswith(row, start):
            return None
        start += len(row)
    if start != five:
        return None
    gens = (marker_at - run_at) // (run_at - five)
    return inst, Certificate(SquarePoints(inst.a_values), gens, int(data[marker_at : marker_at + 2]))


def load_instance_file(path: str | Path) -> tuple[Instance, list[int] | Certificate]:
    """Read {"A": [...], "L": [...]}; malformed files raise ValueError.

    The file's bytes are read once. L comes back as `Certificate(SquarePoints(A),
    E, marker)` when _proven_certificate proves them canonical: its run of
    fours cut out by _cut_run, "L" the file's last key, once, and its pair
    section A x A in order. Any other file's bytes are decoded by
    tiles.decode_text and parsed whole by tiles.parse_json, and L comes back
    as that list. Both hold the same items, which `verify` reads alike.
    """
    data = Path(path).read_bytes()
    proven = _proven_certificate(data)
    if proven:
        return proven
    obj = parse_json(decode_text(data, path), path)
    if not isinstance(obj, dict) or "A" not in obj or "L" not in obj:
        raise ValueError("instance file must be a JSON object with keys A and L")
    values = obj["A"]
    items = obj["L"]
    if not isinstance(values, list) or not isinstance(items, list):
        raise ValueError("A and L must be JSON arrays")
    if not set(map(type, items)) <= {int}:
        raise ValueError("L must contain integers only")
    return Instance(tuple(values)), items
