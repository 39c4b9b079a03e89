"""Differential tests: the two ways `grid.read_points` reads a points file.

Text in the layout `json.dumps({"points": [[x, y], ...]})` writes by default
is proven on its text and parsed as one flat array of ints. Any other text
is parsed whole and checked list by list. `simulate` through the CLI must
exit, print and write its trace the same with the proof on and off, for
point lists written in three layouts and then mutated in and around the
list, its points and its key.
"""

import contextlib
import io
import json
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import PING_PONG, spec_with
from debilandia import grid
from debilandia.cli import main
from debilandia.embedding import compile_direct
from debilandia.grid import Pairs, read_points
from debilandia.tiles import atlas_default, parse_json

BOARD = sorted(compile_direct(spec_with(PING_PONG, "11"), atlas_default()))
COORDS = st.one_of(st.integers(0, 40), st.integers(0, 10**6))
POINT_LISTS = st.one_of(
    st.just(BOARD),
    st.lists(st.tuples(COORDS, COORDS), max_size=40),
    st.lists(st.sampled_from(BOARD), min_size=1, max_size=len(BOARD)),  # part of a board, repeats included
)
LAYOUTS = {"dumps": {}, "compact": {"separators": (",", ":")}, "indent": {"indent": 2}}
SENTINEL = 987654321987  # a coordinate no drawn list holds, replaced in the text by a drawn token
COORD_TOKENS = {
    "minus-zero": ["-0"],
    "negative": ["-3", "-10"],
    "float": ["1.0", "2e1", "0.5", "1E2"],
    "boolean": ["true", "false"],
    "long-int": ["9" * 4301, "1" + "0" * 4300],
    "other-token": ["null", '"5"', "[1]", " 4", "4 ", "[]"],
}
MUTATIONS = [
    "none",
    "key-digit",
    "leading-zero",
    "digit-by-bracket",
    *COORD_TOKENS,
    "short-point",
    "long-point",
    "empty",
    "extra-key",
    "duplicate-key",
    "trailing-newline",
    "bom",
    "non-utf8",
]


def mutated_bytes(data, kind: str, points: list, layout: str) -> bytes:
    """points written with json.dumps in layout, with one edit of the given kind."""
    rows = [list(p) for p in points]
    obj: dict = {"points": rows}
    if not rows and kind in ("leading-zero", "short-point", "long-point", *COORD_TOKENS):
        rows.append([data.draw(COORDS), data.draw(COORDS)])
    while kind == "digit-by-bracket" and len(rows) < 2:
        rows.append([data.draw(COORDS), data.draw(COORDS)])
    token = None
    if kind == "leading-zero" or kind in COORD_TOKENS:
        row = data.draw(st.sampled_from(rows))
        at = data.draw(st.integers(0, 1))
        token = "0" + str(row[at]) if kind == "leading-zero" else data.draw(st.sampled_from(COORD_TOKENS[kind]))
        row[at] = SENTINEL
    if kind == "short-point":
        data.draw(st.sampled_from(rows)).pop()
    if kind == "long-point":
        data.draw(st.sampled_from(rows)).append(data.draw(COORDS))
    if kind == "empty":
        obj["points"] = []
    if kind == "extra-key":
        other = {"other": data.draw(st.sampled_from([1, [], "points"]))}
        obj = other | obj if data.draw(st.booleans()) else obj | other
    text = json.dumps(obj, **LAYOUTS[layout])
    if token is not None:
        text = text.replace(str(SENTINEL), token)
    if kind == "key-digit":  # a digit put into the key or put in place of one of its letters
        at = data.draw(st.integers(2, len('"points"') - 1))
        text = text[:at] + data.draw(st.sampled_from("0123456789")) + text[at + data.draw(st.integers(0, 1)) :]
    if kind == "digit-by-bracket":  # a digit right after the `]` or right before the `[` between two points
        spots = [i + 1 for i, ch in enumerate(text) if ch == "]" and text[i + 1 :].lstrip().startswith(",")]
        spots += [i for i, ch in enumerate(text) if ch == "[" and text[:i].rstrip().endswith(",")]
        at = data.draw(st.sampled_from(sorted(spots)))
        text = text[:at] + data.draw(st.sampled_from("0123456789")) + text[at:]
    if kind == "duplicate-key":
        other = '"points": ' + json.dumps([[0, 0]], **LAYOUTS[layout])
        text = "{" + other + ", " + text[1:] if data.draw(st.booleans()) else text[:-1] + ", " + other + "}"
    if kind == "trailing-newline":
        text += "\n"
    encoded = text.encode()
    if kind == "bom":
        encoded = b"\xef\xbb\xbf" + encoded
    if kind == "non-utf8":
        at = data.draw(st.integers(0, len(encoded)))
        encoded = encoded[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + encoded[at:]
    return encoded


def run_simulate(path: Path, trace: Path) -> tuple:
    """Exit code, stdout, stderr and trace bytes of one `simulate` call."""
    trace.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["simulate", "--points", str(path), "--max-gens", "40", "--trace", str(trace)])
    return rc, out.getvalue(), err.getvalue(), trace.read_bytes() if trace.exists() else None


def run_simulate_unproven(path: Path, trace: Path) -> tuple:
    """run_simulate with the text never proven, so every file is parsed whole."""
    with mock.patch.object(grid, "_proven_points", return_value=None):
        return run_simulate(path, trace)


@pytest.mark.parametrize("kind", MUTATIONS)
@settings(max_examples=20, deadline=None)
@given(points=POINT_LISTS, layout=st.sampled_from(["dumps", "dumps", "compact", "indent"]), data=st.data())
def test_simulate_is_the_same_with_the_points_proven_or_parsed(kind, points, layout, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, trace = Path(tmp) / "points.json", Path(tmp) / "trace.jsonl"
        path.write_bytes(mutated_bytes(data, kind, points, layout))
        assert run_simulate(path, trace) == run_simulate_unproven(path, trace)


@settings(max_examples=100, deadline=None)
@given(points=POINT_LISTS.filter(bool))
def test_a_json_dumps_file_is_never_parsed_whole(points):
    with tempfile.TemporaryDirectory() as tmp:
        path, trace = Path(tmp) / "points.json", Path(tmp) / "trace.jsonl"
        path.write_text(json.dumps({"points": [list(p) for p in points]}))
        with mock.patch.object(grid, "_parsed_points", side_effect=AssertionError("left the proven path")):
            held = read_points(path)
            assert run_simulate(path, trace)[0] == 0
    assert (held.xs, held.ys) == ([x for x, _ in points], [y for _, y in points])


@pytest.mark.parametrize(
    "text, proven",
    [
        ('{"points": [[1, 2]]}', True),
        ('{"points": [[0, 0], [10, 200], [3, 4]]}', True),
        ('{"poin1ts": [[1, 2]]}', False),  # deleting the digits would make the key "points"
        ('{"poin1s": [[1, 2]]}', False),  # the key has the length of "points"
        ('{"points": [[1, 2], [3, 4]]}\n', False),
        ('{"points": [[1, 2]5, [3, 4]]}', False),  # a digit after a point's `]` must not join the next number
        ('{"points": [[1, 2], 5[3, 4]]}', False),  # nor one before a point's `[`
        ('{"points": [[1,2]]}', False),
        ('{"points": [[01, 2]]}', False),
        ('{"points": [[, 2]]}', False),
        ('{"points": [[1, 2, 3]]}', False),
        ('{"points": [[1], [2, 3]]}', False),
        ('{"points": [[1, 2]], "points": [[1, 2]]}', False),
        ('{"points": []}', False),
        ('{"points": [[%s, 2]]}' % ("9" * 4301), False),
    ],
)
def test_only_the_json_dumps_layout_is_proven(text, proven):
    held = grid._proven_points(text.encode())
    assert (held is not None) is proven
    if proven:
        flat = [v for point in json.loads(text)["points"] for v in point]
        assert type(held) is Pairs and (held.xs, held.ys) == (flat[0::2], flat[1::2])


@pytest.mark.parametrize(
    "text, moved",
    [
        ('{"points": [[1, ]7, [4, 5]]}', '{"points": [[1, 7], [4, 5]]}'),  # a run after a `]`, its own cell empty
        ('{"points": [[1, 2]3, [4, 5]]}', '{"points": [[1, 23], [4, 5]]}'),  # a run after a point's `]`
        ('{"points": [[1, 2],5 [3, 4]]}', '{"points": [[1, 2], [53, 4]]}'),  # a run before the next `[`
        ('{"points": [[, 2], [3, 4]]}', '{"points": [[0, 2], [3, 4]]}'),  # an empty run
    ],
)
def test_a_run_against_a_bracket_is_refused_with_the_whole_file_parse_error(tmp_path, text, moved):
    # the digits deleted, each text is the skeleton of two points, so only
    # the flat parse after the `], [` rewrite can refuse it; with its digits
    # moved inside the brackets it is proven, and reads what json.loads reads
    assert grid._proven_points(text.encode()) is None
    path = tmp_path / "points.json"
    path.write_text(text)
    with pytest.raises(ValueError) as whole:
        parse_json(text, path)
    with pytest.raises(ValueError) as read:
        read_points(path)
    assert str(read.value) == str(whole.value)
    held = grid._proven_points(moved.encode())
    rows = json.loads(moved)["points"]
    assert (held.xs, held.ys) == ([x for x, _ in rows], [y for _, y in rows])


def test_reading_a_canonical_file_peaks_under_130_bytes_a_point(tmp_path):
    # the ints themselves take 56 bytes a point and the two columns 16; the
    # file's text and the flat list are held at the peak, but no list per
    # point (185 bytes a point when the file was parsed whole)
    rng = random.Random(0)
    count = 50_000
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[rng.randrange(10**5), rng.randrange(10**5)] for _ in range(count)]}))
    read_points(path)  # warm up
    tracemalloc.start()
    try:
        held = read_points(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == count
    assert peak < 130 * count


def test_a_json_dumps_file_is_proven_without_being_decoded(tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [list(p) for p in BOARD]}))
    with mock.patch.object(grid, "decode_text", side_effect=AssertionError("decoded a proven file")):
        held = read_points(path)
    assert list(held) == [tuple(p) for p in BOARD]
