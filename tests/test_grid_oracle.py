"""Differential tests: recognition from columns against the tuple-set oracle.

The package bins a points input as two columns with int arithmetic and lets
a repeated point OR its bit in twice; `grid_oracle` drops repeats with a set
of point tuples first. Both must give the same tiles, anchor and junk count
on any points in any container, and `simulate` must print the same summary
line with either.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import grid_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A, BOUNCE, PING_PONG, spec_with
from debilandia import cli
from debilandia.embedding import compile_direct, compile_universal
from debilandia.grid import Pairs, SquarePoints, recognize
from debilandia.tiles import atlas_default

ATLAS = atlas_default()
BOARDS = [
    [],
    sorted(compile_direct(spec_with(PING_PONG, "11"), ATLAS)),
    sorted(compile_direct(spec_with(BOUNCE, "0110"), ATLAS, pad=2)),
    sorted(compile_universal(spec_with(PING_PONG, "11"), "11", ATLAS)),
]
CONTAINERS = [set, list, tuple, Pairs.of, iter]
NEAR = st.tuples(st.integers(0, 48), st.integers(0, 48))
FAR = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))


@st.composite
def point_lists(draw) -> list[tuple[int, int]]:
    """A board (or none) moved up to 10**6, stray and far points, repeats, shuffled."""
    ox, oy = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
    points = [(x + ox, y + oy) for x, y in draw(st.sampled_from(BOARDS))]
    points += [(x + ox, y + oy) for x, y in draw(st.lists(NEAR, max_size=12))]
    points += draw(st.lists(FAR, max_size=3))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=12))
    draw(st.randoms(use_true_random=False)).shuffle(points)
    return points


def assert_recognition_agrees(make, points):
    got, want = recognize(make(points), ATLAS), grid_oracle.recognize(make(points), ATLAS)
    assert (got.tiles, got.anchor, got.junk_cells) == (want.tiles, want.anchor, want.junk_cells)
    return got


@settings(max_examples=200, deadline=None)
@given(points=point_lists(), make=st.sampled_from(CONTAINERS))
def test_recognize_matches_oracle_in_any_container(points, make):
    assert_recognition_agrees(make, points)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(NEAR, max_size=120), make=st.sampled_from(CONTAINERS))
def test_recognize_matches_oracle_on_dense_random_points(points, make):
    # a 49x49 box packs random masks into few cells, some of them tiles
    assert_recognition_agrees(make, points)


def test_recognize_matches_oracle_on_the_boards():
    for board in BOARDS:
        assert assert_recognition_agrees(list, board).tiles or not board


def test_square_points_match_oracle():
    # the oracle materializes A x A; the package reads it per axis
    assert_recognition_agrees(SquarePoints, ACCEPT_A)


def simulate_line(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["simulate", "--points", str(path), "--max-gens", "60"]) == 0
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(points=point_lists())
def test_simulate_summary_matches_oracle_recognition(points):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.json"
        path.write_text(json.dumps({"points": [list(p) for p in points]}))
        got = simulate_line(path)
        with mock.patch.object(cli, "recognize", grid_oracle.recognize):
            want = simulate_line(path)
    assert got == want
