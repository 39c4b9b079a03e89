"""Differential tests: the two ways `load_instance_file` reads an instance file.

A file whose list L ends in the layout `json.dumps` writes (`5, 4, 4, 25]}`,
any one comma-and-whitespace separator throughout) has its run of fours cut
out of the text and comes back as a `Certificate` holding E as a count. Any
other file is parsed whole by `tiles.read_json`. `verify` through the CLI
must print, exit and write the same with either path, for files written in
both layouts and then mutated in and around the run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A
from debilandia import instances
from debilandia.cli import _write_json, main
from debilandia.instances import (
    RESERVED,
    Certificate,
    Instance,
    build_candidate,
    instance_to_json_obj,
    load_instance_file,
)

POOL = [v for v in range(1, 40) if v not in RESERVED]
A_VALUES = st.one_of(st.just(ACCEPT_A), st.sets(st.sampled_from(POOL), min_size=1, max_size=4).map(tuple))
GENS = st.one_of(st.integers(0, 6), st.just(4500))
LAYOUTS = ("dumps", "write_json")
SEPARATORS = {"dumps": ", ", "write_json": ",\n    "}  # between the items of L


def write_layout(path: Path, obj: dict, layout: str) -> None:
    if layout == "dumps":
        path.write_text(json.dumps(obj))
    else:
        _write_json(path, obj)


def run_verify(path: Path, report: Path) -> tuple:
    """Exit code, stdout, stderr and report bytes of one `verify` call."""
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", "--instance", str(path), "--report", str(report)])
    return rc, out.getvalue(), err.getvalue(), report.read_bytes() if report.exists() else None


def run_verify_whole(path: Path, report: Path) -> tuple:
    """run_verify with the run never cut out, so the file is parsed whole."""
    with mock.patch.object(instances, "_cut_run", return_value=None):
        return run_verify(path, report)


RUN_TOKENS = ["44", "4.0", "true", "-4", "04", "4e0", '"4"', "5", "7", "25", "43", "null", "4 4"]
SEPARATOR_EDITS = [",", ",  ", ", \n", ",\t", " ,", ",\r\n    ", ", \x0b", ",,", ";"]
TAILS = ["]}", " ] } ", "]\n}\n\n", "]}\t", "] }x", "]}}", "]", "]}\x0c", "]} ", "\n]\n}"]
TRAILING = [" 1", "[]", "{}", "x", "\n\n", ", 4", '"', "\x00"]
FIVES = ["45", "15", "5.0", "-5", "7", "55", "[5", "5, 5", "5, 4, 5", "5, 7"]
MARKERS = ["24", "2", "125", "43.0", "-25", "4", "25 ", "25,", "250"]
MUTATIONS = [
    "none",
    "separator",
    "run-token",
    "tail",
    "trailing",
    "duplicate-L",
    "L-first",
    "run-after-L",
    "run-in-string",
    "five",
    "marker",
]


def mutated_text(data, obj: dict, layout: str) -> str:
    """obj written in layout, with one drawn edit in or around its run of fours."""
    text = json.dumps(obj) if layout == "dumps" else json.dumps(obj, indent=2, sort_keys=True) + "\n"
    sep = SEPARATORS[layout]
    gens = len(obj["L"]) - 1 - obj["L"].index(5) - 1
    five = text.rindex("5" + sep)  # the run holds no 5, so the last "5 SEP" ends the pairs
    run_at = five + len("5" + sep)
    unit = len("4" + sep)
    marker_at = run_at + gens * unit
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind == "run-token" and gens == 0:
        kind = "separator"
    if kind == "separator":  # the separator after the 5 or after one of the fours
        at = five + 1 + unit * data.draw(st.integers(0, gens))
        return text[:at] + data.draw(st.sampled_from(SEPARATOR_EDITS)) + text[at + len(sep) :]
    if kind == "run-token":
        at = run_at + unit * data.draw(st.integers(0, gens - 1))
        return text[:at] + data.draw(st.sampled_from(RUN_TOKENS)) + text[at + 1 :]
    if kind == "tail":
        return text[: marker_at + 2] + data.draw(st.sampled_from(TAILS))
    if kind == "trailing":
        return text + data.draw(st.sampled_from(TRAILING))
    if kind == "duplicate-L":
        other = data.draw(st.sampled_from(['[2, 5, 43]', "[]", "7", '"L"']))
        if data.draw(st.booleans()):
            return '{"L": ' + other + ", " + text[1:]
        return text.rstrip()[:-1] + ', "L": ' + other + "}"
    if kind == "run-after-L":  # a later key's array ends like a run
        return text.rstrip()[:-1] + ', "B": [5, 4, 4, 43]}'
    if kind == "L-first":
        swapped = {"L": obj["L"], "A": obj["A"]}
        return json.dumps(swapped) if layout == "dumps" else json.dumps(swapped, indent=2) + "\n"
    if kind == "run-in-string":
        if data.draw(st.booleans()):
            return text[:run_at] + '"' + text[run_at:marker_at] + '", ' + text[marker_at:]
        bracket = text.rindex("[")
        return text[: bracket + 1] + '"' + text[bracket + 1 :]
    if kind == "five":
        return text[:five] + data.draw(st.sampled_from(FIVES)) + text[five + 1 :]
    if kind == "marker":
        return text[:marker_at] + data.draw(st.sampled_from(MARKERS)) + text[marker_at + 2 :]
    return text


@settings(max_examples=300, deadline=None)
@given(
    a_values=A_VALUES,
    gens=GENS,
    marker=st.sampled_from([25, 43]),
    layout=st.sampled_from(LAYOUTS),
    data=st.data(),
)
def test_verify_is_the_same_whichever_way_the_file_is_read(a_values, gens, marker, layout, data):
    inst = Instance(a_values)
    obj = instance_to_json_obj(inst, build_candidate(inst, gens, marker))
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "instance.json", Path(tmp) / "report.json"
        path.write_text(mutated_text(data, obj, layout))
        assert run_verify(path, report) == run_verify_whole(path, report)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("gens", [0, 1, 4097])
def test_canonical_layouts_hold_the_run_as_a_count(tmp_path, layout, gens):
    inst = Instance(ACCEPT_A)
    items = build_candidate(inst, gens, 25)
    path = tmp_path / "instance.json"
    write_layout(path, instance_to_json_obj(inst, items), layout)
    loaded_inst, loaded = load_instance_file(path)
    assert loaded_inst == inst
    assert type(loaded) is Certificate
    assert (loaded.gens, loaded.marker) == (gens, 25)
    assert len(loaded) == 3 * inst.size**2 + gens + 2
    assert list(loaded) == items


def test_encode_and_solve_write_files_that_load_as_a_count(tmp_path):
    values = ",".join(map(str, ACCEPT_A))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["encode", "--set-a", values, "--e", "3", "--marker", "43", "--out", str(tmp_path / "e.json")]) == 0
        solve = ["solve", "--set-a", values, "--cap", "16", "--max-gens", "8", "--out", str(tmp_path / "s.json")]
        assert main(solve) == 0
    for name, gens in (("e.json", 3), ("s.json", 1)):
        _, loaded = load_instance_file(tmp_path / name)
        assert type(loaded) is Certificate and loaded.gens == gens


@pytest.mark.parametrize(
    "write, cut",
    [
        (lambda obj: json.dumps(obj, indent=1), True),  # any one separator throughout
        (lambda obj: json.dumps(obj, separators=(",", ":")), True),
        (lambda obj: json.dumps(obj | {"B": 1}), False),  # "L" is not the last key
        (lambda obj: json.dumps(obj | {"B": [5, 4, 25]}), False),
        (lambda obj: '{"L": [], ' + json.dumps(obj)[1:], False),  # "L" twice
        (lambda obj: json.dumps(obj).replace("5, 4, ", "5,  4, "), False),  # two separators
        (lambda obj: json.dumps(obj).replace("]}", "] }\n"), True),  # whitespace around the brackets
    ],
)
def test_only_a_last_L_in_one_layout_is_cut(tmp_path, write, cut):
    inst = Instance(ACCEPT_A)
    items = build_candidate(inst, 3, 25)
    path = tmp_path / "instance.json"
    path.write_text(write(instance_to_json_obj(inst, items)))
    _, loaded = load_instance_file(path)
    assert type(loaded) is (Certificate if cut else list)
    assert list(loaded) == items


@pytest.mark.parametrize(
    "tail",
    [
        '[2, 5, 4, 25]',  # no closing brace
        '25}',  # no closing bracket
        '[2, 5, 4, 24]}',  # no marker
        '[2, 5,x 4,x 25]}',  # a separator that is not a comma and whitespace
        '[2, 45, 4, 25]}',  # no whole 5 token before the run
        '[2, 5, 4, 7, 25]}',  # the fours do not fill the run
        '[2, "x", 5, 4, 25]}',  # a quote inside the array
        '[2, {}, 5, 4, 25]}',  # a brace inside the array
    ],
)
def test_cut_run_refuses_text_outside_its_layout(tail):
    assert instances._cut_run('{"A": [1], "L": ' + tail) is None


def test_cut_run_cuts_the_run_only():
    assert instances._cut_run('{"A": [1], "L": [2, 5, 4, 4, 25] } ') == ('{"A": [1], "L": [2, 5, 25] } ', 2)
    assert instances._cut_run('{"A": [1], "L": [2, 5,\n 43]}') == ('{"A": [1], "L": [2, 5,\n 43]}', 0)


TOKENS = st.sampled_from([2, 4, 5, 7, 9, 25, 43])
PROBES = st.sampled_from([2, 4, 5, 7, 9, 25, 43, 4.0, True, "4"])
BOUNDS = st.none() | st.integers(-12, 12)


@settings(max_examples=300, deadline=None)
@given(
    prefix=st.lists(TOKENS, max_size=6),
    gens=st.integers(0, 6),
    marker=st.sampled_from([25, 43]),
    index=st.integers(-14, 14),
    window=st.tuples(BOUNDS, BOUNDS, st.none() | st.sampled_from([1, 2, 3, 5, -1, -2, -3])),
    probe=PROBES,
)
def test_certificate_reads_as_its_list(prefix, gens, marker, index, window, probe):
    items = prefix + [4] * gens + [marker]
    held = Certificate(list(prefix), gens, marker)

    def outcome(fn):
        try:
            return ("ok", fn())
        except (IndexError, ValueError) as exc:
            return (type(exc),)

    assert len(held) == len(items) and list(held) == items
    assert outcome(lambda: held[index]) == outcome(lambda: items[index])
    assert held[slice(*window)] == items[slice(*window)]
    start, stop, _ = window
    bounds = (0 if start is None else start, len(items) if stop is None else stop)
    assert outcome(lambda: held.index(probe, *bounds)) == outcome(lambda: items.index(probe, *bounds))
    assert held.count(probe) == items.count(probe)
