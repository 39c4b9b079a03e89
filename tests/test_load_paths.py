"""Differential tests: the two ways `load_instance_file` reads an instance file.

A file whose list L ends in the layout `json.dumps` writes (`5, 4, 4, 25]}`,
any one comma-and-whitespace separator throughout) and whose pair section is
A x A in lexicographic order is proven canonical on its text and comes back
as `Certificate(SquarePoints(A), E, marker)`, holding E as a count. Any other
file is parsed whole by `tiles.parse_json` and comes back as its list.
`verify` through the CLI must print, exit and write the same on both paths,
for files written in both layouts and then mutated in and around the run or
the section, and `verify` must read a `Certificate` as the list it stands
for.
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

from corpus import ACCEPT_A
from grammar_oracle import build_candidate, instance_obj, json_text
from debilandia import instances
from debilandia.cli import main
from debilandia.grid import SquarePoints
from debilandia.instances import RESERVED, Certificate, Instance, load_instance_file
from debilandia.verifier import verify

POOL = [v for v in range(1, 40) if v not in RESERVED]
A_VALUES = st.one_of(st.just(ACCEPT_A), st.sets(st.sampled_from(POOL), min_size=1, max_size=4).map(tuple))
GENS = st.one_of(st.integers(0, 6), st.just(4500))
LAYOUTS = ("dumps", "write_json")
SEPARATORS = {"dumps": ", ", "write_json": ",\n    "}  # between the items of L


def expanded(items) -> list[int]:
    """The list a `Certificate` stands for; a list as it is."""
    if type(items) is not Certificate:
        return items
    pairs = [v for pair in items.prefix for v in (*pair, 7)][:-1]
    return [2] + pairs + [5] + [4] * items.gens + [items.marker]


def write_layout(path: Path, obj: dict, layout: str) -> None:
    if layout == "dumps":
        path.write_text(json.dumps(obj))
    else:
        path.write_text(json_text(obj))


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
    obj = instance_obj(inst, build_candidate(inst, gens, marker))
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
    obj = instance_obj(inst, items)
    obj["A"].reverse()  # the section is proven against A sorted, whatever the file's order
    write_layout(path, obj, layout)
    loaded_inst, loaded = load_instance_file(path)
    assert loaded_inst == inst
    assert type(loaded) is Certificate
    assert type(loaded.prefix) is SquarePoints and loaded.prefix.values == inst.a_values
    assert (loaded.gens, loaded.marker) == (gens, 25)
    assert len(loaded) == 3 * inst.size**2 + gens + 2
    assert expanded(loaded) == items


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
    path.write_text(write(instance_obj(inst, items)))
    _, loaded = load_instance_file(path)
    assert type(loaded) is (Certificate if cut else list)
    assert expanded(loaded) == items


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
    assert instances._cut_run(('{"A": [1], "L": ' + tail).encode()) is None


def cut_pieces(text: bytes) -> tuple[bytes, ...]:
    """text split where _cut_run finds L's bracket, its 5, the run and the marker."""
    bracket, five, run_at, marker_at = instances._cut_run(text)
    return text[: bracket + 1], text[bracket + 1 : five], text[five:run_at], text[run_at:marker_at], text[marker_at:]


def test_cut_run_cuts_the_run_only():
    text = b'{"A": [1], "L": [2, 5, 4, 4, 25] } '
    assert cut_pieces(text) == (b'{"A": [1], "L": [', b"2, ", b"5, ", b"4, 4, ", b"25] } ")
    text = b'{"A": [1], "L": [2, 5,\n 43]}'
    assert cut_pieces(text) == (b'{"A": [1], "L": [', b"2, ", b"5,\n ", b"", b"43]}")
    unit = b"4,\t"  # runs shorter and longer than one of the walk's blocks, not a whole number of them
    for gens in (5000, 50_000):
        text = b'{"A": [1], "L": [2, 5,\t' + unit * gens + b"25]}"
        assert cut_pieces(text)[3] == unit * gens


def run_texts(seed: int):
    """Files whose run of fours has E around powers of two and random E, whole or with one unit spoiled.

    E = 2**15 is one whole block of the walk for a two-byte unit.
    """
    rng = random.Random(seed)
    counts = [2**k + d for k in (8, 9, 10, 11, 12, 15) for d in (-1, 0, 1)] + [rng.randrange(5000) for _ in range(6)]
    for sep in (b",", b", ", b",\t", b",\n    "):
        unit = b"4" + sep
        for gens in counts:
            head, run, tail = b'{"A": [1], "L": [2, 5' + sep, bytearray(unit * gens), b"25]}"
            yield head + run + tail
            if gens:  # a unit spoiled at a random place: the walk must stop there
                at = rng.randrange(gens) * len(unit)
                run[at : at + len(unit)] = rng.choice([b"44" + sep, b"4" + sep + b" ", b"5" + sep, b"4;"])
                yield head + run + tail
            yield b'{"A": [1], "L": [2, 45' + sep + unit * gens + tail  # no whole 5 before the run


def test_cut_run_walks_the_run_as_a_one_unit_walk_does():
    # a block of one byte makes the walk's block one unit, with no halving after it
    texts = list(run_texts(3))
    with mock.patch.object(instances, "_RUN_BLOCK", 1):
        expected = [instances._cut_run(text) for text in texts]
    assert [instances._cut_run(text) for text in texts] == expected
    assert sum(cut is not None for cut in expected) > len(texts) // 3


def run_verify_unproven(path: Path, report: Path) -> tuple:
    """run_verify with the pair section never proven on the text."""
    with mock.patch.object(instances, "_proven_certificate", return_value=None):
        return run_verify(path, report)


SECTION_EDITS = [
    "canonical",
    "digit",
    "swap",
    "seven-to-five",
    "separator",
    "ws-after-bracket",
    "leading-two",
    "leading-zero",
    "A-shuffled",
    "A-added",
    "A-removed",
    "one-member",
    "no-fours",
]


def section_text(data, edit: str, a_values: tuple, gens: int, marker: int, layout: str) -> str:
    """A certificate file in layout, with one edit of the given kind in or around its pair section."""
    inst = Instance(a_values[:1] if edit == "one-member" else a_values)
    items = build_candidate(inst, 0 if edit == "no-fours" else gens, marker)
    pairs = inst.size**2
    if edit == "swap" and pairs > 1:
        i, j = sorted(data.draw(st.lists(st.integers(0, pairs - 1), min_size=2, max_size=2, unique=True)))
        first, second = slice(1 + 3 * i, 3 + 3 * i), slice(1 + 3 * j, 3 + 3 * j)
        items[first], items[second] = items[second], items[first]
    if edit == "seven-to-five" and pairs > 1:
        items[3 + 3 * data.draw(st.integers(0, pairs - 2))] = 5
    members = list(inst.a_values)
    if edit == "A-added":
        members.append(data.draw(st.sampled_from([v for v in POOL if v not in members])))
    if edit == "A-removed":
        members.remove(data.draw(st.sampled_from(members)))
    if edit in ("A-shuffled", "A-added"):
        members = data.draw(st.permutations(members))
    obj = {"A": members, "L": items}
    text = json.dumps(obj) if layout == "dumps" else json.dumps(obj, indent=2, sort_keys=True) + "\n"
    sep = SEPARATORS[layout]
    open_at = text.rindex("[") + 1  # L is the last key and holds no nested array
    two = text.index("2", open_at)
    section, five = two + 1 + len(sep), text.rindex("5" + sep)  # the run holds no 5
    tokens = [section] + [at + len(sep) for at in range(section, five) if text.startswith(sep, at)]
    if edit == "digit":
        at = data.draw(st.sampled_from([at for at in range(section, five) if text[at].isdigit()]))
        digit = data.draw(st.sampled_from([d for d in "0123456789" if d != text[at]]))
        return text[:at] + digit + text[at + 1 :]
    if edit == "separator" and len(tokens) > 1:
        at = data.draw(st.sampled_from(tokens[1:])) - len(sep)
        other = data.draw(st.sampled_from([other for other in SEPARATOR_EDITS if other != sep]))
        return text[:at] + other + text[at + len(sep) :]
    if edit == "ws-after-bracket":
        return text[:open_at] + data.draw(st.sampled_from(["", " ", "\n  ", "\r\n", "\t"])) + text[two:]
    if edit == "leading-two":
        return text[:two] + data.draw(st.sampled_from(["2.0", "3", "02", "-2", "20"])) + text[two + 1 :]
    if edit == "leading-zero":
        at = data.draw(st.sampled_from(tokens[:-1]))  # the last token start is the 5
        return text[:at] + "0" + text[at:]
    return text


@pytest.mark.parametrize("edit", SECTION_EDITS)
@settings(max_examples=20, deadline=None)
@given(
    a_values=A_VALUES,
    gens=st.integers(0, 5),
    marker=st.sampled_from([25, 43]),
    layout=st.sampled_from(LAYOUTS),
    data=st.data(),
)
def test_verify_is_the_same_with_the_section_proven_or_parsed(edit, a_values, gens, marker, layout, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "instance.json", Path(tmp) / "report.json"
        path.write_text(section_text(data, edit, a_values, gens, marker, layout))
        assert run_verify(path, report) == run_verify_unproven(path, report)


@settings(max_examples=100, deadline=None)
@given(a_values=A_VALUES, gens=GENS, marker=st.sampled_from([25, 43]))
def test_a_proven_section_reads_as_its_list(atlas, a_values, gens, marker):
    inst = Instance(a_values)
    held = Certificate(SquarePoints(inst.a_values), gens, marker)
    items = build_candidate(inst, gens, marker)
    assert len(held) == len(items) and expanded(held) == items
    assert verify(inst, held, atlas).to_json_obj() == verify(inst, items, atlas).to_json_obj()


def test_loading_a_canonical_skeleton_peaks_under_twice_the_file(tmp_path):
    # the file's bytes are held once; only the bytes outside the section and the run are parsed
    inst = Instance(tuple(range(100, 1300, 10)))
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(instance_obj(inst, build_candidate(inst, 1500, 43))))
    load_instance_file(path)  # warm up
    tracemalloc.start()
    try:
        _, loaded = load_instance_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.size == 120 and type(loaded.prefix) is SquarePoints
    assert peak < 2 * path.stat().st_size


def text_read_error(path: Path) -> str:
    """The error line of a file read in text mode and parsed whole."""
    try:
        json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError is one too
        return f"error: {path}: {exc}\n"
    raise AssertionError(f"{path} parses")


@pytest.mark.parametrize(
    "data",
    [
        b'{"A": [1], ' + b" " * 9000 + b'\xff"L": [2, 5, 25]}',  # a bad byte past the first 8 KB
        b'{"A": [1], "L": [2, 5, 25]}' + b" " * 70000 + b"\xe2\x82",  # a character cut short at the end
        b'{"A": [1],\r\n "L": [2, 5,\r\n 25]\r\n}\r\n x',  # text mode reads each CRLF as one newline
        b'{"A": [1],\r "L": [2\r\r\n 5, 25]}',
        b'{"A":\r\n [1]\n, "L": [2, 5, 4, 25]\r}\r\n}',
    ],
)
def test_a_file_parsed_whole_fails_as_a_text_mode_read_does(tmp_path, data):
    path, report = tmp_path / "instance.json", tmp_path / "report.json"
    path.write_bytes(data)
    assert run_verify(path, report) == (2, "", text_read_error(path), None)
