"""Differential tests: the certificate grammar against the per-token oracle.

The package reads the pair section, coverage and the four run with list and
set operations and walks tokens only to locate a reject. It hands a list's
pairs on as two member columns (`grid.Pairs`), where `grammar_oracle` keeps
the token-by-token versions and a list of pair tuples. Both must return the
same values (the columns read out as pairs) and reject with the same reason
at the same position, and `verify` must write the same report with either,
for pairs in any order, and for a file whose section `load_instance_file`
proved A x A on its text (`grid.SquarePoints`).
"""

import json
import tempfile
from collections import namedtuple
from itertools import product
from pathlib import Path
from unittest import mock

import grammar_oracle
from grammar_oracle import build_candidate, instance_obj
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A
from debilandia import verifier
from debilandia.grid import Pairs, SquarePoints
from debilandia.instances import (
    MARKER_END_TUPLES,
    MARKER_SEP,
    RESERVED,
    Certificate,
    Instance,
    RejectedCertificate,
    check_coverage,
    group_tuples,
    load_instance_file,
    scan_tail,
)

POOL = [v for v in range(1, 40) if v not in RESERVED]
OUTSIDER = 1000  # in no instance drawn here
A_VALUES = st.one_of(st.just(ACCEPT_A), st.sets(st.sampled_from(POOL), min_size=1, max_size=6).map(tuple))
# runs of fours shorter than, near and across the scan's 4096-item slices
GENS = st.one_of(st.integers(0, 12), st.integers(4090, 4100), st.integers(8185, 8200))


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except RejectedCertificate as exc:
        return ("reject", exc.reason, exc.position)


def pair_section(data, inst: Instance) -> tuple[list[int], int]:
    """A drawn list holding a pair section, and where to start reading it.

    Mostly well-formed pair runs with up to three token edits, so accepts
    and late rejects both occur.
    """
    alphabet = list(inst.a_values) + [2, 4, 5, 7, 25, 43, OUTSIDER]
    tokens = st.sampled_from(alphabet)
    pair = st.tuples(st.sampled_from(inst.a_values), st.sampled_from(inst.a_values))
    pairs = data.draw(st.lists(pair, max_size=8))
    items = [2] + [v for a, b in pairs for v in (a, b, 7)]
    items = items[:-1] + [5] if pairs else items + [5]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(items)))
        choice = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if choice == "insert":
            items.insert(i, data.draw(tokens))
        elif i < len(items):
            if choice == "replace":
                items[i] = data.draw(tokens)
            else:
                del items[i]
    return items, data.draw(st.integers(0, 2))


def listed_group_tuples(inst: Instance, items: list[int], start: int) -> tuple[list[tuple[int, int]], int, int]:
    """group_tuples with its pairs read out as a list, as the oracle returns them."""
    pairs, after_five, touched = group_tuples(inst, items, start)
    return list(pairs), after_five, touched


@settings(max_examples=300, deadline=None)
@given(a_values=A_VALUES, data=st.data())
def test_group_tuples_matches_oracle_on_token_lists(a_values, data):
    inst = Instance(a_values)
    items, start = pair_section(data, inst)
    assert outcome(listed_group_tuples, inst, items, start) == outcome(grammar_oracle.group_tuples, inst, items, start)


@settings(max_examples=300, deadline=None)
@given(a_values=A_VALUES, data=st.data())
def test_group_tuples_returns_member_columns_or_the_oracles_reject(a_values, data):
    # check_coverage trusts this: every pair it is given is two plain ints of A
    inst = Instance(a_values)
    items, start = pair_section(data, inst)
    try:
        pairs, _, _ = group_tuples(inst, items, start)
    except RejectedCertificate as exc:
        assert ("reject", exc.reason, exc.position) == outcome(grammar_oracle.group_tuples, inst, items, start)
        return
    assert type(pairs) is Pairs
    assert type(pairs.xs) is list and type(pairs.ys) is list and len(pairs.xs) == len(pairs.ys)
    assert set(map(type, pairs.xs + pairs.ys)) <= {int}
    assert set(pairs.xs + pairs.ys) <= set(inst.a_values)


@settings(max_examples=200, deadline=None)
@given(a_values=A_VALUES, data=st.data())
def test_check_coverage_matches_oracle_on_any_pairs(a_values, data):
    # group_tuples hands on only pairs of members, so the pairs are drawn from A
    inst = Instance(a_values)
    pair = st.tuples(st.sampled_from(inst.a_values), st.sampled_from(inst.a_values))
    if data.draw(st.booleans()):
        pairs = data.draw(st.permutations(list(product(inst.a_values, repeat=2))))
        for _ in range(data.draw(st.integers(0, 2))):
            pairs[data.draw(st.integers(0, len(pairs) - 1))] = data.draw(pair)
        if data.draw(st.booleans()):
            pairs.append(data.draw(st.sampled_from(pairs)))
        if data.draw(st.booleans()):
            pairs.insert(data.draw(st.integers(0, len(pairs))), data.draw(pair))
        if data.draw(st.booleans()):
            del pairs[data.draw(st.integers(0, len(pairs) - 1))]
    else:
        pairs = data.draw(st.lists(pair, max_size=12))
    columns = Pairs([x for x, _ in pairs], [y for _, y in pairs])
    end = 3 * len(pairs)
    assert outcome(check_coverage, inst, columns, end) == outcome(grammar_oracle.check_coverage, inst, pairs, end)


Pair = namedtuple("Pair", "x y")


def read_pairs(group, coverage, inst: Instance, items: list[int]) -> tuple[list[tuple[int, int]], int, int]:
    """A pair section read by group, its pairs checked by coverage."""
    pairs, after_five, _ = group(inst, items, 0)
    return list(pairs), after_five, coverage(inst, pairs, after_five - 1)


@pytest.mark.parametrize(
    "pairs",
    [
        [Pair(1, 1), Pair(1, 3), Pair(3, 1), Pair(3, 3)],  # tuple subclasses equal to the pairs
        [(1, 1), (1, 3), (3, 1), (3, 3, 3)],  # right count, one pair too long
        [(1, 1), (1, 3), (3, 3), frozenset({1, 3})],  # right count, one pair not a tuple
        [(1,), (1, 3), (3, 1), (3, 3)],
    ],
)
def test_check_coverage_matches_oracle_on_odd_pair_shapes(pairs):
    # check_coverage takes only what group_tuples returns, so odd pairs reach it written as tokens
    inst = Instance((1, 3))
    items = [v for pair in pairs for v in [*pair, MARKER_SEP]][:-1] + [MARKER_END_TUPLES]
    assert outcome(read_pairs, group_tuples, check_coverage, inst, items) == outcome(
        read_pairs, grammar_oracle.group_tuples, grammar_oracle.check_coverage, inst, items
    )


@settings(max_examples=200, deadline=None)
@given(
    gens=GENS,
    tail=st.lists(st.sampled_from([4, 25, 43, 7, 9]), max_size=3),
    edit=st.none() | st.tuples(st.integers(0, 8200), st.sampled_from([25, 43, 7, 9])),
    start=st.integers(0, 2),
)
def test_scan_tail_matches_oracle(gens, tail, edit, start):
    items = [2, 5][:start] + [4] * gens + tail
    if edit is not None and edit[0] < len(items):
        items[edit[0]] = edit[1]
    assert outcome(scan_tail, items, start) == outcome(grammar_oracle.scan_tail, items, start)


MUTATIONS = [
    "none",
    "replace-pair",
    "insert-pair",
    "delete-pair",
    "replace-four",
    "insert-four",
    "delete-four",
    "truncate",
    "repeat-pair",
    "non-member",
    "trailing",
    "shuffle-pairs",
]


def mutate(data, inst: Instance, items: list[int]) -> list[int]:
    """items with one drawn mutation applied."""
    items = list(items)
    five = items.index(5)
    token = st.sampled_from(list(inst.a_values) + [2, 4, 5, 7, 25, 43, OUTSIDER])
    t_count = five // 3
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind in ("replace-four", "delete-four") and len(items) - 1 == five + 1:
        kind = "insert-four"  # the run is empty
    if kind == "repeat-pair" and t_count < 2:
        kind = "non-member"
    if kind == "replace-pair":
        items[data.draw(st.integers(1, five - 1))] = data.draw(token)
    elif kind == "insert-pair":
        items.insert(data.draw(st.integers(1, five)), data.draw(token))
    elif kind == "delete-pair":
        del items[data.draw(st.integers(1, five - 1))]
    elif kind == "replace-four":
        items[data.draw(st.integers(five + 1, len(items) - 2))] = data.draw(token)
    elif kind == "insert-four":
        items.insert(data.draw(st.integers(five + 1, len(items) - 1)), data.draw(token))
    elif kind == "delete-four":
        del items[data.draw(st.integers(five + 1, len(items) - 2))]
    elif kind == "truncate":
        items = items[: data.draw(st.integers(0, len(items) - 1))]
    elif kind == "repeat-pair":
        src, dst = data.draw(st.lists(st.integers(0, t_count - 1), min_size=2, max_size=2, unique=True))
        items[1 + 3 * dst : 3 + 3 * dst] = items[1 + 3 * src : 3 + 3 * src]
    elif kind == "non-member":
        k = data.draw(st.integers(0, t_count - 1))
        items[1 + 3 * k + data.draw(st.integers(0, 1))] = OUTSIDER
    elif kind == "trailing":
        items += data.draw(st.lists(token, min_size=1, max_size=3))
    elif kind == "shuffle-pairs":  # any order, 7s and the 5 in place, maybe one pair twice
        pairs = data.draw(st.permutations([items[1 + 3 * k : 3 + 3 * k] for k in range(t_count)]))
        if data.draw(st.booleans()):
            pairs.insert(data.draw(st.integers(0, t_count)), data.draw(st.sampled_from(pairs)))
        items[1:five] = [v for pair in pairs for v in pair + [MARKER_SEP]][:-1]
    return items


@settings(max_examples=300, deadline=None)
@given(a_values=A_VALUES, gens=GENS, marker=st.sampled_from([25, 43]), data=st.data())
def test_verify_reports_match_the_per_token_grammar(atlas, a_values, gens, marker, data):
    inst = Instance(a_values)
    items = mutate(data, inst, build_candidate(inst, gens, marker))
    ours = verifier.verify(inst, items, atlas).to_json_obj()
    with mock.patch.multiple(
        verifier,
        group_tuples=grammar_oracle.group_tuples,
        check_coverage=grammar_oracle.check_coverage,
        scan_tail=grammar_oracle.scan_tail,
    ):
        theirs = verifier.verify(inst, items, atlas).to_json_obj()
    assert ours == theirs


def with_pairs(items: list[int], pairs: list[list[int]]) -> list[int]:
    """items with its pair section replaced by pairs, a 7 between pairs."""
    five = items.index(MARKER_END_TUPLES)
    return items[:1] + [v for pair in pairs for v in pair + [MARKER_SEP]][:-1] + items[five:]


@settings(max_examples=200, deadline=None)
@given(
    a_values=A_VALUES,
    gens=st.one_of(st.integers(0, 3), st.just(4097)),  # 4097 spans more than one of scan_tail's slices
    marker=st.sampled_from([25, 43]),
    data=st.data(),
)
def test_canonical_and_permuted_sections_give_the_same_report(atlas, a_values, gens, marker, data):
    # a list takes the general path in any order; a file in build_candidate's order is
    # proven A x A on its text and loads as SquarePoints, which group_tuples hands on,
    # and a file in any other order is parsed whole into a list
    inst = Instance(a_values)
    items = build_candidate(inst, gens, marker)
    canonical = [items[1 + 3 * k : 3 + 3 * k] for k in range(inst.size**2)]
    permuted = data.draw(st.permutations(canonical))
    other = with_pairs(items, permuted)
    assert type(group_tuples(inst, items, 1)[0]) is Pairs
    assert type(group_tuples(inst, other, 1)[0]) is Pairs
    report = verifier.verify(inst, items, atlas).to_json_obj()
    assert verifier.verify(inst, other, atlas).to_json_obj() == report
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        for listed in (items, other):
            path.write_text(json.dumps(instance_obj(inst, listed)))
            _, loaded = load_instance_file(path)
            if listed == items:
                assert type(loaded) is Certificate and type(loaded.prefix) is SquarePoints
                assert type(group_tuples(inst, loaded, 1)[0]) is SquarePoints
            else:
                assert type(loaded) is list and loaded == listed
                assert type(group_tuples(inst, loaded, 1)[0]) is Pairs
            assert verifier.verify(inst, loaded, atlas).to_json_obj() == report


@settings(max_examples=300, deadline=None)
@given(a_values=A_VALUES, data=st.data())
def test_one_edit_to_a_canonical_section_rejects_as_the_oracle_does(a_values, data):
    inst = Instance(a_values)
    pairs = [list(pair) for pair in product(inst.a_values, repeat=2)]
    k = data.draw(st.integers(0, len(pairs) - 1))
    kind = data.draw(st.sampled_from(["repeat", "non-member", "missing", "swap"]))
    if kind in ("repeat", "swap") and len(pairs) > 1:
        j = data.draw(st.integers(0, len(pairs) - 1).filter(lambda j: j != k))
        pairs[k], pairs[j] = pairs[j], (pairs[k] if kind == "swap" else pairs[j])
    elif kind == "missing":
        del pairs[k]
    else:
        pairs[k][data.draw(st.integers(0, 1))] = OUTSIDER
    items = with_pairs(build_candidate(inst, 0, 43), pairs)[1:]
    assert outcome(read_pairs, group_tuples, check_coverage, inst, items) == outcome(
        read_pairs, grammar_oracle.group_tuples, grammar_oracle.check_coverage, inst, items
    )
