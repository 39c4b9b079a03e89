"""Differential tests: the certificate grammar against the per-token oracle.

The package reads the pair section, coverage and the four run with list and
set operations and walks tokens only to locate a reject. `grammar_oracle`
keeps the token-by-token versions. Both must return the same values and
reject with the same reason at the same position, and `verify` must write
the same report with either.
"""

from collections import namedtuple
from itertools import product
from unittest import mock

import grammar_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A
from debilandia import verifier
from debilandia.instances import (
    RESERVED,
    Instance,
    RejectedCertificate,
    build_candidate,
    check_coverage,
    group_tuples,
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


@settings(max_examples=300, deadline=None)
@given(a_values=A_VALUES, data=st.data())
def test_group_tuples_matches_oracle_on_token_lists(a_values, data):
    inst = Instance(a_values)
    alphabet = list(inst.a_values) + [2, 4, 5, 7, 25, 43, OUTSIDER]
    tokens = st.sampled_from(alphabet)
    # mostly well-formed pair runs, so both accepts and late rejects occur
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
    start = data.draw(st.integers(0, 2))
    assert outcome(group_tuples, inst, items, start) == outcome(grammar_oracle.group_tuples, inst, items, start)


@settings(max_examples=200, deadline=None)
@given(a_values=A_VALUES, data=st.data())
def test_check_coverage_matches_oracle_on_any_pairs(a_values, data):
    inst = Instance(a_values)
    values = list(inst.a_values) + [OUTSIDER]
    if data.draw(st.booleans()):
        pairs = data.draw(st.permutations(list(product(inst.a_values, repeat=2))))
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(pairs) - 1))
            pairs[i] = data.draw(st.tuples(st.sampled_from(values), st.sampled_from(values)))
        if data.draw(st.booleans()):
            pairs.append(data.draw(st.sampled_from(pairs)))
        if data.draw(st.booleans()):
            del pairs[data.draw(st.integers(0, len(pairs) - 1))]
    else:
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(values), st.sampled_from(values)), max_size=12))
    end = 3 * len(pairs)
    assert outcome(check_coverage, inst, pairs, end) == outcome(grammar_oracle.check_coverage, inst, pairs, end)


Pair = namedtuple("Pair", "x y")


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
    inst = Instance((1, 3))
    assert outcome(check_coverage, inst, pairs, 12) == outcome(grammar_oracle.check_coverage, inst, pairs, 12)


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
