import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A
from grammar_oracle import build_candidate, flat_text, read_sections
from debilandia.grid import SquarePoints
from debilandia.instances import (
    RESERVED,
    Certificate,
    Instance,
    RejectReason,
    RejectedCertificate,
    _raise_pair_reject,
    check_coverage,
    group_tuples,
    scan_tail,
    write_certificate,
)
from debilandia.verifier import verify


def test_instance_validation():
    inst = Instance((3, 1))
    assert inst.a_values == (1, 3)  # canonical ascending
    for bad in [(), (0,), (-2,), (1, 1), (4,), (25,), (1, "x")]:
        with pytest.raises(ValueError):
            Instance(tuple(bad))


def pairs_of(items):
    """The (a, b) pairs of a skeleton's pair section."""
    end = items.index(5)
    return list(zip(items[1:end:3], items[2:end:3]))


def test_build_candidate_pair_order():
    assert pairs_of(build_candidate(Instance((1, 3)), 0, 25)) == [(1, 1), (1, 3), (3, 1), (3, 3)]
    assert pairs_of(build_candidate(Instance((9,)), 0, 25)) == [(9, 9)]
    for size in range(1, 6):
        values = tuple(range(10, 10 + size))
        assert len(pairs_of(build_candidate(Instance(values), 0, 25))) == size * size


def test_parse_worked_example(atlas):
    inst = Instance((1, 3))
    items = [2, 1, 1, 7, 1, 3, 7, 3, 1, 7, 3, 3, 5, 4, 4, 25]
    pairs, after_five, touched = group_tuples(inst, items, 1)
    assert (list(pairs), after_five, touched) == ([(1, 1), (1, 3), (3, 1), (3, 3)], 13, 12)
    assert check_coverage(inst, pairs, 12) == 4
    assert scan_tail(items, 13) == (2, 25, 2)
    report = verify(inst, items, atlas).to_json_obj()
    assert (report["T"], report["P"], report["E"], report["N"]) == (4, 8, 2, 8 + 2 + 4 + 4)


def test_group_tuples_builds_no_per_pair_objects():
    # the pair section is read as three strided slices, 24 bytes a pair;
    # zipping the columns into a list of pair tuples peaked at about 58
    inst = Instance(tuple(v for v in range(1, 70) if v not in RESERVED)[:60])
    items = build_candidate(inst, 0, 25)
    group_tuples(inst, items, 1)  # warm up
    tracemalloc.start()
    try:
        pairs, _, _ = group_tuples(inst, items, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 3600
    assert peak < 32 * len(pairs)


def expect_reject(call, reason, position=None):
    with pytest.raises(RejectedCertificate) as info:
        call()
    assert info.value.reason is reason
    if position is not None:
        assert info.value.position == position


def test_reject_wrong_first_element(atlas):
    # condition 1 is checked first: a list that is otherwise accepted fails it
    inst = Instance(ACCEPT_A)
    good = build_candidate(inst, 1, 25)
    assert verify(inst, good, atlas).accepted
    for items in ([3], [], [3] + good[1:]):
        report = verify(inst, items, atlas).to_json_obj()
        assert (report["reason"], report["step"]) == (RejectReason.CONDITION_1.value, 1)
        assert report["counters"]["c1"] == 1 and report["counters"]["c2_3"] == 0  # position 0


def test_reject_repeated_tuple():
    inst = Instance((1, 3))
    items = [2, 1, 1, 7, 1, 1, 7, 3, 1, 7, 3, 3, 5, 25]
    pairs, after_five, _ = group_tuples(inst, items, 1)
    expect_reject(lambda: check_coverage(inst, pairs, after_five - 1), RejectReason.CONDITION_3)


def test_reject_incomplete_coverage():
    inst = Instance((1, 3))
    items = [2, 1, 1, 7, 1, 3, 5, 4, 25]
    pairs, after_five, _ = group_tuples(inst, items, 1)
    expect_reject(lambda: check_coverage(inst, pairs, after_five - 1), RejectReason.CONDITION_3)


def test_reject_short_tuple():
    inst = Instance((1, 3))
    expect_reject(lambda: group_tuples(inst, [2, 1, 7, 1, 3, 5, 25], 1), RejectReason.CONDITION_2, 2)


def test_reject_non_member_in_pair():
    inst = Instance((1, 3))
    expect_reject(lambda: group_tuples(inst, [2, 1, 9, 7, 3, 3, 5, 25], 1), RejectReason.CONDITION_2, 2)
    # reserved values cannot stand in for pair members either
    expect_reject(lambda: group_tuples(inst, [2, 1, 25, 7, 3, 3, 5, 25], 1), RejectReason.CONDITION_2, 2)


def test_reject_missing_terminator():
    inst = Instance((1, 3))
    # a 4 where the 5 should be
    items = [2, 1, 1, 7, 1, 3, 7, 3, 1, 7, 3, 3, 4, 4, 25]
    expect_reject(lambda: group_tuples(inst, items, 1), RejectReason.CONDITION_4, 12)
    # list ends inside the pair section
    expect_reject(lambda: group_tuples(inst, [2, 1, 1, 7, 1, 3], 1), RejectReason.CONDITION_4, 6)


def test_the_pair_walk_refuses_a_well_formed_section():
    # group_tuples hands the walk only sections it refused; a well-formed
    # one reaching it is a fault in group_tuples, not a reject
    inst = Instance((1, 3))
    items = [2, 1, 1, 7, 1, 3, 7, 3, 1, 7, 3, 3, 5, 4, 25]
    with pytest.raises(AssertionError, match="refused a well-formed pair section"):
        _raise_pair_reject(set(inst.a_values), items, 1)


def test_reject_non_four_in_generation_run():
    inst = Instance((1, 3))
    items = build_candidate(inst, 2, 25)
    items.insert(-1, 9)
    expect_reject(lambda: scan_tail(items, items.index(5) + 1), RejectReason.CONDITION_5)


def test_reject_missing_marker():
    inst = Instance((1, 3))
    items = build_candidate(inst, 2, 25)[:-1]
    expect_reject(lambda: scan_tail(items, items.index(5) + 1), RejectReason.CONDITION_7, len(items))


def test_reject_trailing_data(atlas):
    # trailing data is checked last: after the marker and the game's run
    inst = Instance(ACCEPT_A)
    items = build_candidate(inst, 1, 25) + [4]
    report = verify(inst, items, atlas).to_json_obj()
    assert (report["reason"], report["step"]) == (RejectReason.TRAILING_INPUT.value, 8)
    assert report["counters"]["c7"] == 2  # the marker was read and validated first


def test_zero_generation_run_parses():
    inst = Instance((9,))
    items = [2, 9, 9, 5, 43]
    assert scan_tail(items, 4) == (0, 43, 0)
    pairs, gens, marker = read_sections(inst, items)
    assert (list(pairs), gens, marker) == ([(9, 9)], 0, 43)


def test_build_candidate_worked_example():
    inst = Instance((1, 3))
    items = [2, 1, 1, 7, 1, 3, 7, 3, 1, 7, 3, 3, 5, 4, 4, 25]
    assert build_candidate(inst, 2, 25) == items
    assert flat_text(items) == "2 1 1 7 1 3 7 3 1 7 3 3 5 4 4 25\n"
    handle = io.StringIO()
    write_certificate(handle, Certificate(SquarePoints(inst.a_values), 2, 25), as_json=False)
    assert handle.getvalue() == flat_text(items)


a_sets = st.sets(
    st.integers(min_value=1, max_value=60).filter(lambda v: v not in RESERVED),
    min_size=1,
    max_size=3,
)


@settings(max_examples=80)
@given(a_sets, st.integers(min_value=0, max_value=9), st.sampled_from([25, 43]))
def test_candidate_round_trip_and_length_identity(atlas, values, gens, marker):
    inst = Instance(tuple(values))
    items = build_candidate(inst, gens, marker)
    a, n = sorted(values), len(values)
    t = n * n
    # pair k is (a[k // n], a[k % n]); a 7 follows every pair but the last, which a 5 closes
    expected = [2]
    for k in range(t):
        expected += [a[k // n], a[k % n], 7 if k < t - 1 else 5]
    assert items == expected + [4] * gens + [marker]
    pairs, read_gens, read_marker = read_sections(inst, items)
    assert (list(pairs), read_gens, read_marker) == ([(a[k // n], a[k % n]) for k in range(t)], gens, marker)
    assert len(items) == 3 * t + gens + 2
    report = verify(inst, items, atlas).to_json_obj()
    assert (report["T"], report["E"]) == (t, gens)
    assert report["N"] == 3 * t + gens + 4  # the input measure runs 2 above len(L)


@settings(max_examples=40)
@given(a_sets, st.integers(min_value=0, max_value=5))
def test_any_non_b_element_rejected_with_position(values, gens):
    inst = Instance(tuple(values))
    items = build_candidate(inst, gens, 25)
    alien = max(RESERVED | set(inst.a_values)) + 1
    for pos in range(1, len(items)):
        mutated = list(items)
        mutated[pos] = alien
        with pytest.raises(RejectedCertificate) as info:
            read_sections(inst, mutated)
        assert info.value.position <= pos
        assert info.value.reason in (
            RejectReason.CONDITION_2,
            RejectReason.CONDITION_3,
            RejectReason.CONDITION_4,
            RejectReason.CONDITION_5,
            RejectReason.CONDITION_7,
        )
