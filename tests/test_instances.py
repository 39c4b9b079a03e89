import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debilandia.instances import (
    RESERVED,
    Instance,
    RejectReason,
    RejectedCertificate,
    build_candidate,
    certificate_text,
    enumerate_tuples,
    parse_certificate,
    serialize_certificate,
)


def test_instance_validation():
    inst = Instance((3, 1))
    assert inst.a_values == (1, 3)  # canonical ascending
    assert inst.b_values == frozenset({1, 3}) | RESERVED
    assert len(inst.b_values) == inst.size + 6
    for bad in [(), (0,), (-2,), (1, 1), (4,), (25,), (1, "x")]:
        with pytest.raises(ValueError):
            Instance(tuple(bad))


def test_enumerate_tuples_examples():
    assert enumerate_tuples([1, 3]) == [(1, 1), (1, 3), (3, 1), (3, 3)]
    assert enumerate_tuples([9]) == [(9, 9)]
    for size in range(1, 6):
        values = list(range(10, 10 + size))
        assert len(enumerate_tuples(values)) == size * size


def test_parse_worked_example():
    inst = Instance((1, 3))
    items = [2, 1, 1, 7, 1, 3, 7, 3, 1, 7, 3, 3, 5, 4, 4, 25]
    cert = parse_certificate(inst, items)
    assert cert.t_count == 4
    assert cert.p_count == 8
    assert cert.gen_count == 2
    assert cert.marker == 25
    assert cert.n_input == 8 + 2 + 4 + 4


def expect_reject(inst, items, reason, position=None):
    with pytest.raises(RejectedCertificate) as info:
        parse_certificate(inst, items)
    assert info.value.reason is reason
    if position is not None:
        assert info.value.position == position


def test_reject_wrong_first_element():
    expect_reject(Instance((1, 3)), [3], RejectReason.CONDITION_1, 0)
    expect_reject(Instance((1, 3)), [], RejectReason.CONDITION_1, 0)


def test_reject_repeated_tuple():
    inst = Instance((1, 3))
    expect_reject(inst, [2, 1, 1, 7, 1, 1, 7, 3, 1, 7, 3, 3, 5, 25], RejectReason.CONDITION_3)


def test_reject_incomplete_coverage():
    inst = Instance((1, 3))
    expect_reject(inst, [2, 1, 1, 7, 1, 3, 5, 4, 25], RejectReason.CONDITION_3)


def test_reject_short_tuple():
    inst = Instance((1, 3))
    expect_reject(inst, [2, 1, 7, 1, 3, 5, 25], RejectReason.CONDITION_2, 2)


def test_reject_non_member_in_pair():
    inst = Instance((1, 3))
    expect_reject(inst, [2, 1, 9, 7, 3, 3, 5, 25], RejectReason.CONDITION_2, 2)
    # reserved values cannot stand in for pair members either
    expect_reject(inst, [2, 1, 25, 7, 3, 3, 5, 25], RejectReason.CONDITION_2, 2)


def test_reject_missing_terminator():
    inst = Instance((1, 3))
    # a 4 where the 5 should be
    expect_reject(
        inst, [2, 1, 1, 7, 1, 3, 7, 3, 1, 7, 3, 3, 4, 4, 25], RejectReason.CONDITION_4, 12
    )
    # list ends inside the pair section
    expect_reject(inst, [2, 1, 1, 7, 1, 3], RejectReason.CONDITION_4, 6)


def test_reject_non_four_in_generation_run():
    inst = Instance((1, 3))
    items = build_candidate(inst, 2, 25)
    items.insert(-1, 9)
    expect_reject(inst, items, RejectReason.CONDITION_5)


def test_reject_missing_marker():
    inst = Instance((1, 3))
    items = build_candidate(inst, 2, 25)[:-1]
    expect_reject(inst, items, RejectReason.CONDITION_7, len(items))


def test_reject_trailing_data():
    inst = Instance((1, 3))
    items = build_candidate(inst, 2, 25) + [4]
    expect_reject(inst, items, RejectReason.TRAILING_INPUT)


def test_zero_generation_run_parses():
    inst = Instance((9,))
    cert = parse_certificate(inst, [2, 9, 9, 5, 43])
    assert cert.gen_count == 0
    assert cert.marker == 43


def test_serialize_round_trip_worked_example():
    inst = Instance((1, 3))
    items = [2, 1, 1, 7, 1, 3, 7, 3, 1, 7, 3, 3, 5, 4, 4, 25]
    cert = parse_certificate(inst, items)
    assert serialize_certificate(cert) == items
    assert certificate_text(items) == "2 1 1 7 1 3 7 3 1 7 3 3 5 4 4 25"


a_sets = st.sets(
    st.integers(min_value=1, max_value=60).filter(lambda v: v not in RESERVED),
    min_size=1,
    max_size=3,
)


@settings(max_examples=80)
@given(a_sets, st.integers(min_value=0, max_value=9), st.sampled_from([25, 43]))
def test_candidate_round_trip_and_length_identity(values, gens, marker):
    inst = Instance(tuple(values))
    items = build_candidate(inst, gens, marker)
    cert = parse_certificate(inst, items)
    assert serialize_certificate(cert) == items
    t = cert.t_count
    assert t == inst.size**2
    assert len(items) == 3 * t + gens + 2
    assert cert.n_input == 3 * t + gens + 4  # the input measure runs 2 above len(L)


@settings(max_examples=40)
@given(a_sets, st.integers(min_value=0, max_value=5))
def test_any_non_b_element_rejected_with_position(values, gens):
    inst = Instance(tuple(values))
    items = build_candidate(inst, gens, 25)
    alien = max(inst.b_values) + 1
    for pos in range(1, len(items)):
        mutated = list(items)
        mutated[pos] = alien
        with pytest.raises(RejectedCertificate) as info:
            parse_certificate(inst, mutated)
        assert info.value.position <= pos
        assert info.value.reason in (
            RejectReason.CONDITION_2,
            RejectReason.CONDITION_3,
            RejectReason.CONDITION_4,
            RejectReason.CONDITION_5,
            RejectReason.CONDITION_7,
        )
