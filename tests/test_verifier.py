from itertools import product

import pytest

from corpus import ACCEPT_A, clone_state
from grammar_oracle import build_candidate, read_sections
from debilandia.engine import run
from debilandia.grid import recognize
from debilandia.instances import (
    Instance,
    RejectedCertificate,
    RejectReason,
)
from debilandia.verifier import (
    CostLedger,
    bound_of,
    bracket_ceiling_total,
    f_formula,
    f_of,
    verify,
)


def ledger_with(t, e):
    return CostLedger(t_count=t, p_count=2 * t, gen_count=e)


def test_f_formula_known_values():
    assert f_of(ledger_with(1, 2)) == 42
    assert f_of(ledger_with(0, 0)) == 10
    assert f_of(ledger_with(4, 2)) == 126


def test_bound_values():
    assert bound_of(0) == 0
    assert bound_of(19) == 1349
    with pytest.raises(ValueError):
        bound_of(-1)


def test_bracket_sum_is_one_below_f():
    for t in range(0, 8):
        for e in range(0, 8):
            assert bracket_ceiling_total(t, 2 * t, e) == f_formula(t, 2 * t, e) - 1


def test_reject_at_step_one_counts_one(atlas):
    inst = Instance((1, 3))
    report = verify(inst, [3], atlas)
    assert not report.accepted
    assert report.reason is RejectReason.CONDITION_1
    assert report.step == 1
    led = report.ledger
    assert led.c1 == 1
    assert led.total_counted == 1


def test_junk_grid_rejects_at_step_six(atlas):
    # A = {1, 3} places four points in one cell; they match nothing, so the
    # board has no machine to find
    inst = Instance((1, 3))
    items = build_candidate(inst, 2, 25)
    state = recognize(set(product(inst.a_values, repeat=2)), atlas)
    assert state.tiles == {} and state.junk_cells == 1
    report = verify(inst, items, atlas)
    assert not report.accepted
    assert report.reason is RejectReason.NOT_A_TM
    assert report.step == 6


def test_accepting_fixture_full_report(atlas):
    inst = Instance(ACCEPT_A)
    items = build_candidate(inst, 1, 25)
    report = verify(inst, items, atlas)
    assert report.accepted
    assert report.stopped is True
    led = report.ledger
    assert (led.t_count, led.p_count, led.gen_count) == (256, 512, 1)
    assert led.n_input == 512 + 1 + 256 + 4
    assert all(spent <= ceiling for spent, ceiling in led.brackets().values())
    assert led.total_counted <= report.bound
    assert report.f_n == f_formula(256, 512, 1)


def test_wrong_marker_rejects_as_verdict_mismatch(atlas):
    inst = Instance(ACCEPT_A)
    report = verify(inst, build_candidate(inst, 1, 43), atlas)
    assert not report.accepted
    assert report.reason is RejectReason.VERDICT_MISMATCH
    assert report.step == 8


def test_e_zero_game_never_stopped(atlas):
    # zero generations cannot witness the halt, so 43 is the consistent claim
    inst = Instance(ACCEPT_A)
    assert verify(inst, build_candidate(inst, 0, 43), atlas).accepted
    report = verify(inst, build_candidate(inst, 0, 25), atlas)
    assert not report.accepted
    assert report.reason is RejectReason.VERDICT_MISMATCH


def test_stopped_matches_independent_run(atlas):
    inst = Instance(ACCEPT_A)
    state = recognize(set(product(inst.a_values, repeat=2)), atlas)
    for gens in range(0, 4):
        marker_report = verify(inst, build_candidate(inst, gens, 25), atlas)
        independent = run(clone_state(state), gens)
        assert marker_report.stopped == independent.stopped


def test_verifier_agrees_with_parser(atlas):
    # the grammar's sections, read in the verifier's order, reject where verify does
    inst = Instance((1, 3))
    good = build_candidate(inst, 2, 25)
    mutations = [
        ([3] + good[1:], RejectReason.CONDITION_1, None),  # checked by verify before the sections
        (good[:1] + good[2:], RejectReason.CONDITION_2, 2),  # drop a pair member
        ([2, 1, 1, 7, 1, 1, 7, 3, 1, 7, 3, 3, 5, 25], RejectReason.CONDITION_3, 4),  # duplicate pair
        (good[:-1], RejectReason.CONDITION_7, len(good) - 1),  # no marker
        (good + [9], RejectReason.NOT_A_TM, None),  # trailing, but phase 6 finds no machine first
    ]
    for items, reason, position in mutations:
        report = verify(inst, items, atlas)
        assert not report.accepted
        assert report.reason is reason
        if position is not None:
            with pytest.raises(RejectedCertificate) as info:
                read_sections(inst, items)
            assert (info.value.reason, info.value.position) == (reason, position)


def test_rejects_never_raise_and_stay_bounded(atlas):
    inst = Instance((1, 3))
    candidates = [
        [],
        [2],
        [2, 5, 25],
        [2, 1, 1, 5, 25],
        build_candidate(inst, 0, 25),
        build_candidate(inst, 3, 43),
        [2, 1, 1, 7, 1, 3, 7, 3, 1, 7, 3, 3, 5, 4, 9, 25],
    ]
    for items in candidates:
        report = verify(inst, items, atlas)
        assert not report.accepted
        assert report.ledger.total_counted <= report.bound


def test_report_json_shape(atlas):
    inst = Instance(ACCEPT_A)
    report = verify(inst, build_candidate(inst, 1, 25), atlas)
    obj = report.to_json_obj()
    assert obj["verdict"] == "accept"
    assert obj["reason"] is None
    assert obj["counters"]["c1"] == 1
    assert obj["N"] == 773
    assert obj["bound"] == 2 * 773 * 773 + 33 * 773
    assert obj["total_counted"] <= obj["bound"]
