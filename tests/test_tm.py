import pytest

from corpus import INCREMENTER, ZERO_RUNNER, spec_with, tape_text
from debilandia.tm import (
    MOVE_LEFT,
    MOVE_RIGHT,
    Rule,
    TmSpec,
    initial_config,
    tm_run,
    tm_step,
)


def test_single_rule_hand_trace():
    # (read 1, state 0, write 0, next 1, head right) on tape "1"
    spec = spec_with((Rule(1, 0, 0, 1, MOVE_RIGHT),), "1")
    cfg = tm_step(spec, initial_config(spec))
    assert cfg is not None
    assert tape_text(cfg) == ""  # the only 1 was overwritten
    assert cfg.head == 1
    assert cfg.state == 1


def test_halts_when_no_rule_matches():
    spec = spec_with((Rule(1, 1, 1, 1, MOVE_RIGHT),), "0")
    assert tm_step(spec, initial_config(spec)) is None


def test_halt_is_stable():
    spec = spec_with((), "0")
    cfg = initial_config(spec)
    assert tm_step(spec, cfg) is None
    assert tm_step(spec, cfg) is None


def test_tape_extends_with_blanks():
    spec = spec_with(ZERO_RUNNER, "0")
    cfg = initial_config(spec)
    for expected_head in range(1, 50):
        cfg = tm_step(spec, cfg)
        assert cfg.head == expected_head
        assert cfg.read() == 0  # unvisited cells read as blank


def test_incrementer_hand_traces():
    # LSB at the right end: 011 -> 100, 111 -> 1000, 0 -> 1; the final tape
    # trimmed to its outermost 1s is a lone 1 in each case
    for tape, steps in [("011", 3), ("111", 4), ("0", 1)]:
        spec = spec_with(INCREMENTER, tape, head=len(tape) - 1)
        result = tm_run(spec, 100)
        assert result.halted
        assert result.steps == steps
        assert tape_text(result.config) == "1"
        assert result.config.state == 1


def test_run_budget_zero_reports_initial_configuration():
    spec = spec_with((), "101")
    result = tm_run(spec, 0)
    assert not result.halted
    assert result.steps == 0
    assert tape_text(result.config) == "101"


def test_self_loop_exhausts_budget():
    result = tm_run(spec_with(ZERO_RUNNER, "0"), 250)
    assert not result.halted
    assert result.steps == 250


def test_run_is_deterministic():
    spec = spec_with(INCREMENTER, "1011", head=3)
    a, b = tm_run(spec, 100), tm_run(spec, 100)
    assert (a.halted, a.steps, a.config.cells, a.config.head, a.config.state) == (
        b.halted,
        b.steps,
        b.config.cells,
        b.config.head,
        b.config.state,
    )


def test_duplicate_rule_keys_rejected():
    with pytest.raises(ValueError):
        TmSpec((Rule(0, 0, 0, 0, 0), Rule(0, 0, 1, 1, 1)), "0")


def test_rule_fields_must_be_bits():
    with pytest.raises(ValueError):
        Rule(2, 0, 0, 0, 0)


def test_move_encoding():
    assert MOVE_LEFT == 1 and MOVE_RIGHT == 0
    spec = spec_with((Rule(0, 0, 0, 0, MOVE_LEFT),), "0")
    cfg = tm_step(spec, initial_config(spec))
    assert cfg.head == -1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TmSpec((), "012"), "tape must be a string of 0/1"),
        (lambda: TmSpec((), "01", initial_state=2), "initial_state must be 0 or 1"),
        (lambda: tm_run(TmSpec((), "0"), -1), "budget must be >= 0"),
    ],
    ids=["tape", "initial-state", "budget"],
)
def test_a_spec_or_run_outside_its_domain_is_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()
