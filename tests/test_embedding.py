import pytest

from corpus import (
    LOCKSTEP_MACHINES,
    PING_PONG,
    game_status,
    game_tape_text,
    oracle_trajectory,
    padding_for,
    random_tapes,
    spec_with,
    tape_text,
)
from debilandia.embedding import (
    ExtractFailure,
    NotATuringMachine,
    compile_direct,
    compile_universal,
    extract_tm,
)
from debilandia.engine import Fired, RuleCopied, RunStatus, Terminated, run, step
from debilandia.grid import GameState, recognize
from debilandia.tiles import TileKind
from debilandia.tm import MOVE_RIGHT, Rule


def test_single_rule_compile_counts(atlas):
    spec = spec_with((Rule(1, 0, 0, 1, MOVE_RIGHT),), "1")
    state = recognize(compile_direct(spec, atlas), atlas)
    # 1 tape tile + tip stack of 3 + 5 packet tiles
    assert len(state.tiles) == 9
    assert state.junk_cells == 0


def test_compile_rejects_empty_tape(atlas):
    with pytest.raises(ValueError):
        compile_direct(spec_with((), ""), atlas)
    with pytest.raises(ValueError):
        compile_universal(spec_with(PING_PONG, "1"), "", atlas)


def test_compile_rejects_head_off_tape(atlas):
    with pytest.raises(ValueError):
        compile_direct(spec_with((), "11", head=2), atlas)


def test_compile_rejects_negative_padding_and_a_payload_not_of_bits(atlas):
    with pytest.raises(ValueError, match="pad must be >= 0"):
        compile_direct(spec_with(PING_PONG, "11"), atlas, pad=-1)
    with pytest.raises(ValueError, match="payload must be a string of 0/1"):
        compile_universal(spec_with(PING_PONG, "1"), "012", atlas)


def test_direct_round_trip(atlas):
    spec = spec_with(PING_PONG, "0110", head=2, state=1)
    recovered = extract_tm(recognize(compile_direct(spec, atlas), atlas))
    assert recovered == spec


def test_round_trip_with_padding_extends_the_tape(atlas):
    spec = spec_with(PING_PONG, "11", head=1)
    recovered = extract_tm(recognize(compile_direct(spec, atlas, pad=2), atlas))
    assert recovered.tape == "001100"
    assert recovered.head == 3
    assert recovered.rules == spec.rules


def test_extract_empty_state_reports_no_tip(atlas):
    with pytest.raises(NotATuringMachine) as info:
        extract_tm(recognize(set(), atlas))
    assert info.value.reason is ExtractFailure.NO_TIP


def test_extract_gap_in_tape_is_broken(atlas):
    spec = spec_with(PING_PONG, "111", head=0)
    points = compile_direct(spec, atlas)
    # remove the middle tape tile's points (cell (1, 0) spans x 4..7, y 0..3)
    points = {(x, y) for x, y in points if not (4 <= x <= 7 and 0 <= y <= 3)}
    with pytest.raises(NotATuringMachine) as info:
        extract_tm(recognize(points, atlas))
    assert info.value.reason is ExtractFailure.BROKEN_TAPE


def test_extract_missing_status_is_malformed_stack(atlas):
    spec = spec_with(PING_PONG, "1")
    points = compile_direct(spec, atlas)
    points = {(x, y) for x, y in points if not (0 <= x <= 3 and 12 <= y <= 15)}  # status cell
    with pytest.raises(NotATuringMachine) as info:
        extract_tm(recognize(points, atlas))
    assert info.value.reason is ExtractFailure.MALFORMED_STACK


def test_extract_without_packets(atlas):
    state = recognize(compile_direct(spec_with((), "101"), atlas), atlas)
    with pytest.raises(NotATuringMachine) as info:
        extract_tm(state)
    assert info.value.reason is ExtractFailure.NO_PACKETS


def test_extract_keeps_first_of_duplicate_keys(atlas):
    state = recognize(compile_direct(spec_with(PING_PONG, "1"), atlas), atlas)
    # clone the row-2 packet's key onto row 4 with a different write bit
    state = GameState(
        {
            **state.tiles,
            (1, 4): TileKind.READ_1,
            (2, 4): TileKind.STATUS_0,
            (3, 4): TileKind.WRITE_0,
            (4, 4): TileKind.CHANGE_0,
            (5, 4): TileKind.MOVE_0,
        }
    )
    recovered = extract_tm(state)
    matching = [r for r in recovered.rules if (r.read, r.state) == (1, 0)]
    assert matching == [Rule(1, 0, 1, 1, MOVE_RIGHT)]  # the row-2 packet wins


def _lockstep(spec, atlas, budget=1000):
    configs, halted = oracle_trajectory(spec, budget)
    pad = padding_for(spec, budget)
    state = recognize(compile_direct(spec, atlas, pad=pad), atlas)
    assert game_tape_text(state) == tape_text(configs[0])
    assert game_status(state) == configs[0].state
    for cfg in configs[1:]:
        state, outcome = step(state)
        assert isinstance(outcome, Fired), outcome
        assert game_tape_text(state) == tape_text(cfg)
        assert game_status(state) == cfg.state
    if halted:
        _, outcome = step(state)
        assert isinstance(outcome, Terminated)
    return halted


def test_lockstep_all_machines_small_corpus(atlas):
    # the heavyweight sweep lives in the acceptance suite; spot-check here
    for seed, (name, rules) in enumerate(LOCKSTEP_MACHINES.items()):
        for tape in random_tapes(seed, count=4, max_len=8):
            _lockstep(spec_with(rules, tape), atlas, budget=300)


def test_lockstep_budget_exhaustion_path(atlas):
    halted = _lockstep(spec_with(LOCKSTEP_MACHINES["zero_runner"], "000"), atlas, budget=40)
    assert not halted


def test_universal_load_consumes_five_generations_per_rule(atlas):
    spec = spec_with(PING_PONG, "1")  # payload replaces the machine's own tape
    state = recognize(compile_universal(spec, "1", atlas), atlas)
    assert state.junk_cells == 0
    gens = 0
    for _ in range(5 * len(spec.rules)):
        state, outcome = step(state)
        assert isinstance(outcome, RuleCopied), outcome
        gens += 1
    assert gens == 5 * len(spec.rules)
    # the loaded board now carries the same packets compile_direct lays out
    recovered = extract_tm(state)
    assert set(recovered.rules) == set(spec.rules)
    assert recovered.tape == "1"


def test_universal_matches_direct_final_tape(atlas):
    for seed, (name, rules) in enumerate(LOCKSTEP_MACHINES.items(), start=50):
        for payload in random_tapes(seed, count=3, max_len=6):
            spec = spec_with(rules, payload, head=len(payload) - 1)
            direct = recognize(compile_direct(spec, atlas), atlas)
            universal = recognize(compile_universal(spec, payload, atlas), atlas)
            loaded = universal
            for _ in range(5 * len(rules)):
                loaded, outcome = step(loaded)
                assert isinstance(outcome, RuleCopied)
            d = run(direct, 500)
            u = run(loaded, 500)
            assert d.status == u.status
            assert game_tape_text(d.final_state) == game_tape_text(u.final_state)


def test_universal_with_zero_rules_reads_payload_immediately(atlas):
    # no tokens to load: the tip sits over the payload and, with no packets
    # anywhere, the first read already ends the game
    state = recognize(compile_universal(spec_with((), "11"), "11", atlas), atlas)
    result = run(state, 10)
    assert result.status is RunStatus.HALTED
    assert result.generations_run == 0
