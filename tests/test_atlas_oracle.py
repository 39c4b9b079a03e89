"""The decision problem under any atlas (tests/atlas_oracle.py), and the firing corpus.

A one-tip square that extracts halts at its first attempt, under every
atlas, so `solve` finds (1, 25) and `verify` accepts exactly (0, 43) and
(E >= 1, 25). Tier-1 checks that on 10**4 generated (word, atlas) pairs;
`tests/atlas_sweep.py` checks many more. The squares of the firing corpus
(tests/firing/) copy rule tiles and then fire, which no square does under
the packaged atlas; none extracts. Each runs against the dict engine of
`test_engine_oracle.py` and the per-tile digest of `test_hash_oracle.py`,
and `test_cli.py` pins a `verify --atlas` report on one.
"""

import time

import pytest

from atlas_oracle import NOT_RANK_1, RANK_1, check, firing_squares, mask_of, outcomes, pairs
from test_engine_oracle import assert_engines_agree, assert_extraction_agrees, extracted
from test_hash_oracle import assert_trace_digests_agree
from word_oracle import values_of
from debilandia.embedding import ExtractFailure, extract_tm_counted
from debilandia.engine import Fired, RuleCopied, RunStatus, run
from debilandia.grid import SquarePoints, recognize
from debilandia.instances import MARKER_STOPS, Certificate, Instance, RejectReason
from debilandia.solver import construct_certificate
from debilandia.verifier import verify

SQUARES = {name: (word, atlas) for name, word, atlas in firing_squares()}
BUDGET = 50  # generations: every square of the corpus but long_fire halts or cycles within it
LONG_FIRE_BUDGET = 1010  # long_fire halts at generation 1,006


def test_a_rank_1_mask_names_one_mask_pair():
    # 15 x 15 (x mask, y mask) pairs give 225 distinct masks, so a kind with
    # a rank-1 mask arises from one pair of blocks, and one without from none
    assert len(RANK_1) == 15 * 15 and len(NOT_RANK_1) == 2**16 - 1 - 225
    assert all(mask_of(x, y) == mask for mask, (x, y) in RANK_1.items())


def test_the_theorem_holds_on_ten_thousand_generated_squares():
    # 3.3-5 s on a 2-core VM with Python 3.11.7; every pair has one tip
    start = time.monotonic()
    tally = [check(word, atlas) for word, atlas in pairs(0, 10_000)]
    elapsed = time.monotonic() - start
    assert None not in tally
    found, fired = sum(hit for hit, _ in tally), sum(fires > 0 for _, fires in tally)
    assert found > 300 and fired > 800, (found, fired)
    assert elapsed < 60, f"10,000 squares took {elapsed:.1f}s"


def assert_oracles_agree_on(name: str, max_gens: int) -> None:
    """The corpus square against the dict engine, each traced record against the per-tile digest, and extraction."""
    word, atlas = SQUARES[name]
    values = values_of(word)
    assert_engines_agree(recognize(SquarePoints(values), atlas), max_gens)
    assert_trace_digests_agree(recognize(SquarePoints(values), atlas), max_gens)
    # the tile under the tip is the status kind, a rule tile; extraction
    # refuses the square, and reads each state of its run as the dict engine does
    state = recognize(SquarePoints(values), atlas)
    assert extracted(extract_tm_counted, state) is ExtractFailure.BROKEN_TAPE
    assert_extraction_agrees(state, (4, 5, 6))


@pytest.mark.parametrize("name", sorted(SQUARES))
def test_the_oracles_agree_on_every_square_of_the_corpus(name):
    # long_fire's 1,002 fires take about 55 s on the dict engine, so tier-1
    # runs its copies and first 36 fires; a CI step runs it to the halt
    assert_oracles_agree_on(name, 40 if name == "long_fire" else BUDGET)


def test_every_square_of_the_corpus_copies_then_fires_and_extracts_nothing():
    assert len(SQUARES) >= 12
    runs = {}
    for name, (word, atlas) in SQUARES.items():
        values = values_of(word)
        state = recognize(SquarePoints(values), atlas)
        assert state.tip_count() == 1, name
        # a cell of A x A holds the kind of its two blocks' mask pair
        for (col, row), kind in state.tiles.items():
            assert atlas.patterns[kind] == mask_of(word[col], word[row]), name
        result = run(state, LONG_FIRE_BUDGET)
        kinds = [type(outcome) for outcome in outcomes(state, result.generations_run)]
        assert kinds[:4] == [RuleCopied] * 4 and set(kinds[4:]) == {Fired}, name
        runs[name] = (result.status, result.generations_run, result.first_index, result.period)
        outcome = construct_certificate(Instance(values), 1, atlas)
        assert (outcome.found, outcome.reason) == (False, "not_a_turing_machine:broken_tape"), name
    # each block of the tape kind's x mask in front of long_fire's tape adds
    # a fire; the cycle square's atlas lays a second packet, keyed on the
    # status the first one writes, and the two send the tape back and forth
    assert runs.pop("long_fire") == (RunStatus.HALTED, 1006, None, None)  # 4 copies and 1,002 fires
    assert runs.pop("cycle") == (RunStatus.CYCLE, 7, 5, 2)
    assert {status for status, *_ in runs.values()} == {RunStatus.HALTED}


def test_verify_runs_a_firing_square_for_its_claim_and_rejects_it_at_step_6():
    # c5 counts the fours, each attempted generation, the halting one too
    # (test_cli.py pins a report of one), and the marker
    for name, gens, attempts in [("square_05", 3, 3), ("cycle", 20, 7)]:
        word, atlas = SQUARES[name]
        values = values_of(word)
        report = verify(Instance(values), Certificate(SquarePoints(values), gens, MARKER_STOPS), atlas)
        assert (report.accepted, report.reason, report.step) == (False, RejectReason.NOT_A_TM, 6), name
        assert report.ledger.c5 == gens + attempts + 1, (name, gens)
