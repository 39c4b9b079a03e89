"""The decision problem against its closed form (tests/word_oracle.py).

Under the packaged atlas a board of A x A is a function of A's block-mask
word: `decide(A)` says whether `solve` finds a certificate, `accepted` what
`verify` accepts, and no run of such a board fires or runs more than 10
generations. The oracle's table is derived from the atlas, so a changed atlas
fails here rather than leaving a stale oracle. `tests/word_sweep.py` checks
every 7-block word with one tip the same way, outside tier-1.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A, accept_a_with_full_blocks
from test_square_paths import SETS
from word_oracle import FIXTURE_WORD, PAIRS, TIP_X, TIP_Y, accepted, decide, values_of, word
from word_sweep import ALPHABET
from debilandia.engine import Fired, RuleCopied, RunStatus, StopReason, run
from debilandia.grid import SquarePoints, recognize
from debilandia.instances import MARKER_RUNS, MARKER_STOPS, Certificate, Instance
from debilandia.solver import construct_certificate
from debilandia.tiles import CELL, TileKind
from debilandia.verifier import verify


@st.composite
def fixture_noise(draw) -> tuple[int, ...]:
    """The fixture word at a random block, with random blocks (0 is an empty one) on either side."""
    masks = draw(st.lists(st.integers(0, (1 << CELL) - 1), max_size=6))
    at = draw(st.integers(0, len(masks)))
    masks[at:at] = FIXTURE_WORD
    return values_of(tuple(masks))


@st.composite
def one_tip_words(draw) -> tuple[int, ...]:
    """A word with one block of each tip mask among blocks of the exhaustive sweep's alphabet."""
    masks = draw(st.lists(st.sampled_from(ALPHABET), max_size=7))
    for mask in (TIP_X, TIP_Y):
        masks.insert(draw(st.integers(0, len(masks))), mask)
    return values_of(tuple(masks))


WORD_SETS = st.one_of(SETS, fixture_noise(), one_tip_words())


def test_each_tile_kind_arises_from_exactly_one_mask_pair():
    assert sorted(PAIRS, key=list(TileKind).index) == list(TileKind)
    assert all(len(pairs) == 1 for pairs in PAIRS.values()), PAIRS
    # the tip's y mask is the x mask of a packet's first tile, READ_1, and the
    # packet the fixture word spells lies in one row
    assert PAIRS[TileKind.READ_1][0][0] == TIP_Y
    rows = {PAIRS[kind][0][1] for kind in (TileKind.READ_1, TileKind.STATUS_1, TileKind.WRITE_1, TileKind.MOVE_1)}
    assert rows == {PAIRS[TileKind.CHANGE_1][0][1]}


def test_the_fixture_word_is_the_accepting_set():
    assert tuple(word(ACCEPT_A)) == FIXTURE_WORD == (9, 3, 15, 5, 7, 11)
    assert decide(ACCEPT_A) and accepted(ACCEPT_A, 0, MARKER_RUNS) and accepted(ACCEPT_A, 4, MARKER_STOPS)
    assert not decide(ACCEPT_A + (75, 78))  # a second block of mask 9 after it makes a second tip


@settings(max_examples=150, deadline=None)
@given(values=WORD_SETS)
def test_solve_finds_a_certificate_exactly_when_the_word_decides(atlas, values):
    outcome = construct_certificate(Instance(tuple(values)), 16, atlas)
    assert outcome.found == decide(values)
    if outcome.found:
        assert (outcome.certificate.gens, outcome.certificate.marker) == (1, MARKER_STOPS)


@settings(max_examples=60, deadline=None)
@given(values=WORD_SETS)
def test_verify_accepts_exactly_what_the_closed_form_accepts(atlas, values):
    inst = Instance(tuple(values))
    for gens in range(4):
        for marker in (MARKER_STOPS, MARKER_RUNS):
            report = verify(inst, Certificate(SquarePoints(inst.a_values), gens, marker), atlas)
            assert report.accepted == accepted(values, gens, marker), (gens, marker, report.reason)


@settings(max_examples=150, deadline=None)
@given(values=WORD_SETS)
def test_no_run_of_a_square_fires_or_outlasts_ten_generations(atlas, values):
    steps = []
    result = run(recognize(SquarePoints(values), atlas), 50, on_step=steps.append)
    assert result.status is RunStatus.HALTED and result.generations_run <= 10
    assert not [record for record in steps if isinstance(record.outcome, Fired)]


def test_a_run_of_a_square_copies_rules_and_stops(atlas):
    # the tape row, of y mask 15, holds READ_0 below the tip and, left of
    # it, STATUS_1, WRITE_1 and CHANGE_1: four copies fill slots 1-4 of a
    # fresh packet row, then the tip finds nothing below it
    steps = []
    result = run(recognize(SquarePoints(values_of((7, 5, 15, 9, 15, 3))), atlas), 50, on_step=steps.append)
    assert [record.outcome for record in steps[:-1]] == [RuleCopied(6, slot) for slot in range(1, 5)]
    assert (result.status, result.reason, result.generations_run) == (RunStatus.HALTED, StopReason.NOTHING_BELOW_TIP, 4)


def solve_and_verify_a_found_set(atlas, blocks: int) -> None:
    """ACCEPT_A plus blocks full blocks is solved as (1, 25), and verify accepts that certificate, as decide says.

    Also a CI step, at 250,000 blocks (|A| = 1,000,016): see .github/workflows/tests.yml.
    """
    values = accept_a_with_full_blocks(blocks)
    inst = Instance(values)
    assert inst.size == len(ACCEPT_A) + CELL * blocks and decide(values)
    outcome = construct_certificate(inst, 16, atlas)
    assert outcome.found and (outcome.certificate.gens, outcome.certificate.marker) == (1, MARKER_STOPS)
    report = verify(inst, outcome.certificate, atlas)
    assert report.accepted and accepted(values, 1, MARKER_STOPS)


def test_a_found_set_of_100016_is_solved_and_verified(atlas):
    # ACCEPT_A plus 25,000 full blocks: every row of mask 15 above the tip
    # holds a complete packet, and each y block group is laid out once
    solve_and_verify_a_found_set(atlas, 25_000)
