import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A, sweep_candidates
from grammar_oracle import read_sections
from debilandia.embedding import NotATuringMachine, extract_tm
from debilandia.grid import SquarePoints, recognize
from debilandia.instances import MARKER_RUNS, MARKER_STOPS, RESERVED, Instance, build_candidate
from debilandia.solver import (
    SAMPLE_POOL,
    SolverCapError,
    construct_certificate,
    growth_probe,
    random_instance,
)
from debilandia.verifier import verify


def test_junk_only_instance_finds_nothing(atlas):
    outcome = construct_certificate(Instance((1, 3)), 8, atlas)
    assert not outcome.found
    assert outcome.reason.startswith("not_a_turing_machine")
    assert outcome.stats.cells_placed == 4


def test_none_found_backed_by_exhaustive_sweep(atlas):
    # no (gen count, marker) candidate is accepted when the solver gives up
    for values in [(1,), (1, 3), (9, 10, 11)]:
        inst = Instance(values)
        assert not construct_certificate(inst, 6, atlas).found
        assert sweep_candidates(inst, 6, atlas) == []


def test_small_sets_can_never_host_a_machine(atlas):
    # a packet needs five columns right of the tip: six consecutive occupied
    # blocks, so |A| <= 5 is structurally hopeless regardless of values
    for values in [(1,), (1, 3), (8, 9, 10)]:
        outcome = construct_certificate(Instance(values), 4, atlas)
        assert not outcome.found


def test_accepting_fixture_is_found_and_verifies(atlas):
    inst = Instance(ACCEPT_A)
    outcome = construct_certificate(inst, 16, atlas, cap=len(ACCEPT_A))
    assert outcome.found
    _, gens, marker = read_sections(inst, outcome.certificate)
    assert marker == MARKER_STOPS
    assert gens == 1  # the board halts on its first read attempt
    assert verify(inst, outcome.certificate, atlas).accepted


def test_solver_is_deterministic(atlas):
    inst = Instance(ACCEPT_A)
    first = construct_certificate(inst, 16, atlas, cap=16)
    second = construct_certificate(inst, 16, atlas, cap=16)
    assert first.certificate == second.certificate


def test_cap_refusal(atlas):
    with pytest.raises(SolverCapError, match="exponential"):
        construct_certificate(Instance(ACCEPT_A), 8, atlas)  # default cap is 4


def test_growth_probe_counts(atlas):
    rows = growth_probe([1, 2, 3], trials=3, atlas=atlas, max_gens=8, seed=11)
    assert len(rows) == 9
    for row in rows:
        assert row.cells_placed == row.size_m**2
        assert row.factorial_sq_claim == math.factorial(row.size_m) ** 2
        assert row.cells_scanned >= 1


def test_growth_probe_empty_sizes(atlas):
    assert growth_probe([], trials=3, atlas=atlas) == []


def test_random_instance_respects_reserved():
    import random

    rng = random.Random(3)
    for _ in range(50):
        inst = random_instance(rng, 4)
        assert len(inst.a_values) == 4


@st.composite
def near_the_fixture(draw) -> set[int]:
    """The accepting set translated, then maybe with one element added or removed."""
    shift = draw(st.integers(-7, 10**4))
    values = {a + shift for a in ACCEPT_A}
    edit = draw(st.sampled_from(["none", "add", "remove"]))
    if edit == "add":
        values.add(draw(st.integers(min(values) - 8, max(values) + 8)))
    elif edit == "remove":
        values.discard(draw(st.sampled_from(sorted(values))))
    return values


@settings(max_examples=150, deadline=None)
@given(values=near_the_fixture() | st.sets(st.sampled_from(SAMPLE_POOL), min_size=1, max_size=24))
@example(values=set(ACCEPT_A))
@example(values={1, 3})
def test_the_problem_is_decided_by_structure_alone(atlas, values):
    # once a machine is extracted the two markers are complementary at every E,
    # so the E = 0 certificate with marker 43 decides the instance
    assume(not values & RESERVED)
    inst = Instance(tuple(values))
    accepted = verify(inst, build_candidate(inst, 0, MARKER_RUNS), atlas).accepted
    try:
        extract_tm(recognize(SquarePoints(inst.a_values), atlas))
        extracted = True
    except NotATuringMachine:
        extracted = False
    found = construct_certificate(inst, 16, atlas, cap=inst.size).found
    assert accepted == extracted == found
