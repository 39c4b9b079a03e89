import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import ACCEPT_A, near_the_fixture, sweep_candidates
from grammar_oracle import build_candidate
from debilandia.embedding import NotATuringMachine, extract_tm
from debilandia.grid import SquarePoints, recognize
from debilandia.instances import MARKER_RUNS, MARKER_STOPS, RESERVED, Certificate, Instance
from debilandia.solver import (
    SAMPLE_POOL,
    construct_certificate,
    growth_probe,
    random_instance,
)
from debilandia.verifier import verify


def test_junk_only_instance_finds_nothing(atlas):
    outcome = construct_certificate(Instance((1, 3)), 8, atlas)
    assert not outcome.found
    assert outcome.reason.startswith("not_a_turing_machine")
    assert outcome.cells_placed == 4


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
    outcome = construct_certificate(inst, 16, atlas)
    assert outcome.found
    cert = outcome.certificate
    assert type(cert) is Certificate and type(cert.prefix) is SquarePoints
    assert cert.prefix.values == inst.a_values
    assert cert.marker == MARKER_STOPS
    assert cert.gens == 1  # the board halts on its first read attempt
    assert verify(inst, cert, atlas).accepted


def test_solver_is_deterministic(atlas):
    inst = Instance(ACCEPT_A)
    first = construct_certificate(inst, 16, atlas)
    second = construct_certificate(inst, 16, atlas)
    fields = [(o.certificate.prefix.values, o.certificate.gens, o.certificate.marker) for o in (first, second)]
    assert fields[0] == fields[1]


def test_default_arguments_solve_the_fixture(atlas):
    # no limit on |A|: the 16-member fixture solves with every default
    assert construct_certificate(Instance(ACCEPT_A), 8, atlas).found


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
    found = construct_certificate(inst, 16, atlas).found
    assert accepted == extracted == found


def test_any_budget_gives_the_same_certificate(atlas):
    # the run of a found set halts at its first attempt, under every atlas
    # (tests/atlas_oracle.py), so every budget of at least one gives (1, 25)
    for max_gens in (1, 2, 10**6):
        outcome = construct_certificate(Instance(ACCEPT_A), max_gens, atlas)
        assert (outcome.certificate.gens, outcome.certificate.marker, outcome.generations) == (1, MARKER_STOPS, 0)


def test_a_budget_below_one_generation_is_refused(atlas):
    with pytest.raises(ValueError, match="max_gens must be >= 1"):
        construct_certificate(Instance(ACCEPT_A), 0, atlas)
