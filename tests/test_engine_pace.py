"""Engine pace: a generation's work and allocation do not grow with the tape.

A board of A x A without exactly one tip is refused without building a tile.

The row below the tip is a zipper of run-length stacks, so a fire or a rule
copy costs O(1) Python work and memory at any tape length. The run tests
state a loose wall-clock ceiling; the allocation guard measures bytes and
the node tests count the nodes a board's table holds, which machine load
does not change. The work tests pin the package lines a fire, a rule load,
indexing, a final digest and a traced fire run, exactly: any change to these
paths shows in them.

The boards are laid out tile by tile rather than recognized from points,
which would take longer than the runs; the first test pins the layouts to
compile_direct and compile_universal. Two work tests index a laid-out and a
recognized board: each holds its rows and tip cells from when it was made,
so both run the same lines. Extraction of an indexed board reads the
engine's record and lays out no row, and it reads the tape row by its runs,
so on a one-tip square it runs the same lines at any number of rows above
the tip, LINES_TO_EXTRACT_A_SQUARE of them. The solver tests pin the lines
of refusing and verifying a tipless set, and of solving a found one, per
member of A. A `simulate` through the CLI digests and counts its final state
from one hand-over (`_parts()`), and its lines are pinned as a ceiling.
"""

import contextlib
import io
import json
import random
import sys
import time
import tracemalloc
from unittest import mock

import pytest

from corpus import BOUNCE, ZERO_RUNNER, accept_a_with_full_blocks, game_tape_text, spec_with
from work import lines
from debilandia.cli import main
from debilandia.embedding import compile_direct, compile_universal, extract_tm, extract_tm_counted
from debilandia.engine import (
    Fired,
    RuleCopied,
    RunStatus,
    StopReason,
    Terminated,
    _Made,
    position_key,
    run,
    shared_of,
    step,
)
from debilandia.grid import GameState, SquarePoints, recognize, state_hash
from debilandia.instances import Certificate, Instance
from debilandia.solver import construct_certificate
from debilandia.tiles import TileKind, read_tile, slot_tile, status_tile, tape_tile
from debilandia.tm import MOVE_LEFT, Rule
from debilandia.verifier import verify

STEP_BYTES = 4096  # a step at L=1000 that copied the tape row's map would allocate about 36 KiB
# package line events: run's loop and step per fire, and five copies per rule loaded
LINES_PER_FIRE = 29
LINES_PER_RULE_LOADED = 215
# package line events of shared_of: per tape cell of a ZERO_RUNNER board, laid out or recognized, and per
# rule in a universal board's tape row
LINES_PER_TAPE_CELL_INDEXED = 6
LINES_PER_RULE_INDEXED = 60
# package line events of extract_tm_counted on an indexed one-tip square, at any number of full blocks
LINES_TO_EXTRACT_A_SQUARE = 73 if sys.version_info < (3, 12) else 69
# package line events of state_hash on ZERO_RUNNER's final state, whose tape row is a run and the head, at any
# tape length up to a block of lanes; and of run per traced fire, the fire, its record's digest and its diff,
# with the constant: the halt, and the fewer lines of the fires where a run is short enough to mix tile by tile
LINES_TO_DIGEST_A_FINAL_STATE = 212 if sys.version_info < (3, 12) else 204 if sys.version_info < (3, 13) else 195
LINES_PER_TRACED_FIRE, LINES_TRACED_BESIDE_THE_FIRES = (
    (447, -1236) if sys.version_info < (3, 12) else (435, -1244) if sys.version_info < (3, 13) else (426, -1253)
)
# package line events of `simulate` of ZERO_RUNNER's board at L = 400 through main, on 3.10 and 3.11: 35,254
# while its summary walked the final state's _parts() twice, 35,224 before that walk was added
LINES_TO_SIMULATE_400 = 35_223


def tokens(rule: Rule) -> list[TileKind]:
    bits = (rule.read, rule.state, rule.write, rule.next_state, 1 - rule.move)
    return [slot_tile(i, bit) for i, bit in enumerate(bits, start=1)]


def tip_stack(tc: int) -> dict:
    return {(tc, 1): TileKind.TIP, (tc, 2): read_tile(0), (tc, 3): status_tile(0)}


def direct_board(rules, tape: str) -> GameState:
    """compile_direct's layout, head on the tape's first cell, in status 0."""
    tiles = {(col, 0): tape_tile(int(ch)) for col, ch in enumerate(tape)} | tip_stack(0)
    for k, rule in enumerate(rules):
        tiles |= {(i, 2 + k): kind for i, kind in enumerate(tokens(rule), start=1)}
    return GameState(tiles)


def counted_rules(count: int) -> list[Rule]:
    """count rules: the 32 rules there are, in the order of their five bits, over and over."""
    return [Rule(k & 1, k >> 1 & 1, k >> 2 & 1, k >> 3 & 1, k >> 4 & 1) for k in range(count)]


def universal_board(rules, payload: str) -> GameState:
    """compile_universal's layout, for rule lists that may repeat a (read, state) key."""
    row = [tape_tile(int(ch)) for ch in payload] + [kind for rule in rules for kind in tokens(rule)][::-1]
    return GameState({(col, 0): kind for col, kind in enumerate(row)} | tip_stack(len(row) - 1))


def test_layouts_are_the_compilers(atlas):
    spec = spec_with(BOUNCE, "0110")
    assert direct_board(BOUNCE, "0110").tiles == recognize(compile_direct(spec, atlas), atlas).tiles
    spec = spec_with(BOUNCE, "0110", head=3)
    assert universal_board(BOUNCE, "0110").tiles == recognize(compile_universal(spec, "0110", atlas), atlas).tiles


def test_zero_runner_crosses_a_100k_cell_tape():
    # a step that copies the tape row makes this quadratic: about 0.85 ms per
    # generation at 64k cells on a 2-core VM; O(1) steps take about 0.016 ms
    # at any length, 1.6 s for the whole run
    length = 10**5
    state = direct_board(ZERO_RUNNER, "0" * length + "1")
    start = time.monotonic()
    result = run(state, length + 1)
    elapsed = time.monotonic() - start
    assert (result.status, result.reason, result.generations_run) == (
        RunStatus.HALTED,
        StopReason.NO_MATCHING_PACKET,
        length,
    )
    assert game_tape_text(result.final_state) == "1"
    assert elapsed < 15.0, f"{length} generations took {elapsed:.1f}s"


def test_rule_loading_over_a_10k_cell_payload():
    # 99 packets keyed on status 1, never entered, below the rule that walks
    # left: 500 copies slide the payload, then 10**4 fires read a deep stack
    rng = random.Random(6)
    never = [Rule(rng.randrange(2), 1, rng.randrange(2), rng.randrange(2), rng.randrange(2)) for _ in range(99)]
    rules = never + [Rule(0, 0, 0, 0, MOVE_LEFT)]
    payload = "1" + "0" * 10**4
    state = universal_board(rules, payload)
    start = time.monotonic()
    loaded = run(state, 5 * len(rules)).final_state
    result = run(loaded, 10**5)
    elapsed = time.monotonic() - start
    first = {}
    for rule in rules:
        first.setdefault((rule.read, rule.state), rule)
    spec = extract_tm(loaded)
    assert (spec.rules, spec.tape, spec.head) == (tuple(first.values()), payload, len(payload) - 1)
    assert (result.status, result.reason, result.generations_run) == (
        RunStatus.HALTED,
        StopReason.NO_MATCHING_PACKET,
        len(payload) - 1,
    )
    assert elapsed < 15.0, f"loading and running took {elapsed:.1f}s"


@pytest.mark.parametrize("length", [250, 10**3, 4 * 10**3])
def test_a_fire_runs_the_same_lines_at_any_tape_length(length):
    # ZERO_RUNNER halts after length fires; the board is indexed first, so
    # the count is the fires' and the run's own: its setup and the halt
    state = direct_board(ZERO_RUNNER, "0" * length + "1")
    shared_of(state)
    assert lines(run, state, length + 1) == LINES_PER_FIRE * length + 25


@pytest.mark.parametrize("length", [250, 10**3, 4 * 10**3])
def test_digesting_a_final_state_runs_the_same_lines_at_any_tape_length(length):
    # the tape row's runs are packed into lanes whole, so no line runs per
    # tile; the first digest of a process also builds the lanes' constants
    final = run(direct_board(ZERO_RUNNER, "0" * length + "1"), length + 1).final_state
    state_hash(final)
    assert lines(state_hash, final) == LINES_TO_DIGEST_A_FINAL_STATE


def test_a_simulate_summary_digests_and_counts_its_final_state_in_one_walk(tmp_path, atlas):
    # the final hash and the tile count come from one _parts() of the final state
    path = tmp_path / "points.json"
    board = compile_direct(spec_with(ZERO_RUNNER, "0" * 400 + "1"), atlas)
    path.write_text(json.dumps({"points": sorted(map(list, board))}))
    argv = ["simulate", "--points", str(path), "--max-gens", "1000"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with mock.patch.object(_Made, "_parts", autospec=True, side_effect=_Made._parts) as parts:
            assert main(argv) == 0
        counted = lines(main, argv)
    assert parts.call_count == 1
    assert json.loads(out.getvalue().splitlines()[0])["tiles"] == 409
    if sys.version_info < (3, 12):
        assert counted <= LINES_TO_SIMULATE_400


@pytest.mark.parametrize("length", [250, 10**3, 4 * 10**3])
def test_a_traced_fire_runs_the_same_lines_at_any_tape_length(length):
    # each record digests the state off its runs and diffs the tape row run
    # by run, so no line runs per tile of the tape
    state = direct_board(ZERO_RUNNER, "0" * length + "1")
    state_hash(state)
    shared_of(state)
    records = []
    assert lines(run, state, length + 1, records.append) == LINES_PER_TRACED_FIRE * length + LINES_TRACED_BESIDE_THE_FIRES
    assert len(records) == length + 1


@pytest.mark.parametrize("count", [10, 100, 10**3])
def test_loading_a_rule_runs_the_same_lines_at_any_packet_count(count):
    # five copies per rule; the first of each opens a fresh packet row, the
    # next three push it back onto the stack and the fifth completes it,
    # whatever the number of packets below it
    state = universal_board(counted_rules(count), "1" + "0" * 10)
    shared_of(state)
    assert lines(run, state, 5 * count) == LINES_PER_RULE_LOADED * count + 21


def indexing_extra(build) -> set[int]:
    """The lines of shared_of beyond LINES_PER_TAPE_CELL_INDEXED per tape cell, over three ZERO_RUNNER tapes."""
    boards = {n: build(ZERO_RUNNER, "0" * n + "1") for n in (250, 10**3, 4 * 10**3)}
    return {lines(shared_of, state) - LINES_PER_TAPE_CELL_INDEXED * n for n, state in boards.items()}


def test_indexing_runs_the_same_lines_per_tape_cell():
    # a laid-out board holds its rows and tip cells from when it was made, so
    # indexing regroups no tile and scans none for the tip; the slope is exact
    # on every Python; the constant is 106 lines on 3.10 and 3.11, 103 on 3.12
    # and 104 on 3.13
    extra = indexing_extra(direct_board)
    assert len(extra) == 1 and extra.pop() <= 106


def test_indexing_a_recognized_board_runs_the_same_lines_per_tape_cell(atlas):
    # recognize hands over its rows and tip as a laid-out board holds them,
    # so indexing either runs the same lines
    extra = indexing_extra(lambda spec, tape: recognize(compile_direct(spec_with(spec, tape), atlas), atlas))
    assert extra == indexing_extra(direct_board) and len(extra) == 1 and extra.pop() <= 106


def test_indexing_runs_the_same_lines_per_rule_on_the_tape():
    # the five tokens of each rule are tiles of the tape row that are not
    # tape tiles; the constant is 120 lines on 3.10 and 3.11, 118 on 3.12 and 3.13
    boards = {k: universal_board(counted_rules(k), "1" + "0" * 10) for k in (10, 100, 10**3)}
    extra = {lines(shared_of, state) - LINES_PER_RULE_INDEXED * k for k, state in boards.items()}
    assert len(extra) == 1 and extra.pop() <= 120


def test_extracting_an_indexed_square_runs_the_same_lines_at_any_size(atlas):
    # each full block adds a row of one complete packet above the tip;
    # extraction reads the tip context off the key and the count of packet
    # rows off the record, where laying the rows out again and classifying
    # them ran 26 lines per block; it counts its probes in its return line
    counted = set()
    for blocks in (100, 10**3, 10**4):
        state = recognize(SquarePoints(accept_a_with_full_blocks(blocks)), atlas)
        shared_of(state)
        counted.add(lines(extract_tm_counted, state))
    assert counted == {LINES_TO_EXTRACT_A_SQUARE}


def tipless(size: int) -> Instance:
    """A set of size members whose 4-blocks all have offsets {0, 3}: every cell of A x A is a tape tile."""
    return Instance(tuple(v for k in range(size // 2) for v in (44 + 4 * k, 47 + 4 * k)))


def extra_lines(fn, slope: int, args_of, sizes) -> set[int]:
    """The lines of fn(*args_of(n)) beyond slope per member of A, n = |A|, over the sizes."""
    return {lines(fn, *args_of(n)) - slope * n for n in sizes}


def test_refusing_a_tipless_set_runs_the_same_lines_per_member(atlas):
    # recognizing A x A reads each member and files each block by its mask,
    # and the tips are counted off the block groups, so no line runs per
    # cell; the constant is 49 lines on 3.10 and 3.11 (51 while the solver
    # sorted A again)
    extra = extra_lines(construct_certificate, 4, lambda n: (tipless(n), 1000, atlas), (200, 2000, 20000))
    assert len(extra) == 1 and extra.pop() <= 49


def test_verifying_a_tipless_set_runs_the_same_lines_per_member(atlas):
    # a Certificate's pair section is A x A, checked off A; the constant is
    # 115 lines on 3.10 and 3.11 (117 while verify sorted A again)
    def args_of(n: int) -> tuple:
        inst = tipless(n)
        return inst, Certificate(SquarePoints(inst.a_values), 1, 25), atlas

    extra = extra_lines(verify, 4, args_of, (200, 2000, 20000))
    assert len(extra) == 1 and extra.pop() <= 115


def test_solving_a_found_set_runs_the_same_lines_per_member(atlas):
    # ACCEPT_A plus full blocks: each full block adds a row of one complete
    # packet, laid out and classified once, and the run halts at its first
    # attempt. On 3.10 and 3.11 that is 13 lines a member and 291 more: 296
    # while the solver kept its cycle and budget branches, 295 while it
    # sorted A again. Python
    # 3.12 inlines list comprehensions (PEP 709), and classifying a row
    # builds one, so later Pythons are held to one slope and to the same
    # ceiling at every size
    counts = {}
    for blocks in (100, 1000, 10**4):
        inst = Instance(accept_a_with_full_blocks(blocks))
        counts[inst.size] = lines(construct_certificate, inst, 1000, atlas)
    (n1, c1), (n2, c2), (n3, c3) = counts.items()
    assert (c2 - c1) * (n3 - n2) == (c3 - c2) * (n2 - n1)
    assert all(count <= 13 * n + 291 for n, count in counts.items())
    if sys.version_info < (3, 12):
        assert len({count - 13 * n for n, count in counts.items()}) == 1


def allocated_by_one_step(state: GameState) -> tuple[GameState, object, int]:
    """One step of a keyed state: the successor, the outcome, and the peak bytes the step and its key take."""
    position_key(state)
    tracemalloc.start()
    try:
        new, outcome = step(state)
        position_key(new)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return new, outcome, peak


@pytest.mark.parametrize("length", [10**3, 64 * 10**3])
def test_one_step_allocates_a_bounded_amount_at_any_tape_length(length):
    # five copies load the walking rule, then fires walk the payload; the
    # fires after loading must take the zipper's path, not re-lay the row
    state = universal_board((Rule(0, 0, 0, 0, MOVE_LEFT),), "1" + "0" * length)
    for expected in [RuleCopied] * 5 + [Fired] * 3:
        state, outcome, peak = allocated_by_one_step(state)
        assert isinstance(outcome, expected)
        assert peak < STEP_BYTES, f"{outcome} allocated {peak} bytes"


def test_a_copy_onto_4000_packets_allocates_a_bounded_amount():
    # a copy that copied the map of packet rows would allocate about 145 KiB here
    packets = 4000
    rules = counted_rules(packets)
    tiles = {(-1, 0): tape_tile(0), (0, 0): read_tile(1)} | tip_stack(0)
    for k, rule in enumerate(rules):
        tiles |= {(i, 2 + k): kind for i, kind in enumerate(tokens(rule), start=1)}
    _, outcome, peak = allocated_by_one_step(GameState(tiles))
    assert outcome == RuleCopied(2 + packets, 1)
    assert peak < STEP_BYTES, f"{outcome} allocated {peak} bytes"


def test_indexing_a_uniform_tape_makes_the_same_nodes_at_any_length():
    # the zeros right of the head are one run, kept unboxed on top of the
    # right stack: the final 1 below it is the table's one node
    made = [len(shared_of(direct_board(ZERO_RUNNER, "0" * length + "1")).nodes) for length in (10**3, 64 * 10**3)]
    assert made == [1, 1]


def test_running_a_uniform_tape_to_the_halt_makes_no_node():
    # each fire takes a zero off the right run and writes one onto the left run
    state = direct_board(ZERO_RUNNER, "0" * 10**3 + "1")
    nodes = shared_of(state).nodes
    made = len(nodes)
    result = run(state, 10**3 + 1)
    assert (result.status, result.generations_run) == (RunStatus.HALTED, 10**3)
    assert len(nodes) == made


def test_rule_copies_pop_the_left_stack_without_interning():
    # left of the head lie four tokens, each a run of one, then the
    # payload's zeros and its 1: the top run and five nodes below it
    # a copy makes the next shared record, which shares the node table with
    # the one before; a fire keeps its state's record
    state = universal_board((Rule(0, 0, 0, 0, MOVE_LEFT),), "1" + "0" * 10**3)
    nodes = shared_of(state).nodes
    assert len(nodes) == 5

    def copy(state):
        new, outcome = step(state)
        assert isinstance(outcome, RuleCopied)
        assert new.shared is not state.shared
        assert new.shared.nodes is nodes
        return new

    for _ in range(4):  # a copy unboxes the run below the one it takes
        _, _, _, gap, beyond = state.key[:5]
        state = copy(state)
        assert state.key[:5] == (beyond.code, beyond.count, gap, beyond.gap, beyond.next)
    zeros = state.key[:5]
    state = copy(state)  # the last copy takes one zero off its run
    assert state.key[:5] == (zeros[0], zeros[1] - 1, *zeros[2:])
    assert len(nodes) == 5
    new, outcome = step(state)
    assert isinstance(outcome, Fired)
    assert new.shared is state.shared


@pytest.mark.parametrize("length", [250, 10**3])
def test_a_relaid_row_makes_a_bounded_number_of_nodes_per_fire(length):
    # a read tile far left in the tape row makes every fire re-lay the row;
    # only the runs next to it change their gap, and both are top runs, so
    # the read tile's own node is the one a fire may make. A re-lay that
    # interned one node per tile made about length / 2 per fire
    state = GameState(direct_board(ZERO_RUNNER, "0" * length + "1").tiles | {(-4010, 0): TileKind.READ_0})
    nodes = shared_of(state).nodes
    for _ in range(length):
        made = len(nodes)
        state, outcome = step(state)
        assert isinstance(outcome, Fired)
        assert len(nodes) - made <= 1
    assert step(state)[1] == Terminated(StopReason.NO_MATCHING_PACKET)
    assert game_tape_text(state) == "1"


def test_a_tipless_square_is_refused_without_building_its_tiles(atlas):
    # every 4-block of A has offsets {0, 3}, so the 640,000 cells of A x A
    # are all tape tiles and none is a tip; building them peaks at about 86 MB
    inst = tipless(1600)
    tracemalloc.start()
    try:
        outcome = construct_certificate(inst, 1000, atlas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (outcome.reason, outcome.cells_placed, outcome.cells_scanned) == (
        "not_a_turing_machine:no_tip",
        1600**2,
        640_000,
    )
    assert peak < 10**6, f"peaked at {peak} bytes"
