"""Differential tests: the certificate writer against the list oracle.

`encode` and `solve` write a `Certificate(SquarePoints(A), E, marker)` with
`instances.write_certificate`, which streams the pair section from
`square_rows` and the run of fours a block at a time. The bytes must equal
the old writer's: `grammar_oracle.build_candidate`'s list rendered whole by
`json.dumps(indent=2, sort_keys=True)` or `str.join`. Every JSON file
written must load back as a proven section that `verify` reads as the list.
The writer's package lines are pinned: four per member of A and a constant,
whatever the number of fours.
"""

import contextlib
import io
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import near_the_fixture
from grammar_oracle import build_candidate, flat_text, instance_obj, json_text
from work import lines
from debilandia.cli import main
from debilandia.grid import SquarePoints
from debilandia.instances import RESERVED, Certificate, Instance, load_instance_file, write_certificate
from debilandia.solver import construct_certificate
from debilandia.verifier import verify

POOL = [v for v in range(1, 120) if v not in RESERVED]
MAX_GENS = 16
# package line events of write_certificate past four per member of A (a row of square_rows), as JSON and as
# text: 14 and 13 on Python 3.10 and 3.11, 13 and 12 on 3.12 and 3.13
WRITE_LINES = {True: 14, False: 13} if sys.version_info < (3, 12) else {True: 13, False: 12}


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=80, deadline=None)
@given(
    # sets near the fixture mostly solve, so solve writes a file too
    values=st.sets(st.sampled_from(POOL), min_size=1, max_size=40) | near_the_fixture().map(lambda v: v - RESERVED),
    gens=st.one_of(st.integers(0, 6), st.just(4097)),  # 4,097 crosses one 4,096-four block
    marker=st.sampled_from([25, 43]),
)
def test_encode_and_solve_write_the_oracle_bytes(atlas, values, gens, marker):
    inst = Instance(tuple(values))
    set_a = ",".join(map(str, values))
    items = build_candidate(inst, gens, marker)
    with tempfile.TemporaryDirectory() as tmp:
        out, solved = Path(tmp) / "cert.json", Path(tmp) / "solved.json"
        encode = ["encode", "--set-a", set_a, "--e", str(gens), "--marker", str(marker), "--out", str(out)]
        assert quiet_main(encode) == 0
        assert out.read_bytes() == json_text(instance_obj(inst, items)).encode()
        assert out.with_suffix(".txt").read_bytes() == flat_text(items).encode()
        loaded_inst, loaded = load_instance_file(out)
        assert loaded_inst == inst
        assert type(loaded) is Certificate and type(loaded.prefix) is SquarePoints
        assert (loaded.prefix.values, loaded.gens, loaded.marker) == (inst.a_values, gens, marker)
        assert verify(inst, loaded, atlas).to_json_obj() == verify(inst, items, atlas).to_json_obj()

        rc = quiet_main(["solve", "--set-a", set_a, "--max-gens", str(MAX_GENS), "--out", str(solved)])
        outcome = construct_certificate(inst, MAX_GENS, atlas)
        assert rc == (0 if outcome.found else 1) and solved.exists() == outcome.found
        if outcome.found:
            cert = outcome.certificate
            solved_items = build_candidate(inst, cert.gens, cert.marker)
            assert solved.read_bytes() == json_text(instance_obj(inst, solved_items)).encode()
            _, loaded = load_instance_file(solved)
            assert type(loaded.prefix) is SquarePoints and (loaded.gens, loaded.marker) == (cert.gens, cert.marker)
            assert verify(inst, loaded, atlas).accepted and verify(inst, solved_items, atlas).accepted


def test_encode_memory_is_flat_in_the_generation_count(tmp_path):
    # the run goes out a 4,096-four block at a time (peaks of 44 and 80 KB);
    # the old writer held the list and its JSON text, 0.5 and 88 MB
    set_a = ",".join(map(str, POOL[:40]))

    def peak(gens: int) -> int:
        argv = ["encode", "--set-a", set_a, "--e", str(gens), "--marker", "43", "--out", str(tmp_path / "c.json")]
        quiet_main(argv)  # warm up
        tracemalloc.start()
        try:
            assert quiet_main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**3), peak(10**6)
    assert (tmp_path / "c.json").stat().st_size > 7 * 10**6
    assert large < small + 128 * 1024, (small, large)


@pytest.mark.parametrize("as_json", [True, False])
def test_writing_runs_four_lines_per_member_at_any_generation_count(as_json):
    # the run goes out in writelines calls, a 4,096-four block each, so no
    # line runs per four or per block
    extra = set()
    with open(os.devnull, "w") as sink:
        for size in (16, 40, 100):
            prefix = SquarePoints(POOL[:size])
            for gens in (0, 1, 4095, 4096, 4097, 10**6):
                extra.add(lines(write_certificate, sink, Certificate(prefix, gens, 43), as_json) - 4 * size)
    assert len(extra) == 1 and extra.pop() <= WRITE_LINES[as_json]
