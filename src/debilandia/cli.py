"""Command-line front end: simulate, verify, encode, solve, bench.

Exit codes: 0 success/accept, 1 reject or no certificate found, 2 malformed
input files or flags. Output files are written atomically (temp + rename),
all of a command's or none, and identical invocations on identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from functools import cache
from pathlib import Path
from typing import Callable, TextIO, TypeVar

from .engine import Fired, RuleCopied, StepRecord, Terminated, run
from .grid import hash_and_count, read_points, recognize, state_hash  # state_hash: perfbench/spans.py wraps cli.state_hash
from .instances import MARKER_RUNS, MARKER_STOPS, Certificate, Instance, load_instance_file, write_certificate
from .solver import SAMPLE_POOL, construct_certificate, growth_probe
from .tiles import TileAtlas, atlas_default
from .verifier import verify

T = TypeVar("T")


@contextmanager
def _named(path: Path | None) -> Iterator[None]:
    """Re-raise an OSError as one that names path (when given), not a temporary file."""
    try:
        yield
    except OSError as exc:
        if path is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _atomic_write(write: Callable[..., T], *paths: str | None) -> T:
    """Call write with a handle on a temporary file beside each path (None
    for a path that is None), then let the files replace their paths, and
    return write's result. A path that is a directory, whose parent is not
    one, or that names the directory entry another path names is refused
    before any file is made; on any error the files are removed, so no path
    is replaced unless every file was filled. An OSError names its path, not
    a temporary file; one that write raises names the path only when there
    is one."""
    outputs = [Path(name) for name in paths if name is not None]
    for path in outputs:
        if path.is_dir():  # os.replace would refuse it only after the filling
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if len(outputs) > 1:  # realpath costs a stat per component; one output cannot clash
        # os.replace replaces a symlink, not its target, so two outputs are
        # one file when they name one entry of one directory
        entries = set()
        for path in outputs:
            entry = (os.path.realpath(path.parent), path.name)
            if entry in entries:
                raise ValueError(f"two outputs name one file: {path}")
            entries.add(entry)
    files: list[tuple[Path, str, TextIO]] = []
    try:
        for path in outputs:
            import tempfile  # loaded by the first command that writes a file

            with _named(path):
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            files.append((path, tmp, os.fdopen(fd, "w")))
        handles = (handle for *_, handle in files)
        with _named(outputs[0] if len(outputs) == 1 else None):
            result = write(*(None if name is None else next(handles) for name in paths))
        # mkstemp makes the file 0600; give it the mode a plain open would
        os.umask(umask := os.umask(0))
        for path, tmp, handle in files:
            with _named(path):
                handle.close()
            os.chmod(tmp, 0o666 & ~umask)
        for path, tmp, _ in files:
            with _named(path):
                os.replace(tmp, path)
    except BaseException:
        for _, tmp, handle in files:
            with suppress(OSError):
                handle.close()
            with suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    return result


def _load_atlas(path: str | None) -> TileAtlas:
    return TileAtlas.load(path) if path else atlas_default()


def _parse_set_a(text: str) -> Instance:
    try:
        values = tuple(map(int, filter(str.strip, text.split(","))))
    except ValueError as exc:
        raise ValueError(f"--set-a must be comma-separated integers: {exc}") from exc
    return Instance(values)


def _check_floor(flag: str, value: int, floor: int) -> None:
    if value < floor:
        raise ValueError(f"{flag} must be at least {floor}, got {value}")


_OUTCOME_NAMES = {Fired: "fired", RuleCopied: "rule_copied"}


def _outcome_name(outcome) -> str:
    if isinstance(outcome, Terminated):
        return f"terminated:{outcome.reason.value}"
    return _OUTCOME_NAMES[type(outcome)]


_TRACE_LINE = '{"changed_cells": [%s], "gen": %d, "outcome": "%s", "state_hash": "%016x"}\n'


def _trace_writer(handle: TextIO | None) -> Callable[[StepRecord], None] | None:
    """An on_step that streams trace records into handle; None for no handle."""
    if handle is None:
        return None

    def emit(record: StepRecord) -> None:
        # json.dumps(..., sort_keys=True)'s bytes, written out: keys in order, ints and hex digits need no escaping
        cells = ", ".join(map("[%d, %d]".__mod__, record.changed_cells))
        outcome = _outcome_name(record.outcome)
        handle.write(_TRACE_LINE % (cells, record.gen, outcome, record.state_hash))

    return emit


def _cmd_simulate(args) -> int:
    _check_floor("--max-gens", args.max_gens, 0)
    atlas = _load_atlas(args.atlas)
    state = recognize(read_points(args.points), atlas)
    result = _atomic_write(lambda trace: run(state, args.max_gens, on_step=_trace_writer(trace)), args.trace or None)
    final_hash, tiles = hash_and_count(result.final_state)
    summary = {
        "status": result.status.value,
        "reason": result.reason.value if result.reason else None,
        "generations": result.generations_run,
        "period": result.period,
        "first_index": result.first_index,
        "tiles": tiles,
        "junk_cells": result.final_state.junk_cells,
        "final_hash": f"{final_hash:016x}",
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    atlas = _load_atlas(args.atlas)
    inst, items = load_instance_file(args.instance)

    def check(trace: TextIO | None, report_file: TextIO | None) -> dict:
        verdict = verify(inst, items, atlas, on_step=_trace_writer(trace)).to_json_obj()
        if report_file:
            report_file.write(json.dumps(verdict, indent=2, sort_keys=True) + "\n")
        return verdict

    verdict = _atomic_write(check, args.trace or None, args.report or None)
    print(json.dumps({k: verdict[k] for k in ("verdict", "reason", "step")}, sort_keys=True))
    return 0 if verdict["verdict"] == "accept" else 1


def _cmd_encode(args) -> int:
    _check_floor("--e", args.e, 0)
    inst = _parse_set_a(args.set_a)
    out = Path(args.out)
    text = out.with_suffix(".txt")  # _atomic_write refuses it when it is out itself
    cert = Certificate(inst.square, args.e, args.marker)

    def write_both(json_file: TextIO, text_file: TextIO) -> None:
        write_certificate(json_file, cert, as_json=True)
        write_certificate(text_file, cert, as_json=False)

    _atomic_write(write_both, str(out), str(text))
    print(f"wrote {out} and {text}")
    return 0


def _cmd_solve(args) -> int:
    _check_floor("--max-gens", args.max_gens, 1)
    atlas = _load_atlas(args.atlas)
    inst = _parse_set_a(args.set_a)
    if args.cap is not None and inst.size > args.cap:
        raise ValueError(f"|A| = {inst.size} exceeds the cap of {args.cap}")
    outcome = construct_certificate(inst, args.max_gens, atlas)
    if not outcome.found:
        print(f"no certificate: {outcome.reason}", file=sys.stderr)
        return 1
    _atomic_write(lambda handle: write_certificate(handle, outcome.certificate, as_json=True), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    _check_floor("--trials", args.trials, 1)
    _check_floor("--max-gens", args.max_gens, 1)
    for size in sizes:
        if not 1 <= size <= len(SAMPLE_POOL):
            raise ValueError(f"--sizes values must lie in 1..{len(SAMPLE_POOL)}, got {size}")
    atlas = _load_atlas(args.atlas)
    rows = growth_probe(sizes, args.trials, atlas, max_gens=args.max_gens, seed=args.seed)

    def write_rows(handle: TextIO) -> None:
        import csv  # only bench writes CSV

        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["m", "trial", "cells_placed", "factorial_sq_claim", "generations", "cells_scanned", "found"])
        writer.writerows([*row[:-1], int(row.found)] for row in rows)

    _atomic_write(write_rows, args.csv)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


# built once per process: parse_args fills a fresh namespace from the
# defaults on every call and never changes the parser
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="debilandia", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a board from a points file, streaming a trace")
    p.add_argument("--points", required=True)
    p.add_argument("--atlas")
    p.add_argument("--max-gens", type=int, default=1000)
    p.add_argument("--trace")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="check a certificate instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--atlas")
    p.add_argument("--trace")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("encode", help="emit the canonical certificate skeleton for a set A")
    p.add_argument("--set-a", required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--marker", type=int, choices=[MARKER_STOPS, MARKER_RUNS], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("solve", help="construct an accepting certificate when one exists")
    p.add_argument("--set-a", required=True)
    p.add_argument("--atlas")
    p.add_argument("--max-gens", type=int, default=1000)
    p.add_argument("--cap", type=int, help="refuse a set A with more than CAP members")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="measure construction cost over random instances")
    p.add_argument("--sizes", required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-gens", type=int, default=32)
    p.add_argument("--atlas")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
