"""Command-line front end: simulate, verify, encode, solve, bench.

Exit codes: 0 success/accept, 1 reject or no certificate found, 2 malformed
input files or flags. Output files are written atomically (temp + rename)
and identical invocations on identical inputs produce byte-identical output.
The DEBILANDIA_ATLAS environment variable points at an alternative atlas
file; --atlas (where offered) wins over the environment.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import astuple
from functools import cache
from pathlib import Path
from typing import Callable, TextIO, TypeVar

from .engine import Fired, RuleCopied, StepRecord, Terminated, run
from .grid import SquarePoints, read_points, recognize, state_hash
from .instances import MARKER_RUNS, MARKER_STOPS, Certificate, Instance, load_instance_file, write_certificate
from .solver import SAMPLE_POOL, construct_certificate, growth_probe
from .tiles import TileAtlas, atlas_default
from .verifier import verify

ENV_ATLAS = "DEBILANDIA_ATLAS"

T = TypeVar("T")


def _atomic_write(path: Path, write: Callable[[TextIO], T]) -> T:
    """Stream write(handle) into a temporary file beside path, which then replaces
    path, and return its result; an OSError names path, not that file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w") as handle:
                result = write(handle)
            # mkstemp makes the file 0600; give it the mode a plain open would
            os.umask(umask := os.umask(0))
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    return result


def _load_atlas(explicit: str | None) -> TileAtlas:
    path = explicit or os.environ.get(ENV_ATLAS)
    if path:
        return TileAtlas.load(path)
    return atlas_default()


def _parse_set_a(text: str) -> Instance:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
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


def _trace_writer(handle):
    def emit(record: StepRecord) -> None:
        line = {
            "gen": record.gen,
            "outcome": _outcome_name(record.outcome),
            "state_hash": f"{record.state_hash:016x}",
            "changed_cells": [list(cell) for cell in record.changed_cells],
        }
        handle.write(json.dumps(line, sort_keys=True) + "\n")

    return emit


def _traced(trace: str | None, call: Callable[..., T]) -> T:
    """call(on_step), where on_step is None or streams trace records into the file trace names."""
    return _atomic_write(Path(trace), lambda handle: call(_trace_writer(handle))) if trace else call(None)


def _cmd_simulate(args) -> int:
    _check_floor("--max-gens", args.max_gens, 0)
    atlas = _load_atlas(args.atlas)
    state = recognize(read_points(args.points), atlas)
    result = _traced(args.trace, lambda on_step: run(state, args.max_gens, on_step=on_step))
    summary = {
        "status": result.status.value,
        "reason": result.reason.value if result.reason else None,
        "generations": result.generations_run,
        "period": result.period,
        "first_index": result.first_index,
        "tiles": result.final_state.tile_count(),
        "junk_cells": result.final_state.junk_cells,
        "final_hash": f"{state_hash(result.final_state):016x}",
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    atlas = _load_atlas(args.atlas)
    inst, items = load_instance_file(args.instance)
    report = _traced(args.trace, lambda on_step: verify(inst, items, atlas, on_step=on_step))
    verdict = report.to_json_obj()
    if args.report:
        text = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
        _atomic_write(Path(args.report), lambda handle: handle.write(text))
    print(json.dumps({k: verdict[k] for k in ("verdict", "reason", "step")}, sort_keys=True))
    return 0 if report.accepted else 1


def _cmd_encode(args) -> int:
    _check_floor("--e", args.e, 0)
    inst = _parse_set_a(args.set_a)
    out = Path(args.out)
    text = out.with_suffix(".txt")
    if text == out:
        raise ValueError(f"--out {out} would be overwritten by the text form; give it another suffix")
    cert = Certificate(SquarePoints(inst.a_values), args.e, args.marker)
    _atomic_write(out, lambda handle: write_certificate(handle, cert, as_json=True))
    _atomic_write(text, lambda handle: write_certificate(handle, cert, as_json=False))
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
    _atomic_write(Path(args.out), lambda handle: write_certificate(handle, outcome.certificate, as_json=True))
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
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["m", "trial", "cells_placed", "factorial_sq_claim", "generations", "cells_scanned", "found"])
        writer.writerows([*astuple(row)[:-1], int(row.found)] for row in rows)

    _atomic_write(Path(args.csv), write_rows)
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


if __name__ == "__main__":
    sys.exit(main())
