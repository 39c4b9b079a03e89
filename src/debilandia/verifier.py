"""Certificate checking with per-phase step accounting.

The check runs eight phases in order and rejects at the first failure:

1. the list opens with 2
2-3. pair grouping up to the 5, then distinctness and A x A coverage
4. point placement, tile recognition, and the structural machine probe
5. count the fours to E, then run the board for exactly E generations
6. reject here when phase 4 found no machine structure
7. read and validate the final marker
8. marker 25 needs the game stopped (terminated or cycling) within its E
   generations, marker 43 needs it still running; nothing may follow

Each phase has a declared step ceiling (a worst-case budget, not an exact
tally): 1, 2P+T+1, P+17T, 2E+ET+3, ET, 2 and 2. Phase counters hold the
abstract touches actually spent - one per list element examined, per point
placed, per cell probed, per generation attempted. The machine probe runs
once on the initial board and is charged to phase 4's budget, which keeps
phase 6 at zero and makes E = 0 certificates face the same structural check
as any other. Summing the ceiling formulas gives 2ET + 2E + 3P + 18T + 9;
the closed-form step total used for reporting is one higher,
f = 2ET + 2E + 3P + 18T + 10, and the checker's work is bounded by
2N^2 + 33N with N = P + E + T + 4. That polynomial bound is asserted on
every report; f itself is reported but is not an upper bound for the
itemized sum.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .embedding import NotATuringMachine, extract_tm_counted
from .engine import RunResult, RunStatus, StepRecord, run
from .grid import SquarePoints, recognize
from .instances import (
    MARKER_STOPS,
    Certificate,
    Instance,
    RejectReason,
    RejectedCertificate,
    check_coverage,
    group_tuples,
    scan_tail,
)
from .tiles import TileAtlas

_REASON_STEP = {
    RejectReason.CONDITION_1: 1,
    RejectReason.CONDITION_2: 2,
    RejectReason.CONDITION_3: 3,
    RejectReason.CONDITION_4: 3,
    RejectReason.CONDITION_5: 5,
    RejectReason.NOT_A_TM: 6,
    RejectReason.CONDITION_7: 7,
    RejectReason.VERDICT_MISMATCH: 8,
    RejectReason.TRAILING_INPUT: 8,
}


class CostLedger:
    __slots__ = ("t_count", "p_count", "gen_count", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")

    def __init__(self, t_count: int = 0, p_count: int = 0, gen_count: int = 0) -> None:
        self.t_count, self.p_count, self.gen_count = t_count, p_count, gen_count
        self.c1 = self.c2 = self.c3 = self.c4 = self.c5 = self.c6 = self.c7 = self.c8 = 0

    @property
    def n_input(self) -> int:
        return self.p_count + self.gen_count + self.t_count + 4

    @property
    def total_counted(self) -> int:
        return self.c1 + self.c2 + self.c3 + self.c4 + self.c5 + self.c6 + self.c7 + self.c8

    def brackets(self) -> dict[str, tuple[int, int]]:
        """Counter name -> (spent, ceiling)."""
        t, p, e = self.t_count, self.p_count, self.gen_count
        return {
            "c1": (self.c1, 1),
            "c2_3": (self.c2 + self.c3, 2 * p + t + 1),
            "c4": (self.c4, p + 17 * t),
            "c5": (self.c5, 2 * e + e * t + 3),
            "c6": (self.c6, e * t),
            "c7": (self.c7, 2),
            "c8": (self.c8, 2),
        }


def f_formula(t_count: int, p_count: int, gen_count: int) -> int:
    """Closed-form step total: 2ET + 2E + 3P + 18T + 10."""
    return 2 * gen_count * t_count + 2 * gen_count + 3 * p_count + 18 * t_count + 10


def f_of(ledger: CostLedger) -> int:
    return f_formula(ledger.t_count, ledger.p_count, ledger.gen_count)


def bound_of(n_input: int) -> int:
    """Polynomial ceiling 2N^2 + 33N on the checker's work."""
    if n_input < 0:
        raise ValueError("N must be >= 0")
    return 2 * n_input * n_input + 33 * n_input


def bracket_ceiling_total(t_count: int, p_count: int, gen_count: int) -> int:
    """Sum of the per-phase ceilings; one below f_formula by construction."""
    ledger = CostLedger(t_count=t_count, p_count=p_count, gen_count=gen_count)
    return sum(ceiling for _, ceiling in ledger.brackets().values())


class VerifierReport(NamedTuple):
    accepted: bool
    ledger: CostLedger
    reason: RejectReason | None = None
    step: int | None = None
    stopped: bool | None = None
    marker: int | None = None
    run_result: RunResult | None = None

    @property
    def f_n(self) -> int:
        return f_of(self.ledger)

    @property
    def bound(self) -> int:
        return bound_of(self.ledger.n_input)

    def to_json_obj(self) -> dict:
        led = self.ledger
        return {
            "verdict": "accept" if self.accepted else "reject",
            "reason": self.reason.value if self.reason else None,
            "step": self.step,
            "stopped": self.stopped,
            "marker": self.marker,
            "counters": {k: v for k, (v, _) in led.brackets().items()},
            "T": led.t_count,
            "P": led.p_count,
            "E": led.gen_count,
            "N": led.n_input,
            "f_N": self.f_n,
            "bound": self.bound,
            "total_counted": led.total_counted,
            "bracket_ceiling_total": bracket_ceiling_total(led.t_count, led.p_count, led.gen_count),
        }


def verify(
    inst: Instance,
    items: list[int] | Certificate,
    atlas: TileAtlas,
    on_step: Callable[[StepRecord], None] | None = None,
) -> VerifierReport:
    """Check one certificate, a list or a `Certificate`; never raises for bad certificates."""
    ledger = CostLedger()

    def reject(reason: RejectReason, **extra) -> VerifierReport:
        report = VerifierReport(False, ledger, reason=reason, step=_REASON_STEP[reason], **extra)
        _assert_polynomial(report)
        return report

    ledger.c1 = 1
    if not isinstance(items, Certificate) and (not items or items[0] != 2):
        return reject(RejectReason.CONDITION_1)

    try:
        pairs, after_five, touched = group_tuples(inst, items, 1)
    except RejectedCertificate as exc:
        ledger.c2 = exc.position  # tokens 1..position examined
        ledger.t_count = (exc.position - 1) // 3  # completed pairs so far
        ledger.p_count = 2 * ledger.t_count
        return reject(exc.reason)
    ledger.c2 = touched
    ledger.t_count = len(pairs)
    ledger.p_count = 2 * len(pairs)
    try:
        ledger.c3 = check_coverage(inst, pairs, after_five - 1)
    except RejectedCertificate as exc:
        ledger.c3 = len(pairs)
        return reject(exc.reason)

    points = SquarePoints(inst.a_values)  # the pairs are exactly A x A
    state = recognize(points, atlas)
    ledger.c4 = len(points) + len(state.tiles) + state.junk_cells
    extraction: NotATuringMachine | None = None
    try:
        _, probes = extract_tm_counted(state)
        ledger.c4 += probes
    except NotATuringMachine as exc:
        ledger.c4 += 4  # probes spent before the structure check gave up
        extraction = exc

    try:
        gens, marker, four_touches = scan_tail(items, after_five)
    except RejectedCertificate as exc:
        if exc.reason is RejectReason.CONDITION_5:
            ledger.c5 = exc.position - after_five + 1
            ledger.gen_count = exc.position - after_five
        else:  # list ended with no marker
            ledger.c5 = exc.position - after_five
            ledger.gen_count = ledger.c5
            ledger.c7 = 1
        return reject(exc.reason)
    ledger.gen_count = gens
    result = run(state, gens, on_step=on_step)
    attempts = result.generations_run + (1 if result.status is RunStatus.HALTED else 0)
    ledger.c5 = four_touches + attempts + 1
    stopped = result.stopped

    if extraction is not None:
        return reject(RejectReason.NOT_A_TM, run_result=result)

    ledger.c7 = 2  # marker read and validated
    marker_pos = after_five + gens
    ledger.c8 = 2
    if marker_pos + 1 != len(items):
        return reject(RejectReason.TRAILING_INPUT, stopped=stopped, marker=marker, run_result=result)
    if stopped != (marker == MARKER_STOPS):
        return reject(RejectReason.VERDICT_MISMATCH, stopped=stopped, marker=marker, run_result=result)

    report = VerifierReport(True, ledger, stopped=stopped, marker=marker, run_result=result)
    _assert_polynomial(report)
    return report


def _assert_polynomial(report: VerifierReport) -> None:
    # the whole point of the checker: its work stays under 2N^2 + 33N
    if report.ledger.total_counted > report.bound:
        raise AssertionError(
            f"step accounting exceeded the polynomial bound: "
            f"{report.ledger.total_counted} > {report.bound}"
        )
