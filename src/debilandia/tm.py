"""A standalone two-state Turing machine over {0, 1}.

This interpreter is deliberately independent of the board engine: it is the
oracle that board embeddings are checked against. The blank symbol is 0 and
the tape auto-extends with blanks on demand at either end.

Move encoding: 1 moves the head left, 0 moves it right.
"""

from __future__ import annotations

from collections import namedtuple

from .frozen import Frozen

MOVE_LEFT = 1
MOVE_RIGHT = 0


class Rule(Frozen):
    __slots__ = _fields = ("read", "state", "write", "next_state", "move")
    read: int
    state: int
    write: int
    next_state: int
    move: int

    def __init__(self, read: int, state: int, write: int, next_state: int, move: int) -> None:
        for name, value in zip(self._fields, (read, state, write, next_state, move)):
            if value not in (0, 1):
                raise ValueError(f"rule field {name} must be 0 or 1")
            object.__setattr__(self, name, value)


class TmSpec(Frozen):
    """Machine description: deterministic rules plus the initial configuration."""

    __slots__ = _fields = ("rules", "tape", "head", "initial_state")
    rules: tuple[Rule, ...]
    tape: str
    head: int
    initial_state: int

    def __init__(self, rules: tuple[Rule, ...], tape: str, head: int = 0, initial_state: int = 0) -> None:
        keys = [(r.read, r.state) for r in rules]
        if len(set(keys)) != len(keys):
            raise ValueError("two rules share the same (read, state) key")
        if set(tape) - {"0", "1"}:
            raise ValueError("tape must be a string of 0/1")
        if initial_state not in (0, 1):
            raise ValueError("initial_state must be 0 or 1")
        for name, value in zip(self._fields, (rules, tape, head, initial_state)):
            object.__setattr__(self, name, value)

    def rule_for(self, read: int, state: int) -> Rule | None:
        return {(r.read, r.state): r for r in self.rules}.get((read, state))


class TmConfig:
    __slots__ = ("cells", "head", "state")

    def __init__(self, cells: dict[int, int] | None = None, head: int = 0, state: int = 0) -> None:
        self.cells = {} if cells is None else cells  # index -> bit, 0 implied
        self.head = head
        self.state = state

    def read(self) -> int:
        return self.cells.get(self.head, 0)


def initial_config(spec: TmSpec) -> TmConfig:
    cells = {i: int(ch) for i, ch in enumerate(spec.tape) if ch == "1"}
    return TmConfig(cells, spec.head, spec.initial_state)


def tm_step(spec: TmSpec, config: TmConfig) -> TmConfig | None:
    """Apply the unique matching rule; None when no rule matches (halt)."""
    rule = spec.rule_for(config.read(), config.state)
    if rule is None:
        return None
    cells = dict(config.cells)
    if rule.write == 0:
        cells.pop(config.head, None)
    else:
        cells[config.head] = 1
    head = config.head + (-1 if rule.move == MOVE_LEFT else 1)
    return TmConfig(cells, head, rule.next_state)


class TmRunResult(namedtuple("TmRunResult", "halted steps config")):
    __slots__ = ()


def tm_run(spec: TmSpec, budget: int) -> TmRunResult:
    """Iterate tm_step at most budget times; a halt is witnessed only by an
    in-budget attempt, so budget 0 always reports exhaustion."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    config = initial_config(spec)
    for n in range(budget):
        nxt = tm_step(spec, config)
        if nxt is None:
            return TmRunResult(True, n, config)
        config = nxt
    return TmRunResult(False, budget, config)
