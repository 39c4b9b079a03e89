"""A standalone two-state Turing machine over {0, 1}.

This interpreter is deliberately independent of the board engine: it is the
oracle that board embeddings are checked against. The blank symbol is 0 and
the tape auto-extends with blanks on demand at either end.

Move encoding: 1 moves the head left, 0 moves it right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MOVE_LEFT = 1
MOVE_RIGHT = 0


@dataclass(frozen=True)
class Rule:
    read: int
    state: int
    write: int
    next_state: int
    move: int

    def __post_init__(self) -> None:
        for name in ("read", "state", "write", "next_state", "move"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"rule field {name} must be 0 or 1")


@dataclass(frozen=True)
class TmSpec:
    """Machine description: deterministic rules plus the initial configuration."""

    rules: tuple[Rule, ...]
    tape: str
    head: int = 0
    initial_state: int = 0

    def __post_init__(self) -> None:
        keys = [(r.read, r.state) for r in self.rules]
        if len(set(keys)) != len(keys):
            raise ValueError("two rules share the same (read, state) key")
        if set(self.tape) - {"0", "1"}:
            raise ValueError("tape must be a string of 0/1")
        if self.initial_state not in (0, 1):
            raise ValueError("initial_state must be 0 or 1")

    def rule_for(self, read: int, state: int) -> Rule | None:
        return {(r.read, r.state): r for r in self.rules}.get((read, state))


@dataclass
class TmConfig:
    cells: dict[int, int] = field(default_factory=dict)  # index -> bit, 0 implied
    head: int = 0
    state: int = 0

    def read(self) -> int:
        return self.cells.get(self.head, 0)

    def clone(self) -> "TmConfig":
        return TmConfig(dict(self.cells), self.head, self.state)


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


@dataclass
class TmRunResult:
    halted: bool
    steps: int
    config: TmConfig


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
