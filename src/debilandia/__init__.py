"""Debilandia: a tile automaton that hosts Turing machines, plus the
certificate decision problem built on it and its polynomial-step checker."""

from .embedding import ExtractFailure, NotATuringMachine, compile_direct, compile_universal, extract_tm
from .engine import Fired, RuleCopied, RunResult, RunStatus, StepOutcome, StopReason, Terminated, run, step
from .grid import GameState, SquarePoints, points_of, recognize, state_hash
from .instances import Certificate, Instance, RejectReason, RejectedCertificate
from .solver import SolveOutcome, construct_certificate, growth_probe
from .tiles import CellAddr, Point, TileAtlas, TileKind, TileType, atlas_default, classify_cell
from .tm import MOVE_LEFT, MOVE_RIGHT, Rule, TmSpec, initial_config, tm_run, tm_step
from .verifier import CostLedger, VerifierReport, bound_of, f_of, verify

__version__ = "0.1.0"
