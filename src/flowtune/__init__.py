"""Autonomous logic-synthesis flow exploration on And-Inverter Graphs."""

from .aig import (Aig, AigBuilder, MalformedLiteralError, Objective, QoR,
                  equivalent, metrics, simulate)
from .aiger import parse_aiger, write_aiger
from .bandit import (Arm, ArmStats, optimistic_init, pull, select_arm,
                     ucb_bonus, update)
from .blif import parse_blif
from .errors import ParseDiagnostic, ParseError
from .flowspace import (Flow, Multiset, count_m_repetition, count_multiset,
                        count_none_repetition, flow_length,
                        sample_conditioned, sample_permutation)
from .multistage import (SCHEDULE_PRESETS, ExplorationResult, StageSchedule,
                         carryover, run, run_stage)
from .randgen import GenSpec, gen_random
from .transforms import (DEFAULT_KINDS, FlowCache, TransformKind,
                         TransformReport, apply, apply_flow,
                         count_transformable)

__version__ = "0.1.0"

__all__ = [
    "Aig", "AigBuilder", "Arm", "ArmStats", "DEFAULT_KINDS", "ExplorationResult", "Flow",
    "FlowCache", "GenSpec", "MalformedLiteralError", "Multiset", "Objective",
    "ParseDiagnostic", "ParseError", "QoR", "SCHEDULE_PRESETS",
    "StageSchedule", "TransformKind", "TransformReport", "apply",
    "apply_flow", "carryover", "count_m_repetition", "count_multiset",
    "count_none_repetition", "count_transformable", "equivalent",
    "flow_length", "gen_random", "metrics", "optimistic_init",
    "parse_aiger", "parse_blif", "pull", "run", "run_stage",
    "sample_conditioned", "sample_permutation", "select_arm", "simulate",
    "ucb_bonus", "update", "write_aiger",
]
