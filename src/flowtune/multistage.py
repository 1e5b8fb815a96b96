"""Multi-stage bandit exploration with committed best flows.

Exploration runs s stages of m iterations each (s*m pulls total).  A run
has one arm set: one arm per enabled kind, each drawing permutations of
one multiset that repeats every enabled kind `reps` times.  Within a
stage the input circuit is frozen; when the stage ends its best observed
flow is committed, producing the next stage's input, and the same arms
explore again from there.  Carryover hands on statistics and prefixes
only: the mean values of the previous stage's top-k arms merge into the
initial estimate for every arm, and their best flows form a prefix pool
that new samples are concatenated onto.  The committed flow's own prefix
degenerates to the empty prefix (it is already applied); other retained
prefixes are re-evaluated fresh on the committed circuit.

A stage whose best observed value is negative commits nothing, so the
committed circuit's objective never regresses across stage boundaries.

Two bandit-free explorations sit beside it: per-position transformable
node profiles over random flows, and the uniform random-flow baseline.
"""

from __future__ import annotations

import logging
import random
import time
from collections.abc import Sequence
from typing import NamedTuple

from .aig import Aig, Objective, QoR, metrics
from .bandit import (Arm, ArmStats, derive_seed, optimistic_init, pull,
                     select_arm, ucb_bonus, update)
from .flowspace import Flow, Multiset, sample_permutation
from .transforms import FlowCache, TransformKind

log = logging.getLogger("flowtune")

# (stages, iterations per stage) options sharing one total budget; the
# 2:30 shape is the default for area-style objectives
SCHEDULE_PRESETS: dict[str, tuple[int, int]] = {
    "1:60": (1, 60),
    "2:30": (2, 30),
    "3:20": (3, 20),
    "4:15": (4, 15),
    "6:10": (6, 10),
}
DEFAULT_PRESET = "2:30"


class _Schedule(NamedTuple):
    stages: int
    iters_per_stage: int
    top_k: int = 2
    reps: int = 1  # repetitions of every enabled kind in the arms' multiset


class StageSchedule(_Schedule):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self) < 1:
            raise ValueError(f"invalid schedule: {self}")
        return self

    @classmethod
    def from_preset(cls, name: str, top_k: int = 2,
                    reps: int = 1) -> "StageSchedule":
        if name not in SCHEDULE_PRESETS:
            raise ValueError(f"unknown schedule preset {name!r}; valid "
                             f"presets: {', '.join(SCHEDULE_PRESETS)}")
        s, m = SCHEDULE_PRESETS[name]
        return cls(s, m, top_k, reps)


class LogRow(NamedTuple):
    stage: int
    iteration: int
    arm_id: int
    first: TransformKind
    flow: Flow
    value: float
    reward_delta: float
    q_mean: float
    ucb_bonus: float | None  # None while the arm was must-pull
    cumulative_regret: float
    nodes: int
    depth: int
    elapsed_ms: float


class StageResult(NamedTuple):
    stats: list[ArmStats]
    best_flow: Flow
    best_value: float
    committed_flow: Flow
    rows: list[LogRow]  # one per pull, in order


class ExplorationResult(NamedTuple):
    best_flow_overall: Flow
    initial_qor: QoR
    final_qor: QoR
    per_stage: list[StageResult]
    final: Aig  # the committed graph; applying best_flow_overall gives it
    log: Sequence[LogRow] = ()  # immutable, so no instance shares a list


def run_stage(aig: Aig, arms: list[Arm], m: int, stats: list[ArmStats],
              seed: int, stage_idx: int = 0,
              objective: Objective = Objective.NODE_COUNT,
              cache: FlowCache | None = None,
              prefix_pool: list[Flow] | None = None,
              regret_offset: float = 0.0,
              measure_time: bool = False) -> StageResult:
    """One bounded bandit episode of m select/pull/update rounds.

    Every pull goes through *cache* (one fresh :class:`FlowCache` for the
    stage when none is given) and yields one :class:`LogRow`.  A row's
    reward_delta is its value minus the stage's previous value (0.0 before
    the first pull); its cumulative_regret is *regret_offset* plus the
    stage's running sum of max(0, best arm mean - value).  The stage's
    best is its first row of highest value.
    """
    if m < 1:
        raise ValueError("a stage needs at least one iteration")
    if not arms:
        raise ValueError("a stage needs at least one arm")
    cache = cache if cache is not None else FlowCache()
    rows: list[LogRow] = []
    prev_value = 0.0
    regret = 0.0
    for it in range(1, m + 1):
        arm_id = select_arm(stats, it)
        s = stats[arm_id]
        bonus = ucb_bonus(it, s.pulls) if s.pulls >= 1 else None
        rng = random.Random(derive_seed(seed, "pull", stage_idx, it, arm_id))
        t0 = time.perf_counter() if measure_time else 0.0
        flow, value, after = pull(arms[arm_id], aig, objective, rng,
                                  cache=cache, prefix_pool=prefix_pool)
        elapsed = (time.perf_counter() - t0) * 1000.0 if measure_time else 0.0
        update(stats, arm_id, value, flow)
        regret += max(0.0, max(x.mean_value for x in stats) - value)
        rows.append(LogRow(
            stage=stage_idx, iteration=it, arm_id=arm_id,
            first=arms[arm_id].first, flow=flow, value=value,
            reward_delta=value - prev_value, q_mean=s.mean_value,
            ucb_bonus=bonus, cumulative_regret=regret_offset + regret,
            nodes=after.and_count, depth=after.depth, elapsed_ms=elapsed))
        prev_value = value
    best = max(rows, key=lambda r: r.value)
    committed = best.flow if best.value >= 0 else ()
    return StageResult(stats, best.flow, best.value, committed, rows)


def carryover(prev: StageResult,
              top_k: int) -> tuple[list[Flow], list[ArmStats]]:
    """Fold a finished stage into the next stage's starting state.

    Returns the prefix pool (one entry per retained arm, the committed
    flow replaced by the empty prefix) and, for every arm, initial
    statistics whose mean is the merged mean of the retained arms.
    """
    n_arms = len(prev.stats)
    if top_k > n_arms:
        log.warning("top_k=%d clamped to arm count %d", top_k, n_arms)
        top_k = n_arms
    ranked = sorted(range(n_arms),
                    key=lambda i: (-prev.stats[i].mean_value, i))[:top_k]
    prefix_pool: list[Flow] = []
    for i in ranked:
        bf = prev.stats[i].best_flow
        if bf is None or bf == prev.committed_flow:
            prefix_pool.append(())
        else:
            prefix_pool.append(bf)
    merged_q = sum(prev.stats[i].mean_value for i in ranked) / len(ranked)
    stats = [ArmStats(pulls=1, mean_value=merged_q, max_abs=abs(merged_q))
             for _ in range(n_arms)]
    return prefix_pool, stats


def run(aig: Aig, schedule: StageSchedule,
        objective: Objective = Objective.NODE_COUNT,
        enabled_kinds=None, seed: int = 0,
        cache: FlowCache | None = None,
        measure_time: bool = False) -> ExplorationResult:
    """Full multi-stage exploration; deterministic in (circuit, schedule, seed)."""
    enabled = (tuple(TransformKind) if enabled_kinds is None
               else tuple(enabled_kinds))
    if not enabled:
        raise ValueError("at least one transform kind must be enabled")
    cache = cache if cache is not None else FlowCache()
    multiset = Multiset.uniform(enabled, schedule.reps)
    arms = [Arm(i, kind, multiset) for i, kind in enumerate(enabled)]

    current = aig
    initial_qor = metrics(current, objective)
    stats = optimistic_init(current, arms, derive_seed(seed, "stage", 0),
                            cache)
    prefix_pool: list[Flow] = []  # stage 0 samples bare flows
    rows: list[LogRow] = []
    per_stage: list[StageResult] = []
    regret_offset = 0.0

    for stage_idx in range(schedule.stages):
        result = run_stage(current, arms, schedule.iters_per_stage, stats,
                           seed, stage_idx, objective, cache, prefix_pool,
                           regret_offset, measure_time)
        per_stage.append(result)
        rows.extend(result.rows)
        regret_offset = result.rows[-1].cumulative_regret
        if result.committed_flow:
            current, _ = cache.apply_flow(current, result.committed_flow)
        log.info("stage %d: best value %.3f, committed %d steps, %d nodes",
                 stage_idx, result.best_value, len(result.committed_flow),
                 current.num_ands)
        if stage_idx + 1 < schedule.stages:
            prefix_pool, stats = carryover(result, schedule.top_k)

    best_overall: Flow = tuple(k for r in per_stage for k in r.committed_flow)
    final_qor = metrics(current, objective)
    return ExplorationResult(best_overall, initial_qor, final_qor,
                             per_stage, current, rows)


def profile_positions(aig: Aig, kinds, num_flows: int, seed: int):
    """Per-position transformed-node statistics over random flows.

    Each flow is a none-repetition permutation of the enabled kinds; counts
    are normalized per flow to position 1 (0 when position 1 found nothing).
    Returns a list of dicts, one per position.
    """
    if num_flows < 1:
        raise ValueError("num_flows must be >= 1")
    multiset = Multiset.uniform(kinds)
    rng = random.Random(derive_seed(seed, "profile"))
    length = multiset.total
    rel = [[] for _ in range(length)]
    absolute = [[] for _ in range(length)]
    cache = FlowCache()
    for _ in range(num_flows):
        flow = sample_permutation(multiset, rng)
        _, reports = cache.apply_flow(aig, flow)
        base = reports[0].tnodes
        for pos, rep in enumerate(reports):
            absolute[pos].append(rep.tnodes)
            rel[pos].append(rep.tnodes / base if base else 0.0)
    out = []
    for pos in range(length):
        out.append({
            "position": pos + 1,
            "mean_rel": sum(rel[pos]) / num_flows,
            "min_rel": min(rel[pos]),
            "max_rel": max(rel[pos]),
            "mean_tnodes": sum(absolute[pos]) / num_flows,
        })
    return out


def random_baseline(aig: Aig, multiset: Multiset, budget: int, seed: int,
                    objective: Objective = Objective.NODE_COUNT,
                    cache: FlowCache | None = None):
    """Evaluate `budget` uniform flows, each from the original circuit.

    Returns (rows, best_value, best_qor); each row is a dict of
    iteration, flow, value, best_value, nodes and depth.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(derive_seed(seed, "baseline"))
    cache = cache if cache is not None else FlowCache()
    base = metrics(aig, objective).objective_value
    rows = []
    best_value = None
    best_qor = metrics(aig, objective)
    for it in range(1, budget + 1):
        flow = sample_permutation(multiset, rng)
        result, _ = cache.apply_flow(aig, flow)
        qor = metrics(result, objective)
        value = float(base - qor.objective_value)
        if best_value is None or value > best_value:
            best_value = value
            best_qor = qor
        rows.append({"iteration": it, "flow": flow, "value": value,
                     "best_value": best_value, "nodes": qor.and_count,
                     "depth": qor.depth})
    return rows, best_value, best_qor
