"""Domain-specific UCB1 bandit over first-transform-conditioned flows.

Arms are distributions of flow permutations constrained to start with a
fixed transformation.  Pulling an arm samples one such flow, applies it to
the stage-input circuit and scores the objective gain (higher is better).
Selection maximizes mean gain, normalized into [0, 1] by the running
maximum absolute gain, plus the sqrt(ln t / 2N) confidence bonus.

Optimistic initialization applies each kind once to the stage-input
graph through the run's FlowCache and takes its transformed-node count,
then scores each arm by those counts weighted by position along one
sampled flow (earlier positions dominate).  Every first-stage flow starts
with its arm's kind on that graph, so each arm's first pull reuses the
cached result instead of running the pass again.

Selection uses each arm's running mean of action values.  The cross-arm
delta r_t = value(t) - value(t-1) and the cumulative regret are analysis
columns, computed next to each logged pull in
:func:`flowtune.multistage.run_stage`.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

# the interpreter's builtin SHA-256: importing hashlib would load OpenSSL
# (about 3.7 MB of resident memory) for derive_seed's one digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .aig import Aig, Objective, QoR, metrics
from .flowspace import Flow, Multiset, sample_conditioned
from .transforms import FlowCache, TransformKind
# no longer init's path, but perfbench/tracing.py wraps it under this name
from .transforms import count_transformable  # noqa: F401

_INIT_POSITION_DECAY = 0.5


def derive_seed(*parts) -> int:
    """Stable child seed from mixed int parts (immune to hash salting)."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(sha256(text.encode()).digest()[:8], "big")


class Arm(NamedTuple):
    """One conditioned-permutation arm."""

    id: int
    first: TransformKind
    multiset: Multiset


class ArmStats:
    """One arm's running statistics, which :func:`update` changes in place."""

    __slots__ = ("pulls", "mean_value", "best_value", "best_flow", "max_abs")

    def __init__(self, pulls: int = 0, mean_value: float = 0.0,
                 best_value: float | None = None,
                 best_flow: Flow | None = None, max_abs: float = 0.0):
        self.pulls = pulls
        self.mean_value = mean_value
        self.best_value = best_value
        self.best_flow = best_flow
        self.max_abs = max_abs  # largest |value| this arm has contributed

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "ArmStats(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"


def ucb_bonus(t: float, n_a: int) -> float:
    """Confidence bonus sqrt(ln t / 2 N), natural log."""
    if t < 1 or n_a < 1:
        raise ValueError("t and n_a must be >= 1")
    return math.sqrt(math.log(t) / (2.0 * n_a))


def select_arm(stats: list[ArmStats], t: int) -> int:
    """Arm index maximizing normalized mean plus bonus.

    Arms never pulled (and not optimistically initialized) are must-pull,
    lowest id first.  Ties break toward the lowest id.
    """
    if not stats:
        raise ValueError("no arms to select from")
    for i, s in enumerate(stats):
        if s.pulls == 0:
            return i
    scale = max((s.max_abs for s in stats), default=0.0)
    best_i = 0
    best_score = -math.inf
    for i, s in enumerate(stats):
        q = s.mean_value / scale if scale > 0 else 0.0
        score = q + ucb_bonus(t, s.pulls)
        if score > best_score:
            best_score = score
            best_i = i
    return best_i


def _init_total(counts: dict[TransformKind, int], arm: Arm,
                seed: int) -> float:
    rng = random.Random(seed)
    flow = sample_conditioned(arm.first, arm.multiset, rng)
    total = 0.0
    weight = 1.0
    for kind in flow:
        total += weight * counts[kind]
        weight *= _INIT_POSITION_DECAY
    return total


def optimistic_init(aig: Aig, arms: list[Arm], seed: int,
                    cache: FlowCache) -> list[ArmStats]:
    """Pre-seed each arm with one dry run (pulls = 1).

    Each kind in the arms' multisets is applied once to *aig* through
    *cache*, which runs no pass for a kind whose twin already answered;
    the transformed graph stays there for later pulls to reuse.  Totals
    are normalized to [0, 1] by the largest total across arms so they live
    on the same scale the bandit normalizes gains to.
    """
    kinds = dict.fromkeys(k for arm in arms for k in arm.multiset.counts)
    counts = {kind: cache.apply_flow(aig, (kind,))[1][0].tnodes
              for kind in kinds}
    totals = [_init_total(counts, arm, derive_seed(seed, "init", arm.id))
              for arm in arms]
    top = max(totals) if totals else 0.0
    stats = []
    for total in totals:
        q = total / top if top > 0 else 0.0
        stats.append(ArmStats(pulls=1, mean_value=q, max_abs=abs(q)))
    return stats


def pull(arm: Arm, aig: Aig, objective: Objective, rng: random.Random,
         cache: FlowCache,
         prefix_pool: list[Flow] | None = None) -> tuple[Flow, float, QoR]:
    """Sample one flow from the arm and score it against the stage input.

    The flow runs through *cache*.  The value is the objective gain:
    objective(stage input) minus objective(result), so removed nodes score
    positive under the node-count objective.
    """
    prefix: Flow = ()
    if prefix_pool:
        prefix = prefix_pool[rng.randrange(len(prefix_pool))]
    flow = prefix + sample_conditioned(arm.first, arm.multiset, rng)
    result, _ = cache.apply_flow(aig, flow)
    before = metrics(aig, objective)
    after = metrics(result, objective)
    return flow, float(before.objective_value - after.objective_value), after


def update(stats: list[ArmStats], arm_id: int, value: float,
           flow: Flow | None) -> None:
    """Fold one observation into the arm's running statistics."""
    s = stats[arm_id]
    s.pulls += 1
    s.mean_value += (value - s.mean_value) / s.pulls
    if abs(value) > s.max_abs:
        s.max_abs = abs(value)
    if s.best_value is None or value > s.best_value:
        s.best_value = value
        s.best_flow = flow


# ----- synthetic stationary bandit ----------------------------------------------


class BernoulliRun(NamedTuple):
    means: list[float]
    pulls: list[int]
    rewards: list[float]  # reward at each step
    arms: list[int]  # chosen arm at each step
    regret: list[float]  # cumulative expected regret per step


def run_bernoulli_ucb(means, steps: int, seed: int) -> BernoulliRun:
    """Pure UCB1 on stationary Bernoulli arms (standalone property check)."""
    means = list(means)
    rng = random.Random(derive_seed(seed, "bernoulli-ucb"))
    stats = [ArmStats() for _ in means]
    best = max(means)
    run = BernoulliRun(means, [0] * len(means), [], [], [])
    cum = 0.0
    for t in range(1, steps + 1):
        a = select_arm(stats, t)
        reward = 1.0 if rng.random() < means[a] else 0.0
        update(stats, a, reward, None)
        run.pulls[a] += 1
        run.arms.append(a)
        run.rewards.append(reward)
        cum += best - means[a]
        run.regret.append(cum)
    return run


def run_bernoulli_random(means, steps: int, seed: int) -> BernoulliRun:
    """Uniform-random policy baseline on the same arms."""
    means = list(means)
    rng = random.Random(derive_seed(seed, "bernoulli-random"))
    best = max(means)
    run = BernoulliRun(means, [0] * len(means), [], [], [])
    cum = 0.0
    for _ in range(steps):
        a = rng.randrange(len(means))
        reward = 1.0 if rng.random() < means[a] else 0.0
        run.pulls[a] += 1
        run.arms.append(a)
        run.rewards.append(reward)
        cum += best - means[a]
        run.regret.append(cum)
    return run
