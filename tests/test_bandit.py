import math
import random
import statistics

import pytest

from flowtune import Aig, AigBuilder, Multiset, metrics
from flowtune.aig import Objective
from flowtune.bandit import (Arm, ArmStats, RegretLog, derive_seed,
                             optimistic_init, pull, run_bernoulli_random,
                             run_bernoulli_ucb, select_arm, ucb_bonus, update)
from flowtune.transforms import FlowCache, TransformKind

from conftest import build_absorption, build_chain

K = TransformKind


class TestUcbBonus:
    def test_ln_one_is_zero(self):
        assert ucb_bonus(1, 1) == 0.0

    def test_unit_bonus(self):
        assert ucb_bonus(math.e ** 2, 1) == pytest.approx(1.0)

    def test_quarter_pulls(self):
        assert ucb_bonus(math.e ** 2, 4) == pytest.approx(0.5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ucb_bonus(0, 1)
        with pytest.raises(ValueError):
            ucb_bonus(1, 0)


def stats_with(values):
    """ArmStats list with given means, one pull each."""
    out = []
    for v in values:
        out.append(ArmStats(pulls=1, mean_value=v, max_abs=abs(v)))
    return out


class TestSelectArm:
    def test_higher_mean_wins_on_equal_pulls(self):
        assert select_arm(stats_with([1.0, 0.0]), t=2) == 0

    def test_larger_bonus_wins_on_equal_mean(self):
        s = [ArmStats(pulls=5, mean_value=1.0, max_abs=1.0),
             ArmStats(pulls=1, mean_value=1.0, max_abs=1.0)]
        assert select_arm(s, t=6) == 1

    def test_tie_breaks_lowest_id(self):
        assert select_arm(stats_with([0.5, 0.5, 0.5]), t=2) == 0

    def test_unpulled_arm_first(self):
        s = stats_with([5.0, 4.0])
        s.append(ArmStats())  # never pulled, no initialization
        assert select_arm(s, t=3) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_arm([], t=1)

    def test_scale_invariance(self):
        base = [ (3, 10.0), (2, 7.0), (4, 9.0) ]
        for t in (4, 9, 30):
            picks = []
            for scale in (1.0, 0.01, 250.0):
                s = [ArmStats(pulls=p, mean_value=m * scale, max_abs=abs(m) * scale)
                     for p, m in base]
                picks.append(select_arm(s, t=t))
            assert picks[0] == picks[1] == picks[2]

    def test_cold_start_visits_every_arm(self):
        # without initialization, no arm is pulled a third time before all
        # arms were pulled at least once
        rng = random.Random(9)
        stats = [ArmStats() for _ in range(5)]
        history = []
        for t in range(1, 16):
            a = select_arm(stats, t)
            history.append(a)
            update(stats, a, rng.random(), None)
            if any(s.pulls >= 3 for s in stats):
                assert all(s.pulls >= 1 for s in stats)


class TestOptimisticInit:
    def make_arms(self, kinds):
        ms = Multiset.uniform(kinds)
        return [Arm(i, k, ms) for i, k in enumerate(kinds)]

    def test_no_opportunities_all_zero(self):
        gb = AigBuilder(2)
        a, b = gb.input_literals()
        g = Aig.compact(gb, [gb.add_and(a, b)])
        arms = self.make_arms([K.BALANCE, K.REWRITE])
        stats = optimistic_init(g, arms, seed=3)
        assert all(s.mean_value == 0.0 and s.pulls == 1 for s in stats)
        assert select_arm(stats, t=1) == 0  # falls back to id order

    def test_rewrite_heavy_fixture_selects_rewrite_first(self):
        # absorption patterns whose inner gates fan out: rewrite still sees
        # them, balance's trees are cut at the shared node, so rewrite has
        # strictly more transformable nodes
        gb = AigBuilder(6)
        lits = gb.input_literals()
        outs = []
        for i in range(5):
            a, b = lits[i], lits[(i + 1) % 6]
            inner = gb.add_and(a, b ^ 1)
            outs.append(gb.add_and(a, inner))
            outs.append(inner)
        g = Aig.compact(gb, outs)
        from flowtune import count_transformable
        assert count_transformable(g, K.REWRITE) > count_transformable(g, K.BALANCE)
        arms = self.make_arms([K.BALANCE, K.REWRITE])
        stats = optimistic_init(g, arms, seed=3)
        assert stats[1].mean_value > stats[0].mean_value
        assert select_arm(stats, t=1) == 1

    def test_deterministic_and_jobs_invariant(self, redundant_small):
        arms = self.make_arms(list(K))
        one = optimistic_init(redundant_small, arms, seed=11)
        again = optimistic_init(redundant_small, arms, seed=11)
        assert one == again

    def test_counts_each_kind_once(self, redundant_small, monkeypatch):
        # counting is one apply per kind, through the given cache
        from flowtune import transforms
        calls = []
        apply = transforms.apply

        def applying(g, kind):
            calls.append((g, kind))
            return apply(g, kind)

        monkeypatch.setattr(transforms, "apply", applying)
        cache = FlowCache()
        optimistic_init(redundant_small, self.make_arms(list(K)), seed=11,
                        cache=cache)
        assert sorted(kind for _, kind in calls) == sorted(K)
        assert all(g is redundant_small for g, _ in calls)
        # the given cache holds every result: looking each up runs nothing
        for kind in K:
            cache.apply_flow(redundant_small, (kind,))
        assert len(calls) == len(K)

    def test_normalized_to_unit(self, redundant_small):
        arms = self.make_arms(list(K))
        stats = optimistic_init(redundant_small, arms, seed=5)
        assert max(s.mean_value for s in stats) == pytest.approx(1.0)
        assert all(0.0 <= s.mean_value <= 1.0 for s in stats)


class TestPull:
    def test_no_change_scores_zero(self):
        from conftest import build_balanced_tree
        g = build_balanced_tree(8)
        arm = Arm(0, K.BALANCE, Multiset({K.BALANCE: 1}))
        _, value, _ = pull(arm, g, Objective.NODE_COUNT, random.Random(0))
        assert value == 0.0

    def test_absorption_rewrite_first_gains(self, absorption):
        g = absorption
        arm = Arm(0, K.REWRITE, Multiset({K.REWRITE: 1, K.BALANCE: 1}))
        flow, value, _ = pull(arm, g, Objective.NODE_COUNT, random.Random(1))
        assert flow[0] is K.REWRITE
        assert value >= 1.0

    def test_depth_objective_on_chain(self, chain8):
        g = chain8
        arm = Arm(0, K.BALANCE, Multiset({K.BALANCE: 1}))
        _, value, _ = pull(arm, g, Objective.DEPTH, random.Random(2))
        assert value == 7 - 3

    def test_prefix_pool_prepends(self, chain8):
        g = chain8
        arm = Arm(0, K.BALANCE, Multiset({K.BALANCE: 1}))
        prefix = (K.REWRITE, K.RESUB)
        flow, _, _ = pull(arm, g, Objective.NODE_COUNT, random.Random(3),
                          prefix_pool=[prefix])
        assert flow == prefix + (K.BALANCE,)


class TestUpdate:
    def test_first_update(self):
        stats = [ArmStats()]
        update(stats, 0, 5.0, None)
        assert stats[0].pulls == 1
        assert stats[0].mean_value == 5.0

    def test_running_mean(self):
        stats = [ArmStats()]
        update(stats, 0, 2.0, None)
        update(stats, 0, 4.0, None)
        assert stats[0].mean_value == pytest.approx(3.0)

    def test_after_initialization_counts_as_second_pull(self):
        stats = [ArmStats(pulls=1, mean_value=1.0, max_abs=1.0)]
        update(stats, 0, 3.0, None)
        assert stats[0].pulls == 2
        assert stats[0].mean_value == pytest.approx(2.0)

    def test_reward_delta_is_cross_arm(self):
        stats = [ArmStats(), ArmStats()]
        log = RegretLog()
        update(stats, 0, 5.0, None, log)
        update(stats, 1, 3.0, None, log)
        assert log.steps[1].reward_delta == -2.0

    def test_best_tracking(self):
        stats = [ArmStats()]
        update(stats, 0, 1.0, ("a",))
        update(stats, 0, 4.0, ("b",))
        update(stats, 0, 2.0, ("c",))
        assert stats[0].best_value == 4.0
        assert stats[0].best_flow == ("b",)

    def test_cumulative_regret_non_decreasing(self):
        rng = random.Random(12)
        stats = [ArmStats() for _ in range(3)]
        log = RegretLog()
        prev = 0.0
        for t in range(1, 200):
            a = select_arm(stats, t)
            update(stats, a, rng.uniform(-2, 5), None, log)
            assert log.cumulative_regret >= prev
            prev = log.cumulative_regret


class TestBernoulli:
    def test_easy_pair_share(self):
        shares = []
        for seed in range(20):
            run = run_bernoulli_ucb([1.0, 0.0], 1000, seed)
            shares.append(run.pulls[0] / 1000)
        assert statistics.median(shares) > 0.95

    def test_equal_means_zero_regret(self):
        run = run_bernoulli_ucb([0.5, 0.5, 0.5], 2000, 7)
        assert run.regret[-1] == 0.0

    def test_ucb_beats_random(self):
        means = [0.9, 0.5, 0.5, 0.4, 0.1]
        ucb_r, rand_r = [], []
        for seed in range(6):
            ucb_r.append(run_bernoulli_ucb(means, 3000, seed).regret[-1])
            rand_r.append(run_bernoulli_random(means, 3000, seed).regret[-1])
        assert statistics.median(ucb_r) < statistics.median(rand_r) / 3

    def test_derive_seed_stable(self):
        assert derive_seed(1, "pull", 2, 3) == derive_seed(1, "pull", 2, 3)
        assert derive_seed(1, "pull", 2, 3) != derive_seed(2, "pull", 2, 3)
