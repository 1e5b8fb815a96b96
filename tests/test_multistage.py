import logging
import random
import statistics

import pytest

from flowtune import Aig, AigBuilder, GenSpec, Multiset, apply_flow, gen_random, metrics
from flowtune.aig import Objective
from flowtune.bandit import Arm, ArmStats, update
from flowtune.multistage import (SCHEDULE_PRESETS, StageSchedule, carryover,
                                 profile_positions, run, run_stage)
from flowtune.transforms import DEFAULT_KINDS, FlowCache, TransformKind

from conftest import build_absorption, build_chain

K = TransformKind


def make_arms(kinds, m=1):
    ms = Multiset.uniform(kinds, m)
    return [Arm(i, k, ms) for i, k in enumerate(kinds)], ms


class TestStageSchedule:
    def test_presets_share_budget(self):
        for name, (s, m) in SCHEDULE_PRESETS.items():
            assert s * m == 60, name
        assert StageSchedule.from_preset("2:30").stages == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StageSchedule(0, 10)
        with pytest.raises(ValueError):
            StageSchedule(2, 0)
        with pytest.raises(ValueError):
            StageSchedule(2, 5, reps=0)

    def test_unknown_preset_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="'5:12'") as err:
            StageSchedule.from_preset("5:12")
        assert all(name in str(err.value) for name in SCHEDULE_PRESETS)


class TestRunStage:
    def test_single_kind_every_pull_same_arm(self, chain8):
        g = chain8
        arms, ms = make_arms([K.BALANCE], m=2)
        stats = [ArmStats() for _ in arms]
        res = run_stage(g, arms, 4, stats, seed=1)
        assert stats[0].pulls == 4
        assert res.best_flow == (K.BALANCE, K.BALANCE)

    def test_single_iteration(self, chain8):
        g = chain8
        arms, _ = make_arms(list(K))
        stats = [ArmStats() for _ in arms]
        res = run_stage(g, arms, 1, stats, seed=2)
        assert sum(s.pulls for s in stats) == 1
        assert res.best_flow is not None

    def test_zero_iterations_rejected(self, chain8):
        arms, _ = make_arms([K.BALANCE])
        with pytest.raises(ValueError):
            run_stage(chain8, arms, 0, [ArmStats()], seed=0)

    @staticmethod
    def rewrite_favored_fixture(groups=5):
        """Reassociation traps that only rewriting harvests in full.

        Each group plants n = AND(AND(s,u), AND(s,v)) next to existing
        t = u&v and w = s&(u&v), where u sits two levels deep.  Rewriting
        first redirects n onto w and frees three gates per group.
        Balancing first rebalances n's unbalanced tree for one gate, which
        destroys the reassociation site, so a balance-first flow ends
        strictly worse under the node-count objective.
        """
        b = AigBuilder(5 * groups)
        lits = b.input_literals()
        outs = []
        for i in range(groups):
            s, v, x, y, z = lits[5 * i:5 * i + 5]
            u = b.add_and(b.add_and(x, y), z)  # a deep operand
            t = b.add_and(u, v)
            w = b.add_and(s, t)
            m1 = b.add_and(s, u)
            m2 = b.add_and(s, v)
            outs += [t ^ 1, w ^ 1, b.add_and(m1, m2)]
        return Aig.compact(b, outs)

    def test_rewrite_heavy_fixture_prefers_rewrite_first(self):
        g = self.rewrite_favored_fixture()
        # sanity: the order asymmetry this test relies on
        rw_first = metrics(apply_flow(g, [K.REWRITE, K.BALANCE])[0]).and_count
        b_first = metrics(apply_flow(g, [K.BALANCE, K.REWRITE])[0]).and_count
        assert rw_first < b_first
        wins = 0
        for seed in range(20):
            arms, _ = make_arms([K.BALANCE, K.REWRITE])
            stats = [ArmStats() for _ in arms]
            res = run_stage(g, arms, 10, stats, seed=seed)
            if res.best_flow[0] is K.REWRITE:
                wins += 1
        assert wins >= 16  # the example's 8-of-10 bar, over 20 seeds

    def test_negative_best_commits_nothing(self, chain8, monkeypatch):
        # force every pull to look like a regression
        import flowtune.multistage as ms_mod

        def losing_pull(arm, aig, objective, rng, cache=None, prefix_pool=None):
            return (arm.first,), -5.0, metrics(aig, objective)

        monkeypatch.setattr(ms_mod, "pull", losing_pull)
        arms, _ = make_arms([K.BALANCE, K.REWRITE])
        stats = [ArmStats() for _ in arms]
        res = run_stage(chain8, arms, 4, stats, seed=3)
        assert res.best_value == -5.0
        assert res.committed_flow == ()


    def test_best_is_first_row_of_highest_value(self, chain8, monkeypatch):
        import flowtune.multistage as ms_mod
        values = iter(enumerate([1.0, 3.0, 3.0, 2.0], 1))

        def scripted_pull(arm, aig, objective, rng, cache, prefix_pool=None):
            n, value = next(values)  # the n-th pull's flow has n steps
            return (arm.first,) * n, value, metrics(aig, objective)

        monkeypatch.setattr(ms_mod, "pull", scripted_pull)
        arms, _ = make_arms([K.BALANCE, K.REWRITE])
        stats = [ArmStats() for _ in arms]
        res = run_stage(chain8, arms, 4, stats, seed=3)
        assert [r.value for r in res.rows] == [1.0, 3.0, 3.0, 2.0]
        assert res.best_value == 3.0
        assert res.best_flow == res.rows[1].flow != res.rows[2].flow
        assert res.committed_flow == res.best_flow

    def test_one_cache_for_the_stage(self, chain8, monkeypatch):
        # without a given cache, every pull of (balance,) after the first
        # reuses the stage's one cache
        from flowtune import transforms
        calls = []
        apply = transforms.apply

        def applying(g, kind):
            calls.append(kind)
            return apply(g, kind)

        monkeypatch.setattr(transforms, "apply", applying)
        arms, _ = make_arms([K.BALANCE])
        stats = [ArmStats() for _ in arms]
        res = run_stage(chain8, arms, 4, stats, seed=1)
        assert [r.flow for r in res.rows] == [(K.BALANCE,)] * 4
        assert calls == [K.BALANCE]


class TestCarryover:
    def prev_result(self, means, best_flows, committed):
        stats = [ArmStats(pulls=3, mean_value=m, max_abs=abs(m),
                          best_value=m, best_flow=bf)
                 for m, bf in zip(means, best_flows)]
        from flowtune.multistage import StageResult
        return StageResult(stats, committed, max(means), committed, [])

    def test_merged_mean_of_top_two(self):
        flows = [(K.BALANCE,), (K.REWRITE,), (K.RESUB,)]
        prev = self.prev_result([10.0, 8.0, 1.0], flows, flows[0])
        _, stats = carryover(prev, 2)
        assert all(s.mean_value == pytest.approx(9.0) for s in stats)
        assert all(s.pulls == 1 for s in stats)
        assert len(stats) == len(prev.stats)

    def test_committed_prefix_degenerates_to_empty(self):
        flows = [(K.BALANCE,), (K.REWRITE,), (K.RESUB,)]
        prev = self.prev_result([10.0, 8.0, 1.0], flows, flows[0])
        pool, _ = carryover(prev, 2)
        assert pool == [(), (K.REWRITE,)]

    def test_top_k_one_is_greedy_chaining(self):
        flows = [(K.BALANCE,), (K.REWRITE,)]
        prev = self.prev_result([4.0, 9.0], flows, flows[1])
        pool, stats = carryover(prev, 1)
        assert pool == [()]
        assert stats[0].mean_value == pytest.approx(9.0)

    def test_top_k_clamped_with_warning(self, caplog):
        flows = [(K.BALANCE,), (K.REWRITE,)]
        prev = self.prev_result([4.0, 9.0], flows, flows[1])
        with caplog.at_level(logging.WARNING, logger="flowtune"):
            pool, _ = carryover(prev, 10)
        assert len(pool) == 2
        assert any("clamped" in r.message for r in caplog.records)


@pytest.fixture(scope="module")
def circuit():
    return gen_random(GenSpec(14, 500, 8, 2001))


class TestRows:
    """The log columns, checked on the rows a three-stage run returns."""

    @pytest.fixture(scope="class")
    def result(self, circuit):
        return run(circuit, StageSchedule(3, 8), seed=2)

    def test_log_is_the_stages_rows(self, result):
        assert result.log == [r for st in result.per_stage for r in st.rows]
        for idx, stage in enumerate(result.per_stage):
            assert [(r.stage, r.iteration) for r in stage.rows] == \
                [(idx, it) for it in range(1, 9)]
            best = max(stage.rows, key=lambda r: r.value)
            assert (stage.best_flow, stage.best_value) == (best.flow,
                                                           best.value)

    def test_reward_delta_is_cross_arm(self, result):
        crossings = 0
        for stage in result.per_stage:
            first, *rest = stage.rows
            assert first.reward_delta == first.value
            for prev, row in zip(stage.rows, rest):
                assert row.reward_delta == row.value - prev.value
                crossings += row.arm_id != prev.arm_id
        assert crossings > 0  # consecutive pulls of different arms

    def test_cumulative_regret_non_decreasing(self, result):
        regrets = [r.cumulative_regret for r in result.log]
        assert regrets[0] >= 0.0
        assert all(a <= b for a, b in zip(regrets, regrets[1:]))

    def test_stage_boundary_adds_instant_regret(self, result):
        for idx in range(1, len(result.per_stage)):
            prev = result.per_stage[idx - 1].rows[-1]
            first = result.per_stage[idx].rows[0]
            # the stage's starting statistics, folded with its first pull
            _, stats = carryover(result.per_stage[idx - 1], 2)
            update(stats, first.arm_id, first.value, first.flow)
            assert first.q_mean == stats[first.arm_id].mean_value
            instant = max(0.0, max(s.mean_value for s in stats) - first.value)
            assert first.cumulative_regret == prev.cumulative_regret + instant
        # the last boundary carries regret across and adds some
        assert prev.cumulative_regret > 0.0 and instant > 0.0


class TestRun:
    def test_pull_count_is_stages_times_iters(self, circuit):
        for s, m in ((1, 5), (2, 3), (4, 15)):
            res = run(circuit, StageSchedule(s, m), seed=5)
            assert len(res.log) == s * m

    def test_single_stage_equals_bandit_only(self, circuit):
        res = run(circuit, StageSchedule(1, 5), seed=6)
        assert len(res.per_stage) == 1
        assert res.best_flow_overall == res.per_stage[0].committed_flow

    def test_replay_reproduces_final_qor(self, circuit):
        res = run(circuit, StageSchedule(3, 4), seed=7)
        replayed, _ = apply_flow(circuit, res.best_flow_overall)
        assert metrics(replayed).and_count == res.final_qor.and_count
        assert metrics(replayed).depth == res.final_qor.depth
        assert replayed.structurally_equal(res.final)

    def test_deterministic(self, circuit):
        a = run(circuit, StageSchedule(2, 6), seed=8)
        b = run(circuit, StageSchedule(2, 6), seed=8)
        assert a.best_flow_overall == b.best_flow_overall
        assert a.final_qor == b.final_qor
        assert [(r.value, r.arm_id) for r in a.log] == \
            [(r.value, r.arm_id) for r in b.log]

    def test_monotone_commit(self, circuit):
        res = run(circuit, StageSchedule(4, 5), seed=9)
        values = [res.initial_qor.objective_value]
        g = circuit
        for stage in res.per_stage:
            if stage.committed_flow:
                g, _ = apply_flow(g, stage.committed_flow)
            values.append(metrics(g).and_count)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == res.final_qor.and_count

    def test_improves_over_initial(self, circuit):
        res = run(circuit, StageSchedule(2, 10), seed=10)
        assert res.final_qor.and_count <= res.initial_qor.and_count

    def test_no_kinds_rejected(self, circuit):
        with pytest.raises(ValueError):
            run(circuit, StageSchedule(1, 1), enabled_kinds=[])

    def test_repeated_kind_rejected(self, circuit):
        # one arm per kind: a repeated kind would make two identical arms
        # over a multiset that holds it once
        with pytest.raises(ValueError, match="only once"):
            run(circuit, StageSchedule(1, 4),
                enabled_kinds=[K.BALANCE, K.BALANCE, K.RESUB], seed=0)

    def test_profile_without_flows_rejected(self, circuit):
        with pytest.raises(ValueError, match="num_flows"):
            profile_positions(circuit, DEFAULT_KINDS, 0, seed=1)

    def test_reps_reach_every_stage(self, circuit):
        kinds = list(K)
        res = run(circuit, StageSchedule(2, 4, reps=2), seed=12)
        assert {r.stage for r in res.log} == {0, 1}
        for r in res.log:
            suffix = r.flow[-2 * len(kinds):]
            assert len(r.flow) >= 2 * len(kinds)
            assert suffix[0] is r.first
            assert all(suffix.count(k) == 2 for k in kinds)

    def test_jobs_do_not_change_results(self, circuit):
        a = run(circuit, StageSchedule(2, 4), seed=11)
        b = run(circuit, StageSchedule(2, 4), seed=11)
        assert a.best_flow_overall == b.best_flow_overall
        assert [(r.value, r.arm_id) for r in a.log] == \
            [(r.value, r.arm_id) for r in b.log]

    def test_beats_random_on_median_small(self):
        # scaled-down version of the suite comparison
        from flowtune.multistage import random_baseline
        g = gen_random(GenSpec(16, 800, 8, 3111))
        cache = FlowCache()
        mab, rnd = [], []
        for seed in range(3):
            res = run(g, StageSchedule(2, 10), seed=seed, cache=cache)
            mab.append(res.final_qor.and_count)
            _, _, bq = random_baseline(g, Multiset.uniform(DEFAULT_KINDS),
                                       20, seed, cache=cache)
            rnd.append(bq.and_count)
        assert statistics.median(mab) <= statistics.median(rnd)


@pytest.fixture(params=["redundant_small", "random16"])
def stage_input(request):
    if request.param == "redundant_small":
        return request.getfixturevalue("redundant_small")
    return gen_random(GenSpec(16, 500, 8, 2016))


class TestInitThroughRunCache:
    # kinds whose pass runs on the stage input: a rewrite or refactor pass
    # that meets no even trade answers for its _z twin
    RUN_ON_INPUT = {
        "redundant_small": [K.BALANCE, K.REWRITE, K.REFACTOR, K.REFACTOR_Z,
                            K.RESUB],
        "random16": [K.BALANCE, K.REWRITE, K.REFACTOR, K.RESUB],
    }

    def test_no_pass_runs_twice_on_the_stage_input(self, stage_input,
                                                   monkeypatch, request):
        from flowtune import transforms
        kinds = []
        run_pass = transforms._run_pass

        def recording(g, kind):
            if g == stage_input:
                kinds.append(kind)
            return run_pass(g, kind)

        monkeypatch.setattr(transforms, "_run_pass", recording)
        run(stage_input, StageSchedule(2, 6), seed=3)
        want = self.RUN_ON_INPUT[request.node.callspec.params["stage_input"]]
        assert sorted(kinds) == sorted(want)

    def test_evicting_every_result_changes_nothing(self, stage_input):
        # max_ands=0 evicts each init result before any pull can reuse it
        kept = run(stage_input, StageSchedule(2, 6), seed=3)
        evicted = run(stage_input, StageSchedule(2, 6), seed=3,
                      cache=FlowCache(max_ands=0))
        assert evicted.final == kept.final
        assert evicted.best_flow_overall == kept.best_flow_overall
        assert evicted.log == kept.log
