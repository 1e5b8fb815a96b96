"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The statistical experiments are fully seeded, so every
number below is reproducible.
"""

import itertools
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from math import comb

import pytest

from flowtune import (GenSpec, Multiset, ParseError, apply, apply_flow,
                      count_m_repetition, count_multiset,
                      count_none_repetition, equivalent, gen_random, metrics,
                      parse_aiger, parse_blif, sample_permutation, simulate,
                      write_aiger)
from flowtune.bandit import run_bernoulli_random, run_bernoulli_ucb
from flowtune.cli import main
from flowtune.multistage import (SCHEDULE_PRESETS, StageSchedule,
                                 profile_positions, random_baseline, run)
from flowtune.transforms import DEFAULT_KINDS, FlowCache, TransformKind

# the fixed benchmark suite: 1,000..5,000 target ANDs, log-spaced,
# redundancy-injected by construction
SUITE_SPECS = [
    GenSpec(num_inputs=24 + 8 * (i % 5),
            num_ands=round(1000 * 5 ** (i / 19)),
            num_outputs=16,
            seed=9000 + i)
    for i in range(20)
]

# smaller suite for the transformable-node profiling criterion
PROFILE_SPECS = [
    GenSpec(24, 600, 8, 101),
    GenSpec(28, 700, 8, 102),
    GenSpec(32, 800, 8, 103),
    GenSpec(36, 900, 8, 104),
    GenSpec(40, 1000, 8, 105),
]


def report(criterion: int, detail: str, t0: float) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {detail} "
          f"[{time.perf_counter() - t0:.1f}s]")


def test_criterion_1_combinatorics_exact():
    t0 = time.perf_counter()
    assert count_none_repetition(3) == 6
    assert count_m_repetition(2, 2) == 6
    oracle = (comb(24, 4) * comb(20, 4) * comb(16, 4) * comb(12, 4)
              * comb(8, 4) * comb(4, 4))
    assert count_m_repetition(6, 4) == oracle == 3_246_670_537_110_000

    def vectors(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(1, total - parts + 2):
            for rest in vectors(total - head, parts - 1):
                yield (head, *rest)

    checked = 0
    for parts in range(1, 6):
        for total in range(parts, 9):
            for vec in vectors(total, parts):
                items = [i for i, m in enumerate(vec) for _ in range(m)]
                brute = len(set(itertools.permutations(items)))
                assert count_multiset(vec) == brute, vec
                checked += 1
    report(1, f"examples exact, {checked} multisets vs brute force", t0)


def test_criterion_2_functional_preservation():
    t0 = time.perf_counter()
    rng = random.Random(314159)
    circuits = []
    for i in range(200):
        spec = GenSpec(num_inputs=8 + i % 7,
                       num_ands=100 + rng.randrange(701),
                       num_outputs=4 + i % 5,
                       seed=5000 + i)
        circuits.append(gen_random(spec))

    checks = 0
    for g in circuits:
        for kind in DEFAULT_KINDS:
            res, _ = apply(g, kind)
            assert equivalent(g, res, "exhaustive"), (g, kind)
            checks += 1

    ms4 = Multiset.uniform(DEFAULT_KINDS, 4)
    flow_rng = random.Random(271828)
    for i in range(100):
        g = circuits[(i * 2) % len(circuits)]
        flow = sample_permutation(ms4, flow_rng)
        res, _ = apply_flow(g, flow)
        assert equivalent(g, res, "exhaustive"), i
        checks += 1
    report(2, f"{checks} exhaustive equivalence checks, 100% preserved", t0)


def test_criterion_3_profiling_decay():
    t0 = time.perf_counter()
    per_pos = [[] for _ in range(len(DEFAULT_KINDS))]
    for spec in PROFILE_SPECS:
        g = gen_random(spec)
        for row in profile_positions(g, DEFAULT_KINDS, 20, seed=spec.seed):
            per_pos[row["position"] - 1].append(row["mean_rel"])
    means = [statistics.mean(vals) for vals in per_pos]
    assert means[2] < 0.5 * means[0], means
    assert means[0] == max(means), means
    report(3, "normalized tnodes by position: "
              + ", ".join(f"{m:.3f}" for m in means)
              + " (pos3 < 0.5*pos1, pos1 max, 100 flows)", t0)


def test_criterion_4_ucb1_regret():
    t0 = time.perf_counter()
    means = [0.9, 0.5, 0.5, 0.4, 0.1]
    best = max(range(len(means)), key=lambda i: means[i])
    shares, ucb_regret, rand_regret = [], [], []
    for seed in range(20):
        ucb = run_bernoulli_ucb(means, 10_000, seed)
        rnd = run_bernoulli_random(means, 10_000, seed)
        shares.append(ucb.pulls[best] / 10_000)
        ucb_regret.append(ucb.regret[-1])
        rand_regret.append(rnd.regret[-1])
    med_share = statistics.median(shares)
    med_ucb = statistics.median(ucb_regret)
    med_rand = statistics.median(rand_regret)
    assert med_share >= 0.8, med_share
    assert med_ucb < med_rand / 3, (med_ucb, med_rand)
    report(4, f"best-arm share {med_share:.3f} >= 0.8, regret "
              f"{med_ucb:.0f} < {med_rand:.0f}/3 (20 seeds)", t0)


def _suite_worker(idx: int):
    spec = SUITE_SPECS[idx]
    g = gen_random(spec)
    cache = FlowCache()
    mab, rnd = [], []
    for seed in range(10):
        res = run(g, StageSchedule(2, 30, 2), seed=seed, cache=cache)
        mab.append(res.final_qor.and_count)
        _, _, best_qor = random_baseline(
            g, Multiset.uniform(DEFAULT_KINDS), 60, seed, cache=cache)
        rnd.append(best_qor.and_count)
    presets = {"2:30": mab[0]}
    for name in SCHEDULE_PRESETS:
        if name not in presets:
            res = run(g, StageSchedule.from_preset(name), seed=0, cache=cache)
            presets[name] = res.final_qor.and_count
    return mab, rnd, presets


def test_criterion_5_mab_beats_random_at_equal_budget():
    t0 = time.perf_counter()
    # the largest circuits first, so the two workers finish close together;
    # results are put back in index order before anything is checked
    order = sorted(range(len(SUITE_SPECS)),
                   key=lambda i: -SUITE_SPECS[i].num_ands)
    with ProcessPoolExecutor(max_workers=2) as pool:
        done = dict(zip(order, pool.map(_suite_worker, order)))
    results = [done[i] for i in range(len(SUITE_SPECS))]
    all_mab = [v for mab, _, _ in results for v in mab]
    all_rnd = [v for _, rnd, _ in results for v in rnd]
    med_mab = statistics.median(all_mab)
    med_rnd = statistics.median(all_rnd)
    assert med_mab <= med_rnd, (med_mab, med_rnd)
    for idx, (_, _, presets) in enumerate(results):
        worst = max(presets.values())
        assert presets["2:30"] <= worst, (idx, presets)
    wins = sum(m <= r for m, r in zip(all_mab, all_rnd))
    report(5, f"median nodes {med_mab:.0f} <= {med_rnd:.0f} over 20 circuits "
              f"x 10 seeds ({wins}/200 paired runs not worse); 2:30 never "
              f"worse than the worst preset on any circuit", t0)


def test_criterion_6_exploration_accounting():
    t0 = time.perf_counter()
    g = gen_random(GenSpec(16, 500, 8, 4242))
    for name, (s, m) in SCHEDULE_PRESETS.items():
        res = run(g, StageSchedule(s, m), seed=77, cache=FlowCache())
        assert len(res.log) == s * m, name
        replayed, _ = apply_flow(g, res.best_flow_overall)
        q = metrics(replayed)
        assert q.and_count == res.final_qor.and_count, name
        assert q.depth == res.final_qor.depth, name
    report(6, "all five presets logged exactly s*m pulls; replay of the "
              "best flow reproduced the final QoR bit-exactly", t0)


def test_criterion_7_format_roundtrip_and_fuzz():
    t0 = time.perf_counter()
    for seed in range(100):
        g = gen_random(GenSpec(4 + seed % 10, 30 + seed * 4, 3, 7000 + seed))
        back = parse_aiger(write_aiger(g))
        assert back.structurally_equal(g), seed

    # BLIF cover fixtures against cover semantics
    and_cover = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                           ".names a b f\n11 1\n.end")
    assert simulate(and_cover, ["0101", "0011"]) == ["0001"]
    nand_cover = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                            ".names a b f\n0- 1\n-0 1\n.end")
    assert simulate(nand_cover, ["0101", "0011"]) == ["1110"]
    or_cover = parse_blif(".model m\n.inputs a b\n.outputs f\n"
                          ".names a b f\n1- 1\n-1 1\n.end")
    assert simulate(or_cover, ["0101", "0011"]) == ["0111"]

    rng = random.Random(98765)
    base_aag = write_aiger(gen_random(GenSpec(5, 40, 3, 1)))
    base_blif = (".model m\n.inputs a b c\n.outputs f g\n"
                 ".names a b x\n11 1\n.names x c f\n1- 1\n-1 1\n"
                 ".names a c g\n10 0\n.end\n")
    survived = 0
    for i in range(10_000):
        r = rng.random()
        if r < 0.3:
            text = "".join(chr(rng.randrange(1, 127))
                           for _ in range(rng.randrange(0, 160)))
        else:
            chars = list(base_aag if r < 0.65 else base_blif)
            for _ in range(rng.randrange(1, 8)):
                chars[rng.randrange(len(chars))] = chr(rng.randrange(9, 127))
            text = "".join(chars)
        parser = parse_aiger if i % 2 == 0 else parse_blif
        try:
            parser(text)
        except ParseError:
            pass
        survived += 1
    assert survived == 10_000
    report(7, "100 round-trips structurally identical; covers match their "
              "semantics; 10,000 fuzzed parses without a crash", t0)


def test_criterion_8_determinism_under_parallelism(tmp_path):
    t0 = time.perf_counter()
    for i in range(5):  # the five smallest suite circuits
        src = tmp_path / f"c{i}.aag"
        src.write_text(write_aiger(gen_random(SUITE_SPECS[i])))
        outs = []
        for jobs in ("1", "8"):
            prefix = tmp_path / f"c{i}_j{jobs}"
            rc = main(["explore", "--input", str(src), "--seed", "606",
                       "--preset", "2:30", "--jobs", jobs,
                       "--out", str(prefix)])
            assert rc == 0
            outs.append(tuple((prefix.parent / (prefix.name + ext)).read_bytes()
                              for ext in (".csv", ".json", ".aag")))
        assert outs[0] == outs[1], f"circuit {i} differs between job counts"
    report(8, "explore outputs byte-identical for --jobs 1 and --jobs 8 "
              "on 5 suite circuits", t0)
