import itertools
import random
from math import comb

import pytest

from flowtune import (Multiset, count_m_repetition, count_multiset,
                      count_none_repetition, flow_length, sample_conditioned,
                      sample_permutation)
from flowtune.transforms import TransformKind

# frozen chi-square critical values at alpha = 0.001
CHI2_DOF5 = 20.515005652432873
CHI2_DOF1 = 10.827566170662733

K = list(TransformKind)


def product_factorial(n):
    """Oracle: repeated multiplication, no library factorial."""
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def enumerate_arrangements(items):
    """Oracle: brute-force distinct permutations."""
    return len(set(itertools.permutations(items)))


class TestCounts:
    def test_none_repetition_examples(self):
        assert count_none_repetition(3) == 6
        assert count_none_repetition(0) == 1
        assert count_none_repetition(20) == 2432902008176640000
        for n in range(12):
            assert count_none_repetition(n) == product_factorial(n)

    def test_m_repetition_examples(self):
        assert count_m_repetition(2, 2) == 6
        assert count_m_repetition(1, 5) == 1
        # independent oracle: choosing each kind's positions in turn
        binom = (comb(24, 4) * comb(20, 4) * comb(16, 4) * comb(12, 4)
                 * comb(8, 4) * comb(4, 4))
        assert count_m_repetition(6, 4) == binom == 3246670537110000

    def test_m_repetition_against_enumeration(self):
        for n, m in [(1, 3), (2, 2), (3, 2), (2, 3)]:
            items = [i for i in range(n) for _ in range(m)]
            assert count_m_repetition(n, m) == enumerate_arrangements(items)

    def test_multiset_examples(self):
        assert count_multiset([2, 1, 1]) == 12
        assert count_multiset([2, 1, 1]) == enumerate_arrangements("aabc")
        assert flow_length([2, 1, 1]) == 4

    def test_multiset_specializations(self):
        assert count_multiset([4] * 3) == count_m_repetition(3, 4)
        assert count_multiset([1] * 6) == count_none_repetition(6)

    def test_multiset_brute_force_total_up_to_8(self):
        # every repetition vector with total length <= 8
        def vectors(total, parts):
            if parts == 1:
                if total >= 1:
                    yield (total,)
                return
            for head in range(1, total - parts + 2):
                for rest in vectors(total - head, parts - 1):
                    yield (head, *rest)

        for parts in range(1, 5):
            for total in range(parts, 9):
                for vec in vectors(total, parts):
                    items = [i for i, m in enumerate(vec) for _ in range(m)]
                    assert count_multiset(vec) == enumerate_arrangements(items), vec

    def test_preconditions(self):
        with pytest.raises(ValueError):
            count_none_repetition(-1)
        with pytest.raises(ValueError):
            count_m_repetition(-1, 2)
        with pytest.raises(ValueError):
            count_m_repetition(2, 0)
        assert count_m_repetition(0, 3) == 1 == count_none_repetition(0)
        with pytest.raises(ValueError):
            count_multiset([1, 0])
        with pytest.raises(ValueError):
            Multiset({})


class TestSampling:
    def test_singleton_multiset(self):
        ms = Multiset({K[0]: 1})
        rng = random.Random(0)
        for _ in range(10):
            assert sample_permutation(ms, rng) == (K[0],)

    def test_counts_preserved(self):
        ms = Multiset({K[0]: 2, K[1]: 1, K[2]: 3})
        rng = random.Random(4)
        for _ in range(50):
            flow = sample_permutation(ms, rng)
            assert len(flow) == 6
            assert flow.count(K[0]) == 2
            assert flow.count(K[1]) == 1
            assert flow.count(K[2]) == 3

    def test_permutation_uniformity_chi_square(self):
        ms = Multiset({K[0]: 1, K[1]: 1, K[2]: 1})
        rng = random.Random(2718)
        n = 60000
        counts = {}
        for _ in range(n):
            flow = sample_permutation(ms, rng)
            counts[flow] = counts.get(flow, 0) + 1
        assert len(counts) == 6
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_DOF5

    def test_conditioned_pair(self):
        ms = Multiset({K[0]: 1, K[1]: 1})
        rng = random.Random(1)
        for _ in range(10):
            assert sample_conditioned(K[0], ms, rng) == (K[0], K[1])

    def test_conditioned_uniformity_chi_square(self):
        ms = Multiset({K[0]: 1, K[1]: 1, K[2]: 1})
        rng = random.Random(31415)
        n = 40000
        counts = {}
        for _ in range(n):
            flow = sample_conditioned(K[0], ms, rng)
            assert flow[0] is K[0]
            counts[flow] = counts.get(flow, 0) + 1
        assert len(counts) == 2
        expected = n / 2
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_DOF1

    def test_conditioned_support_and_counts(self):
        ms = Multiset({K[0]: 2, K[1]: 1, K[2]: 2})
        rng = random.Random(8)
        support = {sample_permutation(ms, rng) for _ in range(2000)}
        for _ in range(200):
            flow = sample_conditioned(K[2], ms, rng)
            assert flow[0] is K[2]
            assert flow.count(K[0]) == 2
            assert flow.count(K[2]) == 2
            assert flow in support

    def test_conditioned_missing_kind(self):
        ms = Multiset({K[0]: 1})
        with pytest.raises(ValueError):
            sample_conditioned(K[1], ms, random.Random(0))

    def test_seeded_determinism(self):
        ms = Multiset({K[0]: 2, K[1]: 2})
        a = [sample_permutation(ms, random.Random(7)) for _ in range(20)]
        b = [sample_permutation(ms, random.Random(7)) for _ in range(20)]
        assert a == b
