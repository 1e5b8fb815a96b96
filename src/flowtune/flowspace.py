"""Flow search-space combinatorics and conditioned permutation sampling.

A flow is an ordered tuple of transformation kinds drawn from a multiset
(each kind with its own repetition budget).  Counting is exact big-integer
arithmetic throughout; sampling expands the multiset and shuffles, which
is uniform over distinct arrangements.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .transforms import Flow, TransformKind


class _Counts(NamedTuple):
    counts: dict[TransformKind, int]


class Multiset(_Counts):
    """Repetition budget per transformation kind; every count is >= 1."""

    __slots__ = ()

    def __new__(cls, counts: dict[TransformKind, int] | None = None):
        if not counts:
            raise ValueError("multiset must not be empty")
        for kind, m in counts.items():
            if m < 1:
                raise ValueError(f"repetition count for {kind} must be >= 1, got {m}")
        return super().__new__(cls, counts)

    @classmethod
    def uniform(cls, kinds, m: int = 1) -> "Multiset":
        return cls({k: m for k in kinds})

    @property
    def total(self) -> int:
        """Flow length L, the sum of all repetition counts."""
        return sum(self.counts.values())

    def expand(self) -> list[TransformKind]:
        out = []
        for kind, m in self.counts.items():
            out.extend([kind] * m)
        return out

    def arrangements(self) -> int:
        return count_multiset(self.counts.values())


def count_none_repetition(n: int) -> int:
    """Number of flows when each of n transformations appears once: n!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.factorial(n)


def count_m_repetition(n: int, m: int) -> int:
    """Number of flows with n kinds, each repeated m times: (n*m)!/(m!)^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.factorial(n * m) // math.factorial(m) ** n


def count_multiset(m_vec) -> int:
    """Multinomial count of distinct arrangements of a repetition vector."""
    m_vec = list(m_vec)
    if not m_vec or any(m < 1 for m in m_vec):
        raise ValueError("every repetition count must be >= 1")
    total = sum(m_vec)
    out = math.factorial(total)
    for m in m_vec:
        out //= math.factorial(m)
    return out


def flow_length(m_vec) -> int:
    return sum(m_vec)


def sample_permutation(multiset: Multiset, rng: random.Random) -> Flow:
    """Uniform arrangement of the multiset (expand, then Fisher-Yates)."""
    items = multiset.expand()
    rng.shuffle(items)
    return tuple(items)


def sample_conditioned(first: TransformKind, multiset: Multiset,
                       rng: random.Random) -> Flow:
    """Uniform arrangement constrained to start with *first*."""
    if multiset.counts.get(first, 0) < 1:
        raise ValueError(f"{first} is not available in the multiset")
    rest = []
    for kind, m in multiset.counts.items():
        rest.extend([kind] * (m - 1 if kind is first else m))
    rng.shuffle(rest)
    return (first, *rest)
