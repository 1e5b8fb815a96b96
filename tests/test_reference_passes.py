"""Differential tests: each pass against its reference in reference_passes."""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune import Aig, AigBuilder, GenSpec, apply, gen_random, transforms
from flowtune.transforms import DEFAULT_KINDS, TransformKind

import reference_passes

K = TransformKind
# the graphs whose pass outputs test_pass_outputs_pinned pins
PINNED_SPECS = (GenSpec(12, 600, 8, 2024), GenSpec(20, 900, 8, 77))


def _same_as_reference(g) -> None:
    res, rep = apply(g, K.RESUB)
    want, tnodes = reference_passes.resub(g)
    assert rep.tnodes == tnodes
    assert res == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), ni=st.integers(4, 14),
       ands=st.integers(0, 300), weak=st.booleans())
def test_exhaustive_resub_matches_reference(seed, ni, ands, weak):
    # up to 16 inputs the signatures only group candidates, so one-pattern
    # signatures must give the same result: the blocks alone split the
    # groups, each of them needed
    g = gen_random(GenSpec(ni, ands, 4, seed))
    patterns = 1 if weak else transforms._RESUB_PATTERNS
    with mock.patch.object(transforms, "_RESUB_PATTERNS", patterns):
        _same_as_reference(g)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), ni=st.integers(17, 20),
       ands=st.integers(0, 400))
def test_sampled_resub_matches_reference(seed, ni, ands):
    _same_as_reference(gen_random(GenSpec(ni, ands, 4, seed)))


def test_pinned_inputs_resub_matches_reference():
    for spec in PINNED_SPECS:
        _same_as_reference(gen_random(spec))


def _rewrite_same_as_reference(g) -> None:
    for kind, zero_cost in ((K.REWRITE, False), (K.REWRITE_Z, True)):
        res, rep = apply(g, kind)
        want, tnodes = reference_passes.rewrite(g, zero_cost)
        assert rep.tnodes == tnodes, kind
        assert res == want, kind
        if rep.twin_same:
            # FlowCache stores this result for the twin without running it
            twin = reference_passes.rewrite(g, not zero_cost)
            assert twin == (want, tnodes), kind


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), ni=st.integers(4, 20),
       ands=st.integers(0, 400),
       steps=st.lists(st.sampled_from(DEFAULT_KINDS), max_size=3))
def test_rewrite_matches_reference(seed, ni, ands, steps):
    # each pass of a short seeded chain, so rewrite also meets graphs on
    # which it first fires past the start
    g = gen_random(GenSpec(ni, ands, 4, seed))
    for kind in steps:
        _rewrite_same_as_reference(g)
        g = apply(g, kind)[0]
    _rewrite_same_as_reference(g)


def _planted(seed: int) -> Aig:
    """A small graph of random ANDs and planted reassociations
    AND(AND(s, u), AND(s, v)), which gen_random graphs almost never hold.
    About a third also hold AND(s, AND(u, v)); the rest hold only
    AND(u, v), an even trade when s is deeper than u and v, as about half
    of all s are."""
    rng = random.Random(seed)
    b = AigBuilder(rng.randint(3, 6))
    ins = b.input_literals()
    lits = list(ins)

    def pick() -> int:
        return rng.choice(lits) ^ rng.getrandbits(1)

    for _ in range(rng.randint(1, 10)):
        s, u, v = pick(), pick(), pick()
        if rng.getrandbits(1):
            s = b.add(s, pick())
            u, v = (l ^ rng.getrandbits(1) for l in rng.sample(ins, 2))
        uv = b.add(u, v)
        lits.append(b.add(s, uv) if rng.random() < 0.3 else uv)
        lits.append(b.add(b.add(s, u), b.add(s, v)))
        lits.append(b.add(pick(), pick()))
    lits = [l for l in lits if l > 1]
    return Aig.compact(b, rng.sample(lits, min(len(lits), rng.randint(1, 6))))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_planted_rewrite_matches_reference(seed):
    _rewrite_same_as_reference(_planted(seed))


def test_pinned_inputs_rewrite_matches_reference():
    for spec in PINNED_SPECS:
        _rewrite_same_as_reference(gen_random(spec))
