"""Differential tests: each pass against its reference in reference_passes."""

import functools
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune import Aig, AigBuilder, GenSpec, apply, gen_random, transforms
from flowtune.transforms import DEFAULT_KINDS, FlowCache, TransformKind

import reference_passes

K = TransformKind
# the graphs whose pass outputs test_pass_outputs_pinned pins
PINNED_SPECS = (GenSpec(12, 600, 8, 2024), GenSpec(20, 900, 8, 77))

REFERENCE = {
    K.BALANCE: reference_passes.balance,
    K.REWRITE: functools.partial(reference_passes.rewrite, zero_cost=False),
    K.REWRITE_Z: functools.partial(reference_passes.rewrite, zero_cost=True),
    K.REFACTOR: functools.partial(reference_passes.refactor, zero_cost=False),
    K.REFACTOR_Z: functools.partial(reference_passes.refactor, zero_cost=True),
    K.RESUB: reference_passes.resub,
}
# each kind that reports twin_same, and the kind it speaks for
TWIN = {K.REWRITE: K.REWRITE_Z, K.REWRITE_Z: K.REWRITE,
        K.REFACTOR: K.REFACTOR_Z, K.REFACTOR_Z: K.REFACTOR}
REWRITES = (K.REWRITE, K.REWRITE_Z)
REFACTORS = (K.REFACTOR, K.REFACTOR_Z)


def _same_as_reference(g, kinds=(K.RESUB,)) -> dict:
    """Check each of *kinds* on *g*; returns the reference results run."""
    refs = {}

    def ref(kind):
        if kind not in refs:
            refs[kind] = REFERENCE[kind](g)
        return refs[kind]

    for kind in kinds:
        res, rep = apply(g, kind)
        want, tnodes = ref(kind)
        assert rep.tnodes == tnodes, kind
        assert res == want, kind
        if rep.twin_same:
            # FlowCache stores this result for the twin without running it
            assert ref(TWIN[kind]) == (want, tnodes), kind
    return refs


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


def _chain_same_as_reference(spec, steps, kinds) -> None:
    # each pass of a short seeded chain, so a pass also meets graphs on
    # which it first fires past the start
    g = gen_random(spec)
    for kind in steps:
        _same_as_reference(g, kinds)
        g = apply(g, kind)[0]
    _same_as_reference(g, kinds)


CHAIN = dict(seed=st.integers(0, 10_000), ni=st.integers(4, 20),
             ands=st.integers(0, 400),
             steps=st.lists(st.sampled_from(DEFAULT_KINDS), max_size=3))


@settings(max_examples=40, deadline=None)
@given(**CHAIN)
def test_rewrite_matches_reference(seed, ni, ands, steps):
    _chain_same_as_reference(GenSpec(ni, ands, 4, seed), steps, REWRITES)


@settings(max_examples=40, deadline=None)
@given(**CHAIN)
def test_refactor_matches_reference(seed, ni, ands, steps):
    _chain_same_as_reference(GenSpec(ni, ands, 4, seed), steps, REFACTORS)


@settings(max_examples=40, deadline=None)
@given(**CHAIN)
def test_balance_matches_reference(seed, ni, ands, steps):
    _chain_same_as_reference(GenSpec(ni, ands, 4, seed), steps, (K.BALANCE,))


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
    _same_as_reference(_planted(seed), REWRITES)


def test_pinned_inputs_rewrite_matches_reference():
    for spec in PINNED_SPECS:
        _same_as_reference(gen_random(spec), REWRITES)


def test_pinned_inputs_refactor_matches_reference():
    for spec in PINNED_SPECS:
        _same_as_reference(gen_random(spec), REFACTORS)


def test_pinned_inputs_balance_matches_reference():
    for spec in PINNED_SPECS:
        _same_as_reference(gen_random(spec), (K.BALANCE,))


def _pair_lists(ni: int, max_ands: int, pairs=()):
    """Every fanin-pair sequence of a strashed AIG over *ni* inputs with
    at most *max_ands* ANDs, each AND reading two literals of distinct
    earlier non-constant nodes, no pair twice, in every creation order."""
    yield pairs
    if len(pairs) < max_ands:
        for y in range(2, 2 * (ni + len(pairs)) + 2):
            for x in range(2, y & ~1):  # literals of lower nodes
                if (x, y) not in pairs:
                    yield from _pair_lists(ni, max_ands, pairs + ((x, y),))


def _small_graphs(max_inputs: int, max_ands: int):
    """Every strashed AIG with 1 to *max_inputs* inputs and at most
    *max_ands* ANDs, each with every choice of output nodes: the ANDs no
    AND reads, so that none dangles, and any subset of the others.  The
    outputs of every other pair of graphs are complemented."""
    i = 0
    for ni in range(1, max_inputs + 1):
        for pairs in _pair_lists(ni, max_ands):
            ands = range(ni + 1, ni + 1 + len(pairs))
            read = {l >> 1 for p in pairs for l in p}
            inner = [n for n in ands if n in read]
            for m in range(1 << len(inner)):
                b = AigBuilder(ni)
                for x, y in pairs:
                    b.add(x, y)
                outs = [n for n in ands
                        if n not in read or m >> inner.index(n) & 1]
                yield Aig.compact(b, [n << 1 | (i >> 1 & 1) for n in outs])
                i += 1


# the graphs _small_graphs(3, 3) yields, a bound under which checking all
# six kinds takes about 10 s; 4 ANDs would give about 2.3 million
GRAPHS_UP_TO_3_INPUTS_3_ANDS = 28_611


def test_small_graphs_match_reference():
    # bounded-exhaustive: every kind on every graph up to 3 inputs and 3
    # ANDs; one-pattern signatures on half of them, so that resub's
    # blocks do the splitting
    graphs = list(_small_graphs(3, 3))
    assert len(graphs) == GRAPHS_UP_TO_3_INPUTS_3_ANDS
    for weak in (False, True):
        patterns = 1 if weak else transforms._RESUB_PATTERNS
        with mock.patch.object(transforms, "_RESUB_PATTERNS", patterns):
            for g in graphs[weak::2]:
                res, tnodes = _same_as_reference(g, DEFAULT_KINDS)[K.RESUB]
                # FlowCache stores exhaustive resub's result as its own
                # no-op (a no-op's result is g, just checked)
                assert not tnodes or reference_passes.resub(res) == (res, 0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), ni=st.integers(4, 20),
       ands=st.integers(0, 300))
def test_flow_cache_matches_reference(seed, ni, ands):
    # flows that share prefixes, so that steps hit entries run before and
    # entries implied by a twin or an exhaustive resub; under a bound of
    # one input graph the cache also evicts
    start = gen_random(GenSpec(ni, ands, 4, seed))
    rng = random.Random(seed)
    for cache in (FlowCache(), FlowCache(max_ands=start.num_ands)):
        flow = []
        for _ in range(6):
            flow = flow[:rng.randint(0, len(flow))]
            flow += rng.choices(DEFAULT_KINDS, k=rng.randint(1, 4))
            reports = cache.apply_flow(start, flow)[1]
            g = start
            for i, (kind, rep) in enumerate(zip(flow, reports)):
                g, tnodes = REFERENCE[kind](g)
                assert rep.tnodes == tnodes, (i, kind)
                assert cache.apply_flow(start, flow[:i + 1])[0] == g, (i, kind)
