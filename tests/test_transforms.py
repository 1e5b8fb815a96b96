import hashlib
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune import (Aig, AigBuilder, GenSpec, Multiset, StageSchedule,
                      apply, apply_flow, count_transformable, equivalent,
                      gen_random, metrics, parse_aiger, parse_blif, run,
                      sample_permutation, transforms, write_aiger)
from flowtune.aig import (_PATTERNS, BLOCK_INPUTS, EXHAUSTIVE_INPUT_LIMIT,
                          _eval_nodes, input_patterns)
from flowtune.transforms import (_RESUB_PATTERNS, _RESUB_SEED, DEFAULT_KINDS,
                                 FlowCache, TransformKind, _cone_tt, _cones,
                                 _exhaustive_classes, _run_pass)

from conftest import (NAMED_BLIF, build_absorption, build_balanced_tree,
                      build_chain)
from test_reference_passes import REFACTORS, _same_as_reference

K = TransformKind


@pytest.fixture(scope="module")
def wide16() -> Aig:
    """A 16-input, 8,537-AND graph, the size of an exhaustive init input."""
    return gen_random(GenSpec(16, 8000, 16, 9100))


def _full_table_classes(g: Aig) -> list[list[int]]:
    """Classes of nodes with equal full truth tables, from one table
    per node, sorted."""
    ni = g.num_inputs
    vals = _eval_nodes(g, input_patterns(ni), (1 << (1 << ni)) - 1)
    groups = {}
    for n, v in enumerate(vals):
        groups.setdefault(v, []).append(n)
    return sorted(c for c in groups.values() if len(c) > 1)


class TestBalance:
    def test_chain_rebalanced(self, chain8):
        assert count_transformable(chain8, K.BALANCE) >= 1
        res, rep = apply(chain8, K.BALANCE)
        assert rep.depth_after == 3
        assert rep.nodes_after == 7
        assert equivalent(chain8, res)

    def test_balanced_tree_untouched(self):
        tree = build_balanced_tree(8)
        assert count_transformable(tree, K.BALANCE) == 0
        res, rep = apply(tree, K.BALANCE)
        assert rep.tnodes == 0
        assert res.structurally_equal(tree)

    def test_idempotent_on_chain(self, chain8):
        once, _ = apply(chain8, K.BALANCE)
        _, rep = apply(once, K.BALANCE)
        assert rep.tnodes == 0

    def test_never_increases_depth(self):
        for seed in range(8):
            g = gen_random(GenSpec(10, 300, 6, seed))
            _, rep = apply(g, K.BALANCE)
            assert rep.depth_after <= rep.depth_before


class TestRewrite:
    def test_absorption(self, absorption):
        assert count_transformable(absorption, K.REWRITE) >= 1
        res, rep = apply(absorption, K.REWRITE)
        assert rep.nodes_after == rep.nodes_before - 1
        assert equivalent(absorption, res)

    def test_contradiction_folds_to_constant(self):
        # AND(AND(a, b), AND(not a, c)) is constant false
        gb = AigBuilder(3)
        a, b, c = gb.input_literals()
        g = Aig.compact(gb, [gb.add_and(gb.add_and(a, b),
                                        gb.add_and(a ^ 1, c))])
        assert count_transformable(g, K.REWRITE) >= 1
        res, _ = apply(g, K.REWRITE)
        assert metrics(res).and_count == 0
        assert equivalent(g, res)

    def test_count_matches_apply(self, redundant_small):
        for kind in (K.REWRITE, K.REWRITE_Z):
            assert count_transformable(redundant_small, kind) == \
                apply(redundant_small, kind)[1].tnodes

    def test_zero_cost_even_trade(self):
        # s = (x & y) & z is deeper than u and v, and AND(u, v) exists
        # before the reconvergence (s & u) & (s & v): only rewrite_z
        # reassociates it to s & AND(u, v)
        b = AigBuilder(5)
        x, y, z, u, v = b.input_literals()
        uv = b.add_and(u, v)
        s = b.add_and(b.add_and(x, y), z)
        g = Aig.compact(b, [b.add_and(b.add_and(s, u), b.add_and(s, v)),
                            uv])
        assert g.num_ands == 6
        res, rep = apply(g, K.REWRITE)
        assert (res.num_ands, rep.tnodes) == (6, 0)
        # the even trade is where the twins part, so neither answers for
        # the other and the cache stores the plain kind's no-op alone
        assert not rep.twin_same
        cache = FlowCache()
        cache.apply_flow(g, (K.REWRITE,))
        assert list(cache._results) == [(g, K.REWRITE)]
        res, rep = apply(g, K.REWRITE_Z)
        assert (res.num_ands, rep.tnodes, rep.twin_same) == (4, 1, False)
        assert rep.depth_after < rep.depth_before
        assert equivalent(g, res)

    def test_no_hash_outlives_the_pass(self, wide16):
        # each pass keeps its identity-mode lookup to itself; a memo of the
        # input's structural hash would hold about 880 KB of this input
        tracemalloc.start()
        try:
            res, rep = apply(wide16, K.REWRITE)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rep.tnodes > 0 and res.num_ands < wide16.num_ands
        assert held < 100_000, held

    def test_partners_created_later_are_not_seen(self):
        # AND(u, v) and AND(s, AND(u, v)) exist in the input, but only
        # after the reconvergence: rewrite rebuilds in creation order, so
        # neither kind may reassociate into them
        g = _late_partner()
        for kind in (K.REWRITE, K.REWRITE_Z):
            res, rep = apply(g, kind)
            assert rep.tnodes == 0, kind
            assert res is g, kind


def _late_partner() -> Aig:
    """(s & u) & (s & v) with s deeper than u and v, followed by AND(u, v)
    and s & AND(u, v): reassociation partners created after the node.
    s & u and s & v are outputs too, so refactor and balance leave the
    graph as it is."""
    b = AigBuilder(5)
    x, y, z, u, v = b.input_literals()
    s = b.add_and(b.add_and(x, y), z)
    su = b.add_and(s, u)
    sv = b.add_and(s, v)
    top = b.add_and(su, sv)
    uv = b.add_and(u, v)
    return Aig.compact(b, [top, uv, b.add_and(s, uv), su, sv])


class TestCones:
    @pytest.mark.parametrize("spec", [GenSpec(6, 40, 3, 1),
                                      GenSpec(12, 300, 8, 2),
                                      GenSpec(20, 900, 8, 77),
                                      GenSpec(30, 600, 1, 9),
                                      # a cone with a complementary pair
                                      GenSpec(8, 100, 4, 34)])
    def test_matches_definition(self, spec):
        g = gen_random(spec)
        ni = g.num_inputs
        refs = {n: [] for n in g.and_nodes()}  # (consumer, complemented)
        for n in g.and_nodes():
            for f in g.fanins(n):
                if f >> 1 > ni:
                    refs[f >> 1].append((n, f & 1))
        outs = {l >> 1 for l in g.outputs}

        def joins_consumer(n):
            return (len(refs[n]) == 1 and refs[n][0][1] == 0
                    and n not in outs)

        nodes, cone_at, flat_leaves, leaf_at = _cones(g)
        for a in (nodes, cone_at, flat_leaves, leaf_at):
            assert a.itemsize == 4
        assert cone_at[0] == leaf_at[0] == 0
        assert cone_at[-1] == len(nodes) and leaf_at[-1] == len(flat_leaves)
        cones = [(nodes[cone_at[i + 1] - 1],
                  list(nodes[cone_at[i]:cone_at[i + 1]]),
                  list(flat_leaves[leaf_at[i]:leaf_at[i + 1]]))
                 for i in range(len(cone_at) - 1)]
        roots = [root for root, _, _ in cones]
        assert roots == sorted(roots)
        cone_of = {}
        for root, members, leaves in cones:
            assert members == sorted(members) and members[-1] == root
            for u in members:
                assert u not in cone_of
                cone_of[u] = root
            assert not joins_consumer(root)
            outside = [f for u in members for f in g.fanins(u)
                       if f >> 1 not in members]
            assert leaves == outside
        assert sorted(cone_of) == list(g.and_nodes())
        for root, members, _ in cones:
            for u in members[:-1]:
                assert joins_consumer(u)
                assert cone_of[refs[u][0][0]] == root
        assert any(len(members) > 1 for _, members, _ in cones)
        # the premise refactor rests on: every root computes the AND of its
        # leaf literals, which is constant 0 when two are complementary
        rng = random.Random(spec.seed)
        mask = (1 << 256) - 1
        vals = _eval_nodes(g, [rng.getrandbits(256) for _ in range(ni)],
                           mask)
        for root, _, leaves in cones:
            conj = mask
            for l in leaves:
                conj &= vals[l >> 1] ^ (mask if l & 1 else 0)
            assert vals[root] == conj, root
            if any(l ^ 1 in leaves for l in leaves):
                assert conj == 0, root

    def test_partition_memory_bounded(self, wide16):
        # 4-byte arrays: an AND id, about one leaf and the offsets per AND,
        # where a tuple and two lists per cone took about 200 bytes
        _cones.cache_clear()
        tracemalloc.start()
        try:
            _cones(wide16)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 24 * wide16.num_ands, held


class TestRefactor:
    def test_redundant_cone_shrinks(self):
        # x&y and x&z reconverging: 3 gates for a 3-input product
        b = AigBuilder(3)
        x, y, z = b.input_literals()
        g = Aig.compact(b, [b.add_and(b.add_and(x, y), b.add_and(x, z))])
        assert count_transformable(g, K.REFACTOR) >= 1
        res, rep = apply(g, K.REFACTOR)
        assert rep.nodes_after < rep.nodes_before
        assert equivalent(g, res)

    def test_irredundant_cone_kept(self):
        tree = build_balanced_tree(8)
        assert count_transformable(tree, K.REFACTOR) == 0

    def test_zero_cost_variant_counts_at_least_strict(self, redundant_small):
        strict = count_transformable(redundant_small, K.REFACTOR)
        zero = count_transformable(redundant_small, K.REFACTOR_Z)
        assert zero >= strict

    # planted cones, each checked against reference_passes.refactor
    def test_even_trade_taken_by_zero_cost_only(self):
        # the top cone (p & q) & r becomes p & (q & r): two ANDs for two,
        # with the root one level lower, an even trade
        b = AigBuilder(6)
        x1, x2, x3, x4, x5, x6 = b.input_literals()
        p = b.add_and(b.add_and(b.add_and(x1, x2), x3), x4)
        q = b.add_and(x5, x6)
        r = b.add_and(x2, x5)
        g = Aig.compact(b, [p, q, r, b.add_and(b.add_and(p, q), r)])
        assert metrics(g).depth == 5
        _same_as_reference(g, REFACTORS)
        res, rep = apply(g, K.REFACTOR)
        assert res is g and rep.tnodes == 0 and not rep.twin_same
        res, rep = apply(g, K.REFACTOR_Z)
        assert (rep.tnodes, rep.nodes_after) == (1, g.num_ands)
        assert (rep.depth_before, rep.depth_after) == (5, 4)
        assert equivalent(g, res)

    def test_duplicated_leaf_taken_once(self):
        # ~x & y and ~x & z reconverging: the chain reads ~x once
        b = AigBuilder(3)
        x, y, z = b.input_literals()
        g = Aig.compact(b, [b.add_and(b.add_and(x ^ 1, y),
                                      b.add_and(x ^ 1, z))])
        _same_as_reference(g, REFACTORS)
        res, rep = apply(g, K.REFACTOR)
        assert (rep.tnodes, rep.nodes_before, rep.nodes_after) == (1, 3, 2)
        assert equivalent(g, res)

    def test_complementary_leaves_fold_to_false(self):
        b = AigBuilder(3)
        x, y, z = b.input_literals()
        g = Aig.compact(b, [b.add_and(b.add_and(x, y), b.add_and(x ^ 1, z))])
        _same_as_reference(g, REFACTORS)
        for kind in REFACTORS:
            res, rep = apply(g, kind)
            assert rep.tnodes == 1 and res.num_ands == 0, kind
            assert res.outputs == [0], kind

    def test_existing_inner_pair_reused(self):
        # x2 & e already exists, so x1 & (x2 & e) adds one AND for the
        # cone's two; e and f are copied into the builder first, where
        # they are renumbered, so the chain must read e's new literal
        b = AigBuilder(4)
        x1, x2, x3, x4 = b.input_literals()
        m = b.add_and(x1, x2)
        e = b.add_and(x3, x4)
        f = b.add_and(x2, e)
        g = Aig.compact(b, [f, b.add_and(m, e)])
        _same_as_reference(g, REFACTORS)
        for kind in REFACTORS:
            res, rep = apply(g, kind)
            assert (rep.tnodes, rep.nodes_after) == (1, 3), kind
            assert equivalent(g, res), kind


class TestRefactorTemplates:
    def test_derived_structure_memos_bounded(self):
        # one entry: a no-op hands its input to the next pass, and a slot
        # per graph would keep every cached graph's cones alive as long as
        # the cache holds the graph
        assert _cones.cache_info().maxsize == 1
        # a table above BLOCK_INPUTS inputs (up to 128 KB) is asked for
        # only by sampled resub's cone checks, once per pass and size, and
        # outlives no pass
        g = gen_random(GenSpec(20, 200, 4, 3))
        with mock.patch.object(transforms, "input_patterns",
                               wraps=input_patterns) as spy:
            apply(g, K.RESUB)
        wide = [c.args[0] for c in spy.call_args_list
                if c.args[0] > BLOCK_INPUTS]
        assert wide and len(wide) == len(set(wide))
        assert max(_PATTERNS) <= BLOCK_INPUTS


class TestResub:
    def test_duplicated_cone_merged(self):
        b = AigBuilder(3)
        x, y, z = b.input_literals()
        w = b.add_and(b.add_and(x, y), z)
        v = b.add_and(x, b.add_and(y, z))
        g = Aig.compact(b, [w, v])
        assert count_transformable(g, K.RESUB) >= 1
        res, rep = apply(g, K.RESUB)
        assert rep.nodes_after < rep.nodes_before
        assert equivalent(g, res)
        # both outputs now share one node
        assert res.outputs[0] == res.outputs[1]

    def test_merges_toward_lower_level(self):
        b = AigBuilder(3)
        x, y, z = b.input_literals()
        flat = b.add_and(b.add_and(x, y), z)       # level 2
        deep = b.add_and(x, b.add_and(y, b.add_and(z, z)))  # z&z folds, still level 2
        chain = b.add_and(b.add_and(b.add_and(x, x), y), z)  # level 3 shape
        g = Aig.compact(b, [flat, deep, chain])
        res, _ = apply(g, K.RESUB)
        assert equivalent(g, res)
        assert metrics(res).depth <= metrics(g).depth

    def test_no_merge_without_duplicates(self):
        tree = build_balanced_tree(8)
        assert count_transformable(tree, K.RESUB) == 0

    @pytest.mark.parametrize("spec", [GenSpec(6, 80, 3, 1),
                                      GenSpec(8, 300, 4, 2),
                                      GenSpec(10, 500, 6, 3)])
    def test_cone_tt_matches_whole_graph_eval(self, spec):
        g = gen_random(spec)
        ni = g.num_inputs
        full = (1 << (1 << ni)) - 1
        vals = _eval_nodes(g, input_patterns(ni), full)
        for n in g.and_nodes():
            base = dict(zip(range(1, ni + 1), input_patterns(ni)))
            assert _cone_tt(g, n, base, full) == vals[n], n

    @pytest.mark.parametrize("ni", [0, 5, 12, 13, 16])
    def test_blocked_classes_equal_full_table_grouping(self, ni):
        # one partial block (0 and 5 inputs), exactly one (12), two (13)
        # and sixteen (16); gen_random needs an input, so the 0-input
        # graph is built by hand
        if ni:
            g = gen_random(GenSpec(ni, 400, 8, 60 + ni))
        else:
            g = Aig(0)
            g.outputs = [1, 0]
        expected = _full_table_classes(g)
        assert sorted(_exhaustive_classes(g)) == expected
        if ni >= 12:
            assert expected  # the graph has classes to refine

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), ni=st.integers(2, 14),
           ands=st.integers(0, 300), chunk=st.sampled_from([1, 3, 16, 256]))
    def test_classes_equal_full_table_grouping_at_any_step(self, seed, ni,
                                                           ands, chunk):
        # steps of one op up to more ops than the graph has: class
        # members are computed, held and checked in different steps
        g = gen_random(GenSpec(ni, ands, 4, seed))
        with mock.patch.object(transforms, "_CLASS_CHUNK", chunk):
            got = _exhaustive_classes(g)
        assert sorted(got) == _full_table_classes(g)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), ni=st.integers(2, 14),
           ands=st.integers(0, 300), chunk=st.sampled_from([1, 3, 256]))
    def test_classes_equal_full_table_grouping_under_collisions(
            self, seed, ni, ands, chunk):
        # one-pattern signatures put every node in one of two groups, so
        # the exact checks alone must form the classes
        g = gen_random(GenSpec(ni, ands, 4, seed))
        with mock.patch.object(transforms, "_RESUB_PATTERNS", 1), \
                mock.patch.object(transforms, "_CLASS_CHUNK", chunk):
            got = _exhaustive_classes(g)
        assert sorted(got) == _full_table_classes(g)

    @pytest.mark.parametrize("chunk", [1, 4, 256])
    def test_rare_difference_split_in_last_block(self, chunk):
        # the AND of all 16 inputs as a chain and as a tree: both differ
        # from the constant only at the all-ones assignment, which the
        # signature patterns miss, so only the last block splits the
        # constant off their group
        b = AigBuilder(16)
        x = b.input_literals()
        chain = x[0]
        for l in x[1:]:
            chain = b.add_and(chain, l)
        layer = x
        while len(layer) > 1:
            layer = [b.add_and(layer[i], layer[i + 1])
                     for i in range(0, len(layer), 2)]
        g = Aig.compact(b, [chain, layer[0]])
        rng = random.Random(_RESUB_SEED)
        signature = (1 << _RESUB_PATTERNS) - 1
        for _ in range(16):
            signature &= rng.getrandbits(_RESUB_PATTERNS)
        assert signature == 0
        with mock.patch.object(transforms, "_CLASS_CHUNK", chunk):
            got = sorted(_exhaustive_classes(g))
        assert got == _full_table_classes(g)
        assert [chain >> 1, layer[0] >> 1] in got
        assert all(0 not in c for c in got)

    @pytest.mark.parametrize("chunk", [1, 4, 256])
    def test_class_spanning_steps_checked_where_it_ends(self, chunk):
        # `early` and `same` compute one function, 12 filler ANDs apart;
        # `differ` equals them only while input 13 is 0, that is in the
        # even blocks, so a later block splits their block-0 class
        b = AigBuilder(14)
        x = b.input_literals()
        early = b.add_and(x[0], x[1])
        filler = x[2]
        for l in x[3:11]:
            filler = b.add_and(filler, l ^ 1)
            filler = b.add_and(filler, x[11])
        same = b.add_and(x[0], early)
        differ = b.add_and(x[0], b.add_and(x[1], x[12] ^ 1))
        g = Aig.compact(b, [early, same, differ, filler])
        early, same, differ = early >> 1, same >> 1, differ >> 1
        with mock.patch.object(transforms, "_CLASS_CHUNK", chunk):
            got = sorted(_exhaustive_classes(g))
        assert got == _full_table_classes(g)
        assert [early, same] in got
        assert all(differ not in c for c in got)
        if chunk < 256:
            assert (early - 15) // chunk < (same - 15) // chunk

    def test_exhaustive_memory_bounded(self):
        # 512-byte block values of the live nodes only; whole 16-input
        # tables of these 2,165 ANDs, 8 KB each, would take about 16 MB
        g = gen_random(GenSpec(16, 2000, 8, 7))
        res = apply(g, K.RESUB)[0]
        assert res.num_ands < g.num_ands
        for check in (lambda: apply(g, K.RESUB),
                      lambda: equivalent(g, res, "exhaustive")):
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, peak

    def test_init_memory_bounded(self, wide16):
        # init applies every kind to its input: refactor_z leaves the cone
        # partition in its memo, and resub's class search runs next to it;
        # with a tuple and two lists per cone and a 512-byte key per
        # block-0 value this peaked at about 6 MB
        _cones.cache_clear()
        tracemalloc.start()
        try:
            res = apply(wide16, K.REFACTOR_Z)[0]
            apply(wide16, K.RESUB)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.num_ands < wide16.num_ands
        assert peak < 4_500_000, peak

    @pytest.mark.parametrize("spec", [GenSpec(12, 600, 8, 2024),
                                      GenSpec(20, 900, 8, 77)])
    def test_survivor_cone_holds_no_other_member(self, spec):
        # why resub needs no cycle check: grouped as resub groups them,
        # no class member lies in the cone of its min-(level, id) survivor
        g = gen_random(spec)
        ni = g.num_inputs
        if ni <= EXHAUSTIVE_INPUT_LIMIT:
            pats, width = input_patterns(ni), 1 << ni
        else:
            rng = random.Random(_RESUB_SEED)
            pats = [rng.getrandbits(_RESUB_PATTERNS) for _ in range(ni)]
            width = _RESUB_PATTERNS
        vals = _eval_nodes(g, pats, (1 << width) - 1)
        groups = {}
        for n in range(g.num_nodes):
            groups.setdefault(vals[n], []).append(n)
        levels = g.levels()
        created_earlier = 0
        for nodes in groups.values():
            if len(nodes) < 2:
                continue
            rep = min(nodes, key=lambda n: (levels[n], n))
            cone, stack = set(), [rep]
            while stack:
                n = stack.pop()
                if n not in cone:
                    cone.add(n)
                    if n > ni:
                        a, c = g.fanins(n)
                        stack += [a >> 1, c >> 1]
            assert cone.intersection(nodes) == {rep}
            created_earlier += sum(n < rep for n in nodes)
        # some members precede their survivor, where an id order alone
        # would not rule a cycle out
        assert created_earlier > 0


class TestApplyContracts:
    def test_empty_opportunity_circuit(self):
        tree = build_balanced_tree(8)
        for kind in DEFAULT_KINDS:
            res, rep = apply(tree, kind)
            assert rep.tnodes == 0, kind
            assert res.structurally_equal(tree), kind

    def test_count_equals_apply_all_kinds(self, redundant_small):
        for kind in DEFAULT_KINDS:
            assert count_transformable(redundant_small, kind) == \
                apply(redundant_small, kind)[1].tnodes, kind

    def test_names_survive_every_kind(self):
        g = parse_blif(NAMED_BLIF)
        for kind in DEFAULT_KINDS:
            res, rep = apply(g, kind)
            assert rep.tnodes > 0, kind
            assert res.name_map == g.name_map, kind

    def test_count_does_not_mutate(self, redundant_small):
        before = (redundant_small.num_ands, list(redundant_small.outputs))
        for kind in DEFAULT_KINDS:
            count_transformable(redundant_small, kind)
        assert (redundant_small.num_ands, list(redundant_small.outputs)) == before

    def test_non_z_kinds_never_increase(self):
        for seed in range(6):
            g = gen_random(GenSpec(10, 250, 6, 50 + seed))
            for kind in DEFAULT_KINDS:
                _, rep = apply(g, kind)
                assert rep.nodes_after <= rep.nodes_before, (kind, seed)

    def test_determinism(self, redundant_small):
        for kind in DEFAULT_KINDS:
            r1, rep1 = apply(redundant_small, kind)
            r2, rep2 = apply(redundant_small, kind)
            assert r1.structurally_equal(r2)
            assert rep1 == rep2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           kind=st.sampled_from(list(DEFAULT_KINDS)))
    def test_preservation_property(self, seed, kind):
        g = gen_random(GenSpec(6 + seed % 6, 60 + seed % 120, 3, seed))
        res, _ = apply(g, kind)
        assert equivalent(g, res)
        # every AND of the result is reachable from an output
        seen = set()
        stack = [l >> 1 for l in res.outputs]
        while stack:
            n = stack.pop()
            if n in seen or n <= res.num_inputs:
                continue
            seen.add(n)
            stack.extend(f >> 1 for f in res.fanins(n))
        assert seen == set(res.and_nodes())
        # and its stored levels match levels recomputed from the fanins
        lev = [0] * (res.num_inputs + 1)
        for n in res.and_nodes():
            f0, f1 = res.fanins(n)
            lev.append(max(lev[f0 >> 1], lev[f1 >> 1]) + 1)
        assert list(res.levels()) == lev


class TestApplyFlow:
    def test_balance_twice(self, chain8):
        _, reports = apply_flow(chain8, [K.BALANCE, K.BALANCE])
        assert reports[1].tnodes == 0

    def test_empty_flow_rejected(self, chain8):
        with pytest.raises(ValueError):
            apply_flow(chain8, [])

    def test_flow_preserves_function(self, redundant_small):
        rng = random.Random(5)
        ms = Multiset.uniform(DEFAULT_KINDS)
        for _ in range(5):
            flow = sample_permutation(ms, rng)
            res, reports = apply_flow(redundant_small, flow)
            assert len(reports) == len(flow)
            assert equivalent(redundant_small, res)

    def test_order_dependence_of_first_rewrite(self, redundant_small):
        # the transformed-node count of the first rewrite depends on what
        # ran before it
        rw_alone = apply(redundant_small, K.REWRITE)[1].tnodes
        _, reports = apply_flow(redundant_small, [K.BALANCE, K.REWRITE])
        rw_after_balance = reports[1].tnodes
        assert rw_alone != rw_after_balance

    def test_profiling_decay_over_positions(self):
        # over many random none-repetition flows, late positions transform
        # fewer nodes than the first position
        suite = [gen_random(GenSpec(24, 500, 8, 400 + i)) for i in range(2)]
        rng = random.Random(77)
        ms = Multiset.uniform(DEFAULT_KINDS)
        cache = FlowCache()
        pos1, pos3 = [], []
        for g in suite:
            for _ in range(50):
                flow = sample_permutation(ms, rng)
                _, reports = cache.apply_flow(g, flow)
                pos1.append(reports[0].tnodes)
                pos3.append(reports[2].tnodes)
        assert sum(pos3) / len(pos3) < sum(pos1) / len(pos1)


class TestFlowCache:
    def test_cached_equals_uncached(self, redundant_small):
        cache = FlowCache()
        flow = (K.REWRITE, K.BALANCE, K.RESUB)
        res_c, reps_c = cache.apply_flow(redundant_small, flow)
        res_u, reps_u = apply_flow(redundant_small, flow)
        assert res_c.structurally_equal(res_u)
        assert reps_c == reps_u

    def test_equal_graphs_share_entries(self, redundant_small):
        text = write_aiger(redundant_small)
        g1, g2 = parse_aiger(text), parse_aiger(text)
        assert g1 is not g2
        cache = FlowCache()
        flow = (K.REWRITE, K.BALANCE, K.REFACTOR)
        r1, reps1 = cache.apply_flow(g1, flow)
        held = len(cache._results)
        r2, reps2 = cache.apply_flow(g2, flow)
        assert len(cache._results) == held
        assert r2 is r1
        assert reps2 == reps1

    def test_prefix_sharing_reuses_objects(self, redundant_small,
                                           monkeypatch):
        computed = []

        def counted(g, kind):
            computed.append(kind)
            return apply(g, kind)

        monkeypatch.setattr(transforms, "apply", counted)
        cache = FlowCache()
        r1, _ = cache.apply_flow(redundant_small, (K.REWRITE, K.BALANCE))
        r2, _ = cache.apply_flow(redundant_small, (K.REWRITE, K.RESUB))
        # the shared prefix yields the same intermediate object, so the
        # second call only computed the final step
        assert computed == [K.REWRITE, K.BALANCE, K.RESUB]
        # the three computed entries, rewrite's answer for its twin and the
        # resub no-op proven on r2
        assert len(cache._results) == 5
        assert cache._results[redundant_small, K.REWRITE_Z][0] is \
            cache._results[redundant_small, K.REWRITE][0]
        assert cache._results[r2, K.RESUB][0] is r2



def _z_fixpoint(g: Aig, kind: TransformKind) -> Aig:
    """*g* after repeated *kind* passes, up to the first no-op."""
    for _ in range(50):
        res, rep = apply(g, kind)
        if rep.tnodes == 0:
            return g
        g = res
    raise AssertionError(f"{kind.value} did not settle")


class TestProvenNoops:
    """Entries that FlowCache stores without running the pass."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_twin_same_means_the_twin_returns_the_same(self, seed):
        g = gen_random(GenSpec(4 + seed % 13, 60 + seed % 540, 3, seed))
        assert g.num_inputs <= EXHAUSTIVE_INPUT_LIMIT
        for kind, twin in transforms._TWIN.items():
            res, rep = apply(g, kind)
            if not rep.twin_same:
                continue
            twin_res, twin_rep = apply(g, twin)
            assert twin_rep == rep._replace(kind=twin), kind
            if rep.tnodes == 0:
                assert res is g and twin_res is g, kind
            else:
                assert twin_res == res, kind

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_z_noop_implies_plain_noop_and_resub_settles(self, seed):
        g = gen_random(GenSpec(6 + seed % 11, 60 + seed % 240, 3, seed))
        for z, plain in ((K.REWRITE_Z, K.REWRITE),
                         (K.REFACTOR_Z, K.REFACTOR)):
            h = _z_fixpoint(g, z)
            assert apply(h, plain)[0] is h
        assert g.num_inputs <= EXHAUSTIVE_INPUT_LIMIT
        res, _ = apply(g, K.RESUB)
        assert apply(res, K.RESUB)[0] is res

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           flow=st.lists(st.sampled_from(list(DEFAULT_KINDS)),
                         min_size=1, max_size=8))
    def test_every_entry_is_what_apply_returns(self, seed, flow):
        g = gen_random(GenSpec(6 + seed % 11, 60 + seed % 240, 3, seed))
        cache = FlowCache()
        cache.apply_flow(g, flow)
        for (h, kind), (res, rep) in cache._results.items():
            want, want_rep = apply(h, kind)
            assert rep == want_rep
            assert res is h if rep.tnodes == 0 else res == want

    @pytest.mark.parametrize("z,plain", [(K.REWRITE_Z, K.REWRITE),
                                         (K.REFACTOR_Z, K.REFACTOR)])
    def test_z_noop_stores_plain_noop(self, z, plain, monkeypatch):
        g = _z_fixpoint(gen_random(GenSpec(12, 600, 8, 2024)), z)
        want = apply(g, plain)
        cache = FlowCache()
        assert cache.apply_flow(g, (z,))[0] is g
        assert cache._results[g, plain] == want
        assert cache.ands_held == g.num_ands
        monkeypatch.setattr(transforms, "apply", None)  # a miss would fail
        assert cache.apply_flow(g, (plain,)) == (g, [want[1]])

    def test_exhaustive_resub_result_stores_resub_noop(self, redundant_small):
        assert redundant_small.num_inputs <= EXHAUSTIVE_INPUT_LIMIT
        cache = FlowCache()
        res, (rep,) = cache.apply_flow(redundant_small, (K.RESUB,))
        assert rep.tnodes > 0
        assert cache._results[res, K.RESUB] == (res, apply(res, K.RESUB)[1])
        assert cache.ands_held == redundant_small.num_ands + res.num_ands

    def test_sampled_resub_result_stores_nothing(self):
        g = gen_random(GenSpec(20, 900, 8, 77))
        assert g.num_inputs > EXHAUSTIVE_INPUT_LIMIT
        cache = FlowCache()
        res, (rep,) = cache.apply_flow(g, (K.RESUB,))
        assert rep.tnodes > 0
        assert list(cache._results) == [(g, K.RESUB)]

class _MaxHeld(FlowCache):
    """FlowCache that records the most ANDs it held after any flow."""

    def __init__(self, max_ands):
        super().__init__(max_ands)
        self.max_held = 0

    def apply_flow(self, aig, flow):
        out = super().apply_flow(aig, flow)
        self.max_held = max(self.max_held, self.ands_held)
        return out


class TestFlowCacheBound:
    def test_bounded_run_equals_unbounded(self):
        g = gen_random(GenSpec(20, 500, 8, 5))
        unbounded = _MaxHeld(10 ** 9)
        ref = run(g, StageSchedule(2, 8), seed=3, cache=unbounded)
        bound = 2 * g.num_ands
        assert unbounded.max_held > bound  # so the bound must evict
        bounded = _MaxHeld(bound)
        res = run(g, StageSchedule(2, 8), seed=3, cache=bounded)
        assert 0 < bounded.max_held <= bound
        assert len(bounded._results) < len(unbounded._results)
        assert res.final == ref.final
        assert res.best_flow_overall == ref.best_flow_overall
        assert res.log == ref.log

    def test_held_ands_count_distinct_graphs(self, redundant_small):
        cache = FlowCache()
        res, reps = cache.apply_flow(redundant_small, (K.REWRITE, K.RESUB))
        graphs = {id(x): x for (key, _), (r, _) in cache._results.items()
                  for x in (key, r)}
        assert cache.ands_held == sum(g.num_ands for g in graphs.values())
        # a bound below one result's ANDs evicts that entry too
        tiny = FlowCache(0)
        assert tiny.apply_flow(redundant_small, (K.REWRITE, K.RESUB)) == \
            (res, reps)
        assert tiny.ands_held == 0 and not tiny._results

    def test_negative_bound_rejected(self):
        # no eviction could bring the held ANDs below a negative bound
        with pytest.raises(ValueError, match="max_ands"):
            FlowCache(max_ands=-1)


# sha256 of write_aiger(apply(g, kind)) per kind and of one run()'s final
# graph, computed before refactor replayed cached templates and before
# graphs compared by content; any later change that alters a pass result
# (and so QoR) shows here
PINNED_APPLY = {
    2024: {
        "balance": "c4192a8919199a987919bea04df6a6b91f47ff4efedab590bb4248d0ca95a57a",
        "rewrite": "2a1f418f18cfedd7719d50b8381748148e44e26834164425dd79ac0fc9c33e4a",
        "rewrite_z": "2a1f418f18cfedd7719d50b8381748148e44e26834164425dd79ac0fc9c33e4a",
        "refactor": "e2ae70761fb41d880db757e3ee6025a5081a872b0b11580e58f3eb964bedcaa4",
        "refactor_z": "25a30a8efd010ed59626d737399736c1a903875ca33e8c0bfbf825f490bca147",
        "resub": "61038f04ebe48e680e2f42c1820fe88bb93070b88c9486e068ecbf2ea592277f",
    },
    77: {
        "balance": "f56d75906ef7bd7c2a13dee804cf6b0047a227d924fb32ccfbd987b713ffe2be",
        "rewrite": "f2c25284a707c66087a4fdf170e0004a4afa0d7ea83752131ea1406909497ac9",
        "rewrite_z": "f2c25284a707c66087a4fdf170e0004a4afa0d7ea83752131ea1406909497ac9",
        "refactor": "193db6c88393ebcd716ca3fbbc86a2b36730d20972fe56989b8bc0c899a8388d",
        "refactor_z": "f00c5a13f284bc74db6582fab8cf8b191b8b9bd04f3f3997d57b91ae5b7f5833",
        "resub": "0b09729d0ce42df8bb0c7343a2b64de012f454ad3111d1f68d7cbed5284e1f47",
    },
}
PINNED_RUN = "7d3547ad2bd5927f5c589704fc866f40de870fd4ebb10b3aef150216f15e9fe0"


def _digest(g: Aig) -> str:
    return hashlib.sha256(write_aiger(g).encode()).hexdigest()


def test_pass_outputs_pinned():
    specs = {2024: GenSpec(12, 600, 8, 2024), 77: GenSpec(20, 900, 8, 77)}
    for seed, spec in specs.items():
        g = gen_random(spec)
        got = {k.value: _digest(apply(g, k)[0]) for k in DEFAULT_KINDS}
        assert got == PINNED_APPLY[seed], seed
    res = run(gen_random(specs[2024]), StageSchedule.from_preset("2:30"),
              seed=5)
    assert _digest(res.final) == PINNED_RUN


# sha256 over the write_aiger text and tnodes of every apply in seeded
# 12-kind chains, computed before rewrite and refactor scanned their input
# in identity mode; chains are where no-op passes and first fires in the
# middle of a graph happen
PINNED_CHAINS = "d7485497622b0dd1b132e8bc5f115c0a485d267d7988efce79a6a28e34a9d32b"
CHAIN_SPECS = [GenSpec(12, 600, 8, 2024), GenSpec(20, 900, 8, 77),
               GenSpec(16, 1200, 8, 31), GenSpec(56, 800, 16, 5),
               GenSpec(56, 2143, 16, 9009)]


def test_chained_passes_pinned():
    rng = random.Random(9)
    h = hashlib.sha256()
    fired = {k: [0, 0] for k in DEFAULT_KINDS}  # kind -> [no-ops, changes]
    for start in [*map(gen_random, CHAIN_SPECS), _late_partner()]:
        for _ in range(4):
            g = start
            for _ in range(12):
                kind = rng.choice(DEFAULT_KINDS)
                g, rep = apply(g, kind)
                h.update(write_aiger(g).encode())
                h.update(b"%d;" % rep.tnodes)
                fired[kind][rep.tnodes > 0] += 1
    for kind in (K.REWRITE, K.REWRITE_Z, K.REFACTOR, K.REFACTOR_Z):
        assert min(fired[kind]) >= 1, (kind, fired[kind])
    assert h.hexdigest() == PINNED_CHAINS


@pytest.mark.parametrize("kind", [K.REWRITE, K.REWRITE_Z, K.REFACTOR,
                                  K.REFACTOR_Z, K.RESUB])
def test_noop_builds_nothing(kind):
    g = gen_random(GenSpec(20, 900, 8, 77))
    for _ in range(20):
        res, rep = apply(g, kind)
        if rep.tnodes == 0:
            break
        g = res
    assert _run_pass(g, kind)[0] is None
    assert apply(g, kind)[0] is g
