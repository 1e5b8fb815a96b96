import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune import (Aig, AigBuilder, GenSpec, MalformedLiteralError,
                      equivalent, gen_random, metrics, parse_aiger,
                      parse_blif, simulate, write_aiger)
from flowtune.aig import (BLOCK_INPUTS, Objective, _eval, _eval_nodes,
                          _exhaustive_inputs, _lifetimes, _ops,
                          _output_values, _plan, input_patterns)
from flowtune.transforms import FlowCache, TransformKind, apply

from conftest import NAMED_BLIF, build_balanced_tree, build_chain


class TestAddAnd:
    def test_annihilator(self):
        g = AigBuilder(1)
        x = g.input_literals()[0]
        assert g.add_and(x, 0) == 0

    def test_neutral_element(self):
        g = AigBuilder(1)
        x = g.input_literals()[0]
        assert g.add_and(x, 1) == x

    def test_idempotence_and_contradiction(self):
        g = AigBuilder(1)
        x = g.input_literals()[0]
        assert g.add_and(x, x) == x
        assert g.add_and(x, x ^ 1) == 0
        assert g.num_ands == 0

    def test_structural_hashing(self):
        g = AigBuilder(2)
        a, b = g.input_literals()
        l1 = g.add_and(a, b)
        l2 = g.add_and(a, b)
        l3 = g.add_and(b, a)  # commuted operands hash identically
        assert l1 == l2 == l3
        assert g.num_ands == 1

    def test_malformed_literal(self):
        g = AigBuilder(1)
        with pytest.raises(MalformedLiteralError):
            g.add_and(2, 99)

    def test_no_duplicate_pairs_after_random_builds(self):
        rng = random.Random(11)
        for _ in range(20):
            g = AigBuilder(4)
            lits = list(g.input_literals())
            for _ in range(60):
                a, b = rng.choice(lits), rng.choice(lits)
                l = g.add_and(a, b ^ (rng.random() < 0.5))
                lits.append(l)
            pairs = {g.fanins(n) for n in g.and_nodes()}
            assert len(pairs) == g.num_ands


class TestMetrics:
    def test_chain(self):
        for k in (1, 3, 7):
            q = metrics(build_chain(k + 1))
            assert q.and_count == k
            assert q.depth == k

    def test_balanced_tree(self):
        q = metrics(build_balanced_tree(8))
        assert q.and_count == 7
        assert q.depth == 3

    def test_output_wired_to_input(self):
        g = Aig(2)
        g.outputs = [g.input_literals()[0]]
        q = metrics(g)
        assert q.and_count == 0
        assert q.depth == 0

    def test_dangling_excluded(self):
        gb = AigBuilder(3)
        a, b, c = gb.input_literals()
        kept = gb.add_and(a, b)
        gb.add_and(b, c)  # never referenced by an output
        g = Aig.compact(gb, [kept])
        assert metrics(g).and_count == 1

    def test_objective_values(self):
        g = build_chain(4)
        assert metrics(g, Objective.NODE_COUNT).objective_value == 3
        assert metrics(g, Objective.DEPTH).objective_value == 3
        assert metrics(g, Objective.NODE_DEPTH_PRODUCT).objective_value == 9

    def test_invariant_under_creation_order(self):
        # same DAG built in two different node orders
        b1 = AigBuilder(3)
        a, b, c = b1.input_literals()
        x = b1.add_and(a, b)
        y = b1.add_and(b, c)
        g1 = Aig.compact(b1, [b1.add_and(x, y)])

        b2 = AigBuilder(3)
        a, b, c = b2.input_literals()
        y = b2.add_and(b, c)
        x = b2.add_and(a, b)
        g2 = Aig.compact(b2, [b2.add_and(x, y)])
        assert metrics(g1) == metrics(g2)


class TestSimulate:
    def test_single_and(self):
        gb = AigBuilder(2)
        a, b = gb.input_literals()
        g = Aig.compact(gb, [gb.add_and(a, b)])
        assert simulate(g, ["0101", "0011"]) == ["0001"]

    def test_inverted_input(self):
        g = Aig(1)
        g.outputs = [g.input_literals()[0] ^ 1]
        assert simulate(g, ["0101"]) == ["1010"]

    def test_empty_width(self):
        g = Aig(1)
        g.outputs = [g.input_literals()[0]]
        assert simulate(g, [""]) == [""]

    def test_width_mismatch(self):
        gb = AigBuilder(2)
        a, b = gb.input_literals()
        g = Aig.compact(gb, [gb.add_and(a, b)])
        with pytest.raises(ValueError):
            simulate(g, ["01", "011"])

    def test_int_patterns(self):
        gb = AigBuilder(2)
        a, b = gb.input_literals()
        g = Aig.compact(gb, [gb.add_and(a, b)])
        assert simulate(g, [0b0101, 0b0011], width=4) == [0b0001]

    def test_block_concatenation_consistency(self):
        # bit-parallel evaluation of a concatenated block equals the
        # concatenation of per-block results
        g = gen_random(GenSpec(6, 50, 3, 5))
        rng = random.Random(3)
        blocks = [[rng.getrandbits(32) for _ in range(6)] for _ in range(3)]
        merged = [b0 | b1 << 32 | b2 << 64
                  for b0, b1, b2 in zip(*blocks)]
        whole = simulate(g, merged, width=96)
        parts = [simulate(g, blk, width=32) for blk in blocks]
        for o in range(3):
            joined = parts[0][o] | parts[1][o] << 32 | parts[2][o] << 64
            assert whole[o] == joined


class TestEquivalence:
    def test_reflexive(self):
        for seed in range(5):
            g = gen_random(GenSpec(8, 80, 4, seed))
            assert equivalent(g, g)

    def test_commutativity(self):
        b1 = AigBuilder(2)
        a, b = b1.input_literals()
        g1 = Aig.compact(b1, [b1.add_and(a, b)])
        b2 = AigBuilder(2)
        a, b = b2.input_literals()
        g2 = Aig.compact(b2, [b2.add_and(b, a)])
        assert equivalent(g1, g2)

    def test_and_vs_or(self):
        b1 = AigBuilder(2)
        a, b = b1.input_literals()
        g1 = Aig.compact(b1, [b1.add_and(a, b)])
        b2 = AigBuilder(2)
        a, b = b2.input_literals()
        g2 = Aig.compact(b2, [b2.add_and(a ^ 1, b ^ 1) ^ 1])
        assert not equivalent(g1, g2)

    def test_exhaustive_refused_beyond_16(self):
        g = Aig(17)
        g.outputs = [g.input_literals()[0]]
        with pytest.raises(ValueError):
            equivalent(g, g, "exhaustive")
        assert equivalent(g, g, "random", count=256, seed=9)

    def test_random_needs_a_pattern(self):
        g1 = gen_random(GenSpec(8, 80, 4, 1))
        g2 = gen_random(GenSpec(8, 80, 4, 2))
        assert not equivalent(g1, g2, "random", count=1024)
        for count in (0, -1):
            with pytest.raises(ValueError):
                equivalent(g1, g2, "random", count=count)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            equivalent(Aig(2), Aig(3))


# fanin literal pairs of one AND over inputs x (node 1) and y (node 2):
# no, the first, the second and both fanins complemented, in both orders
_AND_FORMS = [(2, 4), (4, 2), (3, 4), (4, 3), (2, 5), (5, 2), (3, 5), (5, 3)]


class TestAndKernel:
    @pytest.mark.parametrize("width", [1, 256, 4096])
    @pytest.mark.parametrize("fanins", _AND_FORMS,
                             ids=lambda f: f"{f[0]}-{f[1]}")
    def test_every_and_form_matches_each_assignment(self, fanins, width):
        # built by hand: a builder would order the fanins
        g = Aig(2)
        code = g._fan0.typecode
        g._fan0, g._fan1 = array(code, fanins[:1]), array(code, fanins[1:])
        g._levels.append(1)
        g.outputs = [6]
        mask = (1 << width) - 1
        rng = random.Random(width)
        pairs = [(x, y) for x in (0, mask) for y in (0, mask)]
        pairs.append((rng.getrandbits(width), rng.getrandbits(width)))
        ops = _ops(g, g.and_nodes())
        for x, y in pairs:
            want = 0
            for k in range(width):
                node_bits = (0, x >> k & 1, y >> k & 1)
                if all(node_bits[l >> 1] ^ (l & 1) for l in fanins):
                    want |= 1 << k
            assert _eval(ops, [0, x, y, 0], mask)[3] == want
            assert _eval(ops, {1: x, 2: y}, mask)[3] == want


def _blocked_graphs():
    """Graphs with 0, 5, 12, 13 and 16 inputs: one partial block, exactly
    one block, two blocks and sixteen blocks (gen_random needs an input,
    so the 0-input graph is built by hand)."""
    const = Aig(0)
    const.outputs = [0, 1, 1]
    return [const] + [gen_random(GenSpec(n, 300, 6, 40 + n))
                      for n in (5, 12, 13, 16)]


def _with_minterm_flipped(g: Aig, polarity: int) -> Aig:
    """g with its first output XORed with the AND of all inputs, each
    complemented when *polarity* is 1: the outputs then differ from g's
    only at assignment 2^n - 1 (polarity 0) or 0 (polarity 1)."""
    b = _replay(g)
    m = 1
    for x in b.input_literals():
        m = b.add_and(m, x ^ polarity)
    out = g.outputs[0]
    flipped = b.add_or(b.add_and(out, m ^ 1), b.add_and(out ^ 1, m))
    return Aig.compact(b, [flipped] + g.outputs[1:])


class TestExhaustiveBlocks:
    @pytest.mark.parametrize("g", _blocked_graphs(),
                             ids=lambda g: f"{g.num_inputs}in")
    def test_blocks_join_to_full_table(self, g):
        # every node's value, read from its slot when its step ends, and
        # every output value join block by block into the full tables; the
        # value list is reused across blocks, as the class check reuses it
        n = g.num_inputs
        full_mask = (1 << (1 << n)) - 1
        full = _eval_nodes(g, input_patterns(n), full_mask)
        width = 1 << min(n, BLOCK_INPUTS)
        chunk = 7
        plan = _plan(g, chunk, _lifetimes(g, chunk))
        vals = [0] * plan.size
        joined = [0] * g.num_nodes
        outs = [0] * len(g.outputs)
        blocks = list(_exhaustive_inputs(n))
        assert len(blocks) == 1 << max(n - BLOCK_INPUTS, 0)
        for j, ((mask, ins), out_vals) in enumerate(
                zip(blocks, _output_values(g, blocks))):
            assert mask == (1 << width) - 1
            vals[1:n + 1] = ins
            for node in range(n + 1):
                joined[node] |= vals[node] << (j * width)
            for lo in range(0, len(plan.ops), chunk):
                step = plan.ops[lo:lo + chunk]
                _eval(step, vals, mask)
                for node, op in enumerate(step, n + 1 + lo):
                    joined[node] |= vals[op[0]] << (j * width)
            for o, v in enumerate(out_vals):
                outs[o] |= v << (j * width)
        assert joined == full
        assert outs == [full[l >> 1] ^ (full_mask if l & 1 else 0)
                        for l in g.outputs]

    @pytest.mark.parametrize("g", _blocked_graphs()[1:],
                             ids=lambda g: f"{g.num_inputs}in")
    @pytest.mark.parametrize("polarity", [0, 1], ids=["last", "first"])
    def test_exhaustive_rejects_single_assignment_mutant(self, g, polarity):
        mutant = _with_minterm_flipped(g, polarity)
        n = g.num_inputs
        outs = simulate(g, input_patterns(n), 1 << n)
        mutant_outs = simulate(mutant, input_patterns(n), 1 << n)
        assert outs[0] ^ mutant_outs[0] == 1 << (0 if polarity else (1 << n) - 1)
        assert outs[1:] == mutant_outs[1:]
        assert equivalent(g, g, "exhaustive")
        assert not equivalent(g, mutant, "exhaustive")
        assert not equivalent(mutant, g, "exhaustive")

    def test_zero_input_outputs_compared(self):
        a, b = Aig(0), Aig(0)
        a.outputs, b.outputs = [0, 1], [0, 0]
        assert equivalent(a, a, "exhaustive")
        assert not equivalent(a, b, "exhaustive")


def _check_plan(g: Aig, chunk: int, keep=(), stretch=None) -> int:
    """Replay the slot writes of ``_plan(g, chunk, last)``, with *last*
    from ``_lifetimes(g, chunk, keep)``, and check that no value is
    overwritten while it may still be read: each op reads slots that hold
    its fanins, each value is in its slot at the end of every step up to
    its last one, its own step included, and each value of *keep* is in
    its slot at the end.  With a ``random.Random`` *stretch*, some
    lifetimes are first lengthened to a later step, as the class search
    lengthens a group member's to its group's check step.  Returns the
    plan's size."""
    last = _lifetimes(g, chunk, keep)
    if stretch is not None:
        steps = -(-g.num_ands // chunk)
        for n in g.and_nodes():
            if stretch.random() < 0.3:
                last[n] = max(last[n], stretch.randrange(steps))
    plan = _plan(g, chunk, last)
    base = g.num_inputs + 1
    holder = list(range(base)) + [None] * (plan.size - base)  # slot -> node
    assert len(plan.ops) == g.num_ands
    for lo in range(0, g.num_ands, chunk):
        hi = min(lo + chunk, g.num_ands)
        for k in range(lo, hi):
            node = base + k
            s, sa, sb, code = plan.ops[k]
            _, a, b, want = _ops(g, [node])[0]
            assert (holder[sa], holder[sb], code) == (a, b, want)
            assert plan.slot[node] == s
            holder[s] = node
        for n in range(base + hi):
            if last[n] >= lo // chunk:
                assert holder[plan.slot[n]] == n
        assert all(last[n] >= lo // chunk
                   for n in range(base + lo, base + hi))
    for l in keep:
        assert holder[plan.slot[l >> 1]] == l >> 1
    return plan.size


def _outputs_per_node(g: Aig, pats, width: int) -> list[int]:
    """Output values read from one value per node (``_eval_nodes``), the
    reference the plan-based evaluation is checked against."""
    mask = (1 << width) - 1
    vals = _eval_nodes(g, pats, mask)
    return [vals[l >> 1] ^ (mask if l & 1 else 0) for l in g.outputs]


def _fanin_flipped(g: Aig, k: int) -> Aig:
    """g with the first fanin of its AND k complemented."""
    b = AigBuilder(g.num_inputs)
    lit = list(range(0, 2 * g.num_nodes, 2))  # old node -> new literal
    for i, node in enumerate(g.and_nodes()):
        a, c = g.fanins(node)
        lit[node] = b.add_and(lit[a >> 1] ^ (a & 1) ^ (i == k),
                              lit[c >> 1] ^ (c & 1))
    return Aig.compact(b, [lit[l >> 1] ^ (l & 1) for l in g.outputs])


class TestLiveness:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), ni=st.integers(2, 8),
           ands=st.integers(1, 150), chunk=st.integers(1, 20),
           keep=st.booleans(), stretch=st.booleans())
    def test_plan_releases_nothing_still_read(self, seed, ni, ands, chunk,
                                              keep, stretch):
        g = gen_random(GenSpec(ni, ands, 4, seed))
        size = _check_plan(g, chunk, g.outputs if keep else (),
                           random.Random(seed) if stretch else None)
        assert size <= g.num_nodes

    def test_chain_holds_two_values(self):
        # each AND is read only by the next one, so after the inputs two
        # slots take turns however long the chain is
        for n in (3, 40, 200):
            g = build_chain(n)
            assert _check_plan(g, 1, g.outputs) == n + 1 + 2

    def test_wide_tree_holds_its_widest_layer(self):
        # the 32 ANDs of a 64-input tree's first layer are all computed
        # before any is read; the second layer's first AND takes a fresh
        # slot, and every later one a slot its predecessor's reads freed
        g = build_balanced_tree(64)
        assert _check_plan(g, 1, g.outputs) == 65 + 33
        # a slot freed in a step of 8 ops is taken only in the next step,
        # so the second layer's first step takes 8 fresh slots
        assert _check_plan(g, 8) == 65 + 40

    def test_outputs_kept_to_the_end(self):
        # every AND is an output: nothing is released
        b = AigBuilder(6)
        x = b.input_literals()
        outs = [b.add_and(x[i], x[i + 1]) for i in range(5)]
        g = Aig.compact(b, outs)
        assert _check_plan(g, 1, g.outputs) == 7 + 5

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), ni=st.integers(2, 14),
           ands=st.integers(1, 200), mutate=st.integers(-1, 199),
           random_mode=st.booleans())
    def test_equivalent_agrees_with_full_tables(self, seed, ni, ands,
                                                mutate, random_mode):
        g = gen_random(GenSpec(ni, ands, 4, seed))
        h = _fanin_flipped(g, mutate)  # g again when mutate matches no AND
        if random_mode:
            # the patterns equivalent() draws for this seed
            rng = random.Random(seed)
            pats = [rng.getrandbits(64) for _ in range(ni)]
            same = (_outputs_per_node(g, pats, 64)
                    == _outputs_per_node(h, pats, 64))
            assert equivalent(g, h, "random", count=64, seed=seed) == same
        else:
            full = input_patterns(ni), 1 << ni
            same = _outputs_per_node(g, *full) == _outputs_per_node(h, *full)
            assert equivalent(g, h, "exhaustive") == same
            assert equivalent(h, g, "exhaustive") == same


def _replay(g: Aig) -> AigBuilder:
    """A builder holding g's AND nodes under their node ids."""
    b = AigBuilder(g.num_inputs)
    for node in g.and_nodes():
        assert b.add_and(*g.fanins(node)) == node << 1
    return b


class TestCompact:
    def test_removes_dangling_preserves_function(self):
        g = gen_random(GenSpec(8, 120, 4, 17))
        b = _replay(g)
        # fed by the newest node, so it cannot hash onto an existing one
        b.add_and((b.num_nodes - 1) << 1, b.input_literals()[0])
        c = Aig.compact(b, g.outputs)
        assert c.num_ands < b.num_ands
        assert c.structurally_equal(g)
        assert equivalent(g, c)

    def test_roundtrip_stable(self):
        g = gen_random(GenSpec(8, 120, 4, 18))
        c = Aig.compact(_replay(g), g.outputs)
        assert c.structurally_equal(g)
        assert c.levels() == g.levels()


class TestContentEquality:
    def test_equal_content_equal_hash(self, redundant_small):
        g = parse_aiger(write_aiger(redundant_small))
        assert g is not redundant_small
        assert g == redundant_small
        assert hash(g) == hash(redundant_small)
        assert len({g, redundant_small}) == 1

    def test_differences_compare_unequal(self):
        def build(outputs_swapped=False, other_fanin=False, names=None):
            b = AigBuilder(3, names)
            x, y, z = b.input_literals()
            u = b.add_and(x, y)
            v = b.add_and(u, z ^ 1 if other_fanin else z)
            outs = [v, u] if outputs_swapped else [u, v]
            return Aig.compact(b, outs)

        base = build()
        assert base == build()
        assert hash(base) == hash(build())
        assert base != build(outputs_swapped=True)
        assert base != build(other_fanin=True)
        renamed = build(names={"i0": "a"})
        assert renamed.structurally_equal(base)
        assert base != renamed
        assert base != "not a graph"


def _made_every_way(g: Aig) -> list[tuple[str, Aig]]:
    """Graphs equal in content to *g*, from each way a graph is made."""
    clean, dangling = _replay(g), _replay(g)
    clean.name_map = dict(g.name_map)
    dangling.name_map = dict(g.name_map)
    dangling.add_and(((dangling.num_nodes - 1) << 1) | 1,
                     dangling.input_literals()[0])
    assert dangling.num_ands == clean.num_ands + 1
    made = [("compact", Aig.compact(clean, g.outputs)),
            ("compact-dangling", Aig.compact(dangling, g.outputs)),
            ("aiger", parse_aiger(write_aiger(g)))]
    if not g.num_ands:
        empty = Aig(g.num_inputs)
        empty.outputs = list(g.outputs)
        made.append(("Aig(n)", empty))
    return made


class TestStorage:
    @pytest.mark.parametrize("source", ["gen", "and-free", "blif"])
    def test_equal_graphs_hash_equal_whatever_built_them(self, source):
        if source == "gen":
            g = gen_random(GenSpec(8, 120, 4, 19))
        elif source == "and-free":
            g = Aig.compact(AigBuilder(3), [2, 5])
        else:
            g = parse_blif(NAMED_BLIF)
        made = _made_every_way(g)
        cache = FlowCache()
        for how, h in made:
            assert h == g, how
            assert hash(h) == hash(g), how
            for name in ("_fan0", "_fan1", "_levels"):
                assert (getattr(h, name).typecode
                        == getattr(g, name).typecode), how
            cache.apply_flow(h, (TransformKind.BALANCE,))
        assert len(cache._results) == 1

    def test_finished_graph_holds_five_bytes_per_and(self):
        g = gen_random(GenSpec(10, 400, 6, 23))
        graphs = [g, *(h for _, h in _made_every_way(g)),
                  *(apply(g, kind)[0] for kind in TransformKind),
                  parse_blif(NAMED_BLIF), Aig(4)]
        for h in graphs:
            assert (h._fan0.itemsize, h._fan1.itemsize,
                    h._levels.itemsize) == (2, 2, 1)
            assert len(h._levels) == h.num_nodes
            held = sum(len(a) * a.itemsize
                       for a in (h._fan0, h._fan1, h._levels))
            assert held == 5 * h.num_ands + h.num_inputs + 1

    @pytest.mark.parametrize("n_nodes,fanin_size",
                             [(1 << 15, 2), ((1 << 15) + 1, 4)])
    def test_fanins_widen_past_two_to_the_fifteen_nodes(self, n_nodes,
                                                         fanin_size):
        b = AigBuilder(300)
        outs = []
        for x, y in itertools.combinations(b.input_literals(), 2):
            if b.num_nodes == n_nodes:
                break
            outs.append(b.add_and(x, y))
        g = Aig.compact(b, outs)
        assert g.num_nodes == n_nodes
        assert (g._fan0.itemsize, g._fan1.itemsize,
                g._levels.itemsize) == (fanin_size, fanin_size, 1)
        self._assert_made_every_way_alike(g)
        # an AND-free graph of as many nodes, Aig(n) among its makers
        inputs_only = Aig.compact(AigBuilder(n_nodes - 1), [2])
        assert inputs_only._fan0.itemsize == fanin_size
        self._assert_made_every_way_alike(inputs_only)

    @pytest.mark.parametrize("depth,level_size",
                             [(255, 1), (256, 2), (300, 2)])
    def test_levels_widen_past_depth_255(self, depth, level_size):
        g = build_chain(depth + 1)
        assert metrics(g).depth == depth
        assert (g._fan0.itemsize, g._levels.itemsize) == (2, level_size)
        assert list(g.levels())[-1] == depth
        self._assert_made_every_way_alike(g)

    @staticmethod
    def _assert_made_every_way_alike(g: Aig) -> None:
        for how, h in _made_every_way(g):
            assert h == g, how
            assert hash(h) == hash(g), how
            for name in ("_fan0", "_fan1", "_levels"):
                assert (getattr(h, name).typecode
                        == getattr(g, name).typecode), how
            assert h.levels() == g.levels(), how
