import random
from array import array

import pytest

from flowtune import (Aig, AigBuilder, GenSpec, MalformedLiteralError,
                      equivalent, gen_random, metrics, parse_aiger, simulate,
                      write_aiger)
from flowtune.aig import (BLOCK_INPUTS, Objective, _eval, _eval_nodes,
                          _exhaustive_blocks, _ops, input_patterns)

from conftest import build_balanced_tree, build_chain


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
        g._fan0, g._fan1 = array("q", fanins[:1]), array("q", fanins[1:])
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
        n = g.num_inputs
        full = _eval_nodes(g, input_patterns(n), (1 << (1 << n)) - 1)
        width = 1 << min(n, BLOCK_INPUTS)
        joined = [0] * g.num_nodes
        count = 0
        for j, (mask, vals) in enumerate(_exhaustive_blocks(g)):
            assert mask == (1 << width) - 1
            for node, v in enumerate(vals):
                joined[node] |= v << (j * width)
            count += 1
        assert count == 1 << max(n - BLOCK_INPUTS, 0)
        assert joined == full

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
