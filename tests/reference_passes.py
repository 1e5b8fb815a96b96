"""Reference passes for differential tests.

Each reference is the plainest form of a flowtune pass: the whole-graph
code the pass started from, before liveness plans, block-by-block
simulation and identity mode, ported to today's :class:`Aig` and
:class:`AigBuilder` API.  It imports nothing from ``flowtune.transforms``,
so comparing its result with :func:`flowtune.transforms.apply` checks the
optimised pass against an independent implementation (W. M. McKeeman,
"Differential testing for software", Digital Technical Journal, 1998).
Rewrite, rewrite_z and resub have references so far.
"""

from __future__ import annotations

import functools
import random

from flowtune.aig import Aig, AigBuilder

# resub's signature patterns and their seed, as the pass draws them
RESUB_PATTERNS = 4096
RESUB_SEED = 0x5EEDF00D
# largest input count whose full truth tables resub computes
EXHAUSTIVE_LIMIT = 16


@functools.lru_cache(maxsize=None)
def input_patterns(n: int) -> tuple[int, ...]:
    """Full truth tables of *n* inputs: bit j of table i is (j >> i) & 1."""
    width = 1 << n
    pats = []
    for i in range(n):
        # 2^i zeros then 2^i ones, repeated over the width
        run = ((1 << (1 << i)) - 1) << (1 << i)
        period = 2 << i
        while period < width:
            run |= run << period
            period <<= 1
        pats.append(run)
    return tuple(pats)


def evaluate(g: Aig, nodes, vals, mask: int):
    """Set ``vals[n]`` for each AND n of *nodes*, in order, from the values
    of its fanins in *vals* (a list or dict by node id); returns *vals*."""
    for n in nodes:
        a, b = g.fanins(n)
        va = vals[a >> 1] ^ (mask if a & 1 else 0)
        vb = vals[b >> 1] ^ (mask if b & 1 else 0)
        vals[n] = va & vb
    return vals


def simulate_all(g: Aig, pats, mask: int) -> list[int]:
    """One value per node id, every AND evaluated over the input values
    *pats*."""
    vals = [0] * g.num_nodes
    vals[1:g.num_inputs + 1] = pats
    return evaluate(g, g.and_nodes(), vals, mask)


def cone_tt(g: Aig, node: int, vals: dict[int, int], mask: int) -> int:
    """Value of *node* over the support values *vals*, to which the values
    of its cone's ANDs are added."""
    todo = [node]
    cone = set()
    while todo:
        n = todo.pop()
        if n in vals or n in cone or n <= g.num_inputs:
            continue
        cone.add(n)
        a, b = g.fanins(n)
        todo.append(a >> 1)
        todo.append(b >> 1)
    return evaluate(g, sorted(cone), vals, mask)[node]


def find_and(b: AigBuilder, x: int, y: int) -> int | None:
    """Literal that ``b.add(x, y)`` would return without allocating, or
    None: the trivial-AND rules first, then the builder's hash table."""
    if x > y:
        x, y = y, x
    if x < 2:
        return 0 if x == 0 else y
    if x == y:
        return x
    if x ^ y == 1:
        return 0
    node = b._strash.get((x << 32) | y)
    return None if node is None else node << 1


def rewrite(g: Aig, zero_cost: bool) -> tuple[Aig, int]:
    """Rewrite (rewrite_z when *zero_cost*) as a function of the graph:
    the result and its ``tnodes``.

    Every AND is rebuilt into a fresh builder in creation order, from its
    fanins mapped so far.  The first rule that holds replaces it, and each
    replacement counts one:

    * the mapped pair already exists or is trivial;
    * absorption, AND(a, AND(a, b)) -> AND(a, b), either way round;
    * a literal whose complement is a fanin of the other fanin, or two
      fanin ANDs with complementary fanins, gives constant false;
    * reassociation AND(AND(s, u), AND(s, v)) -> AND(s, AND(u, v)) when
      both ANDs already exist, or, for rewrite_z, when AND(u, v) exists
      and the new local path is shorter.

    A graph where nothing fires is returned itself.
    """
    ni = g.num_inputs
    b = AigBuilder(ni, g.name_map)
    lev = b.levels()
    nmap = [n << 1 for n in range(ni + 1)] + [0] * g.num_ands
    tnodes = 0
    for node in g.and_nodes():
        a, c = g.fanins(node)
        mf = nmap[a >> 1] ^ (a & 1)
        mg = nmap[c >> 1] ^ (c & 1)

        probe = find_and(b, mf, mg)
        if probe is not None:
            nmap[node] = probe
            tnodes += 1
            continue

        # fanins of uncomplemented AND fanins
        df = b.fanins(mf >> 1) if mf & 1 == 0 and mf >> 1 > ni else None
        dg = b.fanins(mg >> 1) if mg & 1 == 0 and mg >> 1 > ni else None

        repl = -1
        if dg is not None:
            p, q = dg
            if mf == p or mf == q:
                repl = mg  # absorption
            elif mf == p ^ 1 or mf == q ^ 1:
                repl = 0  # contradiction one level down
        if repl < 0 and df is not None:
            p, q = df
            if mg == p or mg == q:
                repl = mf
            elif mg == p ^ 1 or mg == q ^ 1:
                repl = 0
        if repl < 0 and df is not None and dg is not None:
            p, q = df
            r, s = dg
            if p ^ 1 == r or p ^ 1 == s or q ^ 1 == r or q ^ 1 == s:
                repl = 0  # the two sub-cones carry contradictory literals
        if repl >= 0:
            nmap[node] = repl
            tnodes += 1
            continue

        if df is not None and dg is not None:
            p, q = df
            r, s = dg
            shared = -1
            if p == r:
                shared, u, v = p, q, s
            elif p == s:
                shared, u, v = p, q, r
            elif q == r:
                shared, u, v = q, p, s
            elif q == s:
                shared, u, v = q, p, r
            if shared >= 0:
                t1 = find_and(b, u, v)
                accept = t1 is not None and find_and(b, shared, t1) is not None
                if not accept and zero_cost and t1 is not None:
                    # one fresh node replaces this one: an even trade,
                    # taken only when the local path gets shorter
                    copy_lev = max(lev[mf >> 1], lev[mg >> 1]) + 1
                    cand_lev = max(lev[shared >> 1], lev[t1 >> 1]) + 1
                    accept = cand_lev < copy_lev
                if accept:
                    nmap[node] = b.add(shared, t1)
                    tnodes += 1
                    continue

        nmap[node] = b.add(mf, mg)
    if not tnodes:
        return g, 0
    outs = [nmap[l >> 1] ^ (l & 1) for l in g.outputs]
    return Aig.compact(b, outs), tnodes


def resub(g: Aig) -> tuple[Aig, int]:
    """Resub as a function of the graph: the result and its ``tnodes``.

    Nodes are grouped by their whole value, the full truth table up to
    EXHAUSTIVE_LIMIT inputs and RESUB_PATTERNS seeded random patterns
    above it.  Each member of a group is redirected into the member of
    lowest (level, id); above the limit only when the two truth tables
    over their union input support agree, and never when that support
    exceeds the limit.  The graph is then rebuilt depth first from the
    outputs, fanin 0 first.  A graph with nothing to redirect is returned
    itself.
    """
    ni = g.num_inputs
    exhaustive = ni <= EXHAUSTIVE_LIMIT
    if exhaustive:
        pats, width = input_patterns(ni), 1 << ni
    else:
        rng = random.Random(RESUB_SEED)
        pats = [rng.getrandbits(RESUB_PATTERNS) for _ in range(ni)]
        width = RESUB_PATTERNS
    vals = simulate_all(g, pats, (1 << width) - 1)
    support = [0] * g.num_nodes  # input bitmask per node
    for i in range(1, ni + 1):
        support[i] = 1 << (i - 1)
    for n in g.and_nodes():
        a, b = g.fanins(n)
        support[n] = support[a >> 1] | support[b >> 1]

    groups: dict[int, list[int]] = {}
    for n in range(g.num_nodes):
        groups.setdefault(vals[n], []).append(n)
    levels = g.levels()
    subst: dict[int, int] = {}  # redirected node -> its survivor
    for nodes in groups.values():
        rep = min(nodes, key=lambda n: (levels[n], n))
        for m in nodes:
            if m == rep or m <= ni:
                continue
            if not exhaustive:
                union = support[rep] | support[m]
                if union.bit_count() > EXHAUSTIVE_LIMIT:
                    continue
                ins = [i + 1 for i in range(ni) if union >> i & 1]
                mask = (1 << (1 << len(ins))) - 1
                cut = dict(zip(ins, input_patterns(len(ins))))
                cut[0] = 0  # the survivor may be the constant node
                if cone_tt(g, rep, cut, mask) != cone_tt(g, m, cut, mask):
                    continue
            subst[m] = rep
    if not subst:
        return g, 0

    b = AigBuilder(ni, g.name_map)
    lit = {n: n << 1 for n in range(ni + 1)}  # old node -> new literal
    for out in g.outputs:
        stack = [out >> 1]
        while stack:
            n = stack[-1]
            if n in lit:
                stack.pop()
            elif n in subst:
                if subst[n] in lit:
                    lit[n] = lit[subst[n]]
                else:
                    stack.append(subst[n])
            else:
                x, y = g.fanins(n)
                if x >> 1 not in lit:
                    stack.append(x >> 1)
                elif y >> 1 not in lit:
                    stack.append(y >> 1)
                else:
                    lit[n] = b.add_and(lit[x >> 1] ^ (x & 1),
                                       lit[y >> 1] ^ (y & 1))
    outs = [lit[l >> 1] ^ (l & 1) for l in g.outputs]
    return Aig.compact(b, outs), len(subst)
