"""Reference passes for differential tests.

Each reference is the plainest form of a flowtune pass: the whole-graph
code the pass started from, before liveness plans, block-by-block
simulation and identity mode, ported to today's :class:`Aig` and
:class:`AigBuilder` API.  It imports nothing from ``flowtune.transforms``,
so comparing its result with :func:`flowtune.transforms.apply` checks the
optimised pass against an independent implementation (W. M. McKeeman,
"Differential testing for software", Digital Technical Journal, 1998).
All six kinds have one: :func:`balance`, :func:`rewrite` (rewrite and
rewrite_z), :func:`refactor` (refactor and refactor_z) and :func:`resub`.
"""

from __future__ import annotations

import functools
import heapq
import random

from flowtune.aig import Aig, AigBuilder

# resub's signature patterns and their seed, as the pass draws them
RESUB_PATTERNS = 4096
RESUB_SEED = 0x5EEDF00D
# largest input count whose full truth tables resub computes
EXHAUSTIVE_LIMIT = 16
# largest cone support refactor collapses to a truth table
REFACTOR_SUPPORT_LIMIT = 8


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


def cones(g: Aig) -> list[tuple[int, list[int], list[int]]]:
    """Partition the ANDs into fanout-free cones: (root, members, leaves).

    An AND belongs to its consumer's cone when its only reference is an
    uncomplemented fanin; every other AND (an output, a complemented or
    shared fanin) roots a cone.  Cones come in root creation order and
    members in creation order, root last.  Leaves are the members' fanin
    literals outside the cone, one per reference, in member order.
    """
    refs = [0] * g.num_nodes  # a complemented or output reference counts 2
    consumer = [0] * g.num_nodes
    for node in g.and_nodes():
        for l in g.fanins(node):
            refs[l >> 1] += 1 + (l & 1)
            consumer[l >> 1] = node
    for l in g.outputs:
        refs[l >> 1] += 2
    root_of = [0] * g.num_nodes
    groups: dict[int, list[int]] = {}
    for node in reversed(g.and_nodes()):  # consumers before fanins
        if refs[node] == 1:
            root = root_of[consumer[node]]
            groups[root].append(node)
        else:
            root = node
            groups[root] = [node]
        root_of[node] = root
    out = []
    for root in reversed(groups):
        members = groups[root][::-1]
        leaves = [l for u in members for l in g.fanins(u)
                  if root_of[l >> 1] != root]
        out.append((root, members, leaves))
    return out


def copy_level(g: Aig, members: list[int], nmap, lev) -> int:
    """Level the cone's root would get if its members were copied verbatim
    over their mapped leaves."""
    clev: dict[int, int] = {}
    for u in members:
        a, c = (l >> 1 for l in g.fanins(u))
        la = clev[a] if a in clev else lev[nmap[a] >> 1]
        lc = clev[c] if c in clev else lev[nmap[c] >> 1]
        clev[u] = max(la, lc) + 1
    return clev[members[-1]]


def _finish(g: Aig, b: AigBuilder, nmap, tnodes: int) -> tuple[Aig, int]:
    """The pass result: *g* itself when nothing was transformed."""
    if not tnodes:
        return g, 0
    return Aig.compact(b, [nmap[l >> 1] ^ (l & 1) for l in g.outputs]), tnodes


def _input_map(g: Aig) -> list[int]:
    """Old node -> new literal, with the constant and the inputs in place."""
    return [n << 1 for n in range(g.num_inputs + 1)] + [0] * g.num_ands


def balance(g: Aig) -> tuple[Aig, int]:
    """Balance as a function of the graph: the result and its ``tnodes``.

    Every cone is rebuilt in cone order from its mapped leaves.  A
    two-leaf cone is re-added as it is, and counts when its mapped pair is
    trivial.  A larger cone's distinct mapped leaves, constant true
    dropped, give constant false when they hold false or a complementary
    pair and constant true when none is left, each counted; otherwise they
    are paired shallowest first, by (level, literal), and the root counts
    when its level falls below its verbatim copy's.
    """
    b = AigBuilder(g.num_inputs, g.name_map)
    lev = b.levels()
    nmap = _input_map(g)
    tnodes = 0
    for root, members, leaves in cones(g):
        mapped = [nmap[l >> 1] ^ (l & 1) for l in leaves]
        if len(members) == 1:
            ma, mc = mapped
            nmap[root] = b.add(ma, mc)
            if ma < 2 or mc < 2 or ma >> 1 == mc >> 1:
                tnodes += 1
            continue
        uniq = set(mapped) - {1}
        const0 = 0 in uniq or any(l ^ 1 in uniq for l in uniq)
        if const0 or not uniq:
            nmap[root] = 0 if const0 else 1
            tnodes += 1
            continue
        heap = [(lev[l >> 1], l) for l in uniq]
        heapq.heapify(heap)
        while len(heap) > 1:
            x = heapq.heappop(heap)[1]
            y = heapq.heappop(heap)[1]
            l = b.add(x, y)
            heapq.heappush(heap, (lev[l >> 1], l))
        root_lev, nmap[root] = heap[0]
        if root_lev < copy_level(g, members, nmap, lev):
            tnodes += 1
    return _finish(g, b, nmap, tnodes)


def _cof1(tt: int, var_tt: int, span: int) -> int:
    d = tt & var_tt
    return d | (d >> span)


def _cof0(tt: int, var_tt: int, span: int, full: int) -> int:
    d = tt & (var_tt ^ full)
    return (d | (d << span)) & full


def _shannon(tt: int, full: int, var_tts: tuple[int, ...],
             steps: list[tuple[int, int]], memo: dict[int, int]) -> int:
    """Shannon structure of *tt*, appended to *steps* as AND operand pairs.

    Literals are template-local: 0/1 are the constants, ``2*(i+1)`` is
    support variable i and ``2*(s+1+j)`` is step j.
    """
    if tt in memo:
        return memo[tt]
    res = None
    if tt == 0:
        res = 0
    elif tt == full:
        res = 1
    else:
        for i, vt in enumerate(var_tts):
            if tt == vt:
                res = (i + 1) << 1
                break
            if tt == vt ^ full:
                res = ((i + 1) << 1) ^ 1
                break
    if res is None:
        # greedy split: the dependent variable whose cofactor on-set sizes
        # are most balanced, ties toward the lowest variable
        best = None
        for i, vt in enumerate(var_tts):
            hi = _cof1(tt, vt, 1 << i)
            lo = _cof0(tt, vt, 1 << i, full)
            if hi == lo:
                continue
            score = abs(hi.bit_count() - lo.bit_count())
            if best is None or score < best[0]:
                best = (score, i, hi, lo)
        _, i, hi, lo = best
        fhi = _shannon(hi, full, var_tts, steps, memo)
        flo = _shannon(lo, full, var_tts, steps, memo)
        xv = (i + 1) << 1
        j = len(var_tts) + 1 + len(steps)
        # OR(x & fhi, ~x & flo)
        steps.append((xv, fhi))
        steps.append((xv ^ 1, flo))
        steps.append(((j << 1) ^ 1, ((j + 1) << 1) ^ 1))
        res = ((j + 2) << 1) ^ 1
    memo[tt] = res
    return res


@functools.lru_cache(maxsize=None)
def template(s: int, tt: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Shannon decomposition of *tt* over *s* variables: (steps, root)."""
    steps: list[tuple[int, int]] = []
    root = _shannon(tt, (1 << (1 << s)) - 1, input_patterns(s), steps, {})
    return tuple(steps), root


def rollback(b: AigBuilder, mark: int) -> None:
    """Undo every add since *b* held *mark* nodes: its arrays and levels
    are truncated and the new pairs leave its hash table."""
    k = mark - b.num_inputs - 1
    for a, c in zip(b._fan0[k:], b._fan1[k:]):
        del b._strash[(a << 32) | c]
    del b._fan0[k:], b._fan1[k:], b._levels[mark:]


def refactor(g: Aig, zero_cost: bool) -> tuple[Aig, int]:
    """Refactor (refactor_z when *zero_cost*) as a function of the graph:
    the result and its ``tnodes``.

    Every cone is rebuilt in cone order into a fresh builder.  A
    single-gate cone counts when its mapped pair exists or is trivial.  A
    cone with at most REFACTOR_SUPPORT_LIMIT support nodes is evaluated
    over them, and the Shannon template of its truth table is built over
    their mapped literals.  It is kept, and counts, when it added fewer
    nodes than the cone has, or, for refactor_z, as many at a root level
    below the verbatim copy's; otherwise it is rolled back and the
    members are copied verbatim.
    """
    b = AigBuilder(g.num_inputs, g.name_map)
    lev = b.levels()
    nmap = _input_map(g)
    tnodes = 0
    for root, members, leaves in cones(g):
        if len(members) == 1:
            ma, mc = (nmap[l >> 1] ^ (l & 1) for l in leaves)
            probe = find_and(b, ma, mc)
            if probe is None:
                nmap[root] = b.add(ma, mc)
            else:
                nmap[root] = probe
                tnodes += 1
            continue
        sup = sorted({l >> 1 for l in leaves})
        accepted = False
        if len(sup) <= REFACTOR_SUPPORT_LIMIT:
            s = len(sup)
            full = (1 << (1 << s)) - 1
            tt = evaluate(g, members, dict(zip(sup, input_patterns(s))),
                          full)[root]
            steps, tlit = template(s, tt)
            mark = b.num_nodes
            lits = [0, *(nmap[n] for n in sup)]
            for x, y in steps:
                lits.append(b.add(lits[x >> 1] ^ (x & 1),
                                  lits[y >> 1] ^ (y & 1)))
            newlit = lits[tlit >> 1] ^ (tlit & 1)
            created = b.num_nodes - mark
            accepted = created < len(members) or (
                zero_cost and created == len(members)
                and lev[newlit >> 1] < copy_level(g, members, nmap, lev))
            if accepted:
                nmap[root] = newlit
                tnodes += 1
            else:
                rollback(b, mark)
        if not accepted:
            for u in members:
                a, c = g.fanins(u)
                nmap[u] = b.add(nmap[a >> 1] ^ (a & 1), nmap[c >> 1] ^ (c & 1))
    return _finish(g, b, nmap, tnodes)


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
    nmap = _input_map(g)
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
    return _finish(g, b, nmap, tnodes)


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
