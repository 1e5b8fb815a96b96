"""Semantics-preserving DAG-aware transformations.

Six kinds are provided: balance, rewrite, rewrite_z, refactor, refactor_z
and resub.  Every kind can either count the nodes its applicability
predicate holds for (without touching the graph) or apply itself and
report exactly that count.  All passes are deterministic functions of the
input graph: traversal is fixed topological (creation) order and every
tie breaks toward the lowest node id or literal.

Passes read a finished :class:`Aig` and rebuild into a fresh
:class:`AigBuilder` through a pass-local old->new literal map, so a shared
input graph, such as a cache key, never changes.  The builder tracks
levels as it goes.  A pass returns what it computed (:data:`_PassResult`):
its builder, the map, its count and its twin report.  :func:`apply` alone
finishes: when the pass transformed something it maps the outputs through
the map and calls :meth:`Aig.compact`, and a no-op returns the input
itself; :func:`count_transformable` discards the builder unfinished.
Nothing rehashes, recompacts or recomputes levels afterwards.

The map's entries for the output nodes are exact.  Some others stay
stale identity entries: refactor and balance map only the root of a cone
they rebuild, not its replaced members, and resub maps only the nodes its
rebuild from the outputs reaches.  A reader of any other entry must
verify every image it reads.

Until their first rule fires, a builder for rewrite, rewrite_z, refactor
or refactor_z would only copy the input: every node maps to itself and
the builder holds exactly the input nodes visited so far.  These passes
therefore start in identity mode, reading the frozen input instead and
putting the fanin pair of each node they leave alone (rewrite: each node
it scans past; refactor: the members of each cone it keeps) into a lookup
of their own, which is exactly what a builder holding the visited nodes
would hash.  Trivial rules and hash hits do not depend on node numbering,
so every decision is the one a builder would make.  A pass that never
fires builds nothing.  At the first fire, both copy the visited nodes into
a fresh builder with one :func:`_copy_nodes` call in visit order and go on
against it.  The trivial-AND rules live in :meth:`AigBuilder.add`,
rewrite's lookup and :func:`_trial`.  A refactor trial never touches a
builder: :func:`_trial` counts the nodes a cone's chain would add by
lookup, and only an accepted chain is built.
No structural hash outlives its pass.  :func:`_cones` keeps one entry: a
no-op returns its input, so the next pass of a flow usually reads the same
graph.  The cone partition is four flat 4-byte arrays, about 15 bytes per
AND, so the entry left behind costs little.  Each rewrite and refactor
pass also reports whether its twin would return the same (:data:`_TWIN`).

Rule catalogs, in traversal order at each node:

Balance trees and refactor cones are the same fanout-free cones: an AND
whose only reference is an uncomplemented fanin belongs to its consumer's
cone, and every other AND roots one (:func:`_cones`).  Both passes judge a
rebuilt root against the level of a verbatim copy (:func:`_copy_level`).

* balance    dismantles each fanout-free cone into its leaves and rebuilds
             it depth-minimally, pairing shallowest operands first.  A
             root counts as transformed when its rebuilt level drops.
* rewrite    local algebraic rules: structural-hash / trivial elimination,
             absorption AND(a, AND(a,b)) -> AND(a,b), contradictory shared
             literals fold to constant false, and sharing-driven
             reassociation AND(AND(s,u), AND(s,v)) -> AND(s, AND(u,v))
             accepted only when hashing proves the node count drops
             (rewrite_z also accepts an even trade that shortens the local
             path, which happens only when AND(u,v) already exists and s
             is strictly deeper than u and v).
* refactor   rebuilds each fanout-free cone with at most 8 support nodes
             as the conjunction it is: a chain l0 & (l1 & (... & lk)) over
             its distinct leaf literals in node-id order, built innermost
             pair first, or constant false when two are complementary;
             accepted on a strict node-count drop (refactor_z also accepts
             an even trade at lower root level).  The chain is what a
             Shannon decomposition of the cone's truth table would build:
             the most balanced split ties on every variable of a
             conjunction and takes the lowest, adding one AND per split.
* resub      groups the nodes into classes of equal value and redirects
             each duplicate into its class's lower-level survivor.  Up to
             16 inputs the values are full truth tables, simulated in
             blocks of 4096 assignments: the hashes of 4096 seeded random
             patterns group the nodes, and every block splits the groups
             it tells apart.  Only live values are held, not one per
             node; a group member's lives until its group is checked.
             Above 16 inputs the values are those random signatures, and
             each candidate pair is verified exhaustively over its union
             input support, or skipped when that exceeds 16 inputs.  No
             redirect can close a cycle: levels rise strictly along every
             AND edge, so a cone holds only nodes strictly below its
             root, and the survivor has the lowest (level, id) of its
             class, so no other member lies in its cone.
"""

from __future__ import annotations

import functools
import heapq
import random
from array import array
from collections import OrderedDict
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .aig import (_TYPECODE, EXHAUSTIVE_INPUT_LIMIT, Aig, AigBuilder,
                  _eval, _eval_nodes, _exhaustive_inputs, _lifetimes, _ops,
                  _plan, input_patterns, metrics)


class TransformKind(str, Enum):
    BALANCE = "balance"
    REWRITE = "rewrite"
    REWRITE_Z = "rewrite_z"
    REFACTOR = "refactor"
    REFACTOR_Z = "refactor_z"
    RESUB = "resub"


DEFAULT_KINDS: tuple[TransformKind, ...] = tuple(TransformKind)

# Flows are plain tuples of TransformKind (hashable, usable as cache keys).
Flow = tuple[TransformKind, ...]


class TransformReport(NamedTuple):
    kind: TransformKind
    tnodes: int
    nodes_before: int
    nodes_after: int
    depth_before: int
    depth_after: int
    twin_same: bool = False  # the twin kind (_TWIN) would return the same


# a pass's builder (None when nothing fired), its old->new literal map
# (None from resub's early exit; exact for the output nodes, see the module
# docstring), tnodes and twin_same
_PassResult = tuple[AigBuilder | None, array | None, int, bool]

_RESUB_PATTERNS = 4096
_RESUB_SEED = 0x5EEDF00D
_REFACTOR_SUPPORT_LIMIT = 8


# ----- shared rebuild helpers ---------------------------------------------------


def _identity_map(g: Aig) -> array:
    """Old->new literal map with every node in place; a pass overwrites a
    node's entry when it rebuilds the node, before any reader sees it."""
    return array(_TYPECODE, range(0, 2 * g.num_nodes, 2))


def _copy_nodes(b: AigBuilder, g: Aig, nodes, nmap) -> None:
    """Copy the ANDs *nodes* of *g* verbatim into *b* over their mapped
    fanins, in the given (topological) order."""
    base = g.num_inputs + 1
    f0, f1 = g._fan0, g._fan1
    add = b.add
    for u in nodes:
        a = f0[u - base]
        c = f1[u - base]
        nmap[u] = add(nmap[a >> 1] ^ (a & 1), nmap[c >> 1] ^ (c & 1))


class _Cones(NamedTuple):
    """A graph's fanout-free cones as flat 4-byte arrays: cone i is
    ``nodes[cone_at[i]:cone_at[i + 1]]`` with the leaves
    ``leaves[leaf_at[i]:leaf_at[i + 1]]``."""

    nodes: array  # AND ids, cone by cone
    cone_at: array  # cone offsets into nodes, from 0 to the AND count
    leaves: array  # leaf literals, cone by cone
    leaf_at: array  # cone offsets into leaves


# A no-op returns its input, so the next pass of a flow usually reads the
# same graph: one entry catches most repeats, and keeps nothing else alive.
@functools.lru_cache(maxsize=1)
def _cones(g: Aig) -> _Cones:
    """Partition the ANDs into fanout-free cones.

    An AND belongs to its consumer's cone when its only reference is an
    uncomplemented fanin; every other AND (an output, a complemented or
    shared fanin) roots a cone.  Cones come in root creation order and
    members in creation order, root last: the nodes are the AND ids
    stably sorted by root.  Leaves are the members' fanin literals outside
    the cone, one per reference, in member order.  The result is shared by
    every pass on the graph, so callers only read it.
    """
    ni = g.num_inputs
    f0, f1 = g._fan0, g._fan1
    n_nodes = g.num_nodes
    # a complemented or output reference counts twice, so a member is
    # exactly an AND referenced once
    refs = [0] * n_nodes
    consumer = [0] * n_nodes
    for k in range(len(f0)):
        node = ni + 1 + k
        a = f0[k]
        refs[a >> 1] += 1 + (a & 1)
        consumer[a >> 1] = node
        c = f1[k]
        refs[c >> 1] += 1 + (c & 1)
        consumer[c >> 1] = node
    for l in g.outputs:
        refs[l >> 1] += 2
    root_of = [0] * n_nodes  # inputs and the constant keep 0, never a root
    for node in range(n_nodes - 1, ni, -1):  # consumers before fanins
        root_of[node] = root_of[consumer[node]] if refs[node] == 1 else node
    nodes = array(_TYPECODE, sorted(range(ni + 1, n_nodes),
                                    key=root_of.__getitem__))
    cone_at = array(_TYPECODE, [0])
    leaves = array(_TYPECODE)
    leaf_at = array(_TYPECODE, [0])
    for i, u in enumerate(nodes, 1):
        k = u - ni - 1
        root = root_of[u]
        a = f0[k]
        if root_of[a >> 1] != root:
            leaves.append(a)
        c = f1[k]
        if root_of[c >> 1] != root:
            leaves.append(c)
        if u == root:
            cone_at.append(i)
            leaf_at.append(len(leaves))
    return _Cones(nodes, cone_at, leaves, leaf_at)


def _copy_level(g: Aig, members, nmap, lev: list[int]) -> int:
    """Level the cone's root would get if its members were copied verbatim
    over their mapped leaves; a rebuild counts only when it beats this, so
    upstream improvements alone do not inflate the count."""
    ni = g.num_inputs
    f0, f1 = g._fan0, g._fan1
    clev: dict[int, int] = {}
    for u in members:
        k = u - ni - 1
        a = f0[k] >> 1
        c = f1[k] >> 1
        la = clev.get(a)
        if la is None:
            la = lev[nmap[a] >> 1]
        lc = clev.get(c)
        if lc is None:
            lc = lev[nmap[c] >> 1]
        clev[u] = (la if la > lc else lc) + 1
    return clev[members[-1]]


# ----- balance ------------------------------------------------------------------


def _pass_balance(g: Aig) -> _PassResult:
    b = AigBuilder(g.num_inputs, g.name_map)
    nmap = _identity_map(g)
    lev = b.levels()
    tnodes = 0
    nodes, cone_at, leaves, leaf_at = _cones(g)
    for lo, hi, llo, lhi in zip(cone_at, cone_at[1:], leaf_at, leaf_at[1:]):
        root = nodes[hi - 1]
        if hi - lo == 1:
            # a two-leaf tree is its own depth-minimal rebuild; it counts
            # only when it collapses after mapping
            a = leaves[llo]
            c = leaves[llo + 1]
            ma = nmap[a >> 1] ^ (a & 1)
            mc = nmap[c >> 1] ^ (c & 1)
            nmap[root] = b.add(ma, mc)
            if ma < 2 or mc < 2 or ma >> 1 == mc >> 1:
                tnodes += 1
            continue
        # simplify the mapped leaves; pairing pops by (level, literal), so
        # the set's order does not matter
        uniq = {nmap[l >> 1] ^ (l & 1) for l in leaves[llo:lhi]}
        uniq.discard(1)
        const0 = 0 in uniq or any(l ^ 1 in uniq for l in uniq)
        if const0 or not uniq:
            nmap[root] = 0 if const0 else 1
            tnodes += 1  # the whole tree collapsed to a constant
            continue
        heap = [(lev[l >> 1], l) for l in uniq]
        heapq.heapify(heap)
        while len(heap) > 1:
            _, x = heapq.heappop(heap)
            _, y = heapq.heappop(heap)
            l = b.add(x, y)
            heapq.heappush(heap, (lev[l >> 1], l))
        root_lev, root_lit = heap[0]
        nmap[root] = root_lit
        if root_lev < _copy_level(g, nodes[lo:hi], nmap, lev):
            tnodes += 1
    return b, nmap, tnodes, False


# ----- rewrite ------------------------------------------------------------------


def _pass_rewrite(g: Aig, zero_cost: bool) -> _PassResult:
    ni = g.num_inputs
    f0g, f1g = g._fan0, g._fan1
    # identity mode until the first rule fires: every node maps to itself,
    # fanins and levels are the input's own, and lookups see the pairs of
    # the nodes scanned past, which is exactly what a builder holding the
    # copied prefix would hold
    b = None
    nmap = _identity_map(g)
    of0, of1, lev = f0g, f1g, g._levels
    strash: dict[int, int] = {}

    def find(x: int, y: int) -> int | None:
        if x > y:
            x, y = y, x
        if x < 2:
            return 0 if x == 0 else y
        if x == y:
            return x
        if x ^ y == 1:
            return 0
        n = strash.get((x << 32) | y)
        return None if n is None else n << 1

    tnodes = 0
    even = False  # met an even trade, where the twin decides otherwise
    for k in range(len(f0g)):
        node = ni + 1 + k
        a = f0g[k]
        c = f1g[k]
        mf = nmap[a >> 1] ^ (a & 1)
        mg = nmap[c >> 1] ^ (c & 1)

        # trivial / structural-hash elimination: fires only after upstream
        # rewrites made the mapped pair collapsible, so never in identity
        # mode, where the pair is this node's own
        repl = None if b is None else find(mf, mg)
        shared = -1
        if repl is None:
            # fanins of uncomplemented AND fanins, -1 when there are none
            p = q = r = t = -1
            if (mf & 1) == 0 and (mf >> 1) > ni:
                kk = (mf >> 1) - ni - 1
                p = of0[kk]
                q = of1[kk]
            if (mg & 1) == 0 and (mg >> 1) > ni:
                kk = (mg >> 1) - ni - 1
                r = of0[kk]
                t = of1[kk]
            if r >= 0:
                if mf == r or mf == t:
                    repl = mg  # absorption
                elif mf == r ^ 1 or mf == t ^ 1:
                    repl = 0  # contradiction one level down
            if repl is None and p >= 0:
                if mg == p or mg == q:
                    repl = mf
                elif mg == p ^ 1 or mg == q ^ 1:
                    repl = 0
            if repl is None and p >= 0 and r >= 0:
                if p ^ 1 == r or p ^ 1 == t or q ^ 1 == r or q ^ 1 == t:
                    repl = 0  # the two sub-cones carry contradictory literals
                # sharing-driven reassociation
                elif p == r:
                    shared, u, v = p, q, t
                elif p == t:
                    shared, u, v = p, q, r
                elif q == r:
                    shared, u, v = q, p, t
                elif q == t:
                    shared, u, v = q, p, r
            if shared >= 0:
                t1 = find(u, v)
                accept = t1 is not None and find(shared, t1) is not None
                if not accept and t1 is not None:
                    # one fresh node replaces this one: an even trade, which
                    # rewrite_z takes when the local path gets shorter
                    copy_lev = max(lev[mf >> 1], lev[mg >> 1]) + 1
                    cand_lev = max(lev[shared >> 1], lev[t1 >> 1]) + 1
                    accept = zero_cost and cand_lev < copy_lev
                    even = even or cand_lev < copy_lev
                if not accept:
                    shared = -1

        if repl is None and shared < 0:
            if b is None:
                strash[(a << 32) | c] = node  # the pair is the node's own
            else:
                nmap[node] = b.add(mf, mg)
            continue
        if b is None:
            # first fire: copy the nodes below this one, which map to
            # themselves, into a builder and go on against it
            b = AigBuilder(ni, g.name_map)
            _copy_nodes(b, g, range(ni + 1, node), nmap)
            strash = b._strash
            of0, of1, lev = b._fan0, b._fan1, b._levels
        if repl is None:
            repl = b.add(shared, t1)  # accepted only when AND(u, v) exists
        nmap[node] = repl
        tnodes += 1
    return b, nmap, tnodes, not even


# ----- refactor -----------------------------------------------------------------


def _trial(lits, lev: list[int], known) -> tuple[int, int]:
    """Replay the chain ``lits[0] & (lits[1] & (... & lits[-1]))``, the
    innermost pair first, by lookup alone, building nothing.

    Each AND takes the builder's trivial-AND rules, then *known* (pair key
    -> existing node, or None).  Fresh nodes are numbered from ``len(lev)``
    on, as :meth:`AigBuilder.add` would number them.  Once the chain holds
    a fresh node, every later pair holds the newest one, so no pair comes
    twice.  Returns (ANDs the chain would add, level of its root); the
    count never exceeds ``len(lits) - 1``.
    """
    top = len(lev)
    flev: list[int] = []  # levels of the fresh nodes
    acc = lits[-1]
    for p in lits[-2::-1]:
        q = acc
        if p > q:
            p, q = q, p
        if p < 2:
            acc = 0 if p == 0 else q
        elif p == q:
            acc = p
        elif p ^ q == 1:
            acc = 0
        else:
            n = known((p << 32) | q)
            if n is None:
                # only q, the larger, can be fresh, and then it is the newest
                n = top + len(flev)
                lp = lev[p >> 1]
                lq = flev[-1] if q >> 1 >= top else lev[q >> 1]
                flev.append((lp if lp > lq else lq) + 1)
            acc = n << 1
    r = acc >> 1
    return len(flev), flev[r - top] if r >= top else lev[r]


def _pass_refactor(g: Aig, zero_cost: bool) -> _PassResult:
    ni = g.num_inputs
    base = ni + 1
    f0, f1 = g._fan0, g._fan1
    # identity mode until the first cone is accepted: every node maps to
    # itself, levels are the input's own, and lookups see the pairs of the
    # cones kept so far, which is exactly what a builder holding their
    # verbatim copies would hold
    b = None
    nmap = _identity_map(g)
    lev = g._levels
    strash: dict[int, int] = {}
    known = strash.get

    tnodes = 0
    even = False  # met an even trade, where the twin decides otherwise
    nodes, cone_at, leaves, leaf_at = _cones(g)
    for lo, hi, llo, lhi in zip(cone_at, cone_at[1:], leaf_at, leaf_at[1:]):
        root = nodes[hi - 1]
        if hi - lo == 1:
            if b is None:
                # the pair is the root's own and not yet seen: no fire
                strash[(f0[root - base] << 32) | f1[root - base]] = root
                continue
            # single-gate cone: its chain is its own pair, so the rebuild
            # wins exactly when the mapped pair already exists or folds,
            # that is when adding it allocates nothing
            a = leaves[llo]
            c = leaves[llo + 1]
            ma = nmap[a >> 1] ^ (a & 1)
            mc = nmap[c >> 1] ^ (c & 1)
            top = len(lev)
            nmap[root] = b.add(ma, mc)
            if len(lev) == top:
                tnodes += 1
            continue
        mem = nodes[lo:hi]
        # every member is referenced once, uncomplemented, so the cone is
        # the AND of its leaf literals, in node-id order here
        lits = sorted(set(leaves[llo:lhi]))
        sup = {l >> 1 for l in lits}
        if len(sup) <= _REFACTOR_SUPPORT_LIMIT:
            const0 = len(sup) < len(lits)  # a complementary pair
            fire = const0
            if not const0:
                count, level = _trial(
                    [nmap[l >> 1] ^ (l & 1) for l in lits], lev, known)
                fire = count < len(mem)
                # otherwise the chain matches the cone's node count, an
                # even trade that refactor_z takes at a lower root level;
                # once the plain kind has met one, it need not look again
                if (not fire and (zero_cost or not even)
                        and level < _copy_level(g, mem, nmap, lev)):
                    even = True
                    fire = zero_cost
            if fire:
                if b is None:
                    # first fire: build the visited cones in visit order
                    # and go on against the builder, which renumbers them
                    b = AigBuilder(ni, g.name_map)
                    _copy_nodes(b, g, nodes[:lo], nmap)
                    lev = b._levels
                    strash = b._strash
                    known = strash.get
                acc = 0
                if not const0:
                    # mapped again: the handoff rewrote identity entries
                    acc = nmap[lits[-1] >> 1] ^ (lits[-1] & 1)
                    for l in lits[-2::-1]:
                        acc = b.add(nmap[l >> 1] ^ (l & 1), acc)
                nmap[root] = acc
                tnodes += 1
                continue
        if b is None:
            for u in mem:
                strash[(f0[u - base] << 32) | f1[u - base]] = u
        else:
            _copy_nodes(b, g, mem, nmap)
    return b, nmap, tnodes, not even


# ----- resub --------------------------------------------------------------------


def _cone_tt(g: Aig, node: int, base_val: dict[int, int], full: int) -> int:
    """Truth table of a node over preassigned support values; the values
    of the cone's ANDs are added to *base_val*."""
    ni = g.num_inputs
    todo = [node]
    cone = set()
    while todo:
        n = todo.pop()
        if n in base_val or n in cone or n <= ni:
            continue
        cone.add(n)
        f0, f1 = g.fanins(n)
        todo.append(f0 >> 1)
        todo.append(f1 >> 1)
    return _eval(_ops(g, sorted(cone)), base_val, full)[node]


def _signature_inputs(ni: int) -> list[int]:
    """The seeded random input patterns of resub's signatures."""
    rng = random.Random(_RESUB_SEED)
    return [rng.getrandbits(_RESUB_PATTERNS) for _ in range(ni)]


def _classes_of(vals) -> list[list[int]]:
    """Node ids grouped by equal value, in first-occurrence order; classes
    of one are dropped."""
    groups: dict[int, list[int]] = {}
    for n, v in enumerate(vals):
        groups.setdefault(v, []).append(n)
    return [c for c in groups.values() if len(c) > 1]


# ops per step of the exhaustive class simulation: the signature pass
# groups a step's values, and each block checks classes, when the step ends
_CLASS_CHUNK = 256


def _exhaustive_classes(g: Aig) -> list[list[int]]:
    """Classes of nodes with equal truth tables over all 2^n assignments.

    A first pass evaluates the sampled branch's seeded patterns into a
    list by node id, one step at a time, groups each step's ANDs by
    ``hash(value)`` and drops each value when its :func:`_lifetimes` step
    ends.  Equal truth tables give equal signatures, so every class lies
    inside one group; a hash collision only widens a group, and int
    hashes are not salted, so the groups are the same in every process.
    Then every block of :func:`_exhaustive_inputs` checks each group,
    which it can only split, in the step that computes its last member,
    on a liveness plan whose lifetimes reach every member's check.  The
    check keeps a class whose members all equal its first member and
    splits the others by value, dropping classes of one; steps past the
    last pending check are not evaluated.  The surviving classes are
    those that grouping by the full tables gives, in some order.
    """
    ni = g.num_inputs
    base = ni + 1
    last = _lifetimes(g, _CLASS_CHUNK)
    vals = [0] * g.num_nodes
    vals[1:base] = _signature_inputs(ni)
    mask = (1 << _RESUB_PATTERNS) - 1
    groups: dict[int, list[int]] = {}
    for n in range(base):
        groups.setdefault(hash(vals[n]), []).append(n)
    starts = range(base, g.num_nodes, _CLASS_CHUNK)
    for i, lo in enumerate(starts):
        ops = _ops(g, range(lo, min(lo + _CLASS_CHUNK, g.num_nodes)))
        _eval(ops, vals, mask)
        # the whole step is evaluated, so a value last read in it can go
        for n, a, b, _ in ops:
            groups.setdefault(hash(vals[n]), []).append(n)
            if last[a] == i:
                vals[a] = 0
            if last[b] == i:
                vals[b] = 0
            if last[n] == i:
                vals[n] = 0
    # members come in id order; a group of the constant and inputs alone
    # is checked in step 0
    pending: list[list] = [[] for _ in range(max(len(starts), 1))]
    for c in groups.values():
        if len(c) > 1:
            i = max(c[-1] - base, 0) // _CLASS_CHUNK
            pending[i].append(c)
            for n in c:
                if last[n] < i:
                    last[n] = i
    del groups, vals
    plan = _plan(g, _CLASS_CHUNK, last)
    steps = [plan.ops[lo:lo + _CLASS_CHUNK]
             for lo in range(0, g.num_ands, _CLASS_CHUNK)] or [[]]
    slot = plan.slot
    pending = [[(c, itemgetter(*[slot[n] for n in c])) for c in cs]
               for cs in pending]
    vals = [0] * plan.size
    for mask, ins in _exhaustive_inputs(ni):
        end = max((i for i, cs in enumerate(pending) if cs), default=-1)
        if end < 0:
            break
        vals[1:base] = ins
        for i in range(end + 1):
            _eval(steps[i], vals, mask)
            if not pending[i]:
                continue
            kept = []
            for c, get in pending[i]:
                v = get(vals)
                if v.count(v[0]) == len(v):
                    kept.append((c, get))
                    continue
                split: dict[int, list[int]] = {}
                for n, x in zip(c, v):
                    split.setdefault(x, []).append(n)
                kept.extend((s, itemgetter(*[slot[n] for n in s]))
                            for s in split.values() if len(s) > 1)
            pending[i] = kept
    return [c for cs in pending for c, _ in cs]


def _pass_resub(g: Aig) -> _PassResult:
    ni = g.num_inputs
    f0g, f1g = g._fan0, g._fan1
    exhaustive = ni <= EXHAUSTIVE_INPUT_LIMIT
    sup: list[int] = []
    if exhaustive:
        # few enough inputs to simulate every assignment; equal values
        # then need no second verification step
        classes = _exhaustive_classes(g)
    else:
        classes = _classes_of(_eval_nodes(g, _signature_inputs(ni),
                                          (1 << _RESUB_PATTERNS) - 1))
        # structural input support per node, as an input bitmask
        sup = [0] * g.num_nodes
        for i in range(1, ni + 1):
            sup[i] = 1 << (i - 1)
        for k in range(len(f0g)):
            sup[ni + 1 + k] = sup[f0g[k] >> 1] | sup[f1g[k] >> 1]

    # a node lies in at most one class and the rebuild reads subst by
    # lookup, so class order cannot reach the result
    levels = g.levels()
    subst: dict[int, int] = {}
    # input tables by support size: none above BLOCK_INPUTS outlives the pass
    tables: dict[int, tuple[int, ...]] = {}
    tnodes = 0
    for nodes in classes:
        rep = min(nodes, key=lambda n: (levels[n], n))
        for mnode in nodes:
            if mnode == rep or mnode <= ni:
                continue
            if not exhaustive:
                union = sup[rep] | sup[mnode]
                if union.bit_count() > EXHAUSTIVE_INPUT_LIMIT:
                    continue  # soundness over coverage: no oracle that large
                sup_inputs = [i + 1 for i in range(ni) if union >> i & 1]
                s = len(sup_inputs)
                full = (1 << (1 << s)) - 1
                if s not in tables:
                    tables[s] = input_patterns(s)
                base_val = dict(zip(sup_inputs, tables[s]))
                base_val[0] = 0  # the survivor may be the constant node
                if _cone_tt(g, rep, base_val, full) != _cone_tt(g, mnode, base_val, full):
                    continue
            subst[mnode] = rep << 1
            tnodes += 1
    if not subst:
        return None, None, 0, False

    # rebuild from the outputs with redirected references (implicit GC);
    # iterative DFS, fanin0 first
    b = AigBuilder(ni, g.name_map)
    nmap = _identity_map(g)
    done = bytearray(g.num_nodes)
    for n in range(ni + 1):
        done[n] = 1
    for out_lit in g.outputs:
        stack = [out_lit >> 1]
        while stack:
            n = stack[-1]
            if done[n]:
                stack.pop()
                continue
            r = subst.get(n)
            if r is not None:
                rn = r >> 1
                if done[rn]:
                    nmap[n] = nmap[rn] ^ (r & 1)
                    done[n] = 1
                    stack.pop()
                else:
                    stack.append(rn)
                continue
            kk = n - ni - 1
            a = f0g[kk]
            c = f1g[kk]
            an = a >> 1
            cn = c >> 1
            if not done[an]:
                stack.append(an)
                continue
            if not done[cn]:
                stack.append(cn)
                continue
            nmap[n] = b.add(nmap[an] ^ (a & 1), nmap[cn] ^ (c & 1))
            done[n] = 1
            stack.pop()
    return b, nmap, tnodes, False


# ----- public operations --------------------------------------------------------


def _run_pass(g: Aig, kind: TransformKind) -> _PassResult:
    if kind is TransformKind.BALANCE:
        return _pass_balance(g)
    if kind is TransformKind.REWRITE:
        return _pass_rewrite(g, False)
    if kind is TransformKind.REWRITE_Z:
        return _pass_rewrite(g, True)
    if kind is TransformKind.REFACTOR:
        return _pass_refactor(g, False)
    if kind is TransformKind.REFACTOR_Z:
        return _pass_refactor(g, True)
    if kind is TransformKind.RESUB:
        return _pass_resub(g)
    raise ValueError(f"unknown transform kind {kind!r}")


def count_transformable(aig: Aig, kind: TransformKind) -> int:
    """Number of nodes *kind* would transform, without mutating the graph.

    Equals apply(aig, kind)[1].tnodes by construction: the counting dry run
    shares the transformation code and discards the builder unfinished.  A
    pass that transforms nothing builds nothing (balance aside, which
    re-pairs every cone), so counting a no-op costs one read of the graph.
    """
    return _run_pass(aig, kind)[2]


def apply(aig: Aig, kind: TransformKind) -> tuple[Aig, TransformReport]:
    """Apply one transformation; the input graph is left untouched.

    A transform with no applicable nodes returns the input unchanged;
    otherwise the outputs are mapped through the pass's literal map and
    its builder is finished with :meth:`Aig.compact`.
    """
    before = after = metrics(aig)
    b, nmap, tnodes, twin_same = _run_pass(aig, kind)
    res = aig
    if tnodes:
        res = Aig.compact(b, [nmap[l >> 1] ^ (l & 1) for l in aig.outputs])
        after = metrics(res)
    return res, TransformReport(kind, tnodes, before.and_count,
                                after.and_count, before.depth, after.depth,
                                twin_same)


def apply_flow(aig: Aig, flow) -> tuple[Aig, list[TransformReport]]:
    """Apply an ordered sequence of transformations left to right."""
    return FlowCache().apply_flow(aig, flow)


# FlowCache's default bound, in ANDs over the distinct graphs it holds: a
# 2:30 run with --reps 4 on a 56-input, 2,143-AND circuit holds about 330k.
# A finished graph stores 5 bytes per AND while it has at most 2^15 nodes
# and depth below 256 (12 at most otherwise), so 1M ANDs is about 5 MB.
CACHE_MAX_ANDS = 1_000_000

# A kind's twin is the same pass with the other zero_cost setting.  The two
# decide alike everywhere but at an even trade (a reassociation that trades
# one node for one on a shorter local path, a refactor trial that matches
# the cone's node count at a lower root level), so a pass whose path meets
# none ends exactly as its twin's would and reports twin_same.  A _z no-op
# always does, since the _z kind takes every even trade it meets.
_TWIN = {TransformKind.REWRITE: TransformKind.REWRITE_Z,
         TransformKind.REWRITE_Z: TransformKind.REWRITE,
         TransformKind.REFACTOR: TransformKind.REFACTOR_Z,
         TransformKind.REFACTOR_Z: TransformKind.REFACTOR}


def _implied_entry(g: Aig, kind: TransformKind, res: Aig,
                   rep: TransformReport) -> tuple | None:
    """A cache key and the entry that ``apply(g, kind)`` returning *res*
    and *rep* proves for it without running a pass, or None.

    Besides the twin rule above: exhaustive resub (at most 16 inputs)
    groups every node, the constant and the inputs included, into complete
    classes of equal truth tables and keeps one survivor per class, so no
    two nodes of its result compute the same function and resub on it is a
    no-op.  Sampled resub is not idempotent: its classes are candidates."""
    if rep.twin_same:
        return (g, _TWIN[kind]), (res, rep._replace(kind=_TWIN[kind]))
    if kind is TransformKind.RESUB and g.num_inputs <= EXHAUSTIVE_INPUT_LIMIT:
        n, d = rep.nodes_after, rep.depth_after
        return (res, kind), (res, TransformReport(kind, 0, n, n, d, d))
    return None


class FlowCache:
    """Memoizes transform results along flow prefixes.

    Transforms are pure functions of the graph, so two flows sharing a
    prefix share every intermediate graph.  Keys are ``(graph, kind)``,
    and graphs compare by content, so flows that converge on equal graphs
    from different objects share one entry too.  A hit hands back the
    graph computed first, which equals what the pass would return.

    A miss also stores the entry that :func:`_implied_entry` infers from
    its result, unless one is there: the same input under the pass's twin,
    or the result of an exhaustive resub under resub, which returns it
    unchanged.  The pass itself always runs through :func:`apply`.

    The distinct graph objects that entries hold, as key or result, count
    their ANDs once each in ``ands_held``, which never exceeds
    ``max_ands``: after each insertion the least recently used entries
    are evicted until it fits.  An evicted result is recomputed on its
    next lookup and equals the one evicted, so no bound changes a result.
    """

    def __init__(self, max_ands: int = CACHE_MAX_ANDS):
        if max_ands < 0:
            raise ValueError("max_ands must be >= 0")
        self.max_ands = max_ands
        self.ands_held = 0
        self._results: OrderedDict[tuple[Aig, TransformKind],
                                   tuple[Aig, TransformReport]] = OrderedDict()
        self._refs: dict[int, list] = {}  # id -> [graph, entries holding it]

    def _hold(self, g: Aig) -> None:
        ref = self._refs.get(id(g))
        if ref is None:
            self._refs[id(g)] = [g, 1]
            self.ands_held += g.num_ands
        else:
            ref[1] += 1

    def _release(self, g: Aig) -> None:
        ref = self._refs[id(g)]
        ref[1] -= 1
        if not ref[1]:
            del self._refs[id(g)]
            self.ands_held -= g.num_ands

    def _store(self, key: tuple[Aig, TransformKind],
               hit: tuple[Aig, TransformReport]) -> None:
        self._results[key] = hit
        self._hold(key[0])
        self._hold(hit[0])

    def apply_flow(self, aig: Aig, flow) -> tuple[Aig, list[TransformReport]]:
        flow = tuple(flow)
        if not flow:
            raise ValueError("flow must not be empty")
        results = self._results
        reports = []
        g = aig
        for kind in flow:
            key = (g, kind)
            hit = results.get(key)
            if hit is None:
                hit = apply(g, kind)
                self._store(key, hit)
                implied = _implied_entry(g, kind, *hit)
                if implied is not None and implied[0] not in results:
                    self._store(*implied)
                while self.ands_held > self.max_ands:
                    (old, _), (res, _) = results.popitem(last=False)
                    self._release(old)
                    self._release(res)
            else:
                results.move_to_end(key)
            g, rep = hit
            reports.append(rep)
        return g, reports
