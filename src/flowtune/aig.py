"""And-Inverter Graphs: a structurally hashed builder, finished graphs,
metrics, bit-parallel simulation and equivalence checking.

Literals are plain ints packed as ``literal = 2 * node_id + complement``.
Node 0 is the constant-false node, so literal 0 is constant false and
literal 1 is constant true.  Input nodes occupy ids ``1 .. num_inputs``;
AND nodes follow in creation order, which is therefore always a
topological order.

Graphs are made in an :class:`AigBuilder`, which holds all construction
state: the fanin arrays, the structural hash table, per-node levels and
the symbol names.  :meth:`Aig.compact` finishes a builder into an
:class:`Aig` that keeps only the nodes reachable from the outputs, in
creation order, with the builder's levels.  Every ``Aig`` is therefore
compact with known levels, and nothing downstream rehashes, recompacts or
recomputes levels.  Transforms build fresh graphs instead of mutating, so
a graph that has been handed out for reading (simulation, metrics,
equivalence, a cache key) never changes under its reader.  Because it
never changes, an ``Aig`` compares and hashes by content: two graphs are
equal when their structure and symbol names are, whichever objects they
are.

A builder stores fanins as 4-byte ``array("I")``, so literals stay below
2^32, as the structural hash's ``(a << 32) | b`` keys already assume, and
appends levels to a plain list on its hot path.  A finished graph keeps
each in the narrowest array its content allows (:meth:`Aig._store`):
fanins in 2-byte ``array("H")`` when the graph has at most 2^15 nodes, so
every literal is below 2^16, and 4-byte otherwise; levels in the
narrowest of ``"B"``, ``"H"`` and ``"I"`` that holds its largest level.  A
graph of up to 2^15 nodes and depth below 256 therefore holds 5 bytes per
AND (two fanins and a level) plus 1 per input and for the constant.  The
typecodes depend on the node count and the largest level alone, whatever
made the graph, so equal graphs store equal bytes and hash equal.

:func:`_eval` is the one place ANDs are evaluated over values: whole-graph
simulation, equivalence checking, resub's signatures and the cone truth
tables of refactor and resub all run it over an op list from :func:`_ops`,
with exhaustive tables from :func:`input_patterns`.  A whole graph's
exhaustive truth tables are never held at once: :func:`_exhaustive_inputs`
walks the 2^n assignments in order as consecutive blocks of
``2^BLOCK_INPUTS`` patterns.  Inputs 1..12 take the 12-input table in
every block and each higher input is constant over a block, so one value
costs 512 bytes and the blocks, joined end to end, equal the full table
bit for bit.  Nor is a value per node held: whole-graph evaluation runs
against a liveness plan (:func:`_plan`) that puts the values in slots
and frees a node's slot once its last reader has run, so the values
held scale with the graph's live frontier, not its size.  Simulation
and equivalence keep only the outputs' values past that; resub's class
check copies aside only the members whose slots the plan frees before
the group's last member is computed.
"""

from __future__ import annotations

import random
import sys
from array import array
from enum import Enum
from typing import NamedTuple

# largest input count whose full truth table is computed
EXHAUSTIVE_INPUT_LIMIT = 16
# inputs that vary inside one exhaustive simulation block (4096 patterns)
BLOCK_INPUTS = 12
# array typecode of a builder's literals and a pass's literal map: 4 bytes
_TYPECODE = "I"
# largest node count whose literals all fit in 2 bytes
_SHORT_NODES = 1 << 15
# whether an item's low bytes come first in memory
_LOW_FIRST = sys.byteorder == "little"


def _narrow(a: array, code: str) -> array:
    """Copy of the 4-byte array *a* in typecode *code*, which holds every
    item, made in C: *a*'s bytes read as *code* items, of which a strided
    slice keeps each item's low part."""
    out = array(code, a.tobytes())
    step = a.itemsize // out.itemsize
    return out[0 if _LOW_FIRST else step - 1::step]


class MalformedLiteralError(ValueError):
    """A literal references a node id outside the graph."""


class Objective(str, Enum):
    """Technology-independent optimization targets."""

    NODE_COUNT = "nodes"
    DEPTH = "depth"
    NODE_DEPTH_PRODUCT = "product"


# records are NamedTuples: the stdlib's data-class module would load
# inspect, ast and dis, about 1 MB of resident memory, into every run
class QoR(NamedTuple):
    """Quality-of-results snapshot: reachable AND count and AND depth."""

    and_count: int
    depth: int
    objective_value: int

    @staticmethod
    def value_of(and_count: int, depth: int, objective: Objective) -> int:
        if objective is Objective.NODE_COUNT:
            return and_count
        if objective is Objective.DEPTH:
            return depth
        return and_count * depth


class _Nodes:
    """Node storage shared by the builder and the finished graph."""

    __slots__ = ("num_inputs", "_fan0", "_fan1", "_levels", "name_map")

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self._fan0 = array(_TYPECODE)
        self._fan1 = array(_TYPECODE)
        self._levels = [0] * (num_inputs + 1)
        self.name_map: dict[str, str] = {}

    @property
    def num_ands(self) -> int:
        return len(self._fan0)

    @property
    def num_nodes(self) -> int:
        """Total node count including the constant node."""
        return len(self._levels)

    def input_literals(self) -> list[int]:
        return [i << 1 for i in range(1, self.num_inputs + 1)]

    def fanins(self, node: int) -> tuple[int, int]:
        k = node - self.num_inputs - 1
        return self._fan0[k], self._fan1[k]

    def and_nodes(self) -> range:
        return range(self.num_inputs + 1, self.num_nodes)

    def levels(self) -> list[int] | array:
        """AND level per node id; inverters are free, inputs are level 0.

        A builder returns its live list, which grows with every new AND;
        a finished graph returns its array, as narrow as its largest
        level allows."""
        return self._levels


class AigBuilder(_Nodes):
    """Structurally hashed graph under construction.

    AND nodes are appended through :meth:`add_and` (range-checked, for
    literals from outside) or :meth:`add` (trusted literals, the passes'
    hot path).  Both simplify trivially reducible gates and deduplicate by
    fanin pair before allocating, and both record the new node's level.
    Nodes are only ever appended, so a caller can tell whether an add
    allocated from the node count.  :meth:`Aig.compact` turns a builder
    into a finished graph.
    """

    __slots__ = ("_strash",)

    def __init__(self, num_inputs: int = 0,
                 name_map: dict[str, str] | None = None):
        super().__init__(num_inputs)
        if name_map:
            self.name_map = dict(name_map)
        self._strash: dict[int, int] = {}

    def add(self, a: int, b: int) -> int:
        """Return a literal implementing AND(a, b) for trusted literals.

        Constant propagation, idempotence and complement annihilation are
        applied first, then the structural hash table; a node is allocated
        only when no simpler form exists.
        """
        if a > b:
            a, b = b, a
        if a < 2:
            return 0 if a == 0 else b
        if a == b:
            return a
        if a ^ b == 1:
            return 0
        key = (a << 32) | b
        node = self._strash.get(key)
        if node is None:
            lev = self._levels
            node = len(lev)
            self._fan0.append(a)
            self._fan1.append(b)
            self._strash[key] = node
            la = lev[a >> 1]
            lb = lev[b >> 1]
            lev.append((la if la > lb else lb) + 1)
        return node << 1

    def add_and(self, a: int, b: int) -> int:
        """:meth:`add` after checking both literals exist in the graph."""
        top = (len(self._levels) << 1) - 1
        if not (0 <= a <= top) or not (0 <= b <= top):
            raise MalformedLiteralError(
                f"literal out of range: AND({a}, {b}) with max literal {top}")
        return self.add(a, b)

    def add_or(self, a: int, b: int) -> int:
        return self.add_and(a ^ 1, b ^ 1) ^ 1


class Aig(_Nodes):
    """Finished And-Inverter Graph: compact, topologically ordered, frozen.

    Every AND node is reachable from an output and its levels are stored.
    :meth:`compact` is the only way to make one with AND nodes;
    ``Aig(num_inputs)`` is the graph without any.  Equality and hashing
    are by content (:meth:`structurally_equal` plus ``name_map``).
    """

    __slots__ = ("outputs", "_hash")

    def __init__(self, num_inputs: int = 0):
        super().__init__(num_inputs)
        self.outputs: list[int] = []
        self._hash: int | None = None
        self._store(self._fan0, self._fan1, self._levels)

    @classmethod
    def compact(cls, builder: AigBuilder, outputs) -> "Aig":
        """Finish *builder*: only nodes reachable from *outputs* survive.

        Input count and order are preserved; survivors keep their creation
        order, fanins are renumbered and levels carried over.  Builder
        pairs are normalised and distinct and the renumbering is monotone,
        so no two survivors can merge and nothing is hashed again.
        """
        ni = builder.num_inputs
        f0, f1, lev = builder._fan0, builder._fan1, builder._levels
        base = ni + 1
        n_nodes = len(lev)
        live = bytearray(n_nodes)
        for l in outputs:
            live[l >> 1] = 1
        for k in range(len(f0) - 1, -1, -1):
            if live[base + k]:
                live[f0[k] >> 1] = 1
                live[f1[k] >> 1] = 1
        if live.find(0, base) < 0:
            # no AND dangles (the usual pass result): numbering is unchanged
            nf0, nf1, nlev, outs = f0, f1, lev, list(outputs)
        else:
            remap = list(range(0, 2 * n_nodes, 2))  # old node -> new literal
            nf0, nf1, nlev = array(_TYPECODE), array(_TYPECODE), lev[:base]
            for k in range(len(f0)):
                node = base + k
                if live[node]:
                    remap[node] = len(nlev) << 1
                    a = f0[k]
                    b = f1[k]
                    nf0.append(remap[a >> 1] | (a & 1))
                    nf1.append(remap[b >> 1] | (b & 1))
                    nlev.append(lev[node])
            outs = [remap[l >> 1] | (l & 1) for l in outputs]
        g = cls(ni)
        g.name_map = dict(builder.name_map)
        g.outputs = outs
        g._store(nf0, nf1, nlev)
        return g

    def _store(self, f0: array, f1: array, lev: list[int]) -> None:
        """Keep 4-byte fanins *f0*, *f1* and the level list *lev* in the
        narrowest typecodes that hold them; the outputs must be set.

        Every AND of a finished graph feeds an output and levels rise
        along every edge, so the largest level is an output's."""
        code = "H" if len(lev) <= _SHORT_NODES else _TYPECODE
        self._fan0 = _narrow(f0, code)
        self._fan1 = _narrow(f1, code)
        top = max((lev[l >> 1] for l in self.outputs), default=0)
        code = "B" if top < 1 << 8 else "H" if top < 1 << 16 else _TYPECODE
        self._levels = _narrow(array(_TYPECODE, lev), code)

    def structurally_equal(self, other: "Aig") -> bool:
        return (self.num_inputs == other.num_inputs
                and self._fan0 == other._fan0
                and self._fan1 == other._fan1
                and self.outputs == other.outputs)

    def __eq__(self, other) -> bool:
        """Equal structure and equal symbol names; no digest is trusted."""
        if not isinstance(other, Aig):
            return NotImplemented
        return self is other or (self.structurally_equal(other)
                                 and self.name_map == other.name_map)

    def __hash__(self) -> int:
        # a finished graph never changes, so the hash is computed once
        h = self._hash
        if h is None:
            h = self._hash = hash((self.num_inputs, self._fan0.tobytes(),
                                   self._fan1.tobytes(), tuple(self.outputs)))
        return h

    def __repr__(self) -> str:
        return (f"Aig(inputs={self.num_inputs}, ands={self.num_ands}, "
                f"outputs={len(self.outputs)})")


# ----- metrics ----------------------------------------------------------------


def metrics(aig: Aig, objective: Objective = Objective.NODE_COUNT) -> QoR:
    """AND count and output depth of a finished graph."""
    and_count = aig.num_ands
    lev = aig._levels
    depth = 0
    for l in aig.outputs:
        d = lev[l >> 1]
        if d > depth:
            depth = d
    return QoR(and_count, depth, QoR.value_of(and_count, depth, objective))


# ----- simulation -------------------------------------------------------------


def _ops(g: Aig, nodes) -> list[tuple[int, int, int, int]]:
    """Op list of the AND kernel for the ANDs of *nodes*, in their order:
    ``(node, fanin node, fanin node, code)``, where the code is the number
    of complemented fanins and a complemented fanin comes first."""
    base = g.num_inputs + 1
    f0, f1 = g._fan0, g._fan1
    ops = []
    for n in nodes:
        a = f0[n - base]
        b = f1[n - base]
        if b & 1 and not a & 1:
            a, b = b, a
        ops.append((n, a >> 1, b >> 1, (a & 1) + (b & 1)))
    return ops


def _eval(ops, val, mask: int):
    """Bit-parallel AND kernel: for each op of :func:`_ops`, in order, set
    ``val[node]`` to the AND of its fanin values with as many complemented
    within *mask* as the code says: ``a & b``, ``~a & b`` or ``~(a | b)``.
    *val*, a per-node list or dict holding every value read, is returned.
    Every value read must lie within *mask*; then so does every value
    written."""
    for n, a, b, c in ops:
        if not c:
            val[n] = val[a] & val[b]
        elif c == 1:
            val[n] = (val[a] ^ mask) & val[b]
        else:
            val[n] = (val[a] | val[b]) ^ mask
    return val


def _eval_nodes(aig: Aig, input_vals, mask: int) -> list[int]:
    """Bit-parallel evaluation; returns one packed bit-vector per node id."""
    vals = [0] * aig.num_nodes
    for i, v in enumerate(input_vals):
        vals[i + 1] = v & mask
    return _eval(_ops(aig, aig.and_nodes()), vals, mask)


class _Plan(NamedTuple):
    """A graph's op list over value slots, sized to its live frontier."""

    size: int  # slots, the most values held at once
    ops: list[tuple[int, int, int, int]]  # :func:`_ops` with slots for nodes
    slot: list[int]  # node id -> its slot while its value is held
    release: list[int]  # node id -> step after which its slot is freed


def _plan(g: Aig, chunk: int = 1, keep=()) -> _Plan:
    """Liveness plan for evaluating *g* in ``chunk``-op steps.

    The constant and the inputs keep slots ``0 .. num_inputs``.  An AND
    takes a free slot when it is computed and frees it after the step
    that holds its last reader (its own step when nothing reads it), or
    never for a node of the literals *keep* (its release step is then the
    number of steps, as for the constant and the inputs).  A freed slot is
    taken again only in a later step, so every value of a step can be read
    when the step ends, and an op never writes a slot it reads; a value
    stays in its slot up to the end of its release step.  Running ``ops``
    with :func:`_eval` over ``[0] * size`` values with the inputs set
    therefore computes every value :func:`_eval_nodes` would, holding only
    the live ones.  Slot numbers are shared int objects, so an op costs
    one tuple.
    """
    base = g.num_inputs + 1
    f0, f1 = g._fan0, g._fan1
    m = len(f0)
    never = -(-m // chunk)  # past the last step
    steps = [k // chunk for k in range(m)]  # step of each AND's op
    # step of each node's last reader, or its own when none reads it
    last = [never] * base + steps
    for c, a, b in zip(steps, f0, f1):
        last[a >> 1] = c
        last[b >> 1] = c
    for l in keep:
        last[l >> 1] = never
    # the constant and the inputs are never released
    last[:base] = [never] * base
    # ANDs in release order, ended by the constant
    order = sorted(range(base, base + m), key=last.__getitem__)
    order.append(0)
    ends = [last[n] for n in order]
    p = 0
    slot = list(range(base)) + [0] * m
    free: list[int] = []
    top = base
    ops = []
    node = base
    for c, a, b in zip(steps, f0, f1):
        while ends[p] < c:
            free.append(slot[order[p]])
            p += 1
        if b & 1 and not a & 1:
            a, b = b, a
        if free:
            s = free.pop()
        else:
            s = top
            top += 1
        slot[node] = s
        node += 1
        ops.append((s, slot[a >> 1], slot[b >> 1], (a & 1) + (b & 1)))
    return _Plan(top, ops, slot, last)


def _exhaustive_inputs(n: int):
    """All 2^n assignments of *n* inputs, in order, as ``(mask, input
    values)`` blocks of ``2^min(n, BLOCK_INPUTS)`` patterns.

    Inputs 1..BLOCK_INPUTS take :func:`input_patterns` in every block, and
    input ``BLOCK_INPUTS + 1 + k`` is all-ones over block j when bit k of j
    is set and all-zeros otherwise, so block j holds assignments
    ``j * 2^BLOCK_INPUTS`` onwards.
    """
    low = min(n, BLOCK_INPUTS)
    mask = (1 << (1 << low)) - 1
    pats = list(input_patterns(low))
    for j in range(1 << (n - low)):
        yield mask, pats + [mask if j >> k & 1 else 0 for k in range(n - low)]


def _output_values(aig: Aig, blocks):
    """Output values of *aig* for each ``(mask, input values)`` of
    *blocks*, whose values lie within their mask.  One plan serves every
    block and holds only the live values and the outputs'."""
    plan = _plan(aig, keep=aig.outputs)
    outs = [(plan.slot[l >> 1], l & 1) for l in aig.outputs]
    vals = [0] * plan.size
    n = aig.num_inputs
    for mask, ins in blocks:
        vals[1:n + 1] = ins
        _eval(plan.ops, vals, mask)
        yield [vals[s] ^ mask if c else vals[s] for s, c in outs]


def _bits_from_str(s: str) -> int:
    v = 0
    for k, ch in enumerate(s):
        if ch == "1":
            v |= 1 << k
        elif ch != "0":
            raise ValueError(f"invalid pattern character {ch!r}")
    return v


def _bits_to_str(v: int, width: int) -> str:
    return "".join("1" if v >> k & 1 else "0" for k in range(width))


def simulate(aig: Aig, patterns, width: int | None = None):
    """Evaluate the network on per-input bit-vectors.

    Patterns may be equal-length '0'/'1' strings (one per input, position k
    is assignment k) or ints with an explicit ``width``.  The return value
    mirrors the input style.  Complemented literals invert bitwise.
    """
    patterns = list(patterns)
    if len(patterns) != aig.num_inputs:
        raise ValueError(
            f"expected {aig.num_inputs} patterns, got {len(patterns)}")
    as_str = bool(patterns) and isinstance(patterns[0], str)
    if as_str:
        widths = {len(p) for p in patterns}
        if len(widths) > 1:
            raise ValueError("pattern width mismatch")
        width = widths.pop()
        vals_in = [_bits_from_str(p) for p in patterns]
    else:
        if width is None:
            raise ValueError("width is required for integer patterns")
        vals_in = [int(p) for p in patterns]
        for p in vals_in:
            if p < 0 or p >> width:
                raise ValueError("pattern wider than declared width")
    outs, = _output_values(aig, [((1 << width) - 1, vals_in)])
    if as_str:
        return [_bits_to_str(v, width) for v in outs]
    return outs


# one table per input count up to BLOCK_INPUTS (512 bytes per pattern),
# which whole-graph simulation reads; a larger one, up to 128 KB at 16
# inputs, is only for cone truth tables over small supports, so it is built
# per call and sampled resub keeps its own for one pass
_PATTERNS: dict[int, tuple[int, ...]] = {}


def input_patterns(n: int) -> tuple[int, ...]:
    """Exhaustive bit-parallel patterns: bit j of pattern i is (j >> i) & 1."""
    if n in _PATTERNS:
        return _PATTERNS[n]
    width = 1 << n
    pats = []
    for i in range(n):
        bits = 1 << i
        block = ((1 << bits) - 1) << bits
        period = bits << 1
        while period < width:
            block |= block << period
            period <<= 1
        pats.append(block)
    out = tuple(pats)
    if n <= BLOCK_INPUTS:
        _PATTERNS[n] = out
    return out


def equivalent(a: Aig, b: Aig, mode: str = "exhaustive", *,
               count: int = 4096, seed: int = 1) -> bool:
    """Check functional equality of two graphs with matching I/O arity.

    ``mode="exhaustive"`` compares all 2^n assignments bit-parallel, block
    by block (see :func:`_exhaustive_inputs`), stops at the first block
    that differs and is refused above 16 inputs; ``mode="random"``
    compares ``count`` seeded patterns, at least one.  Either holds a
    graph's live values and its outputs', not a value per node.
    """
    if a.num_inputs != b.num_inputs or len(a.outputs) != len(b.outputs):
        raise ValueError("input/output arity mismatch")
    if mode == "exhaustive":
        if a.num_inputs > EXHAUSTIVE_INPUT_LIMIT:
            raise ValueError(
                f"exhaustive equivalence refused beyond "
                f"{EXHAUSTIVE_INPUT_LIMIT} inputs; use mode='random'")
        n = a.num_inputs
        return all(va == vb for va, vb in zip(
            _output_values(a, _exhaustive_inputs(n)),
            _output_values(b, _exhaustive_inputs(n))))
    if mode != "random":
        raise ValueError(f"unknown equivalence mode {mode!r}")
    if count < 1:
        raise ValueError(f"random equivalence needs count >= 1, got {count}")
    rng = random.Random(seed)
    pats = [rng.getrandbits(count) for _ in range(a.num_inputs)]
    blocks = [((1 << count) - 1, pats)]
    return list(_output_values(a, blocks)) == list(_output_values(b, blocks))
