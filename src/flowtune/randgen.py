"""Seeded random benchmark circuits with injected redundancy.

Random AND-heavy composition drifts toward constant functions (every AND
halves the on-set), and irredundant graphs give optimization passes
nothing to do.  The generator therefore keeps a 512-bit simulation
signature per node and refuses to grow the graph through gates whose
signature is constant, while planting local, bounded redundancy:

* absorption pairs  AND(a, AND(a, b))        (rewriting opportunities)
* duplicated cones  AND(AND(a,b), c) next to AND(a, AND(b,c))
                                             (resubstitution opportunities)
* unbalanced AND chains                      (balancing opportunities)

Filler gates choose among AND/OR/XOR/MUX forms whose signature stays
non-degenerate, and fanins are drawn close to the most recent nodes so the
result has realistic depth rather than a flat shallow mesh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .aig import Aig, AigBuilder

_WINDOW = 48
_COMPL_PROB = 0.3
_SIG_BITS = 512
_SIG_MASK = (1 << _SIG_BITS) - 1


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated circuit."""

    num_inputs: int
    num_ands: int
    num_outputs: int
    seed: int

    def __post_init__(self):
        if self.num_inputs < 1 or self.num_outputs < 1 or self.num_ands < 0:
            raise ValueError(f"invalid GenSpec: {self}")
        if self.num_inputs < 2 and self.num_ands > 0:
            # every AND over one input folds to that input or a constant,
            # so the graph could never reach num_ands
            raise ValueError(f"invalid GenSpec: {self}: AND gates need "
                             "at least two inputs")


def gen_random(spec: GenSpec) -> Aig:
    """Deterministically build a circuit for *spec*.

    The AND count lands near spec.num_ands (structural hashing may collapse
    a few gates, closing dangling cones adds a few); every output is
    reachable from at least one input and no output is constant.
    """
    rng = random.Random(spec.seed)
    builder = AigBuilder(spec.num_inputs)
    sig = [0]
    for _ in range(spec.num_inputs):
        sig.append(rng.getrandbits(_SIG_BITS))
    pool = builder.input_literals()
    fresh: list[int] = []  # recent results not consumed as a fanin yet

    def sig_of(l: int) -> int:
        s = sig[l >> 1]
        return s ^ _SIG_MASK if l & 1 else s

    def live(s: int) -> bool:
        return s != 0 and s != _SIG_MASK

    def raw_and(a: int, b: int, push: int = 0, track: bool = True) -> int:
        """Create AND(a, b); the pool sees it complemented when push=1.

        Untracked gates stay out of the pool so injected redundancy cones
        keep single-fanout internals (visible to every cone-based pass).
        """
        before = builder.num_ands
        l = builder.add_and(a, b)
        if builder.num_ands > before:
            sig.append(sig_of(a) & sig_of(b))
            if track:
                pool.append(l ^ push)
                fresh.append(l ^ push)
        return l

    def g_or(a: int, b: int) -> int:
        return raw_and(a ^ 1, b ^ 1, push=1) ^ 1

    def pick() -> int:
        r = rng.random()
        if fresh and r < 0.4:
            i = rng.randrange(max(0, len(fresh) - _WINDOW), len(fresh))
            l = fresh.pop(i)
        elif r < 0.7:
            i = rng.randrange(max(0, len(pool) - 4 * _WINDOW), len(pool))
            l = pool[i]
        else:
            l = pool[rng.randrange(len(pool))]
        if rng.random() < _COMPL_PROB:
            l ^= 1
        return l

    def pick_live() -> int:
        l = pick()
        for _ in range(8):
            if live(sig_of(l)):
                return l
            l = pick()
        return l

    def inject_absorption() -> None:
        # AND(a, AND(a, b)) with a single-fanout inner node: food for
        # rewrite (absorption), balance (leaf dedup), refactor (2-node
        # cone collapses) and resub (inner and outer are equal functions)
        for _ in range(4):
            a, b = pick_live(), pick_live()
            if live(sig_of(a) & sig_of(b)):
                raw_and(a, raw_and(a, b, track=False))
                return

    def inject_duplicate() -> None:
        # the same 3-literal product built with both associations: resub
        # merges the tops, refactor rebuilds the second cone onto the first
        for _ in range(4):
            a, b, c = pick_live(), pick_live(), pick_live()
            if live(sig_of(a) & sig_of(b) & sig_of(c)):
                raw_and(raw_and(a, b, track=False), c)
                raw_and(a, raw_and(b, c, track=False))
                return

    def inject_chain() -> None:
        # unbalanced AND chain; repeated operands make it reducible for
        # refactor/resub/balance, not only rebalanceable
        t = pick_live()
        operands = [t]
        n = rng.randint(3, 5)
        for i in range(n):
            if len(operands) > 1 and rng.random() < 0.45:
                x = operands[rng.randrange(len(operands))]
            else:
                x = pick_live()
            if live(sig_of(t) & sig_of(x)):
                operands.append(x)
                t = raw_and(t, x, track=i == n - 1)
            elif live(sig_of(t) & sig_of(x ^ 1)):
                operands.append(x ^ 1)
                t = raw_and(t, x ^ 1, track=i == n - 1)
            else:
                break

    def filler() -> None:
        # complement-pushing tops (NAND / OR / XOR) so AND trees grow only
        # through the deliberate injections, not through filler structure
        for _ in range(6):
            a, b = pick_live(), pick_live()
            sa, sb = sig_of(a), sig_of(b)
            ops = []
            if live(sa & sb):
                ops.append(0)
            if live(sa | sb):
                ops.append(1)
            if live(sa ^ sb):
                ops.append(2)
            if not ops:
                continue
            op = ops[rng.randrange(len(ops))]
            if op == 0:
                raw_and(a, b, push=1)  # NAND
            elif op == 1:
                g_or(a, b)
            else:
                g_or(raw_and(a, b ^ 1), raw_and(a ^ 1, b))
            return
        raw_and(pick(), pick())  # give up on liveness, keep making progress

    def mux() -> None:
        s, a, b = pick_live(), pick_live(), pick_live()
        ss = sig_of(s)
        if live((ss & sig_of(a)) | ((ss ^ _SIG_MASK) & sig_of(b))):
            g_or(raw_and(s, a), raw_and(s ^ 1, b))
        else:
            filler()

    while builder.num_ands < spec.num_ands:
        r = rng.random()
        if r < 0.20:
            inject_absorption()
        elif r < 0.35:
            inject_duplicate()
        elif r < 0.50:
            inject_chain()
        elif r < 0.93:
            filler()
        else:
            mux()

    # close the graph: fold all dangling AND cones into the outputs
    refs = bytearray(builder.num_nodes)
    for node in builder.and_nodes():
        f0, f1 = builder.fanins(node)
        refs[f0 >> 1] = 1
        refs[f1 >> 1] = 1
    sinks = [node << 1 for node in builder.and_nodes() if not refs[node]]
    rng.shuffle(sinks)
    while len(sinks) > spec.num_outputs:
        a = sinks.pop()
        b = sinks.pop()
        sa, sb = sig_of(a), sig_of(b)
        if live(sa | sb):
            sinks.append(g_or(a, b))
        elif live(sa & sb):
            sinks.append(raw_and(a, b, push=1) ^ 1)
        else:
            sinks.append(g_or(raw_and(a, b ^ 1), raw_and(a ^ 1, b)))
    while len(sinks) < spec.num_outputs:
        if builder.num_ands:
            node = builder.num_inputs + 1 + rng.randrange(builder.num_ands)
            sinks.append(node << 1)
        else:
            sinks.append(pool[rng.randrange(len(pool))] & ~1)
    return Aig.compact(builder, sinks)
