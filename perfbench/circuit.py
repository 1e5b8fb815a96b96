"""The benchmark's own combinational AIG model, kept apart from flowtune.

It reads ASCII AIGER, writes structural BLIF (one ``.names`` per AND) and
evaluates outputs bit-parallel on Python integers, so the benchmark can
check flowtune's results without trusting flowtune's own parser,
simulator or equivalence checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EXHAUSTIVE_INPUTS = 16


@dataclass
class Circuit:
    """Inputs are variables 1..num_inputs; AND k is variable num_inputs+1+k.

    Literals follow AIGER: 2*var, plus 1 when complemented; 0 and 1 are
    the constants.  ``ands`` holds (fanin0, fanin1) literal pairs in
    topological order.
    """

    num_inputs: int
    ands: list[tuple[int, int]]
    outputs: list[int]

    @classmethod
    def from_aig(cls, aig) -> "Circuit":
        """Copy a flowtune graph through its public structure queries."""
        return cls(aig.num_inputs,
                   [aig.fanins(node) for node in aig.and_nodes()],
                   list(aig.outputs))

    @classmethod
    def from_aag(cls, text: str) -> "Circuit":
        """Parse latch-free ASCII AIGER whose ANDs are listed in order."""
        lines = text.split("\n")
        header = lines[0].split()
        if len(header) != 6 or header[0] != "aag":
            raise ValueError(f"not an ASCII AIGER header: {lines[0]!r}")
        m, ni, nl, no, na = (int(x) for x in header[1:])
        if nl != 0:
            raise ValueError("latches are not supported")
        if m != ni + na:
            raise ValueError(f"header M={m} is not I+A={ni + na}")
        for i in range(ni):
            if int(lines[1 + i]) != 2 * (i + 1):
                raise ValueError(f"input {i} is not literal {2 * (i + 1)}")
        outputs = [int(lines[1 + ni + o]) for o in range(no)]
        ands = []
        for k in range(na):
            lhs, a, b = (int(x) for x in lines[1 + ni + no + k].split())
            if lhs != 2 * (ni + 1 + k) or a >= lhs or b >= lhs:
                raise ValueError(f"AND line {k} is not in topological order")
            ands.append((a, b))
        if max(outputs, default=0) > 2 * m + 1:
            raise ValueError("output literal out of range")
        return cls(ni, ands, outputs)

    def to_blif(self) -> str:
        """Structural BLIF: one two-input ``.names`` per AND, then buffers."""
        def net(l: int) -> str:
            v = l >> 1
            if v == 0:
                return "c0"
            return f"i{v - 1}" if v <= self.num_inputs else f"n{v}"

        ni = self.num_inputs
        out = [".model bench",
               ".inputs " + " ".join(f"i{i}" for i in range(ni)),
               ".outputs " + " ".join(f"o{o}" for o in range(len(self.outputs))),
               ".names c0"]  # constant false: a cover with no rows
        for k, (a, b) in enumerate(self.ands):
            out.append(f".names {net(a)} {net(b)} n{ni + 1 + k}")
            out.append(f"{'0' if a & 1 else '1'}{'0' if b & 1 else '1'} 1")
        for o, l in enumerate(self.outputs):
            out.append(f".names {net(l)} o{o}")
            out.append(f"{'0' if l & 1 else '1'} 1")
        out.append(".end")
        return "\n".join(out) + "\n"

    def evaluate(self, patterns: list[int], width: int) -> list[int]:
        """Output bit-vectors for one bit-vector per input."""
        mask = (1 << width) - 1
        vals = [0]
        vals.extend(p & mask for p in patterns)
        for a, b in self.ands:
            va = vals[a >> 1] ^ (mask if a & 1 else 0)
            vb = vals[b >> 1] ^ (mask if b & 1 else 0)
            vals.append(va & vb)
        return [vals[l >> 1] ^ (mask if l & 1 else 0) for l in self.outputs]


def check_patterns(num_inputs: int, seed: int | str,
                   random_count: int) -> tuple[list[int], int]:
    """All 2^n assignments up to 16 inputs, else seeded random ones."""
    if num_inputs <= EXHAUSTIVE_INPUTS:
        width = 1 << num_inputs
        pats = []
        for i in range(num_inputs):
            half = 1 << i
            word = ((1 << half) - 1) << half  # bit j is set when (j >> i) & 1
            span = half << 1
            while span < width:
                word |= word << span
                span <<= 1
            pats.append(word)
        return pats, width
    rng = random.Random(seed)
    return [rng.getrandbits(random_count) for _ in range(num_inputs)], random_count


def same_function(a: Circuit, b: Circuit, patterns: list[int],
                  width: int) -> bool:
    if a.num_inputs != b.num_inputs or len(a.outputs) != len(b.outputs):
        return False
    return a.evaluate(patterns, width) == b.evaluate(patterns, width)
