"""ASCII AIGER ("aag") reader and writer.

File literals use the standard packing: variable v maps to literal 2v,
complemented 2v+1, and literal 0/1 are the constants.  Input i of the
written file is always literal 2(i+1).

Latches are cut at their boundary: a latch output becomes an extra input
appended after the real inputs, a latch next-state function becomes an
extra output appended after the real outputs.  The resulting graph is
purely combinational.

Header counts are trusted only as far as lines back them: each line is
checked as it is read and the graph is allocated only after the input
and latch lines, so an unbacked count ends in ``missing ... line``.
"""

from __future__ import annotations

from .aig import Aig, AigBuilder
from .errors import ParseDiagnostic, ParseError, quote


# kind -> (field counts a line may have, its shape as diagnostics name it)
_SHAPES = {"input": ((1,), "one literal"), "latch": ((2, 3), "'Q D [init]'"),
           "output": ((1,), "one literal"), "and": ((3,), "'lhs rhs0 rhs1'")}
# most digits a count or literal may have: the default of Python's int()
# digit limit, applied whether or not the running Python enforces one
_MAX_DIGITS = 4300


def _too_large(tokens: list[str]) -> str | None:
    """A short quote of the first token that is an integer of more than
    ``_MAX_DIGITS`` digits, or None when no token is."""
    for tok in tokens:
        digits = tok[1:] if tok[0] in "+-" else tok
        if len(digits) > _MAX_DIGITS and digits.isdecimal():
            return f"{tok[:12]}... ({len(digits)} digits)"
    return None


def parse_aiger(text: str) -> Aig:
    """Parse an ASCII AIGER document; raises ParseError at the first defect.

    AND fanins must be defined on earlier lines (forward references are
    rejected), which matches the topological order every standard writer
    emits.
    """
    lines = text.splitlines()

    def fail(line_no: int, message: str) -> ParseError:
        return ParseError([ParseDiagnostic(line_no, message)])

    if not lines:
        raise fail(1, "empty input, expected 'aag' header")
    header = lines[0].split()
    if not header or header[0] != "aag":
        raise fail(1, "bad magic, expected 'aag' header")
    if len(header) != 6:
        raise fail(1, f"header needs 5 counts (M I L O A), got {len(header) - 1}")
    big = _too_large(header[1:])
    if big is not None:
        raise fail(1, f"header count too large: {big}")
    try:
        m, ni, nl, no, na = (int(tok) for tok in header[1:])
    except ValueError:
        raise fail(1, "header counts must be integers")
    if min(m, ni, nl, no, na) < 0:
        raise fail(1, "header counts must be non-negative")
    if m < ni + nl + na:
        raise fail(1, f"M={m} smaller than I+L+A={ni + nl + na}")

    pos = 1  # lines read so far, which is also the current line's number
    var_map: dict[int, int] = {0: 0}  # file variable -> our literal

    def fields(kind: str) -> list[int]:
        """Read the next line as a ``kind`` line of integer fields."""
        nonlocal pos
        pos += 1
        if pos > len(lines):
            raise fail(pos, f"missing {kind} line")
        line = lines[pos - 1]
        counts, shape = _SHAPES[kind]
        tokens = line.split()
        big = _too_large(tokens)
        if big is not None:
            raise fail(pos, f"{kind} literal too large: {big}")
        try:
            values = list(map(int, tokens))
        except ValueError:
            values = []
        if len(values) not in counts:
            raise fail(pos, f"{kind} line must be {shape}, got {quote(line)}")
        return values

    def define(lit: int, kind: str) -> int:
        """Check that ``lit`` defines a new variable within M; return it."""
        if lit <= 0 or lit & 1:
            noun = "and output" if kind == "and" else kind
            raise fail(pos, f"{noun} literal must be positive and even, got {lit}")
        var = lit >> 1
        if var > m:
            raise fail(pos, f"{kind} variable {var} exceeds M={m}")
        if var in var_map:
            raise fail(pos, f"variable {var} defined twice")
        return var

    def resolve(lit: int, line_no: int, undefined: str) -> int:
        """Our literal for file literal ``lit``, read on line ``line_no``."""
        mapped = var_map.get(lit >> 1)  # negative literals map to nothing
        if mapped is None:
            raise fail(line_no, f"negative literal {lit}" if lit < 0
                       else f"literal {lit} {undefined}")
        return mapped ^ (lit & 1)

    for i in range(ni):
        var_map[define(fields("input")[0], "input")] = (i + 1) << 1
    latch_next: list[tuple[int, int]] = []  # (file literal, line no)
    for j in range(nl):
        q, d = fields("latch")[:2]
        var_map[define(q, "latch")] = (ni + j + 1) << 1
        latch_next.append((d, pos))
    # (file literal, line no); the tuple reads pos after fields() moved it
    raw_outputs = [(fields("output")[0], pos) for _ in range(no)]
    builder = AigBuilder(ni + nl)  # their lines are all read by now
    forward = "is undefined here (forward reference?)"
    for _ in range(na):
        lhs, rhs0, rhs1 = fields("and")
        var = define(lhs, "and")
        var_map[var] = builder.add_and(resolve(rhs0, pos, forward),
                                       resolve(rhs1, pos, forward))
    outputs = [resolve(l, ln, "references an undefined variable")
               for l, ln in raw_outputs + latch_next]

    # optional symbol table and comment section
    while pos < len(lines):
        line = lines[pos]
        pos += 1
        if line.startswith("c"):
            break
        parts = line.split(None, 1)
        if not parts:  # blank or whitespace-only line
            continue
        tag = parts[0]
        if len(parts) != 2 or tag[0] not in "ilo" or not tag[1:].isdecimal():
            raise fail(pos, "unexpected content after definitions: "
                       + quote(line))
        count = {"i": ni, "l": nl, "o": no}[tag[0]]
        try:
            idx = int(tag[1:])
        except ValueError:  # more digits than int() converts: out of range
            idx = count
        if idx >= count:
            raise fail(pos, f"symbol index out of range: {quote(tag)}")
        key = f"i{ni + idx}" if tag[0] == "l" else f"{tag[0]}{idx}"
        builder.name_map[key] = parts[1]

    return Aig.compact(builder, outputs)


def write_aiger(aig: Aig) -> str:
    """Serialize a finished graph to ASCII AIGER.

    File variables are the graph's node ids, inputs first, then AND nodes
    in creation (topological) order, so parse(write(g)) reproduces g
    structurally.
    """
    ni = aig.num_inputs
    na = aig.num_ands
    out = [f"aag {ni + na} {ni} 0 {len(aig.outputs)} {na}"]
    out += [str((i + 1) << 1) for i in range(ni)]
    out += map(str, aig.outputs)
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        out.append(f"{node << 1} {f0} {f1}")
    tags = [f"i{i}" for i in range(ni)] + [f"o{o}" for o in range(len(aig.outputs))]
    out += [f"{tag} {aig.name_map[tag]}" for tag in tags if tag in aig.name_map]
    return "\n".join(out) + "\n"
