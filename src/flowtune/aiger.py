"""ASCII AIGER ("aag") reader and writer.

File literals use the standard packing: variable v maps to literal 2v,
complemented 2v+1, and literal 0/1 are the constants.  Input i of the
written file is always literal 2(i+1).

Latches are cut at their boundary: a latch output becomes an extra input
appended after the real inputs, a latch next-state function becomes an
extra output appended after the real outputs.  The resulting graph is
purely combinational.
"""

from __future__ import annotations

from .aig import Aig, AigBuilder
from .errors import ParseDiagnostic, ParseError


def _int_fields(line: str) -> list[int] | None:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        return None


def parse_aiger(text: str) -> Aig:
    """Parse an ASCII AIGER document; raises ParseError on any defect.

    AND fanins must be defined on earlier lines (forward references are
    rejected), which matches the topological order every standard writer
    emits.
    """
    lines = text.splitlines()
    diags: list[ParseDiagnostic] = []

    def fail(line_no: int, message: str) -> ParseError:
        diags.append(ParseDiagnostic(line_no, message))
        return ParseError(diags)

    if not lines:
        raise fail(1, "empty input, expected 'aag' header")
    header = lines[0].split()
    if not header or header[0] != "aag":
        raise fail(1, "bad magic, expected 'aag' header")
    if len(header) != 6:
        raise fail(1, f"header needs 5 counts (M I L O A), got {len(header) - 1}")
    try:
        m, ni, nl, no, na = (int(tok) for tok in header[1:])
    except ValueError:
        raise fail(1, "header counts must be integers")
    if min(m, ni, nl, no, na) < 0:
        raise fail(1, "header counts must be non-negative")
    if m < ni + nl + na:
        raise fail(1, f"M={m} smaller than I+L+A={ni + nl + na}")

    builder = AigBuilder(ni + nl)
    # file variable -> our literal; constant is pre-seeded
    var_map: dict[int, int] = {0: 0}

    pos = 1

    def take(line_no: int, what: str) -> str:
        if line_no >= len(lines):
            raise fail(line_no + 1, f"missing {what} line")
        return lines[line_no]

    for i in range(ni):
        line = take(pos, "input")
        fields = _int_fields(line)
        if fields is None or len(fields) != 1:
            raise fail(pos + 1, f"input line must be one literal, got {line!r}")
        l = fields[0]
        if l <= 0 or l & 1:
            raise fail(pos + 1, f"input literal must be positive and even, got {l}")
        if l >> 1 > m:
            raise fail(pos + 1, f"input variable {l >> 1} exceeds M={m}")
        if l >> 1 in var_map:
            raise fail(pos + 1, f"variable {l >> 1} defined twice")
        var_map[l >> 1] = (i + 1) << 1
        pos += 1

    latch_next: list[tuple[int, int]] = []  # (file literal, line no)
    for j in range(nl):
        line = take(pos, "latch")
        fields = _int_fields(line)
        if fields is None or len(fields) not in (2, 3):
            raise fail(pos + 1, f"latch line must be 'Q D [init]', got {line!r}")
        q, d = fields[0], fields[1]
        if q <= 0 or q & 1:
            raise fail(pos + 1, f"latch literal must be positive and even, got {q}")
        if q >> 1 > m:
            raise fail(pos + 1, f"latch variable {q >> 1} exceeds M={m}")
        if q >> 1 in var_map:
            raise fail(pos + 1, f"variable {q >> 1} defined twice")
        var_map[q >> 1] = (ni + j + 1) << 1
        latch_next.append((d, pos + 1))
        pos += 1

    raw_outputs: list[tuple[int, int]] = []
    for _ in range(no):
        line = take(pos, "output")
        fields = _int_fields(line)
        if fields is None or len(fields) != 1:
            raise fail(pos + 1, f"output line must be one literal, got {line!r}")
        raw_outputs.append((fields[0], pos + 1))
        pos += 1

    for _ in range(na):
        line = take(pos, "and")
        fields = _int_fields(line)
        if fields is None or len(fields) != 3:
            raise fail(pos + 1, f"and line must be 'lhs rhs0 rhs1', got {line!r}")
        lhs, rhs0, rhs1 = fields
        if lhs <= 0 or lhs & 1:
            raise fail(pos + 1, f"and output literal must be positive and even, got {lhs}")
        if lhs >> 1 > m:
            raise fail(pos + 1, f"and variable {lhs >> 1} exceeds M={m}")
        if lhs >> 1 in var_map:
            raise fail(pos + 1, f"variable {lhs >> 1} defined twice")
        ops = []
        for rhs in (rhs0, rhs1):
            if rhs < 0:
                raise fail(pos + 1, f"negative literal {rhs}")
            mapped = var_map.get(rhs >> 1)
            if mapped is None:
                raise fail(pos + 1,
                           f"literal {rhs} is undefined here (forward reference?)")
            ops.append(mapped ^ (rhs & 1))
        var_map[lhs >> 1] = builder.add_and(ops[0], ops[1])
        pos += 1

    def resolve(file_lit: int, line_no: int) -> int:
        if file_lit < 0:
            raise fail(line_no, f"negative literal {file_lit}")
        mapped = var_map.get(file_lit >> 1)
        if mapped is None:
            raise fail(line_no, f"literal {file_lit} references an undefined variable")
        return mapped ^ (file_lit & 1)

    outputs = [resolve(l, ln) for l, ln in raw_outputs]
    outputs.extend(resolve(l, ln) for l, ln in latch_next)

    # optional symbol table and comment section
    while pos < len(lines):
        line = lines[pos]
        pos += 1
        if line.startswith("c"):
            break
        if not line:
            continue
        parts = line.split(None, 1)
        tag = parts[0]
        if len(parts) == 2 and tag[0] in "ilo" and tag[1:].isdigit():
            idx = int(tag[1:])
            name = parts[1]
            if tag[0] == "i" and idx < ni:
                builder.name_map[f"i{idx}"] = name
            elif tag[0] == "l" and idx < nl:
                builder.name_map[f"i{ni + idx}"] = name
            elif tag[0] == "o" and idx < no:
                builder.name_map[f"o{idx}"] = name
            else:
                raise fail(pos, f"symbol index out of range: {tag}")
        else:
            raise fail(pos, f"unexpected content after definitions: {line!r}")

    if diags:
        raise ParseError(diags)
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
    for i in range(ni):
        out.append(str((i + 1) << 1))
    for l in aig.outputs:
        out.append(str(l))
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        out.append(f"{node << 1} {f0} {f1}")
    for i in range(ni):
        name = aig.name_map.get(f"i{i}")
        if name is not None:
            out.append(f"i{i} {name}")
    for o in range(len(aig.outputs)):
        name = aig.name_map.get(f"o{o}")
        if name is not None:
            out.append(f"o{o} {name}")
    return "\n".join(out) + "\n"
