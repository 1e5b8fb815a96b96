"""Structural BLIF subset reader.

Supported directives: .model, .inputs, .outputs, .names (single-output
covers over {0,1,-}), .latch and .end.  Latches are cut at their boundary
exactly like the AIGER reader: latch outputs turn into extra graph inputs,
latch data inputs into extra graph outputs.

A cover with output phase 1 is the OR of its product rows; phase 0 covers
are complemented.  ORs are built from AND/INV structure by De Morgan.
"""

from __future__ import annotations

import logging

from .aig import Aig, AigBuilder
from .errors import ParseDiagnostic, ParseError

log = logging.getLogger("flowtune")

_UNSUPPORTED = (".subckt", ".gate", ".mlatch", ".exdc", ".search",
                ".clock_event", ".area", ".delay")


def _logical_lines(text: str):
    """Yield (line_no, content) with comments stripped and '\\' joined.

    line_no refers to the first physical line of the logical line.
    """
    physical = text.splitlines()
    i = 0
    while i < len(physical):
        start = i + 1
        line = physical[i]
        i += 1
        if "#" in line:
            line = line[:line.index("#")]
        line = line.rstrip()
        while line.endswith("\\") and i < len(physical):
            nxt = physical[i]
            i += 1
            if "#" in nxt:
                nxt = nxt[:nxt.index("#")]
            line = line[:-1] + " " + nxt.rstrip()
        if line.strip():
            yield start, line.strip()


class _Cover:
    __slots__ = ("inputs", "output", "rows", "line")

    def __init__(self, inputs, output, line):
        self.inputs = inputs
        self.output = output
        self.rows: list[tuple[str, str]] = []
        self.line = line


def parse_blif(text: str) -> Aig:
    """Parse the BLIF subset into an AIG; raises ParseError on any defect."""
    diags: list[ParseDiagnostic] = []

    def err(line_no: int, message: str):
        diags.append(ParseDiagnostic(line_no, message))

    inputs: list[tuple[str, int]] = []  # (net, line of its directive)
    outputs: list[tuple[str, int]] = []
    latches: list[tuple[str, str, int]] = []  # (data net, out net, line)
    covers: list[_Cover] = []
    current: _Cover | None = None
    seen_end = False

    for line_no, line in _logical_lines(text):
        if line.startswith("."):
            current = None
            tokens = line.split()
            directive = tokens[0]
            if directive == ".model":
                pass
            elif directive == ".inputs":
                inputs.extend((net, line_no) for net in tokens[1:])
            elif directive == ".outputs":
                outputs.extend((net, line_no) for net in tokens[1:])
            elif directive == ".latch":
                if len(tokens) < 3:
                    err(line_no, ".latch needs input and output nets")
                    continue
                latches.append((tokens[1], tokens[2], line_no))
            elif directive == ".names":
                if len(tokens) < 2:
                    err(line_no, ".names needs at least an output net")
                    continue
                current = _Cover(tokens[1:-1], tokens[-1], line_no)
                covers.append(current)
            elif directive == ".end":
                seen_end = True
                break
            elif directive in _UNSUPPORTED:
                err(line_no, f"unsupported directive {directive}")
            else:
                err(line_no, f"unknown directive {directive}")
        else:
            if current is None:
                err(line_no, f"cover row outside .names: {line!r}")
                continue
            tokens = line.split()
            if len(tokens) == 1 and not current.inputs:
                in_part, out_part = "", tokens[0]
            elif len(tokens) == 2:
                in_part, out_part = tokens
            else:
                err(line_no, f"malformed cover row {line!r}")
                continue
            if len(in_part) != len(current.inputs):
                err(line_no,
                    f"cover row width {len(in_part)} does not match "
                    f"{len(current.inputs)} inputs")
                continue
            if any(c not in "01-" for c in in_part) or out_part not in ("0", "1"):
                err(line_no, f"cover row characters must be 0/1/- : {line!r}")
                continue
            current.rows.append((in_part, out_part))

    if not seen_end:
        # tolerated by most tools; note it so lint-minded callers can see it
        diags.append(ParseDiagnostic(len(text.splitlines()) or 1,
                                     "missing .end", severity="warning"))

    defined: dict[str, int] = {}
    sources = inputs + [(qnet, line_no) for _, qnet, line_no in latches]
    builder = AigBuilder(len(sources))
    for idx, (net, line_no) in enumerate(sources):
        if net in defined:
            err(line_no, f"net {net} defined more than once")
        defined[net] = (idx + 1) << 1
        builder.name_map[f"i{idx}"] = net

    by_output: dict[str, _Cover] = {}
    for cov in covers:
        if cov.output in defined or cov.output in by_output:
            err(cov.line, f"net {cov.output} defined more than once")
            continue
        by_output[cov.output] = cov
        phases = {r[1] for r in cov.rows}
        if len(phases) > 1:
            err(cov.line, f"cover for {cov.output} mixes output phases")

    if any(d.severity == "error" for d in diags):
        raise ParseError(diags)

    # topological elaboration over cover dependencies, iterative so deep
    # netlists stay off the Python stack
    visiting: set[str] = set()

    def elaborate(net: str, from_line: int) -> int:
        if net in defined:
            return defined[net]
        stack = [(net, from_line, False)]
        while stack:
            cur, line_ref, expanded = stack.pop()
            if cur in defined:
                continue
            cov = by_output.get(cur)
            if cov is None:
                err(line_ref, f"net {cur} is used but never defined")
                raise ParseError(diags)
            if expanded:
                fanin_lits = [defined[dep] for dep in cov.inputs]
                defined[cur] = _build_cover(builder, cov, fanin_lits)
                visiting.discard(cur)
                continue
            if cur in visiting:
                err(cov.line, f"combinational cycle through net {cur}")
                raise ParseError(diags)
            visiting.add(cur)
            stack.append((cur, line_ref, True))
            for dep in cov.inputs:
                if dep not in defined:
                    stack.append((dep, cov.line, False))
        return defined[net]

    out_lits = []
    sinks = outputs + [(dnet, line_no) for dnet, _, line_no in latches]
    for idx, (net, line_no) in enumerate(sinks):
        out_lits.append(elaborate(net, line_no))
        builder.name_map[f"o{idx}"] = net

    if any(d.severity == "error" for d in diags):
        raise ParseError(diags)
    for d in diags:
        log.warning("blif: %s", d)
    return Aig.compact(builder, out_lits)


def _build_cover(builder: AigBuilder, cov: _Cover,
                 fanin_lits: list[int]) -> int:
    """Product-of-literals per row, OR of rows, complemented for 0-phase."""
    if not cov.rows:
        return 0
    phase = cov.rows[0][1]
    acc = 0
    for in_part, _ in cov.rows:
        term = 1
        for c, l in zip(in_part, fanin_lits):
            if c == "1":
                term = builder.add_and(term, l)
            elif c == "0":
                term = builder.add_and(term, l ^ 1)
        acc = builder.add_or(acc, term)
    return acc if phase == "1" else acc ^ 1
