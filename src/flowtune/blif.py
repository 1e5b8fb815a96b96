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
from .errors import ParseDiagnostic, ParseError, quote

log = logging.getLogger("flowtune")

_UNSUPPORTED = (".subckt", ".gate", ".mlatch", ".exdc", ".search",
                ".clock_event", ".area", ".delay")

# characters of text split into lines at a time
_SPLIT_CHARS = 1 << 14


def _physical_lines(text: str):
    """Yield the lines ``text.splitlines()`` would give, splitting about
    ``_SPLIT_CHARS`` characters at a time: each piece ends just after a
    newline, so no line boundary straddles two pieces."""
    pos = 0
    while pos < len(text):
        cut = text.find("\n", pos + _SPLIT_CHARS)
        end = len(text) if cut < 0 else cut + 1
        yield from text[pos:end].splitlines()
        pos = end


def _logical_lines(text: str):
    """Yield (line_no, content) with comments stripped and '\\' joined.

    line_no refers to the first physical line of the logical line.
    """
    physical = enumerate(_physical_lines(text), 1)
    for start, line in physical:
        if "#" in line:
            line = line[:line.index("#")]
        line = line.rstrip()
        while line.endswith("\\"):
            nxt = next(physical, None)
            if nxt is None:
                line = line[:-1]  # nothing follows to continue onto
                break
            nxt = nxt[1]
            if "#" in nxt:
                nxt = nxt[:nxt.index("#")]
            line = line[:-1] + " " + nxt.rstrip()
        if line.strip():
            yield start, line.strip()


class _Cover:
    """One ``.names`` block: its fanin and output nets and its rows, each
    row one string, the input part followed by the output character."""

    __slots__ = ("inputs", "output", "rows", "line")

    def __init__(self, inputs, output, line):
        self.inputs = inputs
        self.output = output
        self.rows: list[str] = []
        self.line = line


def parse_blif(text: str) -> Aig:
    """Parse the BLIF subset into an AIG; raises ParseError on any defect.

    Lines are read a piece of the text at a time, and nothing of them is
    kept but net names and cover rows, each distinct one held once.
    Covers are built only after the whole file is read, depth first from
    the outputs, which fixes the node numbering.
    """
    diags: list[ParseDiagnostic] = []

    def err(line_no: int, message: str):
        diags.append(ParseDiagnostic(line_no, message))

    # each net name and row string is held once: the first of its equals
    intern = {}.setdefault
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
                inputs.extend((intern(net, net), line_no) for net in tokens[1:])
            elif directive == ".outputs":
                outputs.extend((intern(net, net), line_no) for net in tokens[1:])
            elif directive == ".latch":
                if len(tokens) < 3:
                    err(line_no, ".latch needs input and output nets")
                    continue
                latches.append((intern(tokens[1], tokens[1]),
                                intern(tokens[2], tokens[2]), line_no))
            elif directive == ".names":
                if len(tokens) < 2:
                    err(line_no, ".names needs at least an output net")
                    continue
                nets = [intern(net, net) for net in tokens[1:]]
                current = _Cover(tuple(nets[:-1]), nets[-1], line_no)
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
                err(line_no, f"cover row outside .names: {quote(line)}")
                continue
            tokens = line.split()
            if len(tokens) == 1 and not current.inputs:
                in_part, out_part = "", tokens[0]
            elif len(tokens) == 2:
                in_part, out_part = tokens
            else:
                err(line_no, f"malformed cover row {quote(line)}")
                continue
            if len(in_part) != len(current.inputs):
                err(line_no,
                    f"cover row width {len(in_part)} does not match "
                    f"{len(current.inputs)} inputs")
                continue
            if any(c not in "01-" for c in in_part) or out_part not in ("0", "1"):
                err(line_no,
                    f"cover row characters must be 0/1/- : {quote(line)}")
                continue
            row = in_part + out_part
            current.rows.append(intern(row, row))

    if not seen_end:
        # tolerated by most tools; note it so lint-minded callers can see it
        n_lines = sum(1 for _ in _physical_lines(text))
        diags.append(ParseDiagnostic(n_lines or 1, "missing .end",
                                     severity="warning"))

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
        phases = {r[-1] for r in cov.rows}
        if len(phases) > 1:
            err(cov.line, f"cover for {cov.output} mixes output phases")
    del covers

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
                del by_output[cur]  # built, so never read again
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
    """Product-of-literals per row, OR of rows, complemented for 0-phase.

    Each product starts at its first literal and the OR at its first
    product, not at a constant that a call would only fold away.  The
    literals come from the builder itself, so :meth:`AigBuilder.add`
    takes them unchecked."""
    if not cov.rows:
        return 0
    add = builder.add
    acc = None
    for row in cov.rows:
        term = None
        # zip stops before the output character that ends the row
        for c, l in zip(row, fanin_lits):
            if c == "-":
                continue
            if c == "0":
                l ^= 1
            term = l if term is None else add(term, l)
        if term is None:
            term = 1  # a row of don't-cares is constant true
        acc = term if acc is None else add(acc ^ 1, term ^ 1) ^ 1
    return acc if cov.rows[0][-1] == "1" else acc ^ 1
