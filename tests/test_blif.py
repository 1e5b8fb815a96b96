import itertools
import logging
import random

import pytest

from flowtune import ParseError, parse_blif, simulate


def eval_cover(rows, phase, assignment):
    """Independent cover-semantics oracle: OR of matching product rows."""
    hit = any(all(c == "-" or assignment[i] == int(c)
                  for i, c in enumerate(row))
              for row in rows)
    return hit if phase else not hit


def cover_text(inputs, rows, phase):
    body = "\n".join(f"{r} {int(phase)}" for r in rows)
    return (f".model t\n.inputs {' '.join(inputs)}\n.outputs f\n"
            f".names {' '.join(inputs)} f\n{body}\n.end\n")


def simulate_all(g, n):
    """Truth table of output 0 as a list of bools over all assignments."""
    pats = []
    for i in range(n):
        pats.append("".join(str((j >> i) & 1) for j in range(1 << n)))
    out = simulate(g, pats)[0]
    return [c == "1" for c in out]


def test_two_input_and_cover():
    g = parse_blif(cover_text(["a", "b"], ["11"], True))
    assert g.num_ands == 1
    assert simulate(g, ["0101", "0011"]) == ["0001"]


def test_nand_cover_matches_semantics():
    text = ".model t\n.inputs a b\n.outputs f\n.names a b f\n0- 1\n-0 1\n.end"
    g = parse_blif(text)
    got = simulate_all(g, 2)
    want = [eval_cover(["0-", "-0"], True, [(j >> i) & 1 for i in range(2)])
            for j in range(4)]
    assert got == want  # NAND: true except when both inputs are 1
    assert got == [True, True, True, False]


def test_unsupported_directive():
    with pytest.raises(ParseError) as exc:
        parse_blif(".model t\n.inputs a\n.outputs f\n.subckt foo x=a\n.end")
    assert any("unsupported directive .subckt" in d.message
               for d in exc.value.diagnostics)


def test_constant_covers():
    one = parse_blif(".model t\n.outputs f\n.inputs a\n.names f\n1\n.end")
    assert simulate(one, ["01"]) == ["11"]
    zero = parse_blif(".model t\n.outputs f\n.inputs a\n.names f\n.end")
    assert simulate(zero, ["01"]) == ["00"]


def test_zero_phase_cover():
    # off-set listing of a single minterm: f = not(a and not b)
    text = ".model t\n.inputs a b\n.outputs f\n.names a b f\n10 0\n.end"
    g = parse_blif(text)
    got = simulate_all(g, 2)
    want = [eval_cover(["10"], False, [(j >> i) & 1 for i in range(2)])
            for j in range(4)]
    assert got == want


def test_multilevel_and_out_of_order_definitions():
    text = (".model t\n.inputs a b c\n.outputs f\n"
            ".names x c f\n11 1\n"       # f defined before its fanin x
            ".names a b x\n11 1\n.end")
    g = parse_blif(text)
    assert simulate(g, ["01010101", "00110011", "00001111"]) == ["00000001"]


def test_continuation_lines_and_comments():
    text = (".model t\n.inputs a \\\n b # trailing comment\n.outputs f\n"
            "# a whole comment line\n.names a b f\n11 1\n.end")
    g = parse_blif(text)
    assert g.num_inputs == 2
    assert simulate(g, ["0101", "0011"]) == ["0001"]


def test_continuation_at_end_of_file_dropped(caplog):
    with caplog.at_level(logging.WARNING, logger="flowtune"):
        g = parse_blif(".model m\n.inputs a b \\")
    assert g.num_inputs == 2
    assert "\\" not in g.name_map.values()
    assert any("missing .end" in r.message for r in caplog.records)


def test_latch_cut():
    text = (".model t\n.inputs a\n.outputs f\n"
            ".latch nxt q re clk 0\n"
            ".names a q f\n11 1\n"
            ".names f nxt\n1 1\n.end")
    g = parse_blif(text)
    assert g.num_inputs == 2           # a plus the latch output q
    assert len(g.outputs) == 2         # f plus the latch data input nxt
    assert g.name_map["i1"] == "q"
    assert g.name_map["o1"] == "nxt"


def test_undefined_net():
    with pytest.raises(ParseError) as exc:
        parse_blif(".model t\n.inputs a\n.outputs f\n.names a ghost f\n11 1\n.end")
    assert any("never defined" in d.message for d in exc.value.diagnostics)


def test_repeated_input_anchored_to_its_directive():
    text = ".inputs a b\n.outputs f\n.inputs a\n.names a b f\n11 1\n.end"
    with pytest.raises(ParseError) as exc:
        parse_blif(text)
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [
        (3, "net a defined more than once")]


def test_undefined_output_anchored_to_its_directive():
    text = ".model t\n.inputs a\n.outputs f\n.outputs g\n.names a f\n1 1\n.end"
    with pytest.raises(ParseError) as exc:
        parse_blif(text)
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [
        (4, "net g is used but never defined")]


def test_combinational_cycle():
    text = (".model t\n.inputs a\n.outputs f\n"
            ".names a g f\n11 1\n.names f g\n1 1\n.end")
    with pytest.raises(ParseError) as exc:
        parse_blif(text)
    assert any("cycle" in d.message for d in exc.value.diagnostics)


def test_mixed_phase_cover_rejected():
    text = ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end"
    with pytest.raises(ParseError) as exc:
        parse_blif(text)
    assert any("mixes output phases" in d.message for d in exc.value.diagnostics)


@pytest.mark.parametrize("body,line,message", [
    (".outputs f\n" + "1" * 5000, 3,
     "cover row outside .names: '" + "1" * 40 + "'... (5000 characters)"),
    (".outputs f\n.names a f\n1 1 " + "1" * 4996, 4,
     "malformed cover row '1 1 " + "1" * 36 + "'... (5000 characters)"),
    (".outputs f\n.names a f\n1 " + "2" * 4998, 4,
     "cover row characters must be 0/1/- : '1 " + "2" * 38
     + "'... (5000 characters)"),
], ids=["outside-names", "malformed", "characters"])
def test_long_rows_quoted_short(body, line, message):
    # a 5,000-character row is quoted by its first 40 characters and its
    # length
    with pytest.raises(ParseError) as exc:
        parse_blif(".inputs a\n" + body + "\n.end")
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [
        (line, message)]


def test_row_width_mismatch():
    with pytest.raises(ParseError):
        parse_blif(".model t\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end")


def test_random_covers_match_oracle():
    rng = random.Random(55)
    names = ["a", "b", "c", "d"]
    for trial in range(40):
        n = rng.randint(1, 4)
        inputs = names[:n]
        n_rows = rng.randint(1, 5)
        rows = ["".join(rng.choice("01-") for _ in range(n))
                for _ in range(n_rows)]
        phase = rng.random() < 0.5
        g = parse_blif(cover_text(inputs, rows, phase))
        got = simulate_all(g, n)
        for j, value in enumerate(got):
            assignment = [(j >> i) & 1 for i in range(n)]
            assert value == eval_cover(rows, phase, assignment), \
                (trial, rows, phase, assignment)


def test_fuzz_never_crashes():
    rng = random.Random(321)
    base = cover_text(["a", "b", "c"], ["1-0", "01-"], True)
    for _ in range(400):
        if rng.random() < 0.5:
            text = "".join(chr(rng.randrange(32, 127))
                           for _ in range(rng.randrange(0, 100)))
        else:
            chars = list(base)
            for _ in range(rng.randrange(1, 5)):
                chars[rng.randrange(len(chars))] = chr(rng.randrange(9, 127))
            text = "".join(chars)
        try:
            parse_blif(text)
        except ParseError:
            pass
