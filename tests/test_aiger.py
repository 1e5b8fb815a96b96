import random
import sys

import pytest

from flowtune import (GenSpec, ParseError, equivalent, gen_random,
                      parse_aiger, simulate, write_aiger)


def test_empty_header():
    g = parse_aiger("aag 0 0 0 0 0")
    assert g.num_inputs == 0
    assert g.num_ands == 0
    assert g.outputs == []


def test_single_and_truth_table():
    g = parse_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 4")
    assert g.num_inputs == 2
    assert g.num_ands == 1
    # all four assignments, oracle is the AND truth table
    assert simulate(g, ["0101", "0011"]) == ["0001"]


def test_output_complemented():
    g = parse_aiger("aag 3 2 0 1 1\n2\n4\n7\n6 2 4")
    assert simulate(g, ["0101", "0011"]) == ["1110"]


@pytest.mark.parametrize("text,line", [
    ("aig 0 0 0 0 0", 1),              # wrong magic
    ("aag 1 1 0 0", 1),                # short header
    ("aag 0 0 0 0 0 0 0", 1),          # long header
    ("aag x 0 0 0 0", 1),              # non-integer count
    ("aag 1 2 0 0 0\n2", 1),           # M < I
    ("aag 2 2 0 0 0\n2", 3),           # missing input line
    ("aag 3 2 0 1 1\n2\n4\n6", 5),     # missing and line
    ("aag 3 2 0 1 1\n2\n4\n6\n6 8 4", 5),   # forward reference
    ("aag 3 2 0 1 1\n2\n4\n6\n5 2 4", 5),   # odd lhs
    ("aag 2 2 0 0 0\n2\n2", 3),        # variable defined twice
    ("aag 2 2 0 1 0\n2\n4\n9", 4),     # output references unknown var
    ("aag 2 1 0 0 1\n2\n4 2 2 2", 3),  # malformed and line
], ids=["magic", "short-header", "long-header", "nonint", "m-too-small",
        "missing-input", "missing-and", "forward-ref", "odd-lhs",
        "redefined", "bad-output", "bad-and"])
def test_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_aiger(text)
    diags = exc.value.diagnostics
    assert diags, "expected at least one diagnostic"
    assert diags[-1].severity == "error"
    assert diags[-1].line == line


@pytest.mark.parametrize("text,message", [
    ("aag 2147483647 2147483647 0 0 0\n2", "missing input line"),
    ("aag 2147483647 0 2147483647 0 0\n2 3", "missing latch line"),
], ids=["inputs", "latches"])
def test_unbacked_header_counts_allocate_nothing(monkeypatch, text, message):
    # the graph is built only once the lines behind the counts are read
    def no_builder(*args, **kwargs):
        pytest.fail("AigBuilder constructed for an unbacked header count")
    monkeypatch.setattr("flowtune.aiger.AigBuilder", no_builder)
    with pytest.raises(ParseError) as exc:
        parse_aiger(text)
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [
        (3, message)]


@pytest.mark.parametrize("unlimited", [False, True],
                         ids=["default-limit", "no-limit"])
@pytest.mark.parametrize("text,line,message", [
    ("aag 1" + "1" * 5000 + " 0 0 0 0", 1,
     "header count too large: 111111111111... (5001 digits)"),
    ("aag 1 1 0 0 0\n" + "2" * 5000, 2,
     "input literal too large: 222222222222... (5000 digits)"),
    ("aag 3 2 0 1 1\n2\n4\n6\n6 2 -" + "4" * 4301, 5,
     "and literal too large: -44444444444... (4301 digits)"),
], ids=["header-count", "input-literal", "negative-and-fanin"])
def test_over_long_integers_named_too_large(unlimited, text, line, message):
    # the same message whether or not int() limits the digits it reads
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if unlimited and limit:
        sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(ParseError) as exc:
            parse_aiger(text)
    finally:
        if unlimited and limit:
            sys.set_int_max_str_digits(limit)
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [
        (line, message)]


def test_longest_readable_integer_is_read():
    text = "aag 1 1 0 0 0\n" + "0" * 4299 + "2"
    assert parse_aiger(text).num_inputs == 1

@pytest.mark.parametrize("text,line,message", [
    ("aag 1 1 0 0 0\n2\ni\u00b2 x", 3,
     "unexpected content after definitions: 'i\u00b2 x'"),
    ("aag 1 1 0 0 0\n2\ni" + "9" * 5000 + " x", 3,
     "symbol index out of range: 'i" + "9" * 39 + "'... (5001 characters)"),
], ids=["superscript-index", "index-beyond-int-digit-limit"])
def test_unreadable_symbol_index_rejected(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_aiger(text)
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [
        (line, message)]


@pytest.mark.parametrize("text,line,message", [
    ("aag 1 1 0 0 0\n" + "x" * 5000, 2,
     "input line must be one literal, got '" + "x" * 40
     + "'... (5000 characters)"),
    ("aag 1 1 0 0 0\n2\n" + "z" * 5000, 3,
     "unexpected content after definitions: '" + "z" * 40
     + "'... (5000 characters)"),
    ("aag 1 1 0 0 0\n2\ni1" + "0" * 4998 + " x", 3,
     "symbol index out of range: 'i1" + "0" * 38 + "'... (5000 characters)"),
], ids=["input-line", "after-definitions", "symbol-index"])
def test_long_lines_quoted_short(text, line, message):
    # a 5,000-character line or tag is quoted by its first 40 characters
    # and its length
    with pytest.raises(ParseError) as exc:
        parse_aiger(text)
    assert [(d.line, d.message) for d in exc.value.diagnostics] == [
        (line, message)]


def test_whitespace_only_symbol_lines_skipped():
    g = parse_aiger("aag 1 1 0 1 0\n2\n2\n   \n\t\ni0 a\n")
    assert g.name_map == {"i0": "a"}


def test_roundtrip_100_random_circuits():
    for seed in range(100):
        g = gen_random(GenSpec(4 + seed % 8, 20 + seed * 3, 2, seed))
        text = write_aiger(g)
        back = parse_aiger(text)
        assert back.structurally_equal(g)
        assert equivalent(g, back)


def test_written_ids_topological():
    g = gen_random(GenSpec(8, 150, 4, 77))
    lines = write_aiger(g).splitlines()
    _, m, ni, nl, no, na = lines[0].split()
    ands = lines[1 + int(ni) + int(no):1 + int(ni) + int(no) + int(na)]
    seen = {0} | {(i + 1) for i in range(int(ni))}
    for row in ands:
        lhs, r0, r1 = (int(t) for t in row.split())
        assert (r0 >> 1) in seen and (r1 >> 1) in seen
        seen.add(lhs >> 1)
    # and the file parses back without complaint
    assert parse_aiger("\n".join(lines)).num_ands == int(na)


def test_latches_cut_at_boundary():
    # two inputs, one latch: Q becomes input 3, its next-state an extra output
    text = "aag 4 2 1 1 1\n2\n4\n6 8\n8\n8 2 6\ni0 a\nl0 state\no0 out"
    g = parse_aiger(text)
    assert g.num_inputs == 3
    assert len(g.outputs) == 2  # real output + latch next-state
    assert g.name_map["i0"] == "a"
    assert g.name_map["i2"] == "state"
    # next-state function is AND(a, Q)
    assert simulate(g, ["0101", "0011", "0000"])[1] == "0000"
    assert simulate(g, ["0101", "0011", "1111"])[1] == "0101"


def test_symbol_roundtrip():
    g = gen_random(GenSpec(3, 10, 2, 5))
    g.name_map["i0"] = "clk_a"
    g.name_map["o1"] = "result"
    back = parse_aiger(write_aiger(g))
    assert back.name_map["i0"] == "clk_a"
    assert back.name_map["o1"] == "result"


def test_duplicate_gates_in_file_are_hashed():
    # the same fanin pair twice: second definition maps onto the first node
    text = "aag 4 2 0 2 2\n2\n4\n6\n8\n6 2 4\n8 2 4"
    g = parse_aiger(text)
    assert g.outputs[0] == g.outputs[1]
    assert simulate(g, ["0101", "0011"]) == ["0001", "0001"]


def test_fuzz_never_crashes():
    rng = random.Random(123)
    base = write_aiger(gen_random(GenSpec(5, 30, 3, 1)))
    corpus = [base]
    lines = base.splitlines()
    for _ in range(500):
        choice = rng.random()
        if choice < 0.4:
            text = "".join(chr(rng.randrange(32, 127)) for _ in range(rng.randrange(0, 120)))
        elif choice < 0.5:
            # one header count replaced; bounded so that a parser which
            # trusts counts before lines fails here without exhausting memory
            header = lines[0].split()
            header[rng.randrange(1, 6)] = str(rng.randint(0, 10 ** 6))
            text = "\n".join([" ".join(header)] + lines[1:])
        else:
            chars = list(rng.choice(corpus))
            for _ in range(rng.randrange(1, 6)):
                pos = rng.randrange(len(chars))
                chars[pos] = chr(rng.randrange(9, 127))
            text = "".join(chars)
        try:
            parse_aiger(text)
        except ParseError:
            pass
