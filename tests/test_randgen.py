import pytest

from flowtune import (GenSpec, count_transformable, gen_random, metrics,
                      simulate, write_aiger)
from flowtune.aig import input_patterns
from flowtune.transforms import TransformKind


def test_determinism_byte_identical():
    spec = GenSpec(8, 300, 4, 99)
    assert write_aiger(gen_random(spec)) == write_aiger(gen_random(spec))


def test_different_seeds_differ():
    a = gen_random(GenSpec(8, 300, 4, 1))
    b = gen_random(GenSpec(8, 300, 4, 2))
    assert write_aiger(a) != write_aiger(b)


def test_zero_ands_outputs_are_inputs():
    g = gen_random(GenSpec(5, 0, 3, 7))
    assert g.num_ands == 0
    input_lits = set(g.input_literals())
    assert all(l in input_lits for l in g.outputs)


def test_and_count_within_tolerance():
    for spec in (GenSpec(8, 200, 4, 3), GenSpec(16, 1000, 8, 4),
                 GenSpec(32, 3000, 16, 5)):
        got = metrics(gen_random(spec)).and_count
        assert abs(got - spec.num_ands) <= 0.2 * spec.num_ands, (spec, got)


def test_outputs_reachable_and_nonconstant():
    g = gen_random(GenSpec(10, 400, 6, 12))
    width = 1 << 10
    mask = (1 << width) - 1
    for o in simulate(g, input_patterns(10), width):
        assert o != 0 and o != mask, "constant output"


def test_rewrite_finds_work():
    g = gen_random(GenSpec(8, 500, 4, 7))
    assert count_transformable(g, TransformKind.REWRITE) > 0


def test_all_kinds_find_work_on_suite_scale():
    g = gen_random(GenSpec(32, 1500, 16, 11))
    for kind in TransformKind:
        assert count_transformable(g, kind) > 0, kind


def test_invalid_spec():
    with pytest.raises(ValueError):
        GenSpec(0, 10, 1, 0)
    with pytest.raises(ValueError):
        GenSpec(2, -1, 1, 0)
    with pytest.raises(ValueError):
        GenSpec(1, 5, 1, 0)  # one input cannot feed a distinct AND
    assert gen_random(GenSpec(1, 0, 3, 0)).num_ands == 0
