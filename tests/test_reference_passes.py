"""Differential tests: each pass against its reference in reference_passes."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune import GenSpec, apply, gen_random, transforms
from flowtune.transforms import TransformKind

import reference_passes

K = TransformKind


def _same_as_reference(g) -> None:
    res, rep = apply(g, K.RESUB)
    want, tnodes = reference_passes.resub(g)
    assert rep.tnodes == tnodes
    assert res == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), ni=st.integers(4, 14),
       ands=st.integers(0, 300), weak=st.booleans())
def test_exhaustive_resub_matches_reference(seed, ni, ands, weak):
    # up to 16 inputs the signatures only group candidates, so one-pattern
    # signatures must give the same result: the blocks alone split the
    # groups, each of them needed
    g = gen_random(GenSpec(ni, ands, 4, seed))
    patterns = 1 if weak else transforms._RESUB_PATTERNS
    with mock.patch.object(transforms, "_RESUB_PATTERNS", patterns):
        _same_as_reference(g)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), ni=st.integers(17, 20),
       ands=st.integers(0, 400))
def test_sampled_resub_matches_reference(seed, ni, ands):
    _same_as_reference(gen_random(GenSpec(ni, ands, 4, seed)))


def test_pinned_inputs_resub_matches_reference():
    # the graphs whose pass outputs test_pass_outputs_pinned pins
    for spec in (GenSpec(12, 600, 8, 2024), GenSpec(20, 900, 8, 77)):
        _same_as_reference(gen_random(spec))
