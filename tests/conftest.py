import pytest

from flowtune import Aig, AigBuilder, GenSpec, gen_random

# named BLIF circuit on which every kind fires: a chain (balance),
# absorption (rewrite), a redundant cover (refactor), duplicated cones
# (resub)
NAMED_BLIF = """.model named
.inputs a b c d e f
.outputs chain absorb red dup1 dup2
.names a b c d e f chain
111111 1
.names a b ab
11 1
.names a ab absorb
11 1
.names c d red
11 1
10 1
.names e f x
11 1
.names x a dup1
11 1
.names a e y
11 1
.names y f dup2
11 1
.end
"""


def build_chain(n_inputs: int) -> Aig:
    """Left-deep AND chain: n_inputs-1 gates, depth n_inputs-1."""
    b = AigBuilder(n_inputs)
    lits = b.input_literals()
    t = lits[0]
    for l in lits[1:]:
        t = b.add_and(t, l)
    return Aig.compact(b, [t])


def build_balanced_tree(n_inputs: int) -> Aig:
    """Complete binary AND tree over n_inputs (a power of two)."""
    b = AigBuilder(n_inputs)
    layer = b.input_literals()
    while len(layer) > 1:
        layer = [b.add_and(layer[i], layer[i + 1])
                 for i in range(0, len(layer), 2)]
    return Aig.compact(b, [layer[0]])


def build_absorption() -> Aig:
    """AND(a, AND(a, b)): one redundant level above the inner gate."""
    gb = AigBuilder(2)
    a, b = gb.input_literals()
    inner = gb.add_and(a, b)
    return Aig.compact(gb, [gb.add_and(a, inner)])


@pytest.fixture
def chain8() -> Aig:
    return build_chain(8)


@pytest.fixture
def absorption() -> Aig:
    return build_absorption()


@pytest.fixture(scope="session")
def redundant_small() -> Aig:
    """Mid-size redundancy-injected circuit, exhaustively checkable."""
    return gen_random(GenSpec(12, 600, 8, 2024))
