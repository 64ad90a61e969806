"""Machine-independent size counters of the rank-test pipeline.

The bounds are the sizes the hash-consed engine produces; a change that
grows the DAG or the compiled program fails here before it shows up as
wall time.
"""

import pytest

from odeident import expr as E
from odeident import model as M
from odeident import ranktest as R

hiv = M.hiv_model()


def _nodes(exprs) -> int:
    return len(E._topo(list(exprs)))


def _jacobian(mode: str):
    matrix = R.parameter_jacobian(R.build_phi_system(R.build_phi()))
    if mode == "constrained":
        matrix = R.substitute_dynamics(matrix)
    return [e for row in matrix for e in row]


@pytest.mark.parametrize("mode, nodes, instructions, muls", [
    ("naive", 1047, 1023, 704),
    ("constrained", 1729, 1710, 1228),
])
def test_jacobian_and_program_sizes(mode, nodes, instructions, muls):
    flat = _jacobian(mode)
    symbols = sorted(set().union(*map(E.free_symbols, flat)),
                     key=E.Symbol.sort_key)
    program = E.compile_program(flat, symbols)
    assert _nodes(flat) <= nodes
    assert len(program.instructions) <= instructions
    assert sum(1 for ins in program.instructions if ins[0] == E._OP_MUL) <= muls


@pytest.mark.parametrize("output_index, nodes", [(1, 1881), (2, 1002)])
def test_order_eight_jet_sizes(output_index, nodes):
    assert _nodes([M.output_jet(hiv, output_index, 8).entries[8]]) <= nodes
