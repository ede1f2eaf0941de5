"""Each value owns its operator family as one read-only complex stack.

The reports cached on a graph or a strategy are computed once from its family,
so a write must reach neither the family nor what was computed from it: a write
through a field raises, and a write to the arrays a caller passed in changes nothing.
"""

import numpy as np
import pytest

from helpers import merge_first_two
from qgraph import (
    BlockStrategy,
    ClassicalGraph,
    GameInstance,
    QuantumGraph,
    TracialAncilla,
    VnAlgebra,
    bob_from_alice,
    check_game_algebra_rep,
    commutant,
    complete_quantum_graph,
    diagonal_strategy,
    edge_basis,
    graph_operator_system,
    shift_multiply_coloring,
    teleport_coloring,
    validate,
    verify_structural,
)
from qgraph.algebra import algebra_basis
from qgraph.linalg import frozen_stack, matrix_unit

C5_COLOURING = (0, 1, 0, 1, 2)


def rotated_algebra() -> VnAlgebra:
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return VnAlgebra(n=2, blocks=((1, 1), (1, 1)), unitary=u)


class TestFrozenStack:
    def test_copies_into_a_read_only_complex_stack(self):
        mats = [np.eye(2), np.zeros((2, 2))]
        stack = frozen_stack(mats, 2, "operator")
        assert stack.shape == (2, 2, 2) and stack.dtype == np.complex128
        assert not stack.flags.writeable
        mats[0][0, 0] = 5.0
        assert stack[0, 0, 0] == 1.0

    def test_copies_an_array_given_as_a_stack(self):
        given = np.zeros((3, 2, 2), dtype=np.complex128)
        stack = frozen_stack(given, 2, "operator")
        assert not np.shares_memory(stack, given)
        assert given.flags.writeable

    def test_empty_family(self):
        assert frozen_stack((), 3, "operator").shape == (0, 3, 3)

    @pytest.mark.parametrize("family", [[np.eye(3)], np.eye(2), [np.ones((2, 3))]])
    def test_refuses_any_other_shape(self, family):
        with pytest.raises(ValueError, match="operator of shape"):
            frozen_stack(family, 2, "operator")


def c5_graph() -> QuantumGraph:
    return graph_operator_system(ClassicalGraph.cycle(5))


@pytest.mark.parametrize(
    "field",
    [
        lambda: c5_graph().s_basis,
        lambda: diagonal_strategy(C5_COLOURING, 3).projections,
        lambda: bob_from_alice(teleport_coloring(1, 2)).alice,
        lambda: bob_from_alice(teleport_coloring(1, 2)).bob,
        lambda: bob_from_alice(teleport_coloring(1, 2)).chi,
        lambda: rotated_algebra().unitary,
        lambda: commutant(rotated_algebra()),
        lambda: algebra_basis(rotated_algebra()),
    ],
    ids=["s_basis", "projections", "alice", "bob", "chi", "unitary", "commutant", "algebra_basis"],
)
def test_an_in_place_write_through_a_field_raises(field):
    family = field()
    with pytest.raises(ValueError, match="read-only"):
        family[(0,) * family.ndim] = 0.5


def test_a_write_to_the_callers_arrays_changes_no_field_report_or_verdict():
    # The C_5 graph system and its proper 3-colouring, from arrays the caller keeps.
    basis = [m.copy() for m in c5_graph().s_basis]
    ops = [p.copy() for p in diagonal_strategy(C5_COLOURING, 3).projections]
    g = QuantumGraph(n=5, algebra=c5_graph().algebra, s_basis=basis)
    s = BlockStrategy(n=5, c=3, ancilla=TracialAncilla.trivial(), projections=ops)
    inst = GameInstance(source=g, target=ClassicalGraph.complete(3))
    assert validate(g).passed and verify_structural(inst, s).passed
    s_basis, projections = g.s_basis.copy(), s.projections.copy()

    basis[0] += matrix_unit(5, 0, 2)  # E_00 + E_02: its adjoint leaves span(S)
    ops[0][0, 0] = 0.5

    # Built afresh from the written arrays, neither would pass ...
    assert not validate(QuantumGraph(n=5, algebra=g.algebra, s_basis=basis)).passed
    assert not BlockStrategy(n=5, c=3, ancilla=s.ancilla, projections=ops).measurement_report().passed
    # ... but the values own their copies, and so do their cached reports.
    np.testing.assert_array_equal(g.s_basis, s_basis)
    np.testing.assert_array_equal(s.projections, projections)
    assert validate(g).passed and s.measurement_report().passed
    assert verify_structural(inst, s).passed


def test_a_write_to_the_callers_unitary_or_tensor_operators_changes_no_field():
    u = rotated_algebra().unitary.copy()
    alg = VnAlgebra(n=2, blocks=((1, 1), (1, 1)), unitary=u)
    comm = commutant(alg).copy()
    u[:] = np.eye(2)
    np.testing.assert_array_equal(alg.unitary, rotated_algebra().unitary)
    np.testing.assert_array_equal(commutant(alg), comm)

    ts = bob_from_alice(teleport_coloring(1, 2))
    alice, bob, chi = ts.alice.copy(), ts.bob.copy(), ts.chi.copy()
    fresh = type(ts)(dims=ts.dims, alice=alice, bob=bob, chi=chi)
    for given in (alice, bob, chi):
        given[...] = 0.0
    np.testing.assert_array_equal(fresh.alice, ts.alice)
    np.testing.assert_array_equal(fresh.bob, ts.bob)
    np.testing.assert_array_equal(fresh.chi, ts.chi)


def test_a_write_through_the_cached_rounding_or_edge_basis_raises_and_no_verdict_moves():
    # Merging two colours of the shift-multiply colouring of M_2 loses against K_3.
    alg = VnAlgebra(n=2, blocks=((1, 2),))
    g = complete_quantum_graph(alg)
    s = merge_first_two(shift_multiply_coloring(alg))
    inst = GameInstance(source=g, target=ClassicalGraph.complete(3))
    assert not verify_structural(inst, s).passed and not check_game_algebra_rep(inst, s).passed

    f = s.factors
    for cached in (f.v, f.labels, f.projections, f.defects, edge_basis(g).matrices):
        with pytest.raises(ValueError, match="read-only"):
            cached[...] = 0
    assert not verify_structural(inst, s).passed and not check_game_algebra_rep(inst, s).passed
