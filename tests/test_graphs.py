import itertools

import numpy as np
import pytest

from helpers import tagged
from qgraph import (
    ClassicalGraph,
    QuantumGraph,
    Tolerance,
    VnAlgebra,
    chromatic_number,
    edge_basis,
    graph_operator_system,
    homomorphism_exists,
    proper_coloring,
    validate,
)
from qgraph.algebra import commutant, orthonormalize, project_onto_span
from qgraph.graphs import SAME_VERTEX, classical_graph_from_operator_system
from qgraph.linalg import hs_norm, matrix_unit


def diag_algebra(n):
    return VnAlgebra(n=n, blocks=tuple((1, 1) for _ in range(n)))


def full_graph(n):
    alg = VnAlgebra(n=n, blocks=((1, n),))
    basis = tuple(matrix_unit(n, i, j) for i in range(n) for j in range(n))
    return QuantumGraph(n=n, algebra=alg, s_basis=basis)


class TestValidate:
    def test_classical_triangle(self):
        g = graph_operator_system(ClassicalGraph.complete(3))
        assert validate(g).passed

    def test_missing_identity(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        g = QuantumGraph(n=2, algebra=alg, s_basis=(matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0),))
        report = validate(g)
        assert not report.passed
        assert not report.check("operator_system").passed

    def test_bimodule_failure_witness(self):
        # E_11 (E_12 + E_21) E_22 = E_12 is not in span{I, E_12 + E_21}.
        g = QuantumGraph(
            n=2,
            algebra=diag_algebra(2),
            s_basis=(np.eye(2, dtype=complex), matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)),
        )
        report = validate(g)
        assert not report.passed
        check = report.check("bimodule")
        assert not check.passed
        assert check.max_residual == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_report_memoized_for_edge_basis(self, monkeypatch):
        # One validation and one edge basis per graph, whatever the tolerance: it only decides.
        from qgraph import graphs

        calls = []
        for name in ("_compute_validation", "_compute_edge_basis"):
            original = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, lambda g, _f=original, _n=name: calls.append(_n) or _f(g))
        g = full_graph(3)
        for tol in (Tolerance(), Tolerance(1e-6)):
            assert validate(g, tol).passed
            edge_basis(g, tol)
        assert calls == ["_compute_validation", "_compute_edge_basis"]
        # A graph validated by nobody yet is validated once inside edge_basis.
        edge_basis(full_graph(3), Tolerance(1e-3))
        assert calls[2:] == ["_compute_validation", "_compute_edge_basis"]

    def test_cached_bases_are_read_only(self):
        # span_basis hands out a view of what validate reads, and the adjacency basis is
        # one of the cached game inputs, so a write into either must not reach them.
        g = full_graph(2)
        for basis in (g.span_basis(), g._adjacency_basis):
            with pytest.raises(ValueError, match="read-only"):
                basis[0][0, 0] = 1.0

    def test_empty_spanning_set(self):
        g = QuantumGraph(n=2, algebra=diag_algebra(2), s_basis=())
        report = validate(g)
        assert not report.check("operator_system").passed
        assert report.check("self_adjoint").passed and report.check("bimodule").passed

    def test_traceless_variant(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        g = QuantumGraph(
            n=2,
            algebra=alg,
            s_basis=(matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)),
            traceless=True,
        )
        assert validate(g).passed
        bad = QuantumGraph(n=2, algebra=alg, s_basis=(np.eye(2, dtype=complex),), traceless=True)
        assert not validate(bad).check("traceless").passed


class TestEdgeBasis:
    def test_classical_k2(self):
        g = graph_operator_system(ClassicalGraph.complete(2))
        basis = edge_basis(g)
        same = tagged(basis, SAME_VERTEX)
        adj = tagged(basis, "adjacency")
        assert len(basis.matrices) == 4
        assert len(same) == 2 and len(adj) == 2
        same_span = orthonormalize(same)
        for i in range(2):
            e = matrix_unit(2, i, i)
            assert hs_norm(e - project_onto_span(e, same_span)) < 1e-12
        adj_span = orthonormalize(adj)
        for pos in [(0, 1), (1, 0)]:
            e = matrix_unit(2, *pos)
            assert hs_norm(e - project_onto_span(e, adj_span)) < 1e-12

    def test_full_m2_contains_normalized_identity(self):
        basis = edge_basis(full_graph(2))
        same = tagged(basis, SAME_VERTEX)
        assert len(same) == 1
        np.testing.assert_allclose(same[0], np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_cardinality(self):
        for g in [graph_operator_system(ClassicalGraph.cycle(4)), full_graph(3)]:
            basis = edge_basis(g)
            assert len(basis.matrices) == len(orthonormalize(g.s_basis))

    def test_orthonormal(self):
        g = graph_operator_system(ClassicalGraph.cycle(5))
        mats = edge_basis(g).matrices
        gram = np.array([[np.vdot(b, a) for b in mats] for a in mats])
        np.testing.assert_allclose(gram, np.eye(len(mats)), atol=1e-10)

    def test_block_positions(self):
        g = graph_operator_system(ClassicalGraph.complete(2))
        basis = edge_basis(g)
        for y, (r, s) in zip(basis.matrices, basis.blocks):
            # E_r Y E_s = Y for the tagged block pair.
            er = np.zeros((2, 2)); er[r, r] = 1
            es = np.zeros((2, 2)); es[s, s] = 1
            np.testing.assert_allclose(er @ y @ es, y, atol=1e-12)

    def test_reordering_spans_same_space(self):
        g = graph_operator_system(ClassicalGraph.cycle(4))
        reordered = QuantumGraph(
            n=g.n, algebra=g.algebra, s_basis=tuple(reversed(g.s_basis))
        )
        b1 = edge_basis(g)
        b2 = edge_basis(reordered)
        assert len(tagged(b1, SAME_VERTEX)) == len(tagged(b2, SAME_VERTEX))
        assert len(tagged(b1, "adjacency")) == len(tagged(b2, "adjacency"))
        span2 = orthonormalize(b2.matrices)
        worst = max(hs_norm(y - project_onto_span(y, span2)) for y in b1.matrices)
        assert worst < 1e-10

    def test_multiplicity_blocks(self):
        # M = C I_2 (x) M_2 in M_4: two K-copies of dimension 2; the
        # same-vertex part is the 4 normalized matrix units of M'.
        alg = VnAlgebra(n=4, blocks=((2, 2),))
        basis = tuple(matrix_unit(4, i, j) for i in range(4) for j in range(4))
        g = QuantumGraph(n=4, algebra=alg, s_basis=basis)
        eb = edge_basis(g)
        same = [(y, pair) for y, tag, pair in zip(eb.matrices, eb.tags, eb.blocks) if tag == SAME_VERTEX]
        assert len(same) == alg.dim_commutant == 4
        assert [pair for _, pair in same] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert eb.block_dims == (2, 2)
        for y, (a, b) in same:
            if a == b:
                # Diagonal seeds are the normalized projections onto the copies, rows 2a, 2a + 1.
                np.testing.assert_allclose(y, np.diag(np.repeat(np.arange(2) == a, 2)) / np.sqrt(2), atol=1e-12)

    def test_adjacency_perp_to_commutant(self):
        alg = VnAlgebra(n=4, blocks=((2, 2),))
        basis = tuple(matrix_unit(4, i, j) for i in range(4) for j in range(4))
        g = QuantumGraph(n=4, algebra=alg, s_basis=basis)
        eb = edge_basis(g)
        comm = commutant(alg)
        worst = max(
            abs(np.vdot(a, y))
            for y in tagged(eb, "adjacency")
            for a in comm
        )
        assert worst <= 1e-10

    def test_invalid_graph_rejected(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        g = QuantumGraph(n=2, algebra=alg, s_basis=(matrix_unit(2, 0, 1),))
        with pytest.raises(ValueError):
            edge_basis(g)


class TestGraphOperatorSystem:
    def test_complete_gives_full(self):
        g = graph_operator_system(ClassicalGraph.complete(3))
        assert len(orthonormalize(list(g.s_basis))) == 9

    def test_empty_gives_diagonal(self):
        g = graph_operator_system(ClassicalGraph.empty(3))
        assert len(g.s_basis) == 3

    def test_empty_edge_basis_is_same_vertex_units(self):
        basis = edge_basis(graph_operator_system(ClassicalGraph.empty(3)))
        assert basis.tags == (SAME_VERTEX,) * 3
        assert all(hs_norm(y - matrix_unit(3, a, a)) <= 1e-12 for a, y in enumerate(basis.matrices))

    def test_c5_dimension(self):
        g = graph_operator_system(ClassicalGraph.cycle(5))
        assert len(g.s_basis) == 15

    def test_always_validates(self):
        for graph in [ClassicalGraph.cycle(4), ClassicalGraph.complete(4), ClassicalGraph.empty(2)]:
            assert validate(graph_operator_system(graph)).passed

    def test_recognition_roundtrip(self):
        for graph in [ClassicalGraph.cycle(5), ClassicalGraph.empty(3), ClassicalGraph.complete(4)]:
            recovered = classical_graph_from_operator_system(graph_operator_system(graph))
            assert recovered == graph

    def test_recognition_rejects_quantum(self):
        assert classical_graph_from_operator_system(full_graph(2)) is None


class TestClassicalGraph:
    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            ClassicalGraph(2, ((0, 0),))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            ClassicalGraph(2, ((0, 5),))

    def test_edges_deduplicated(self):
        g = ClassicalGraph(3, ((1, 0), (0, 1)))
        assert g.edges == ((0, 1),)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ClassicalGraph(-2, ())
        assert chromatic_number(ClassicalGraph(0, ())) == 0


class TestOracle:
    def test_complete(self):
        assert chromatic_number(ClassicalGraph.complete(4)) == 4

    def test_c5_against_inline_enumeration(self):
        # Independent oracle: enumerate all assignments directly here.
        g = ClassicalGraph.cycle(5)

        def colorable(c):
            for assign in itertools.product(range(c), repeat=5):
                if all(assign[a] != assign[b] for a, b in g.edges):
                    return True
            return False

        assert not colorable(2)
        assert colorable(3)
        assert chromatic_number(g) == 3

    def test_bipartite_hom(self):
        assert homomorphism_exists(ClassicalGraph.cycle(4), ClassicalGraph.complete(2))
        assert not homomorphism_exists(ClassicalGraph.cycle(5), ClassicalGraph.complete(2))

    def test_proper_coloring_is_proper(self):
        g = ClassicalGraph.cycle(5)
        col = proper_coloring(g, 3)
        assert col is not None
        assert all(col[a] != col[b] for a, b in g.edges)
        assert proper_coloring(g, 2) is None

    def test_cap(self):
        with pytest.raises(ValueError):
            chromatic_number(ClassicalGraph.empty(9))
