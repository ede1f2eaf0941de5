import numpy as np
import pytest

from helpers import rand_hermitian, rand_unitary, random_block_strategy
from qgraph import (
    BlockStrategy,
    ClassicalGraph,
    GameInstance,
    QuantumGraph,
    TracialAncilla,
    VnAlgebra,
    check_game_algebra_rep,
    compose_reps,
    extract_channel,
    graph_operator_system,
    shift_multiply_coloring,
    teleport_coloring,
    verify_operational,
    verify_structural,
)
from qgraph.colorings import complete_quantum_graph, diagonal_strategy
from qgraph.linalg import matrix_unit

K = ClassicalGraph.complete


def nonloop_graph(n):
    alg = VnAlgebra(n=n, blocks=((1, n),))
    basis = [np.eye(n, dtype=complex)]
    basis += [matrix_unit(n, i, j) for i in range(n) for j in range(n) if i != j]
    return QuantumGraph(n=n, algebra=alg, s_basis=tuple(basis))


def diagonal_unit_strategy(n):
    return BlockStrategy(
        n=n,
        c=n,
        ancilla=TracialAncilla.trivial(),
        projections=tuple(matrix_unit(n, a, a) for a in range(n)),
    )


def corrupt_swap(s: BlockStrategy) -> BlockStrategy:
    projs = list(s.projections)
    # Swap the upper-left n-cells of two projections: breaks the PVM subtly.
    d = s.ancilla.dim
    p0, p1 = projs[0].copy(), projs[1].copy()
    p0[:d, :d], p1[:d, :d] = projs[1][:d, :d].copy(), projs[0][:d, :d].copy()
    projs[0], projs[1] = p0, p1
    return BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=tuple(projs))


class TestVerifyStructural:
    def test_teleport_passes(self):
        for d, k in [(1, 2), (2, 2)]:
            alg = VnAlgebra(n=d * k, blocks=((d, k),))
            inst = GameInstance(source=complete_quantum_graph(alg), target=K(k * k))
            assert verify_structural(inst, teleport_coloring(d, k)).passed

    def test_diagonal_coloring_of_nonloop_graph(self):
        inst = GameInstance(source=nonloop_graph(3), target=K(3))
        assert verify_structural(inst, diagonal_unit_strategy(3)).passed

    def test_single_color_fails(self):
        g = nonloop_graph(2)
        inst = GameInstance(source=g, target=K(1))
        s = BlockStrategy(
            n=2,
            c=1,
            ancilla=TracialAncilla.trivial(),
            projections=(np.eye(2, dtype=complex),),
        )
        report = verify_structural(inst, s)
        assert not report.passed
        check = report.check("adjacency_zeros")
        assert not check.passed
        assert check.witness is not None

    def test_dimension_mismatch(self):
        inst = GameInstance(source=nonloop_graph(2), target=K(3))
        with pytest.raises(ValueError):
            verify_structural(inst, diagonal_unit_strategy(2))

    def test_membership_failure_detected(self):
        # A projection outside M (x) N: use M = diagonal but a rotated PVM.
        alg = VnAlgebra(n=2, blocks=((2, 1),))  # M = C I_2, M' = M_2
        g = complete_quantum_graph(alg)
        inst = GameInstance(source=g, target=K(2))
        s = diagonal_unit_strategy(2)
        report = verify_structural(inst, s)
        assert not report.check("membership").passed


class TestVerifyOperational:
    def test_agrees_on_valid_and_corrupted(self):
        rng = np.random.default_rng(60)
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        source = complete_quantum_graph(alg)
        valid = teleport_coloring(1, 2)
        inst = GameInstance(source=source, target=K(4))
        for s in [valid, corrupt_swap(valid)]:
            rs = verify_structural(inst, s)
            ro = verify_operational(inst, s)
            assert rs.passed == ro.passed

    def test_same_vertex_rule_on_block_projections(self):
        inst = GameInstance(
            source=complete_quantum_graph(VnAlgebra(n=2, blocks=((1, 2),))), target=K(4)
        )
        report = verify_operational(inst, teleport_coloring(1, 2))
        assert report.passed
        assert report.check("same_vertex_rule").max_residual <= 1e-12

    def test_losing_strategy_reports_violation(self):
        g = graph_operator_system(ClassicalGraph.cycle(5))
        proper = [0, 1, 0, 1, 2]
        improper = [0, 0, 1, 1, 2]  # vertices 0-1 adjacent, same color
        inst = GameInstance(source=g, target=K(3))
        assert verify_operational(inst, diagonal_strategy(proper, 3)).passed
        report = verify_operational(inst, diagonal_strategy(improper, 3))
        assert not report.passed
        assert report.check("adjacency_rule").max_residual > 1e-3

    def test_edgeless_source_has_only_same_vertex_inputs(self):
        # S = M': S n (M')perp is {0}, so the edge basis holds the n same-vertex units.
        inst = GameInstance(source=graph_operator_system(ClassicalGraph.empty(3)), target=K(2))
        s = diagonal_strategy([0, 0, 1], 2)
        assert verify_operational(inst, s).passed
        assert extract_channel(inst, s).num_kraus == 3


class TestModesAgreeOnSmallViolations:
    """Rotating a winning PVM by exp(i delta H), with H in M (x) B(A), keeps it
    an exact PVM in M (x) B(A) and breaks only the adjacency relation, by an
    amount linear in delta.  Every mode sees it on one scale."""

    @staticmethod
    def rotated_m3_coloring(delta):
        alg = VnAlgebra(n=3, blocks=((1, 3),))  # M = M_3, so M (x) B(A) is everything
        s = shift_multiply_coloring(alg)
        h = rand_hermitian(np.random.default_rng(61), s.n * s.ancilla.dim)
        w, v = np.linalg.eigh(h / np.linalg.norm(h))
        u = (v * np.exp(1j * delta * w)) @ v.conj().T
        rotated = tuple(u @ p @ u.conj().T for p in s.projections)
        strategy = BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=rotated)
        return GameInstance(source=complete_quantum_graph(alg), target=K(s.c)), strategy

    def test_every_mode_fails_on_the_adjacency_relation_at_1e_6(self):
        inst, s = self.rotated_m3_coloring(1e-6)
        reports = {
            "structural": verify_structural(inst, s),
            "operational": verify_operational(inst, s),
            "algebra": check_game_algebra_rep(inst, s),
        }
        adjacency = {
            "structural": "adjacency_zeros",
            "operational": "adjacency_rule",
            "algebra": "adjacency_relation",
        }
        for mode, report in reports.items():
            assert not report.passed, mode
            assert [c.name for c in report.checks if not c.passed] == [adjacency[mode]], mode
            assert report.check(adjacency[mode]).witness is not None, mode
        assert reports["structural"].check("membership").passed

    def test_every_mode_passes_at_1e_12(self):
        inst, s = self.rotated_m3_coloring(1e-12)
        assert verify_structural(inst, s).passed
        assert verify_operational(inst, s).passed
        assert check_game_algebra_rep(inst, s).passed


class TestExtractChannel:
    def test_completeness_and_count(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(4))
        s = teleport_coloring(1, 2)
        rep = extract_channel(inst, s)
        assert rep.completeness_residual <= 1e-10
        ranks = sum(round(np.trace(p).real) for p in s.projections)
        assert rep.num_kraus == ranks

    def test_subset_conditions_for_shift_multiply(self):
        alg = VnAlgebra(n=3, blocks=((1, 1), (1, 2)))
        s = shift_multiply_coloring(alg)
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(5))
        rep = extract_channel(inst, s)
        assert rep.subset_residual <= 1e-10

    def test_choi_positive(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(4))
        rep = extract_channel(inst, teleport_coloring(1, 2))
        eigs = np.linalg.eigvalsh((rep.choi + rep.choi.conj().T) / 2)
        assert eigs.min() >= -1e-10

    def test_reconstructs_projections(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(4))
        s = teleport_coloring(1, 2)
        rep = extract_channel(inst, s)
        size = s.n * s.ancilla.dim
        recon = [np.zeros((size, size), dtype=complex) for _ in range(s.c)]
        for f in rep.kraus:
            a = int(np.nonzero(np.abs(f).sum(axis=1))[0][0])
            u = f[a].conj()
            recon[a] += np.outer(u, u.conj())
        for p, q in zip(s.projections, recon):
            assert np.linalg.norm(p - q) <= 1e-10

    def test_rejects_non_pvm(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(2))
        s = BlockStrategy(
            n=2,
            c=2,
            ancilla=TracialAncilla.trivial(),
            projections=(np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2),
        )
        with pytest.raises(ValueError):
            extract_channel(inst, s)


class TestGameAlgebraRep:
    def test_agrees_with_structural(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(4))
        valid = teleport_coloring(1, 2)
        for s in [valid, corrupt_swap(valid)]:
            assert (
                check_game_algebra_rep(inst, s).passed
                == verify_structural(inst, s).passed
            )

    def test_adjacency_residuals_identical_to_structural(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(4))
        s = teleport_coloring(1, 2)
        r1 = verify_structural(inst, s).check("adjacency_zeros").max_residual
        r2 = check_game_algebra_rep(inst, s).check("adjacency_relation").max_residual
        assert r1 == r2

    def test_classical_correspondence(self):
        # Over S_G the relations collapse to the classical game algebra's
        # e_{x,a} e_{y,b} = 0 relations: proper colorings pass, improper fail.
        g = graph_operator_system(ClassicalGraph.cycle(4))
        inst = GameInstance(source=g, target=K(2))
        assert check_game_algebra_rep(inst, diagonal_strategy([0, 1, 0, 1], 2)).passed
        assert not check_game_algebra_rep(inst, diagonal_strategy([0, 1, 1, 0], 2)).passed

    def test_zero_strategy_fails_sum(self):
        g = nonloop_graph(2)
        inst = GameInstance(source=g, target=K(2))
        s = BlockStrategy(
            n=2,
            c=2,
            ancilla=TracialAncilla.trivial(),
            projections=(np.zeros((2, 2), dtype=complex),) * 2,
        )
        report = check_game_algebra_rep(inst, s)
        assert not report.check("idempotents_sum_to_identity").passed


class TestComposeReps:
    def test_identity_hom(self):
        s = teleport_coloring(1, 2)
        f = [
            [np.array([[1.0 if a == v else 0.0]], dtype=complex) for v in range(4)]
            for a in range(4)
        ]
        composed = compose_reps(s, f, TracialAncilla.trivial())
        for p, q in zip(s.projections, composed.projections):
            np.testing.assert_allclose(p, q, atol=1e-14)

    def test_permutation_automorphism(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        s = teleport_coloring(1, 2)
        perm = [2, 3, 0, 1]
        f = [
            [np.array([[1.0 if perm[a] == v else 0.0]], dtype=complex) for v in range(4)]
            for a in range(4)
        ]
        composed = compose_reps(s, f, TracialAncilla.trivial())
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(4))
        assert verify_structural(inst, composed).passed

    def test_tensor_ancilla_dimension(self):
        rng = np.random.default_rng(61)
        s = random_block_strategy(rng, 2, 2, (2,))
        # Hom(K_2, K_2) representation with a 2-dimensional abelian ancilla.
        e = np.eye(2, dtype=complex)
        p = np.diag([1.0, 0.0]).astype(complex)
        f = [[p, e - p], [e - p, p]]
        anc = TracialAncilla((1, 1), (0.5, 0.5))
        composed = compose_reps(s, f, anc)
        assert composed.ancilla.dim == s.ancilla.dim * anc.dim
        assert composed.projections[0].shape == (2 * 2 * 2, 2 * 2 * 2)
        assert composed.measurement_report().is_pvm

    def test_bad_relations_rejected(self):
        s = teleport_coloring(1, 2)
        f = [
            [np.array([[0.5 if a == v else 0.0]], dtype=complex) for v in range(4)]
            for a in range(4)
        ]
        with pytest.raises(ValueError):
            compose_reps(s, f, TracialAncilla.trivial())


class TestTracelessVariant:
    def test_game_machinery_unchanged(self):
        # Traceless bimodule S = span{E_ij : i != j} over M_3: the diagonal
        # matrix-unit strategy still wins against K_3 on both checkers.
        alg = VnAlgebra(n=3, blocks=((1, 3),))
        basis = tuple(
            matrix_unit(3, i, j) for i in range(3) for j in range(3) if i != j
        )
        g = QuantumGraph(n=3, algebra=alg, s_basis=basis, traceless=True)
        from qgraph import edge_basis

        eb = edge_basis(g)
        assert {e.tag for e in eb.elements} == {"adjacency"}
        assert len(eb.elements) == 6
        inst = GameInstance(source=g, target=K(3))
        s = diagonal_unit_strategy(3)
        assert verify_structural(inst, s).passed
        assert verify_operational(inst, s).passed


class TestConjugatedAlgebraOperational:
    def test_edge_basis_and_probabilities_with_embedding_unitary(self):
        rng = np.random.default_rng(63)
        u = rand_unitary(rng, 2)
        calg = VnAlgebra(n=2, blocks=((1, 2),), unitary=u)
        cg = complete_quantum_graph(calg)
        tele = teleport_coloring(1, 2)
        u_big = np.kron(u, np.eye(2))
        cs = BlockStrategy(
            n=2,
            c=4,
            ancilla=tele.ancilla,
            projections=tuple(u_big @ p @ u_big.conj().T for p in tele.projections),
        )
        inst = GameInstance(source=cg, target=K(4))
        assert verify_structural(inst, cs).passed
        assert verify_operational(inst, cs).passed


class TestConjugationCovariance:
    def test_unitary_conjugation_preserves_verdict(self):
        rng = np.random.default_rng(62)
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        source = complete_quantum_graph(alg)
        u = rand_unitary(rng, 2)
        conj_alg = VnAlgebra(n=2, blocks=((1, 2),), unitary=u)
        conj_source = QuantumGraph(
            n=2,
            algebra=conj_alg,
            s_basis=tuple(u @ y @ u.conj().T for y in source.s_basis),
        )
        for s in [teleport_coloring(1, 2), corrupt_swap(teleport_coloring(1, 2))]:
            d = s.ancilla.dim
            u_big = np.kron(u, np.eye(d))
            conj_s = BlockStrategy(
                n=s.n,
                c=s.c,
                ancilla=s.ancilla,
                projections=tuple(u_big @ p @ u_big.conj().T for p in s.projections),
            )
            r1 = verify_structural(GameInstance(source=source, target=K(4)), s)
            r2 = verify_structural(GameInstance(source=conj_source, target=K(4)), conj_s)
            assert r1.passed == r2.passed
