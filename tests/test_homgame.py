import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LADDER,
    conjugate,
    ladder_cases,
    merge_first_two,
    rand_hermitian,
    rand_unitary,
    random_block_strategy,
    random_povm,
    rotate,
    tagged,
)
from qgraph import (
    BlockStrategy,
    ClassicalGraph,
    GameInstance,
    QuantumGraph,
    TracialAncilla,
    VnAlgebra,
    check_game_algebra_rep,
    chromatic_bounds,
    compose_reps,
    extract_channel,
    graph_operator_system,
    round_almost_pvm,
    shift_multiply_coloring,
    teleport_coloring,
    validate,
    verify_operational,
    verify_structural,
)
from qgraph.algebra import algebra_basis, commutant, project_onto_span
from qgraph.cli import MAX_TOL
from qgraph.colorings import complete_quantum_graph, diagonal_strategy
from qgraph.correlations import embed_classical
from qgraph.linalg import Tolerance, matrix_unit
from qgraph.serialize import graph_from_json, strategy_from_json

K = ClassicalGraph.complete
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
MODES = {
    "structural": verify_structural,
    "operational": verify_operational,
    "algebra": check_game_algebra_rep,
}


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


@pytest.mark.parametrize(
    "blocks", [((1, 3),), ((1, 2),), ((2, 2),), ((1, 2), (1, 3))], ids=["M_3", "M_2", "I_2xM_2", "M_2+M_3"]
)
class TestModesAgreeOnSmallViolations:
    """Seeded perturbations of size delta of a winning colouring, each aimed at
    one relation.  Rotating by exp(i delta H), with H in M (x) B(A), keeps an
    exact PVM in M (x) B(A) and breaks only the adjacency relation, by an
    amount linear in delta; every mode sees it on one scale."""

    # The check of each mode that characterises the relation a perturbation breaks.
    # The operational rules read no PVM relation, and only the structural mode
    # reads the ancilla blocks.
    RELATIONS = {
        "adjacency": {
            "structural": "adjacency_zeros",
            "operational": "adjacency_rule",
            "algebra": "adjacency_relation",
        },
        # For a PVM, P_a commutes with M' (x) 1 exactly when P_a (M' (x) 1) P_b = 0 for a != b.
        "membership": {
            "structural": "membership",
            "operational": "same_vertex_rule",
            "algebra": "commutant_relation",
        },
        "same_vertex": {
            "structural": "pvm",
            "operational": "same_vertex_rule",
            "algebra": "commutant_relation",
        },
        "ancilla_blocks": {"structural": "ancilla_blocks"},
        "idempotency": {"structural": "pvm", "algebra": "idempotents_sum_to_identity"},
    }

    @staticmethod
    def perturbed(blocks, relation, delta):
        alg = VnAlgebra(n=sum(m * k for m, k in blocks), blocks=blocks)
        s = shift_multiply_coloring(alg)
        rng, n, d = np.random.default_rng(61), s.n, s.ancilla.dim
        ps, ancilla = list(s.projections), s.ancilla

        def rotation(h):
            w, v = np.linalg.eigh((h + h.conj().T) / np.linalg.norm(h + h.conj().T))
            return (v * np.exp(1j * delta * w)) @ v.conj().T

        # sum_i b_i (x) R_i over a basis b_i of M, Hermitised, lies in M (x) B(A).
        h = sum(np.kron(b, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for b in algebra_basis(alg))
        if relation == "adjacency":
            u = rotation(h)
            ps = [u @ p @ u.conj().T for p in ps]
        elif relation == "membership":
            u = rotation(rand_hermitian(rng, n * d))
            ps = [u @ p @ u.conj().T for p in ps]
        elif relation == "same_vertex":
            # P_0 H P_0 lies in M (x) B(A): membership and the sum hold, P_0 P_1 != 0.
            x = ps[0] @ (h + h.conj().T) @ ps[0]
            x *= delta / np.linalg.norm(x)
            ps[0], ps[1] = ps[0] + x, ps[1] - x
        elif relation == "ancilla_blocks":
            # Two copies of the colouring on the blocks of C^2 (x) C^D, mixed by 1 (x) V.
            ps = [np.einsum("ixjy,st->isxjty", p.reshape(n, d, n, d), np.eye(2)).reshape(2 * n * d, -1)
                  for p in ps]
            ancilla, r = TracialAncilla((d, d), (0.5, 0.5)), rand_hermitian(rng, 2 * d)
            r[:d, :d] = r[d:, d:] = 0.0
            u = np.kron(np.eye(n), rotation(r))
            ps = [u @ p @ u.conj().T for p in ps]
        else:
            ps[0] = (1 + delta) * ps[0]  # breaks idempotency and the sum only
        strategy = BlockStrategy(n=n, c=s.c, ancilla=ancilla, projections=tuple(ps))
        return GameInstance(source=complete_quantum_graph(alg), target=K(s.c)), strategy

    def test_every_mode_fails_on_the_adjacency_relation_at_1e_6(self, blocks):
        inst, s = self.perturbed(blocks, "adjacency", 1e-6)
        reports = {mode: fn(inst, s) for mode, fn in MODES.items()}
        adjacency = self.RELATIONS["adjacency"]
        for mode, report in reports.items():
            assert not report.passed, mode
            assert [c.name for c in report.checks if not c.passed] == [adjacency[mode]], mode
            assert report.check(adjacency[mode]).witness is not None, mode
        assert reports["structural"].check("membership").passed

    def test_every_mode_passes_at_1e_12(self, blocks):
        inst, s = self.perturbed(blocks, "adjacency", 1e-12)
        assert verify_structural(inst, s).passed
        assert verify_operational(inst, s).passed
        assert check_game_algebra_rep(inst, s).passed

    @pytest.mark.parametrize("relation", list(RELATIONS))
    def test_each_relation_fails_at_100_tol_and_passes_at_tol_over_100(self, blocks, relation):
        tol = Tolerance()
        inst, s = self.perturbed(blocks, relation, 100 * tol.eps)
        names = self.RELATIONS[relation]
        if relation == "membership" and blocks == ((1, s.n),):
            # M = M_n: every operator lies in M (x) B(A), so nothing breaks membership.
            assert verify_structural(inst, s, tol).check("membership").passed
            names = {}
        for mode, name in names.items():
            check = MODES[mode](inst, s, tol).check(name)
            assert not check.passed, (mode, name)
            if relation == "same_vertex" and name != "pvm":
                assert {check.witness["a"], check.witness["b"]} == {0, 1}, mode
            elif name not in ("pvm", "ancilla_blocks", "idempotents_sum_to_identity"):
                assert check.witness is not None, (mode, name)
        if relation == "same_vertex":
            # Membership reads the sandwich over M' on pairs a != b, and 1 lies in M'.
            assert not verify_structural(inst, s, tol).check("membership").passed
        inst, s = self.perturbed(blocks, relation, tol.eps / 100)
        for mode, fn in MODES.items():
            assert fn(inst, s, tol).passed, mode
        assert verify_structural(inst, s, tol).check("membership").passed


class TestExtractChannel:
    def test_kraus_count_is_the_total_rank(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(4))
        s = teleport_coloring(1, 2)
        rep = extract_channel(inst, s)
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

    def test_kraus_vectors_rebuild_a_complex_pvm(self):
        # M_3's colouring carries cube roots of unity, here in a Haar frame too.
        rng = np.random.default_rng(27)
        alg = VnAlgebra(n=3, blocks=((1, 3),), unitary=rand_unitary(rng, 3))
        s = shift_multiply_coloring(alg)
        rep = extract_channel(GameInstance(source=complete_quantum_graph(alg), target=K(s.c)), s)
        assert rep.num_kraus == s.n * s.ancilla.dim
        for a, p in enumerate(s.projections):
            rebuilt = sum(f.conj().T @ f for f in rep.kraus if np.abs(f[a]).any())
            assert np.abs(rebuilt - p).max() <= 1e-12

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
        assert composed.measurement_report().passed

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
        # matrix-unit strategy still wins against K_3 on both checkers.  The
        # same-vertex inputs come from M' = C I for every graph: the unit I/sqrt(3).
        alg = VnAlgebra(n=3, blocks=((1, 3),))
        basis = tuple(
            matrix_unit(3, i, j) for i in range(3) for j in range(3) if i != j
        )
        g = QuantumGraph(n=3, algebra=alg, s_basis=basis, traceless=True)
        from qgraph import edge_basis

        eb = edge_basis(g)
        assert eb.tags.count("same_vertex") == 1
        assert np.abs(tagged(eb, "same_vertex")[0] - np.eye(3) / np.sqrt(3)).max() <= 1e-12
        assert len(tagged(eb, "adjacency")) == 6
        inst = GameInstance(source=g, target=K(3))
        s = diagonal_unit_strategy(3)
        assert verify_structural(inst, s).passed
        assert verify_operational(inst, s).passed


class TestGraphsInsideTheCommutant:
    """When S lies in M', S n (M')perp = 0 in every frame, and no adjacency input
    may be made up from the rounding noise of S minus its projection onto M'."""

    def test_complete_graph_over_rotated_scalars(self):
        alg = VnAlgebra(n=2, blocks=((2, 1),), unitary=rand_unitary(np.random.default_rng(11), 2))
        g = complete_quantum_graph(alg)
        assert len(g._adjacency_basis) == 0
        one = BlockStrategy(n=2, c=1, ancilla=TracialAncilla.trivial(), projections=(np.eye(2),))
        inst = GameInstance(source=g, target=K(1))
        for mode, verify in MODES.items():
            assert verify(inst, one).passed, mode
        assert extract_channel(inst, one).subset_residual <= 1e-12

    def test_edgeless_graph_in_a_random_frame(self):
        v = rand_unitary(np.random.default_rng(12), 3)
        g0 = graph_operator_system(ClassicalGraph.empty(3))
        alg = VnAlgebra(n=3, blocks=g0.algebra.blocks, unitary=v)
        g = QuantumGraph(n=3, algebra=alg, s_basis=conjugate(v, g0.s_basis))
        assert len(g._adjacency_basis) == 0
        d = diagonal_strategy((0, 1, 2), 3)
        s = BlockStrategy(n=3, c=3, ancilla=d.ancilla, projections=conjugate(v, d.projections))
        inst = GameInstance(source=g, target=K(3))
        for mode, verify in MODES.items():
            assert verify(inst, s).passed, mode


@pytest.mark.parametrize("eps", [1e-7, 1e-8])
def test_noise_in_the_spanning_set_adds_no_adjacency_input(eps):
    # S_{C_5} in a Haar frame, with seeded noise of norm eps on each spanning element: the
    # graph passes validate at 1e-6, so S n (M')perp keeps its 10 off-diagonal directions
    # and the proper 3-colouring wins every mode.  A rank floor relative to the spanning
    # family once turned the 5 diagonal residuals into adjacency inputs at eps = 1e-7.
    rng = np.random.default_rng(5)
    v = rand_unitary(rng, 5)
    g0 = graph_operator_system(ClassicalGraph.cycle(5))
    noise = rng.normal(size=(15, 5, 5)) + 1j * rng.normal(size=(15, 5, 5))
    noise *= eps / np.linalg.norm(noise, axis=(1, 2))[:, None, None]
    alg = VnAlgebra(n=5, blocks=g0.algebra.blocks, unitary=v)
    g = QuantumGraph(n=5, algebra=alg, s_basis=tuple(np.array(conjugate(v, g0.s_basis)) + noise))
    tol = Tolerance(1e-6)
    assert validate(g, tol).passed
    assert len(g._adjacency_basis) == 10
    d = diagonal_strategy((0, 1, 0, 1, 2), 3)
    s = BlockStrategy(n=5, c=3, ancilla=d.ancilla, projections=conjugate(v, d.projections))
    inst = GameInstance(source=g, target=K(3))
    for mode, verify in MODES.items():
        assert verify(inst, s, tol).passed, mode


@pytest.mark.parametrize("eps", [1e-7, 1e-8])
def test_noise_in_a_traceless_spanning_set_keeps_every_adjacency_input(eps):
    # A traceless bimodule is orthogonal to M', so its principal cosines with M' are noise.
    rng = np.random.default_rng(6)
    v = rand_unitary(rng, 3)
    offdiag = [v @ matrix_unit(3, i, j) @ v.conj().T for i in range(3) for j in range(3) if i != j]
    noise = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    noise *= eps / np.linalg.norm(noise, axis=(1, 2))[:, None, None]
    alg = VnAlgebra(n=3, blocks=((1, 3),), unitary=v)
    g = QuantumGraph(n=3, algebra=alg, s_basis=tuple(np.array(offdiag) + noise), traceless=True)
    assert validate(g, Tolerance(1e-6)).passed
    assert len(g._adjacency_basis) == 6


def reference_nonadjacent(target):
    """The c^2 loop over ClassicalGraph.adjacent that the memoized mask replaced."""
    c = target.vertices
    return np.array([[not target.adjacent(a, b) for b in range(c)] for a in range(c)], dtype=bool).reshape(c, c)


@pytest.mark.parametrize(
    "target",
    [K(1), K(4), ClassicalGraph.cycle(5), ClassicalGraph.cycle(6), ClassicalGraph.empty(3), ClassicalGraph.empty(0)],
    ids=["K_1", "K_4", "C_5", "C_6", "edgeless", "empty"],
)
def test_nonadjacency_mask_matches_the_adjacent_loop(target):
    mask = target._nonadjacent
    assert mask.shape == (target.vertices,) * 2 and mask.dtype == bool
    np.testing.assert_array_equal(mask, reference_nonadjacent(target))
    assert target._nonadjacent is mask and not mask.flags.writeable


def test_each_job_builds_its_mask_and_measurement_report_once(monkeypatch):
    from qgraph import strategies

    calls = []
    check = strategies.check_measurement
    monkeypatch.setattr(strategies, "check_measurement", lambda ops, *tol: calls.append(ops) or check(ops, *tol))

    def no_adjacent(self, x, y):
        raise AssertionError("the game checks read the memoized mask")

    monkeypatch.setattr(ClassicalGraph, "adjacent", no_adjacent)
    alg = VnAlgebra(n=2, blocks=((1, 2),))
    s = shift_multiply_coloring(alg)
    inst = GameInstance(source=complete_quantum_graph(alg), target=K(s.c))
    # One measurement report per strategy, whatever the tolerance: it only decides.
    for tol in (Tolerance(), Tolerance(1e-6)):
        for verify in MODES.values():
            assert verify(inst, s, tol).passed
        extract_channel(inst, s, tol)
        assert s.measurement_report(tol).passed
    assert len(calls) == 1
    other = BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=s.projections)
    other.measurement_report(Tolerance(1e-3))
    assert len(calls) == 2


def test_each_mode_reads_one_forbidden_outcome_table(monkeypatch):
    from qgraph import homgame

    calls = []
    for name in ("_forbidden_outcomes", "require_valid"):
        original = getattr(homgame, name)
        monkeypatch.setattr(homgame, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    alg = VnAlgebra(n=3, blocks=((1, 1), (1, 2)))
    s = shift_multiply_coloring(alg)
    inst = GameInstance(source=complete_quantum_graph(alg), target=K(s.c))
    # Every mode, the channel included, passes the one gate once: it validates the graph.
    for mode, verify in {**MODES, "channel": extract_channel}.items():
        calls.clear()
        verify(inst, s)
        assert calls.count("_forbidden_outcomes") == 1, mode
        assert calls.count("require_valid") == 1, mode


@pytest.mark.parametrize("decide", [*MODES, "channel", "bounds"])
@pytest.mark.parametrize("s_basis", [(), (matrix_unit(3, 0, 0),)], ids=["empty", "E_00"])
def test_every_game_decision_refuses_a_graph_that_fails_validate(decide, s_basis):
    # Over D_3 neither spans an operator system, so the game is not defined on it.
    g = QuantumGraph(n=3, algebra=VnAlgebra(n=3, blocks=((1, 1),) * 3), s_basis=s_basis)
    assert validate(g).failures().keys() == {"operator_system"}
    inst = GameInstance(source=g, target=K(3))
    s = diagonal_strategy([0, 1, 2], 3)
    with pytest.raises(ValueError, match="quantum graph fails validation"):
        if decide == "bounds":
            chromatic_bounds(g)
        else:
            {**MODES, "channel": extract_channel}[decide](inst, s)


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


# --- residuals over spaces, not bases ---------------------------------------------

CASES = list(ladder_cases())


def on_another_frame(rng, g):
    """g on the normal-form frame U (+)_r (I_{n_r} (x) V_r) with Haar V_r: the same M, M' and S."""
    alg, frame = g.algebra, np.zeros((g.n, g.n), dtype=complex)
    for off, (m, k) in zip(alg.block_offsets(), alg.blocks):
        frame[off : off + m * k, off : off + m * k] = np.kron(np.eye(m), rand_unitary(rng, k))
    u = frame if alg.unitary is None else alg.unitary @ frame
    return QuantumGraph(n=g.n, algebra=VnAlgebra(n=g.n, blocks=alg.blocks, unitary=u), s_basis=g.s_basis)


def on_another_spanning_set(rng, g):
    """g spanned by a random invertible mix of its spanning set: the same S."""
    m = len(g.s_basis)
    mix = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return QuantumGraph(n=g.n, algebra=g.algebra, s_basis=tuple(np.einsum("kl,lij->kij", mix, g.s_basis)))


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_residuals_do_not_depend_on_the_frame_or_the_spanning_set(label, g, target, s, wins):
    # The relations quantify over the spaces M', S n (M')perp; the bases the
    # graph derives from its frame and spanning set must not show.
    rng = np.random.default_rng(64)
    before = [fn(GameInstance(source=g, target=target), s) for fn in MODES.values()]
    for rebuilt in (on_another_frame(rng, g), on_another_spanning_set(rng, g)):
        after = [fn(GameInstance(source=rebuilt, target=target), s) for fn in MODES.values()]
        for old, new in zip(before, after):
            assert [(c.name, c.passed) for c in new.checks] == [(c.name, c.passed) for c in old.checks]
            for c, d in zip(old.checks, new.checks):
                assert abs(c.max_residual - d.max_residual) <= 1e-12, (label, c.name)
        assert all(r.passed == wins for r in after)


# The rotated colourings are drawn only where M != M_n.
BROKEN = st.one_of(
    st.tuples(st.just("merged"), st.sampled_from(sorted(LADDER))),
    st.tuples(st.just("rotated"), st.sampled_from(sorted(k for k, b in LADDER.items() if b[0][0] > 1 or len(b) > 1))),
)


@settings(max_examples=20, deadline=None)
@given(case=BROKEN, seed=st.integers(0, 2**32 - 1))
def test_no_mode_passes_a_broken_ladder_colouring_at_max_tol(case, seed):
    # A merged colouring gives two colours of one adjacent pair one outcome; a
    # Haar rotation of C^n moves P_a out of M (x) B(A).
    kind, label = case
    blocks = LADDER[label]
    n = sum(m * k for m, k in blocks)
    rng = np.random.default_rng(seed)
    alg = VnAlgebra(n=n, blocks=blocks, unitary=rand_unitary(rng, n))
    s = shift_multiply_coloring(alg)
    s, c = (merge_first_two(s), s.c - 1) if kind == "merged" else (rotate(rng, s), s.c)
    inst, tol = GameInstance(source=complete_quantum_graph(alg), target=K(c)), Tolerance(MAX_TOL)
    for mode, fn in MODES.items():
        assert not fn(inst, s, tol).passed, mode
    with pytest.raises(ValueError, match="subset conditions"):
        extract_channel(inst, s, tol)


# --- same-vertex inputs from M' for every graph, and the paper's equivalence ------------


def bell_instance():
    """M = C (+) C on C^2 with the traceless S = span{E_01, E_10}, and the four Bell
    projections on C^2 (x) C^2 against K_4: no P_a lies in M (x) M_2."""
    alg = VnAlgebra(n=2, blocks=((1, 1), (1, 1)))
    g = QuantumGraph(n=2, algebra=alg, s_basis=(matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)), traceless=True)
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
    projections = tuple(np.outer(v, v) for v in bell)
    s = BlockStrategy(n=2, c=4, ancilla=TracialAncilla.full_matrix_block(2), projections=projections)
    return GameInstance(source=g, target=K(4)), s


def test_traceless_bell_strategy_fails_every_mode():
    # A traceless graph still has the same-vertex inputs M' = diagonal matrices.
    inst, s = bell_instance()
    for mode, fn in MODES.items():
        assert not fn(inst, s).passed, mode
    assert abs(verify_operational(inst, s).check("same_vertex_rule").max_residual - 0.5) <= 1e-12
    with pytest.raises(ValueError, match="subset conditions"):
        extract_channel(inst, s)


def traceless_part(alg):
    """(M')perp, spanned by E_ij minus its projection onto M': a self-adjoint traceless bimodule."""
    units = np.reshape([matrix_unit(alg.n, i, j) for i in range(alg.n) for j in range(alg.n)], (-1, alg.n, alg.n))
    return QuantumGraph(n=alg.n, algebra=alg, s_basis=tuple(units - project_onto_span(units, commutant(alg))), traceless=True)


def s_g_graph(rng, n):
    """S_G of a random graph on n vertices, in a random frame."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    g0, v = graph_operator_system(ClassicalGraph(n, tuple(edges))), rand_unitary(rng, n)
    alg = VnAlgebra(n=n, blocks=g0.algebra.blocks, unitary=v)
    return QuantumGraph(n=n, algebra=alg, s_basis=tuple(v @ y @ v.conj().T for y in g0.s_basis))


BLOCKS = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=2).filter(
    lambda b: sum(m * k for m, k in b) <= 4
)


def entangled_pvm(rng, n):
    """Rank-one projections onto a random basis of maximally entangled vectors of C^n (x) C^n:
    (U (x) V) applied to the teleport basis.  P_a (X (x) 1) P_a = (tr X / n) P_a, so on a traceless
    graph only the same-vertex inputs can see that P_a leaves M (x) M_n."""
    s = teleport_coloring(1, n)
    w = np.kron(rand_unitary(rng, n), rand_unitary(rng, n))
    return BlockStrategy(n=n, c=s.c, ancilla=s.ancilla, projections=tuple(w @ p @ w.conj().T for p in s.projections))


@settings(max_examples=25, deadline=None)
@given(
    blocks=BLOCKS,
    graph=st.sampled_from(["complete", "traceless", "S_G"]),
    pvm=st.sampled_from(["shift-multiply", "random", "entangled"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_modes_and_channel_agree_on_exact_pvms(blocks, graph, pvm, seed):
    # The paper's equivalence: structural, operational and algebra decide one relation,
    # and the channel exists exactly when they pass.
    rng = np.random.default_rng(seed)
    n = sum(m * k for m, k in blocks)
    if graph == "S_G":
        g = s_g_graph(rng, n)
    else:
        alg = VnAlgebra(n=n, blocks=tuple(blocks), unitary=rand_unitary(rng, n))
        g = complete_quantum_graph(alg) if graph == "complete" else traceless_part(alg)
    if pvm == "shift-multiply":
        s = shift_multiply_coloring(g.algebra)
    elif pvm == "random":
        s = random_block_strategy(rng, n, int(rng.integers(2, 5)), tuple(rng.integers(1, 3, size=rng.integers(1, 3))))
    else:
        s = entangled_pvm(rng, n)
    inst = GameInstance(source=g, target=K(s.c))
    verdicts = {mode: fn(inst, s).passed for mode, fn in MODES.items()}
    assert len(set(verdicts.values())) == 1, verdicts
    if verdicts["structural"]:
        extract_channel(inst, s)
    else:
        with pytest.raises(ValueError, match="subset conditions"):
            extract_channel(inst, s)


# --- one spectral rounding per strategy: the table stays nD wide --------------------------


def with_hermitian_noise(rng, s, eps):
    """P_a + eps H_a / N for seeded Hermitian H_a: every P_a becomes full rank."""
    size = s.n * s.ancilla.dim
    noisy = tuple(p + eps * rand_hermitian(rng, size) / size for p in s.projections)
    return BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=noisy)


def test_noisy_winning_colouring_keeps_an_nd_wide_table_and_passes():
    # A batched SVD kept every singular value above 1e-14 of this stack: a table 2920 wide.
    rng = np.random.default_rng(24)
    alg = VnAlgebra(n=9, blocks=((1, 2), (1, 3), (1, 4)), unitary=rand_unitary(rng, 9))
    s = with_hermitian_noise(rng, shift_multiply_coloring(alg), 1e-12)
    size = s.n * s.ancilla.dim
    inst = GameInstance(source=complete_quantum_graph(alg), target=K(s.c))
    assert verify_structural(inst, s).passed
    assert s.factors.v.shape == (size, size) and s.factors.labels.shape == (size,)


def test_full_rank_povm_keeps_an_nd_wide_table():
    s = embed_classical([random_povm(np.random.default_rng(25), 2, 3) for _ in range(3)])
    size = s.n * s.ancilla.dim
    assert s.factors.v.shape == (size, size)
    inst = GameInstance(source=complete_quantum_graph(VnAlgebra(n=3, blocks=((1, 3),))), target=K(s.c))
    assert not verify_structural(inst, s).passed


@pytest.mark.parametrize("pvm", ["shift-multiply", "random", "entangled"])
def test_rounding_of_an_exact_pvm_is_each_outcomes_own_eigenprojection(pvm):
    # Checked against the eigenvectors of each P_a alone, not against the weighted sum.
    rng = np.random.default_rng(26)
    if pvm == "shift-multiply":
        s = shift_multiply_coloring(VnAlgebra(n=3, blocks=((1, 1), (1, 2)), unitary=rand_unitary(rng, 3)))
    elif pvm == "random":
        s = random_block_strategy(rng, 3, 3, (1, 2))
    else:
        s = entangled_pvm(rng, 3)
    rounded, distance = round_almost_pvm(s.projections)
    f = s.factors
    for p, got, printed in zip(s.projections, f.projections, rounded, strict=True):
        w, v = np.linalg.eigh(p)
        want = v[:, w > 0.5] @ v[:, w > 0.5].conj().T
        assert np.abs(got - want).max() <= 1e-12 and np.abs(printed - want).max() <= 1e-12
    assert f.defects.max() <= 1e-12 and distance <= 1e-12


def example_game():
    strategy = strategy_from_json(json.loads((EXAMPLES / "strategy.json").read_text()))
    graph = graph_from_json(json.loads((EXAMPLES / "quantum_graph.json").read_text()))
    return strategy, GameInstance(source=graph, target=K(strategy.c))


@pytest.mark.parametrize("seed", range(5))
def test_each_rounded_outcome_stays_near_its_own_nearest_projection(seed):
    # The eigenvectors of sum_a (a+1) herm(P_a) alone mix every outcome's noise into each Pi_a:
    # on these draws d_a read 2.3 to 3.4 times the distance from P_a to its nearest projection.
    s, _ = example_game()
    noisy = with_hermitian_noise(np.random.default_rng(seed), s, 1e-10)
    nearest = []
    for p in noisy.projections:
        w, v = np.linalg.eigh(p)
        nearest.append(np.linalg.norm(p - v[:, w > 0.5] @ v[:, w > 0.5].conj().T))
    assert (noisy.factors.defects <= 1.75 * np.array(nearest)).all()


@pytest.mark.parametrize("seed", range(5))
def test_example_strategy_with_2e_10_noise_still_wins_every_mode(seed):
    # Its pvm check reads about 2.6e-10 here; the fail-closed relations stay within 1e-9.
    s, inst = example_game()
    noisy = with_hermitian_noise(np.random.default_rng(seed), s, 2e-10)
    for mode, verify in MODES.items():
        assert verify(inst, noisy).passed, mode