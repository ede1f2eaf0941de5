import numpy as np
import pytest

from helpers import rand_hermitian, rand_unitary
from qgraph import (
    BlockStrategy,
    ClassicalGraph,
    GameInstance,
    Tolerance,
    TracialAncilla,
    VnAlgebra,
    abelian_loc_coloring,
    chromatic_bounds,
    chromatic_number,
    graph_operator_system,
    rigidity_check,
    shift_multiply_coloring,
    teleport_coloring,
    verify_structural,
)
from qgraph.colorings import complete_quantum_graph
from qgraph.linalg import matrix_unit

K = ClassicalGraph.complete


class TestTeleportColoring:
    def test_bell_closed_form(self):
        # Oracle: projections onto the entangled vectors
        # (1/sqrt k) sum_p omega^{a p} e_{b+p} (x) e_p, built here directly.
        for k in (2, 3):
            s = teleport_coloring(1, k)
            idx = 0
            for a in range(k):
                for b in range(k):
                    v = np.zeros(k * k, dtype=complex)
                    for p in range(k):
                        v[((b + p) % k) * k + p] = np.exp(2j * np.pi * a * p / k) / np.sqrt(k)
                    np.testing.assert_allclose(
                        s.projections[idx], np.outer(v, v.conj()), atol=1e-12
                    )
                    idx += 1

    def test_color_count(self):
        for d, k in [(1, 2), (2, 2), (1, 3)]:
            s = teleport_coloring(d, k)
            assert s.c == k * k
            assert s.n == d * k
            assert s.ancilla.dim == d * k

    def test_membership_in_tensor_square(self):
        # Each projection commutes with M_d (x) I_k (x) I_n.
        d, k = 2, 2
        s = teleport_coloring(d, k)
        n = d * k
        for p in range(d):
            for q in range(d):
                x = np.kron(np.kron(matrix_unit(d, p, q), np.eye(k)), np.eye(n))
                for proj in s.projections:
                    assert np.linalg.norm(proj @ x - x @ proj) <= 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            teleport_coloring(0, 2)


class TestShiftMultiplyColoring:
    def test_mixed_blocks(self):
        alg = VnAlgebra(n=3, blocks=((1, 1), (1, 2)))
        s = shift_multiply_coloring(alg)
        assert s.c == 5
        assert s.ancilla.dim == 2
        assert s.projections[0].shape == (6, 6)
        np.testing.assert_allclose(sum(s.projections), np.eye(6), atol=1e-14)
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(5))
        assert verify_structural(inst, s).passed

    def test_abelian_reduces_to_central_projections(self):
        alg = VnAlgebra(n=3, blocks=((2, 1), (1, 1)))
        s = shift_multiply_coloring(alg)
        assert s.ancilla.dim == 1
        expected = alg.central_projections()
        for p, e in zip(s.projections, expected):
            np.testing.assert_allclose(p, e, atol=1e-14)

    def test_single_block_color_count_matches_teleport(self):
        alg = VnAlgebra(n=4, blocks=((2, 2),))
        s = shift_multiply_coloring(alg)
        t = teleport_coloring(2, 2)
        assert s.c == t.c == 4

    def test_exact_completeness_for_gaussian_units(self):
        # For k in {1, 2, 4} the roots of unity are exact, so sum P = I
        # holds bit-for-bit.
        for blocks, n in [(((1, 2), (1, 1)), 3), (((1, 4),), 4), (((1, 2), (1, 2)), 4)]:
            alg = VnAlgebra(n=n, blocks=blocks)
            s = shift_multiply_coloring(alg)
            total = sum(s.projections)
            assert np.abs(total - np.eye(n * s.ancilla.dim)).max() == 0.0

    def test_conjugated_algebra(self):
        rng = np.random.default_rng(70)
        from helpers import rand_hermitian, rand_unitary

        u = rand_unitary(rng, 3)
        alg = VnAlgebra(n=3, blocks=((1, 1), (1, 2)), unitary=u)
        s = shift_multiply_coloring(alg)
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(5))
        assert verify_structural(inst, s).passed


class TestAbelianLocColoring:
    def test_diagonal(self):
        alg = VnAlgebra(n=3, blocks=((1, 1),) * 3)
        s = abelian_loc_coloring(alg)
        for a in range(3):
            np.testing.assert_allclose(s.projections[a], matrix_unit(3, a, a))
        assert s.is_loc()

    def test_exactly_commuting(self):
        alg = VnAlgebra(n=4, blocks=((2, 1), (2, 1)))
        s = abelian_loc_coloring(alg)
        for x in s.projections:
            for y in s.projections:
                assert np.abs(x @ y - y @ x).max() == 0.0

    def test_nonabelian_rejected(self):
        with pytest.raises(ValueError):
            abelian_loc_coloring(VnAlgebra(n=2, blocks=((1, 2),)))

    def test_coincides_with_shift_multiply(self):
        alg = VnAlgebra(n=3, blocks=((1, 1),) * 3)
        s1 = abelian_loc_coloring(alg)
        s2 = shift_multiply_coloring(alg)
        for p, q in zip(s1.projections, s2.projections):
            np.testing.assert_allclose(p, q, atol=1e-14)


class TestRigidity:
    def test_teleport_m2(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        rep = rigidity_check(teleport_coloring(1, 2), alg)
        assert rep.minimal
        for psi_p in rep.rigidity:
            np.testing.assert_allclose(psi_p, np.eye(2) / 4, atol=1e-10)

    def test_shift_multiply_all_r_identity(self):
        alg = VnAlgebra(n=3, blocks=((1, 1), (1, 2)))
        rep = rigidity_check(shift_multiply_coloring(alg), alg)
        assert rep.minimal
        d = rep.strategy.ancilla.dim
        for per_block in rep.r_values:
            np.testing.assert_allclose(sum(per_block), np.eye(d), atol=1e-10)
        assert rep.trace_covariance_residual <= 1e-10

    def test_single_block_sum_rule(self):
        alg = VnAlgebra(n=4, blocks=((2, 2),))
        rep = rigidity_check(teleport_coloring(2, 2), alg)
        d = rep.strategy.ancilla.dim
        total = sum(per_block[0] for per_block in rep.r_values)
        np.testing.assert_allclose(total, 4 * np.eye(d), atol=1e-10)
        assert rep.block_sum_residual <= 1e-10

    def test_invalid_coloring_rejected(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        bad = BlockStrategy(
            n=2,
            c=2,
            ancilla=TracialAncilla.trivial(),
            projections=(matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)),
        )
        with pytest.raises(ValueError):
            rigidity_check(bad, alg)

    def test_model_flags(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        assert rigidity_check(teleport_coloring(1, 2), alg).model == "q"
        abelian = VnAlgebra(n=2, blocks=((1, 1), (1, 1)))
        assert rigidity_check(abelian_loc_coloring(abelian), abelian).model == "loc"

    def test_loc_over_a_nontrivial_ancilla(self):
        # C^3 (conjugated) coloured by its central projections, each tensored with
        # 1_2 over the ancilla M_2: D = 2, so is_loc runs its kernel, not the D = 1 exit.
        rng = np.random.default_rng(15)
        alg = VnAlgebra(n=3, blocks=((1, 1),) * 3, unitary=rand_unitary(rng, 3))
        scalar = abelian_loc_coloring(alg)
        s = BlockStrategy(
            n=3,
            c=scalar.c,
            ancilla=TracialAncilla.full_matrix_block(2),
            projections=tuple(np.kron(p, np.eye(2)) for p in scalar.projections),
        )
        rep = rigidity_check(s, alg)
        assert rep.model == "loc"
        assert rep.passed()

    def test_passed_decides_the_verification_at_its_own_tolerance(self):
        # Rotating P_1 by 1 (x) exp(i delta H) on the ancilla, delta = 1e-7, puts the pvm
        # check near 7.6e-8: it passes at 1e-6 and fails at 1e-9, so a report built at
        # 1e-6 must not pass at 1e-9, where rigidity_check refuses the strategy.
        alg = VnAlgebra(n=3, blocks=((1, 1), (1, 2)))
        s = shift_multiply_coloring(alg)
        w, v = np.linalg.eigh(rand_hermitian(np.random.default_rng(0), s.ancilla.dim))
        rotation = np.kron(np.eye(s.n), (v * np.exp(1e-7j * w)) @ v.conj().T)
        projections = np.array(s.projections)
        projections[1] = rotation @ projections[1] @ rotation.conj().T
        rotated = BlockStrategy(s.n, s.c, s.ancilla, projections)
        loose, tight = Tolerance(1e-6), Tolerance(1e-9)
        rep = rigidity_check(rotated, alg, loose)
        assert 1e-9 < rep.verification.check("pvm").max_residual < 1e-6
        assert rep.passed(loose) and not rep.passed(tight)
        with pytest.raises(ValueError, match="not a valid coloring"):
            rigidity_check(rotated, alg, tight)


class TestChromaticBounds:
    def test_single_block_both_constructions(self):
        g = complete_quantum_graph(VnAlgebra(n=4, blocks=((2, 2),)))
        rep = chromatic_bounds(g)
        assert rep.passed
        methods = {b.method: b for b in rep.bounds}
        assert methods["shift_multiply"].colors == 4
        assert methods["teleport"].colors == 4

    def test_classical_c5_exact(self):
        g = graph_operator_system(ClassicalGraph.cycle(5))
        rep = chromatic_bounds(g)
        assert rep.passed
        oracle = {b.method: b for b in rep.bounds}["classical_oracle"]
        assert oracle.exact and oracle.colors == 3
        assert oracle.colors == chromatic_number(ClassicalGraph.cycle(5))
        assert min(b.colors for b in rep.bounds if b.model == "loc") == 3

    def test_monotonicity_witness_transfers(self):
        # The complete-graph witness for (M_n, M, M_n) verifies for any
        # smaller S over the same algebra.
        sub = graph_operator_system(ClassicalGraph.cycle(4))  # S inside M_4 over D_4
        rep = chromatic_bounds(sub)
        shift = {b.method: b for b in rep.bounds}["shift_multiply"]
        assert shift.colors == 4  # dim of the diagonal algebra
        assert shift.verification.passed

    def test_abelian_loc_bound(self):
        g = complete_quantum_graph(VnAlgebra(n=3, blocks=((1, 1),) * 3))
        rep = chromatic_bounds(g)
        assert min(b.colors for b in rep.bounds if b.model == "loc") == 3

    def test_nonexistence_notes_cited_not_computed(self):
        g = complete_quantum_graph(VnAlgebra(n=2, blocks=((1, 2),)))
        rep = chromatic_bounds(g)
        assert not [b for b in rep.bounds if b.model == "loc"]
        assert any("no loc coloring" in note for note in rep.notes)
        assert any("lower" in note for note in rep.notes)
