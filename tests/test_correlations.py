import numpy as np
import pytest

from helpers import random_block_strategy, random_pvm
from qgraph import (
    BlockStrategy,
    TensorStrategy,
    TracialAncilla,
    VnAlgebra,
    bob_from_alice,
    check_bisynchronous,
    check_synchronous,
    compress_to_classical,
    correlation_from_tensor,
    correlation_from_trace,
    edge_basis,
    embed_classical,
    outcome_probability,
    synchronous_identities,
    teleport_coloring,
)
from qgraph.graphs import ADJACENCY, SAME_VERTEX, QuantumGraph
from qgraph.linalg import matrix_unit


def nonloop_graph(n):
    """span{I, E_ij : i != j} over M_n: the quantum graph with chi = n."""
    alg = VnAlgebra(n=n, blocks=((1, n),))
    basis = [np.eye(n, dtype=complex)]
    basis += [matrix_unit(n, i, j) for i in range(n) for j in range(n) if i != j]
    return QuantumGraph(n=n, algebra=alg, s_basis=tuple(basis))


def diagonal_unit_strategy(n):
    """{E_aa} as an n-coloring strategy with trivial ancilla."""
    return BlockStrategy(
        n=n,
        c=n,
        ancilla=TracialAncilla.trivial(),
        projections=tuple(matrix_unit(n, a, a) for a in range(n)),
    )


def constant_answer_strategy(n, c):
    projections = [np.zeros((n, n), dtype=complex) for _ in range(c)]
    projections[0] = np.eye(n, dtype=complex)
    return BlockStrategy(
        n=n, c=c, ancilla=TracialAncilla.trivial(), projections=tuple(projections)
    )


class TestCorrelationFromTrace:
    def test_n1_orthogonality(self):
        rng = np.random.default_rng(40)
        pvm = random_pvm(rng, 3, 3)
        s = BlockStrategy(
            n=1, c=3, ancilla=TracialAncilla.full_matrix_block(3), projections=tuple(pvm)
        )
        x = correlation_from_trace(s)
        for a in range(3):
            for b in range(3):
                expected = 0.0 if a != b else np.trace(pvm[a]).real / 3
                assert x.tensor[a, b, 0, 0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            s = random_block_strategy(rng, 3, 2, (2, 1))
            assert correlation_from_trace(s).normalization_residual() <= 1e-9

    def test_teleport_diagonal_positivity(self):
        x = correlation_from_trace(teleport_coloring(1, 2))
        diag = np.einsum("abiijj->abij", x.tensor)
        assert diag.real.min() >= -1e-12
        assert np.abs(diag.imag).max() <= 1e-12


class TestCorrelationFromTensor:
    def test_agrees_with_trace_path(self):
        rng = np.random.default_rng(42)
        for dims in [(2,), (2, 1), (1, 1, 2)]:
            s = random_block_strategy(rng, 2, 3, dims)
            xt = correlation_from_trace(s)
            xx = correlation_from_tensor(bob_from_alice(s))
            assert np.abs(xt.tensor - xx.tensor).max() <= 1e-10

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(43)
        n, da, db = 2, 2, 3
        alice = random_pvm(rng, n * da, 2)
        bob_small = random_pvm(rng, n * db, 2)
        # Bob's operators on H_B (x) C^n.
        from qgraph.linalg import canonical_shuffle

        bob = [canonical_shuffle(q, outer=n, inner=db) for q in bob_small]
        xi_a = rng.normal(size=da) + 1j * rng.normal(size=da)
        xi_a /= np.linalg.norm(xi_a)
        xi_b = rng.normal(size=db) + 1j * rng.normal(size=db)
        xi_b /= np.linalg.norm(xi_b)
        ts = TensorStrategy(dims=(da, db), alice=tuple(alice), bob=tuple(bob), chi=np.kron(xi_a, xi_b))
        x = correlation_from_tensor(ts)
        for a in range(2):
            for b in range(2):
                for idx in [(0, 0, 0, 0), (0, 1, 1, 0)]:
                    i, j, k, ell = idx
                    pa = xi_a.conj() @ ts.alice[a][i * da : (i + 1) * da, j * da : (j + 1) * da] @ xi_a
                    qb = xi_b.conj() @ ts.bob_entry(b, k, ell) @ xi_b
                    assert x.tensor[a, b, i, j, k, ell] == pytest.approx(pa * qb, abs=1e-12)

    def test_family_length_mismatch_rejected(self):
        alice = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="Alice has 2 operators, Bob has 1"):
            TensorStrategy(dims=(1, 1), alice=alice, bob=alice[:1], chi=np.array([1.0]))

    def test_empty_families_rejected(self):
        with pytest.raises(ValueError, match="at least one operator"):
            TensorStrategy(dims=(1, 1), alice=(), bob=(), chi=[1.0])

    @pytest.mark.parametrize("dims", [(0, 1), (1, 0), (-1, 1)])
    def test_non_positive_dims_rejected(self, dims):
        alice = (np.eye(2, dtype=complex),)
        with pytest.raises(ValueError, match="dims of H_A and H_B must be positive"):
            TensorStrategy(dims=dims, alice=alice, bob=alice, chi=[1.0])

    def test_scalar_spaces(self):
        # H_A = H_B = C: entries are products of scalars.
        alice = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        ts = TensorStrategy(dims=(1, 1), alice=alice, bob=alice, chi=np.array([1.0]))
        x = correlation_from_tensor(ts)
        assert x.tensor[0, 0, 0, 0, 0, 0] == pytest.approx(1.0)
        assert x.tensor[0, 1, 0, 0, 0, 0] == pytest.approx(0.0, abs=1e-14)
        assert x.tensor[0, 1, 0, 0, 1, 1] == pytest.approx(1.0)


class TestOutcomeProbability:
    def test_sums_to_one(self):
        rng = np.random.default_rng(44)
        s = random_block_strategy(rng, 3, 2, (2,))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y /= np.linalg.norm(y)
        p = outcome_probability(s, y)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert p.min() >= -1e-10

    def test_phase_invariance(self):
        rng = np.random.default_rng(45)
        s = random_block_strategy(rng, 2, 2, (2,))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y /= np.linalg.norm(y)
        p1 = outcome_probability(s, y)
        p2 = outcome_probability(s, np.exp(0.7j) * y)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_winning_coloring_rules(self):
        g = nonloop_graph(3)
        s = diagonal_unit_strategy(3)
        basis = edge_basis(g)
        for y, tag in zip(basis.matrices, basis.tags):
            p = outcome_probability(s, y)
            if tag == SAME_VERTEX:
                off = p - np.diag(np.diagonal(p))
                assert np.abs(off).max() <= 1e-12
            else:
                assert np.abs(np.diagonal(p)).max() <= 1e-12

    def test_teleport_adjacency_inputs(self):
        s = teleport_coloring(1, 2)
        g = QuantumGraph(
            n=2,
            algebra=VnAlgebra(n=2, blocks=((1, 2),)),
            s_basis=tuple(matrix_unit(2, i, j) for i in range(2) for j in range(2)),
        )
        basis = edge_basis(g)
        for y, tag in zip(basis.matrices, basis.tags):
            p = outcome_probability(s, y)
            if tag == ADJACENCY:
                assert np.abs(np.diagonal(p)).max() <= 1e-12

    def test_non_unit_input_rejected(self):
        s = diagonal_unit_strategy(2)
        with pytest.raises(ValueError):
            outcome_probability(s, np.eye(2))

    def test_nan_strategy_rejected(self):
        # NaN probabilities fail the realness precondition instead of passing it.
        s = diagonal_unit_strategy(2)
        projections = [p.copy() for p in s.projections]
        projections[0][0, 0] = np.nan
        s = BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=tuple(projections))
        with pytest.raises(ValueError, match="imaginary residual"):
            outcome_probability(s, matrix_unit(2, 0, 0))

    def test_conjugation_covariance(self):
        # Conjugating the strategy by U (x) 1 and the input by U leaves every
        # outcome probability unchanged.
        from helpers import rand_unitary, random_block_strategy

        rng = np.random.default_rng(51)
        s = random_block_strategy(rng, 3, 2, (2,))
        u = rand_unitary(rng, 3)
        d = s.ancilla.dim
        u_big = np.kron(u, np.eye(d))
        conj = BlockStrategy(
            n=s.n,
            c=s.c,
            ancilla=s.ancilla,
            projections=tuple(u_big.conj().T @ p @ u_big for p in s.projections),
        )
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y /= np.linalg.norm(y)
        p1 = outcome_probability(s, y)
        p2 = outcome_probability(conj, u.conj().T @ y @ u)
        np.testing.assert_allclose(p1, p2, atol=1e-10)


class TestSynchronicity:
    def test_trace_output_synchronous(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            s = random_block_strategy(rng, 2, 3, (2,))
            rep = check_synchronous(correlation_from_trace(s))
            assert rep.synchronous

    def test_uniform_classical_embedding_not_synchronous(self):
        # E_{a,x} = I/c embeds to X with sum_ij X^{(a,b)}_{(i,j),(i,j)} = n/c^2.
        n, c, h = 3, 2, 2
        families = [[np.eye(h, dtype=complex) / c for _ in range(c)] for _ in range(n)]
        s = embed_classical(families)
        x = correlation_from_trace(s)
        rep = check_synchronous(x)
        assert not rep.synchronous
        assert rep.cross_residual == pytest.approx(n / c**2, abs=1e-12)

    def test_deterministic_n1(self):
        s = BlockStrategy(
            n=1,
            c=2,
            ancilla=TracialAncilla.trivial(),
            projections=(np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex)),
        )
        assert check_synchronous(correlation_from_trace(s)).synchronous


class TestSynchronousIdentities:
    def test_random_strategies(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            s = random_block_strategy(rng, 2, 2, (2, 1))
            rep = synchronous_identities(correlation_from_trace(s))
            assert rep.positivity_defect <= 1e-10
            assert rep.conjugation_residual <= 1e-10
            assert rep.offdiag_row_residual <= 1e-10
            assert rep.diag_sum_residual <= 1e-10

    def test_identity4_diagonal_is_one(self):
        rng = np.random.default_rng(48)
        s = random_block_strategy(rng, 3, 2, (2,))
        t = correlation_from_trace(s).tensor
        for i in range(3):
            val = sum(t[a, a, i, k, i, k] for a in range(2) for k in range(3))
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_teleport_identity3(self):
        x = correlation_from_trace(teleport_coloring(1, 2))
        rep = synchronous_identities(x)
        assert rep.offdiag_row_residual <= 1e-12


class TestEmbedCompress:
    def test_roundtrip(self):
        rng = np.random.default_rng(49)
        n, c, h = 2, 2, 2
        families = [random_pvm(rng, h, c) for _ in range(n)]
        s = embed_classical(families)
        x = correlation_from_trace(s)
        p = compress_to_classical(x)
        # Independent evaluation of the classical correlation.
        tau = s.ancilla.trace_diagonal()
        for a in range(c):
            for b in range(c):
                for xx in range(n):
                    for yy in range(n):
                        expected = np.sum(
                            tau[:, None]
                            * families[xx][a]
                            * np.conj(families[yy][b])
                        ).real
                        assert p.p[a, b, xx, yy] == pytest.approx(expected, abs=1e-10)

    def test_family_without_outputs_rejected(self):
        with pytest.raises(ValueError, match="at least one output"):
            embed_classical([[]])

    def test_compressed_normalization(self):
        rng = np.random.default_rng(52)
        s = random_block_strategy(rng, 3, 2, (2,))
        p = compress_to_classical(correlation_from_trace(s))
        assert p.normalization_residual() <= 1e-10

    def test_embedded_offdiagonal_vanishes(self):
        rng = np.random.default_rng(50)
        families = [random_pvm(rng, 2, 2) for _ in range(3)]
        x = correlation_from_trace(embed_classical(families))
        t = x.tensor
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.abs(t[:, :, i, j]).max() <= 1e-12

    def test_deterministic_strategy_diagonal(self):
        # Deterministic classical strategy: E_{a,x} = [x maps to color a].
        coloring = [0, 1, 0]
        families = [
            [np.array([[1.0 if coloring[x] == a else 0.0]], dtype=complex) for a in range(2)]
            for x in range(3)
        ]
        s = embed_classical(families)
        assert s.ancilla.dim == 1
        for a in range(2):
            assert np.abs(np.diag(np.diagonal(s.projections[a])) - s.projections[a]).max() == 0


class TestBisynchronous:
    def test_permutation_strategy(self):
        # Deterministic permutation answers with c = n.
        perm = [2, 0, 1]
        families = [
            [np.array([[1.0 if perm[x] == a else 0.0]], dtype=complex) for a in range(3)]
            for x in range(3)
        ]
        x = correlation_from_trace(embed_classical(families))
        assert check_bisynchronous(compress_to_classical(x)).passed

    def test_constant_answer_not_bisynchronous(self):
        s = constant_answer_strategy(2, 2)
        x = correlation_from_trace(s)
        assert check_synchronous(x).synchronous
        assert not check_bisynchronous(compress_to_classical(x)).passed

    def test_diagonal_coloring_bisynchronous(self):
        for n in (2, 3):
            x = correlation_from_trace(diagonal_unit_strategy(n))
            assert check_bisynchronous(compress_to_classical(x)).passed
