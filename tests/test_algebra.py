import json
import os

import numpy as np
import pytest

from helpers import rand_unitary
from qgraph import TracialAncilla, VnAlgebra, commutant, normal_form
from qgraph.algebra import algebra_basis, orthonormalize, project_onto_span
from qgraph.linalg import hs_norm, matrix_unit
from qgraph.serialize import matrix_from_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def diag_algebra(n):
    return VnAlgebra(n=n, blocks=tuple((1, 1) for _ in range(n)))


class TestVnAlgebra:
    def test_nondegeneracy(self):
        with pytest.raises(ValueError):
            VnAlgebra(n=3, blocks=((1, 2),))

    def test_unitary_checked(self):
        with pytest.raises(ValueError):
            VnAlgebra(n=2, blocks=((1, 2),), unitary=np.ones((2, 2)))

    def test_dims(self):
        alg = VnAlgebra(n=8, blocks=((2, 1), (2, 3)))
        assert alg.dim_algebra == 1 + 9
        assert alg.dim_commutant == 4 + 4
        assert len(algebra_basis(alg)) == alg.dim_algebra
        assert len(commutant(alg)) == alg.dim_commutant


class TestCommutant:
    def test_diagonal_self_commutant(self):
        # D_n' = D_n.
        alg = diag_algebra(3)
        basis = commutant(alg)
        assert len(basis) == 3
        span = orthonormalize(basis)
        for i in range(3):
            e = matrix_unit(3, i, i)
            assert hs_norm(e - project_onto_span(e, span)) < 1e-12

    def test_full_algebra(self):
        alg = VnAlgebra(n=3, blocks=((1, 3),))
        basis = commutant(alg)
        assert len(basis) == 1
        np.testing.assert_allclose(basis[0], np.eye(3) / np.sqrt(3))

    def test_single_block(self):
        # (C I_d (x) M_k)' = M_d (x) I_k with d^2 basis elements.
        alg = VnAlgebra(n=6, blocks=((2, 3),))
        basis = commutant(alg)
        assert len(basis) == 4
        span = orthonormalize(basis)
        for p in range(2):
            for q in range(2):
                x = np.kron(matrix_unit(2, p, q), np.eye(3)) / np.sqrt(3)
                assert hs_norm(x - project_onto_span(x, span)) < 1e-12

    def test_commutes_with_algebra(self):
        for blocks, n in [(((1, 2), (3, 1)), 5), (((2, 2),), 4), (((1, 1), (1, 2)), 3)]:
            alg = VnAlgebra(n=n, blocks=blocks)
            worst = max(
                hs_norm(a @ b - b @ a)
                for a in commutant(alg)
                for b in algebra_basis(alg)
            )
            assert worst <= 1e-10

    def test_conjugated(self):
        rng = np.random.default_rng(8)
        u = rand_unitary(rng, 4)
        alg = VnAlgebra(n=4, blocks=((2, 2),), unitary=u)
        worst = max(
            hs_norm(a @ b - b @ a) for a in commutant(alg) for b in algebra_basis(alg)
        )
        assert worst <= 1e-10


class TestProject:
    """project_onto_span over the bases of M and M'."""

    def test_traceless_full_algebra(self):
        alg = VnAlgebra(n=3, blocks=((1, 3),))
        x = np.diag([1.0, -1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(project_onto_span(x, commutant(alg)), 0.0, atol=1e-12)

    def test_offdiagonal_perp_to_diagonal(self):
        alg = diag_algebra(2)
        e12 = matrix_unit(2, 0, 1)
        np.testing.assert_allclose(project_onto_span(e12, commutant(alg)), 0.0, atol=1e-12)

    def test_decomposition(self):
        # x = p + (x - p) with p in M' and x - p HS-orthogonal to M'.
        rng = np.random.default_rng(9)
        alg = VnAlgebra(n=5, blocks=((1, 2), (1, 1), (2, 1)))
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        p = project_onto_span(x, commutant(alg))
        assert max(hs_norm(p @ b - b @ p) for b in algebra_basis(alg)) <= 1e-12
        assert max(abs(np.vdot(z, x - p)) for z in commutant(alg)) <= 1e-12

    def test_complement_dimension_count(self):
        # dim(M) plus the dimension of its HS-complement is n^2.
        alg = VnAlgebra(n=4, blocks=((1, 2), (2, 1)))
        units = [matrix_unit(4, i, j) for i in range(4) for j in range(4)]
        complement = orthonormalize([u - project_onto_span(u, algebra_basis(alg)) for u in units])
        assert alg.dim_algebra + len(complement) == 16


class TestPlancherel:
    """The Plancherel trace psi_M = (+)_r k_r/dim M Tr_{k_r} of a multiplicity-free M is
    the default trace of the TracialAncilla on the same blocks: t_u = k_r/dim M."""

    @staticmethod
    def trace_diagonal(alg):
        assert all(m == 1 for m, _ in alg.blocks) and alg.unitary is None
        return TracialAncilla(tuple(k for _, k in alg.blocks)).trace_diagonal()

    def test_full_matrix_block(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        t = self.trace_diagonal(alg)
        np.testing.assert_allclose(t, [0.5, 0.5])
        x = np.diag([2.0, 4.0]).astype(complex)
        assert t @ np.diag(x) == pytest.approx(3.0)  # normalized trace

    def test_abelian_uniform(self):
        np.testing.assert_allclose(self.trace_diagonal(diag_algebra(4)), [0.25] * 4)

    def test_normalization(self):
        for blocks, n in [(((1, 2), (1, 3)), 5), (((1, 2), (1, 2)), 4), (((1, 1),), 1)]:
            alg = VnAlgebra(n=n, blocks=blocks)
            t = self.trace_diagonal(alg)
            want = np.concatenate([[k / alg.dim_algebra] * k for _, k in blocks])
            np.testing.assert_allclose(t, want, atol=1e-15)
            assert t.sum() == pytest.approx(1.0)
        # The tensor product of two Plancherel traces is the Plancherel trace.
        a, b = TracialAncilla((1, 2)), TracialAncilla((3, 1))
        np.testing.assert_allclose(a.tensor(b).trace_weights, TracialAncilla((3, 1, 6, 2)).trace_weights)

    def test_tracial_and_faithful_on_algebra(self):
        alg = VnAlgebra(n=6, blocks=((1, 2), (1, 1), (1, 3)))
        ancilla = TracialAncilla((2, 1, 3))
        t = self.trace_diagonal(alg)
        basis = algebra_basis(alg)
        assert len(basis) == alg.dim_algebra
        for x in basis:
            assert not x[~ancilla.block_mask()].any()
            for y in basis:
                assert t @ np.diag(x @ y) == pytest.approx(t @ np.diag(y @ x), abs=1e-12)
            assert (t @ np.diag(x.conj().T @ x)).real > 1e-12


class TestNormalForm:
    def test_canonical_input(self):
        alg = VnAlgebra(n=5, blocks=((1, 1), (2, 2)))
        rec, u = normal_form(algebra_basis(alg))
        assert rec.blocks == ((1, 1), (2, 2))
        canon = algebra_basis(VnAlgebra(n=5, blocks=rec.blocks))
        for b in algebra_basis(alg):
            conj = u.conj().T @ b @ u
            assert hs_norm(conj - project_onto_span(conj, canon)) < 1e-8

    def test_full_m2(self):
        gens = [matrix_unit(2, i, j) for i in range(2) for j in range(2)]
        rec, _ = normal_form(gens)
        assert rec.blocks == ((1, 2),)

    def test_conjugate_and_recover(self):
        rng = np.random.default_rng(10)
        for blocks, n in [(((1, 2), (3, 1)), 5), (((2, 2),), 4), (((1, 1), (1, 1), (1, 2)), 4)]:
            alg = VnAlgebra(n=n, blocks=blocks)
            u = rand_unitary(rng, n)
            gens = [u @ b @ u.conj().T for b in algebra_basis(alg)]
            rec, w = normal_form(gens)
            assert rec.blocks == tuple(sorted(blocks, key=lambda t: (t[1], t[0])))
            # Recovered unitary conjugates the generators into the canonical span.
            canon = algebra_basis(VnAlgebra(n=n, blocks=rec.blocks))
            for g in gens:
                conj = w.conj().T @ g @ w
                assert hs_norm(conj - project_onto_span(conj, canon)) < 1e-7

    def test_nearly_degenerate_central_element_redrawn(self):
        # The first seeded central element of the earlier centre-based
        # recovery had an eigenvalue gap of about 2.5e-5 on these generators:
        # above the clustering gap, but close enough that its eigenvectors
        # left the block pattern by 2.3e-9.  The bound below stays for this input.
        with open(os.path.join(FIXTURES, "near_degenerate_center.json")) as f:
            fixture = json.load(f)
        gens = [matrix_from_json(m, "generators") for m in fixture["generators"]]
        rec, u = normal_form(gens)
        assert rec.blocks == tuple(tuple(b) for b in fixture["blocks"])
        canon = algebra_basis(VnAlgebra(n=rec.n, blocks=rec.blocks))
        for g in gens:
            conj = u.conj().T @ g @ u
            assert hs_norm(conj - project_onto_span(conj, canon)) <= 1e-10

    def test_idempotent(self):
        alg = VnAlgebra(n=4, blocks=((1, 2), (2, 1)))
        rec1, _ = normal_form(algebra_basis(alg))
        rec2, _ = normal_form(algebra_basis(VnAlgebra(n=4, blocks=rec1.blocks)))
        assert rec1.blocks == rec2.blocks

    def test_repeated_block_dimensions(self):
        rng = np.random.default_rng(11)
        alg = VnAlgebra(n=4, blocks=((1, 2), (1, 2)))
        u = rand_unitary(rng, 4)
        gens = [u @ b @ u.conj().T for b in algebra_basis(alg)]
        rec, _ = normal_form(gens)
        assert rec.blocks == ((1, 2), (1, 2))

    def test_from_few_generators(self):
        # A single generic Hermitian generator generates D_n.
        gen = np.diag([1.0, 2.0, 5.0]).astype(complex)
        rec, _ = normal_form([gen])
        assert rec.blocks == ((1, 1), (1, 1), (1, 1))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            normal_form([matrix_unit(2, 0, 0)])
