import json
import os

import numpy as np
import pytest

from helpers import rand_unitary
from qgraph import VnAlgebra, commutant, normal_form, plancherel, project
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
    def test_traceless_full_algebra(self):
        alg = VnAlgebra(n=3, blocks=((1, 3),))
        x = np.diag([1.0, -1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(project(alg, "comm_perp", x), x, atol=1e-12)

    def test_offdiagonal_perp_to_diagonal(self):
        alg = diag_algebra(2)
        e12 = matrix_unit(2, 0, 1)
        np.testing.assert_allclose(project(alg, "comm_perp", e12), e12, atol=1e-12)

    def test_decomposition(self):
        rng = np.random.default_rng(9)
        alg = VnAlgebra(n=5, blocks=((1, 2), (1, 1), (2, 1)))
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        total = project(alg, "comm", x) + project(alg, "comm_perp", x)
        np.testing.assert_allclose(total, x, atol=1e-12)

    def test_complement_dimension_count(self):
        # dim(M) plus the dimension of its HS-complement is n^2.
        alg = VnAlgebra(n=4, blocks=((1, 2), (2, 1)))
        units = [matrix_unit(4, i, j) for i in range(4) for j in range(4)]
        complement = orthonormalize([u - project(alg, "alg", u) for u in units])
        assert alg.dim_algebra + len(complement) == 16


class TestPlancherel:
    def test_full_matrix_block(self):
        alg = VnAlgebra(n=2, blocks=((1, 2),))
        psi = plancherel(alg)
        assert psi.weights == (pytest.approx(0.5),)
        x = np.diag([2.0, 4.0]).astype(complex)
        assert psi(x) == pytest.approx(3.0)  # normalized trace

    def test_abelian_uniform(self):
        alg = diag_algebra(4)
        psi = plancherel(alg)
        np.testing.assert_allclose(psi.weights, [0.25] * 4)

    def test_normalization(self):
        for blocks, n in [(((1, 2), (3, 1)), 5), (((2, 2),), 4), (((1, 1),), 1)]:
            alg = VnAlgebra(n=n, blocks=blocks)
            assert plancherel(alg)(np.eye(n)) == pytest.approx(1.0)

    def test_tracial_and_faithful_on_algebra(self):
        alg = VnAlgebra(n=5, blocks=((1, 2), (1, 1), (2, 1)))
        psi = plancherel(alg)
        basis = algebra_basis(alg)
        for x in basis:
            for y in basis:
                assert psi(x @ y) == pytest.approx(psi(y @ x), abs=1e-12)
            assert psi(x.conj().T @ x).real > 1e-12


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
