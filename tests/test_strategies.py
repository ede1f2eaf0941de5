import time
import tracemalloc

import numpy as np
import pytest

from helpers import rand_hermitian, rand_unitary, random_block_strategy, random_povm, random_pvm
from qgraph import (
    BlockStrategy,
    TracialAncilla,
    Tolerance,
    VnAlgebra,
    bob_from_alice,
    check_measurement,
    corner_compress,
    dilate_block_povm,
    dilate_povm,
    round_almost_pvm,
    shift_multiply_coloring,
)
from qgraph.linalg import matrix_unit


class TestTracialAncilla:
    def test_default_weights_plancherel_like(self):
        a = TracialAncilla((1, 2))
        np.testing.assert_allclose(a.trace_weights, [0.2, 0.8])

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            TracialAncilla((2,), (0.5,))
        with pytest.raises(ValueError):
            TracialAncilla((1, 1), (1.0, 0.0))

    @pytest.mark.parametrize(
        "weights", [(float("nan"),), (0.5, float("nan")), (float("inf"), 1.0), (1.0, -float("inf"))]
    )
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            TracialAncilla((1,) * len(weights), weights)

    def test_trace_normalized(self):
        # tau(X) = sum_u t_u X_uu, so tau(1) = sum_u t_u = 1.
        t = TracialAncilla((2, 3), (0.25, 0.75)).trace_diagonal()
        np.testing.assert_allclose(t, [0.125, 0.125, 0.25, 0.25, 0.25])
        assert t.sum() == pytest.approx(1.0)

    def test_tensor(self):
        a = TracialAncilla((1, 2), (0.5, 0.5)).tensor(TracialAncilla((3,), (1.0,)))
        assert a.block_dims == (3, 6)
        np.testing.assert_allclose(a.trace_weights, [0.5, 0.5])


class TestBlockStrategy:
    def test_entries(self):
        rng = np.random.default_rng(20)
        s = random_block_strategy(rng, 2, 2, (2, 1))
        ents = s.entries()
        for a in range(2):
            for i in range(2):
                for j in range(2):
                    np.testing.assert_allclose(ents[a, i, j], s.entry(a, i, j))

    def test_block_structure_detected(self):
        # An entry coupling the two ancilla blocks must be flagged.
        anc = TracialAncilla((1, 1))
        p1 = np.zeros((4, 4), dtype=complex)
        p1[0, 1] = p1[1, 0] = 1.0  # couples ancilla blocks inside cell (0,0)
        s = BlockStrategy(n=2, c=1, ancilla=anc, projections=(p1,))
        assert s.ancilla_block_defect() > 0.1

    def test_is_loc(self):
        diag = BlockStrategy(
            n=2,
            c=2,
            ancilla=TracialAncilla.trivial(),
            projections=(matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)),
        )
        assert diag.is_loc()
        rng = np.random.default_rng(21)
        s = random_block_strategy(rng, 2, 2, (2,))
        assert not s.is_loc()

    def test_is_loc_fails_closed_on_nan(self):
        # Diagonal D = 2 entries commute; one NaN entry must not read as 0.
        anc = TracialAncilla((1, 1))
        p0 = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        s = BlockStrategy(n=2, c=2, ancilla=anc, projections=(p0, np.eye(4) - p0))
        assert s.is_loc()
        p0[2, 2] = np.nan
        s = BlockStrategy(n=2, c=2, ancilla=anc, projections=(p0, np.eye(4) - p0))
        assert not s.is_loc()

    def test_is_loc_fails_closed_on_nan_over_a_scalar_ancilla(self):
        anc = TracialAncilla.trivial()
        p0 = np.diag([1.0, 0.0]).astype(complex)
        s = BlockStrategy(n=2, c=2, ancilla=anc, projections=(p0, np.eye(2) - p0))
        assert s.is_loc()
        p0[1, 1] = np.nan
        s = BlockStrategy(n=2, c=2, ancilla=anc, projections=(p0, np.eye(2) - p0))
        assert not s.is_loc()

    def test_is_loc_fails_closed_on_inf(self):
        # An inf entry must neither pass nor reach the SVD (no LinAlgError).
        anc = TracialAncilla((1, 1))
        p0 = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        p0[2, 2] = np.inf
        s = BlockStrategy(n=2, c=2, ancilla=anc, projections=(p0, np.eye(4) - p0))
        assert not s.is_loc()

    def test_is_loc_scales_past_the_pair_scan(self):
        # Conjugated M_2+M_3+M_4 shift-multiply colouring: N = 29 * 81 = 2349 entries
        # of size D = 12.  A scan of every pair would take ~2e11 complex MACs.
        rng = np.random.default_rng(14)
        alg = VnAlgebra(n=9, blocks=((1, 2), (1, 3), (1, 4)), unitary=rand_unitary(rng, 9))
        s = shift_multiply_coloring(alg)
        assert (s.c * s.n * s.n, s.ancilla.dim) == (2349, 12)
        start = time.perf_counter()
        assert not s.is_loc()
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            s.is_loc()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestDilatePovm:
    def test_scalar_half(self):
        dil = dilate_povm([np.array([[0.5]]), np.array([[0.5]])])
        assert dil[0][0, 0] == pytest.approx(0.5)
        assert dil[1][0, 0] == pytest.approx(0.5)
        assert check_measurement(dil).passed

    def test_pvm_input_corners_exact(self):
        pvm = [np.diag([1.0, 0, 0]).astype(complex), np.diag([0.0, 1, 1]).astype(complex)]
        dil = dilate_povm(pvm)
        for d, q in zip(dil, pvm):
            np.testing.assert_allclose(d[:3, :3], q, atol=1e-14)

    def test_output_size_and_completeness(self):
        rng = np.random.default_rng(22)
        povm = random_povm(rng, 3, 4)
        dil = dilate_povm(povm)
        assert dil[0].shape == (5 * 3, 5 * 3)
        rep = check_measurement(dil)
        assert rep.passed
        assert rep.check("sum").max_residual <= 1e-10

    def test_single_output(self):
        dil = dilate_povm([np.eye(2, dtype=complex)])
        assert dil[0].shape == (4, 4)
        assert check_measurement(dil).passed
        np.testing.assert_allclose(dil[0][:2, :2], np.eye(2), atol=1e-14)

    def test_rejects_non_povm(self):
        with pytest.raises(ValueError):
            dilate_povm([np.eye(2), np.eye(2)])


class TestCornerCompress:
    @staticmethod
    def isometry(n, c, h):
        """V: e_i (x) xi -> e_i (x) e_0 (x) xi."""
        e0 = np.eye(c + 1)[:, :1]
        return np.kron(np.eye(n), np.kron(e0, np.eye(h)))

    @pytest.mark.parametrize("n, c, h", [(1, 1, 1), (2, 2, 1), (2, 1, 3), (3, 2, 2)])
    def test_matches_isometry(self, n, c, h):
        rng = np.random.default_rng(40 + n + 3 * c + 7 * h)
        size = n * (c + 1) * h
        p = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        v = self.isometry(n, c, h)
        np.testing.assert_allclose(corner_compress(p, n, c, h), v.T @ p @ v, atol=1e-13)

    def test_identity(self):
        np.testing.assert_array_equal(corner_compress(np.eye(2 * 3 * 2), 2, 2, 2), np.eye(4))

    def test_product(self):
        # p = A (x) B (x) X on C^n (x) C^(c+1) (x) H keeps B_00 A (x) X.
        rng = np.random.default_rng(44)
        a, b, x = (rng.normal(size=(m, m)) for m in (2, 3, 2))
        got = corner_compress(np.kron(a, np.kron(b, x)), 2, 2, 2)
        np.testing.assert_allclose(got, b[0, 0] * np.kron(a, x), atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            corner_compress(np.eye(6), 2, 2, 2)
        with pytest.raises(ValueError):
            corner_compress(np.ones(12), 2, 2, 1)


class TestDilateBlockPovm:
    def test_n1_reduces_to_plain(self):
        rng = np.random.default_rng(23)
        povm = random_povm(rng, 2, 3)
        np.testing.assert_allclose(
            dilate_block_povm(povm, n=1, h=2)[1], dilate_povm(povm)[1], atol=1e-12
        )

    def test_corner_recovery(self):
        rng = np.random.default_rng(24)
        for n, h in [(2, 2), (3, 2)]:
            for c in (2, 3):
                povm = random_povm(rng, n * h, c)
                dil = dilate_block_povm(povm, n=n, h=h)
                assert check_measurement(dil, Tolerance(1e-10)).passed
                for p, q in zip(dil, povm):
                    assert np.linalg.norm(corner_compress(p, n, c, h) - q) <= 1e-10


# Families that sum to 1 and fail one POVM check each: the Hermitian and positivity checks
# are the only guard in front of dilate_povm's clipped square roots.
NOT_POVMS = {
    "non-Hermitian": ([[0.5, 0.25], [0.0, 0.5]], [[0.5, -0.25], [0.0, 0.5]]),
    "negative": ([[1.5, 0.0], [0.0, 0.5]], [[-0.5, 0.0], [0.0, 0.5]]),
    "NaN entry": ([[np.nan, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]),
}


@pytest.mark.parametrize("dilate", [dilate_povm, lambda ops: dilate_block_povm(ops, n=2, h=1)],
                         ids=["dilate_povm", "dilate_block_povm"])
@pytest.mark.parametrize("family", NOT_POVMS.values(), ids=NOT_POVMS.keys())
def test_dilate_refuses_a_family_that_is_not_a_povm(dilate, family):
    with pytest.raises(ValueError, match="not a POVM"):
        dilate(np.array(family, dtype=np.complex128))


class TestRoundAlmostPvm:
    def test_identity_on_exact(self):
        rng = np.random.default_rng(28)
        pvm = random_pvm(rng, 6, 3)
        rounded, distance = round_almost_pvm(pvm)
        for p, q in zip(pvm, rounded):
            assert np.linalg.norm(q - p, ord=2) <= 1e-12
        assert distance <= 1e-12

    def test_output_exact_pvm(self):
        rng = np.random.default_rng(29)
        pvm = random_pvm(rng, 8, 3)
        noisy = [p + 1e-3 * rand_hermitian(rng, 8) for p in pvm]
        rounded, _ = round_almost_pvm(noisy)
        assert check_measurement(rounded, Tolerance(1e-12)).passed

    def test_retraction(self):
        rng = np.random.default_rng(30)
        pvm = random_pvm(rng, 6, 2)
        noisy = [p + 1e-3 * rand_hermitian(rng, 6) for p in pvm]
        once, _ = round_almost_pvm(noisy)
        twice, distance = round_almost_pvm(once)
        assert distance <= 1e-12
        for p, q in zip(once, twice):
            np.testing.assert_allclose(p, q, atol=1e-12)

    def test_defects_reported(self):
        rep = check_measurement([np.eye(2) / 2, np.eye(2) / 2])
        assert rep.check("idempotency").max_residual > 0.1
        assert rep.check("sum").max_residual <= 1e-14


class TestBobFromAlice:
    def test_real_entries_give_same_operators(self):
        diag = BlockStrategy(
            n=2,
            c=2,
            ancilla=TracialAncilla.trivial(),
            projections=(matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)),
        )
        ts = bob_from_alice(diag)
        for a in range(2):
            for k in range(2):
                for ell in range(2):
                    np.testing.assert_allclose(
                        ts.bob_entry(a, k, ell), diag.entry(a, k, ell)
                    )

    def test_state_norm_and_schmidt(self):
        rng = np.random.default_rng(31)
        s = random_block_strategy(rng, 2, 2, (2, 3))
        ts = bob_from_alice(s)
        assert np.linalg.norm(ts.chi) == pytest.approx(1.0)
        d = s.ancilla.dim
        coeffs = np.linalg.svd(ts.chi.reshape(d, d), compute_uv=False)
        expected = sorted(
            np.sqrt(w / dd)
            for w, dd in zip(s.ancilla.trace_weights, s.ancilla.block_dims)
            for _ in range(dd)
        )
        np.testing.assert_allclose(sorted(coeffs), expected, atol=1e-12)

    def test_state_identity_with_adjoint(self):
        # (I (x) Q_{a,ij}) chi = (P_{a,ij}* (x) I) chi, the tracial-vector
        # form of the synchronicity condition.
        rng = np.random.default_rng(32)
        s = random_block_strategy(rng, 3, 2, (2, 1))
        ts = bob_from_alice(s)
        d = s.ancilla.dim
        eye = np.eye(d)
        worst = 0.0
        for a in range(s.c):
            for i in range(s.n):
                for j in range(s.n):
                    lhs = np.kron(eye, ts.bob_entry(a, i, j)) @ ts.chi
                    rhs = np.kron(s.entry(a, i, j).conj().T, eye) @ ts.chi
                    worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        assert worst <= 1e-10

    def test_bob_operators_are_pvm(self):
        rng = np.random.default_rng(33)
        s = random_block_strategy(rng, 2, 3, (2,))
        ts = bob_from_alice(s)
        assert check_measurement(ts.bob).passed
