import numpy as np
import pytest

from helpers import rand_hermitian, rand_unitary, random_pvm
from qgraph import Tolerance, canonical_shuffle, check_measurement
from qgraph.linalg import POVM_CHECKS, hermitian_eig, hs_norm, matrix_unit, psd_sqrt, unit_root_power


def test_tolerance_positive():
    assert Tolerance().eps == 1e-9
    with pytest.raises(ValueError):
        Tolerance(0.0)
    with pytest.raises(ValueError):
        Tolerance(-1e-9)


class TestHSNorm:
    def test_matrix_units(self):
        for i in range(3):
            for j in range(3):
                assert hs_norm(matrix_unit(3, i, j)) == 1.0
        assert hs_norm(matrix_unit(3, 0, 1) - matrix_unit(3, 1, 0)) == pytest.approx(np.sqrt(2))

    def test_identity(self):
        for n in range(1, 6):
            assert hs_norm(np.eye(n)) == pytest.approx(np.sqrt(n))

    def test_positivity(self):
        rng = np.random.default_rng(12)
        assert hs_norm(np.zeros((3, 3))) == 0.0
        for _ in range(5):
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert hs_norm(x) > 0.0
            assert hs_norm(x) ** 2 == pytest.approx(np.vdot(x, x).real)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, v = rand_unitary(rng, 4), rand_unitary(rng, 4)
        assert hs_norm(u @ x @ v) == pytest.approx(hs_norm(x), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_fails_every_bound(self, bad):
        x = np.eye(2, dtype=complex)
        x[0, 1] = bad
        assert not hs_norm(x) <= 1e300


class TestCanonicalShuffle:
    def test_matrix_unit_swap(self):
        # E_ab (x) E_ij with outer index (a,b) maps to E_ij (x) E_ab.
        for (a, b, i, j) in [(0, 1, 1, 0), (1, 1, 0, 1)]:
            m = np.kron(matrix_unit(2, a, b), matrix_unit(2, i, j))
            expected = np.kron(matrix_unit(2, i, j), matrix_unit(2, a, b))
            np.testing.assert_allclose(canonical_shuffle(m, 2, 2), expected)

    def test_involution(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        back = canonical_shuffle(canonical_shuffle(m, 3, 4), 4, 3)
        np.testing.assert_allclose(back, m)

    def test_trailing_leg(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        h = rng.normal(size=(2, 2))
        m = np.kron(np.kron(a, b), h)
        np.testing.assert_allclose(
            canonical_shuffle(m, 2, 3), np.kron(np.kron(b, a), h), atol=1e-13
        )

    def test_preserves_trace_and_pvm(self):
        rng = np.random.default_rng(3)
        pvm = random_pvm(rng, 12, 3)
        shuffled = [canonical_shuffle(p, 3, 4) for p in pvm]
        assert check_measurement(shuffled).passed
        for p, s in zip(pvm, shuffled):
            assert np.trace(s) == pytest.approx(np.trace(p))

    def test_size_not_divisible(self):
        with pytest.raises(ValueError):
            canonical_shuffle(np.eye(10), 3, 4)


class TestCheckMeasurement:
    def test_teleportation_projections(self):
        # Closed-form oracle: the four Bell projections in M_2 (x) M_2,
        # built directly from the entangled vectors.
        vecs = []
        for a in range(2):
            for b in range(2):
                v = np.zeros(4, dtype=complex)
                for p in range(2):
                    v[((b + p) % 2) * 2 + p] = (-1.0) ** (a * p) / np.sqrt(2)
                vecs.append(v)
        projs = [np.outer(v, v.conj()) for v in vecs]
        rep = check_measurement(projs, Tolerance(1e-12))
        assert rep.passed
        assert max(c.max_residual for c in rep.checks) < 1e-12

    def test_povm_not_pvm(self):
        rep = check_measurement([np.eye(2) / 2, np.eye(2) / 2])
        assert not rep.failures(POVM_CHECKS) and not rep.passed

    def test_tolerance_breach(self):
        p1 = matrix_unit(2, 0, 0)
        p2 = matrix_unit(2, 1, 1)
        p1 = p1 + 1e-6 * matrix_unit(2, 0, 0)
        rep = check_measurement([p1, p2], Tolerance(1e-9))
        assert not rep.passed

    @pytest.mark.parametrize(
        "name, a, change, witness",
        [
            ("hermitian", 1, 1e-3 * matrix_unit(3, 1, 2), {"a": 1}),
            ("positivity", 2, -1e-3 * matrix_unit(3, 0, 0), {"a": 2}),
            ("idempotency", 0, matrix_unit(3, 0, 0), {"a": 0}),
            ("orthogonality", 2, matrix_unit(3, 1, 1), {"a": 1, "b": 2}),
        ],
    )
    def test_each_check_names_the_offending_operator_or_pair(self, name, a, change, witness):
        ps = [matrix_unit(3, b, b) for b in range(3)]
        assert check_measurement(ps).passed
        ps[a] = ps[a] + change
        check = check_measurement(ps).check(name)
        assert not check.passed and check.witness == witness

    @pytest.mark.parametrize("a", [0, 1])
    def test_nan_operator_fails_positivity(self, a):
        # eigvalsh gives [0, -0] for [[nan, 0], [0, 1]], which would pass at 0.0.
        ps = [matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)]
        ps[a] = ps[a].astype(complex)
        ps[a][0, 0] = np.nan
        check = check_measurement(ps).check("positivity")
        assert not check.passed and check.max_residual == np.inf and check.witness == {"a": a}

    def test_report_has_no_truth_value(self):
        with pytest.raises(TypeError):
            assert check_measurement([np.eye(2)])

    def test_errors(self):
        with pytest.raises(ValueError):
            check_measurement([])
        with pytest.raises(ValueError):
            check_measurement([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            check_measurement([np.ones((2, 3))])


def test_hermitian_eig_residual():
    rng = np.random.default_rng(6)
    for n in (2, 8, 31, 64):
        a = rand_hermitian(rng, n)
        w, v = hermitian_eig(a)
        residual = np.linalg.norm(a - (v * w) @ v.conj().T)
        assert residual <= 1e-10 * np.linalg.norm(a)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = z @ z.conj().T
    r = psd_sqrt(a)
    np.testing.assert_allclose(r @ r, a, atol=1e-10)
    with pytest.raises(ValueError):
        psd_sqrt(-np.eye(2))


def test_unit_root_power_exact():
    assert unit_root_power(2, 1) == -1
    assert unit_root_power(4, 1) == 1j
    assert unit_root_power(4, 3) == -1j
    assert unit_root_power(1, 5) == 1
    # k = 3 falls back to exp and is only float-accurate.
    assert abs(unit_root_power(3, 3) - 1) < 1e-15
    assert abs(unit_root_power(3, 1) ** 3 - 1) < 1e-15
