"""Dense complex linear algebra kernels shared by every other module.

Matrices are plain 2-D complex128 numpy arrays in row-major layout.  All
predicates (Hermitian, positive, PVM, ...) are decided through the
tolerance-bearing operations below; nothing in the package compares floating
point values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Check",
    "CheckReport",
    "worst_residual",
    "MeasurementReport",
    "as_matrix",
    "matrix_unit",
    "hs_inner",
    "hs_norm",
    "canonical_shuffle",
    "partial_trace",
    "hermitian_eig",
    "psd_sqrt",
    "check_measurement",
    "unit_root_power",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance on Frobenius-norm scale used by every predicate."""

    eps: float = 1e-9

    def __post_init__(self):
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise ValueError(f"tolerance must be positive and finite, got {self.eps}")


DEFAULT_TOL = Tolerance()


def worst_residual(residuals, axes: tuple[str, ...] = ()) -> tuple[float, dict | None]:
    """Largest entry of a residual array and where it occurs.

    Entries that a check does not cover are passed as 0.  NaN counts as +inf,
    so a residual that could not be computed fails its check.  The witness
    names the first largest entry in C order, one key per axis; it is None
    when the array has no axes or no positive entry.
    """
    r = np.asarray(residuals, dtype=np.float64)
    if r.size == 0:
        return 0.0, None
    flat = int(np.argmax(r))
    if np.isnan(r.flat[flat]):  # argmax stops at the first NaN; an earlier inf ties with it
        r = np.where(np.isnan(r), np.inf, r)
        flat = int(np.argmax(r))
    worst = float(r.flat[flat])
    if not axes or not worst > 0:
        return worst, None
    return worst, {axis: int(i) for axis, i in zip(axes, np.unravel_index(flat, r.shape))}


@dataclass(frozen=True)
class Check:
    """One verified relation: its verdict, worst residual and witness indices."""

    name: str
    passed: bool
    max_residual: float
    witness: dict | None = None

    @classmethod
    def of(cls, name: str, residuals, tol: Tolerance, *axes: str) -> "Check":
        """Reduce a residual array (axes named in order) and compare with tol."""
        worst, witness = worst_residual(residuals, axes)
        return cls(name, worst <= tol.eps, worst, witness)


@dataclass(frozen=True)
class CheckReport:
    """The checks of one verification; it passes when every check passes."""

    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    "max_residual": c.max_residual,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex matrix, rejecting anything else."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """Matrix unit E_ij in M_n (0-based)."""
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def hs_inner(a, b) -> complex:
    """Unnormalized Hilbert-Schmidt inner product Tr(B* A).

    Conjugate-linear in the second argument.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(b, a))


def hs_norm(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def canonical_shuffle(m, outer: int, inner: int) -> np.ndarray:
    """Reindex from an M_outer(M_inner(...)) layout to M_inner(M_outer(...)).

    A permutation similarity swapping the two leading tensor legs.  The matrix
    size must be divisible by outer*inner; any remaining factor is kept as an
    untouched trailing leg (the B(H) slot in block-operator matrices).
    """
    m = as_matrix(m)
    size = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    if outer < 1 or inner < 1 or size % (outer * inner) != 0:
        raise ValueError(f"size {size} not divisible by {outer}*{inner}")
    rest = size // (outer * inner)
    t = m.reshape(outer, inner, rest, outer, inner, rest)
    t = t.transpose(1, 0, 2, 4, 3, 5)
    return np.ascontiguousarray(t.reshape(size, size))


def partial_trace(m, dims: tuple[int, int], side: str) -> np.ndarray:
    """Trace out one tensor leg: (Tr x id)(m) for side='left', (id x Tr) for 'right'."""
    m = as_matrix(m)
    d0, d1 = dims
    if m.shape != (d0 * d1, d0 * d1):
        raise ValueError(f"matrix of shape {m.shape} does not match dims {dims}")
    t = m.reshape(d0, d1, d0, d1)
    if side == "left":
        return np.ascontiguousarray(np.einsum("abac->bc", t))
    if side == "right":
        return np.ascontiguousarray(np.einsum("abcb->ac", t))
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix; the only spectral primitive used.

    Returns (eigenvalues ascending, eigenvector columns).  Rejects inputs whose
    anti-Hermitian part exceeds the tolerance.
    """
    a = as_matrix(a)
    herm_defect = hs_norm(a - a.conj().T)
    if not herm_defect <= tol.eps * 10:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return w, v


def psd_sqrt(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root with eigenvalues clamped at 0.

    Negative eigenvalues above -eps are zeroed (numerical positivity drift);
    anything more negative is an error.
    """
    w, v = hermitian_eig(a, tol)
    if not w.min(initial=0.0) >= -tol.eps * 10:
        raise ValueError(f"matrix is not positive (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


@dataclass(frozen=True)
class MeasurementReport:
    """Outcome of check_measurement.  Residuals are Frobenius-norm defects."""

    is_povm: bool
    is_pvm: bool
    hermitian_defect: float
    min_eigenvalue: float
    sum_defect: float
    idempotency_defect: float
    orthogonality_defect: float

    def residuals(self) -> dict[str, float]:
        return {
            "hermitian": self.hermitian_defect,
            "min_eigenvalue": self.min_eigenvalue,
            "sum": self.sum_defect,
            "idempotency": self.idempotency_defect,
            "orthogonality": self.orthogonality_defect,
        }


def check_measurement(ops, tol: Tolerance = DEFAULT_TOL) -> MeasurementReport:
    """Decide whether a family of operators is a POVM and/or a PVM.

    POVM: every operator Hermitian positive (min eigenvalue >= -eps) and the
    family sums to the identity within eps.  PVM additionally requires each
    P^2 = P and P_a P_b = 0 for a != b, within eps.
    """
    if len(ops) == 0:
        raise ValueError("measurement must have at least one operator")
    mats = [as_matrix(p) for p in ops]
    shape = mats[0].shape
    if shape[0] != shape[1]:
        raise ValueError(f"measurement operators must be square, got {shape}")
    for p in mats:
        if p.shape != shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {shape}")

    stack = np.stack(mats)
    adjoint = stack.conj().transpose(0, 2, 1)
    herm = worst_residual(np.linalg.norm(stack - adjoint, axis=(-2, -1)))[0]
    # The lowest eigenvalue is the negated worst of the negated minima, so a
    # NaN spectrum reads as -inf.
    min_eig = -worst_residual(-np.linalg.eigvalsh((stack + adjoint) / 2).min(axis=-1))[0]
    sum_defect = worst_residual(hs_norm(stack.sum(axis=0) - np.eye(shape[0])))[0]
    idem = worst_residual(np.linalg.norm(stack @ stack - stack, axis=(-2, -1)))[0]
    # |P_a P_b|_F over ordered pairs a != b, one row a at a time.
    distinct = ~np.eye(len(stack), dtype=bool)
    rows = [np.linalg.norm(p @ stack, axis=(-2, -1)) for p in stack]
    orth = worst_residual(np.where(distinct, rows, 0.0))[0]

    is_povm = herm <= tol.eps and min_eig >= -tol.eps and sum_defect <= tol.eps
    is_pvm = is_povm and idem <= tol.eps and orth <= tol.eps
    return MeasurementReport(
        is_povm=is_povm,
        is_pvm=is_pvm,
        hermitian_defect=herm,
        min_eigenvalue=min_eig,
        sum_defect=sum_defect,
        idempotency_defect=idem,
        orthogonality_defect=orth,
    )


# Exact unit table so that coloring completeness sums are bit-exact when the
# relevant roots of unity are Gaussian integers (k | 4).
_EXACT_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)


def unit_root_power(k: int, m: int) -> complex:
    """omega_k^m for omega_k = exp(2*pi*i/k); exact when k divides 4."""
    if k < 1:
        raise ValueError(f"order must be positive, got {k}")
    if 4 % k == 0:
        return _EXACT_UNITS[(m * (4 // k)) % 4]
    return complex(np.exp(2j * np.pi * (m % k) / k))
