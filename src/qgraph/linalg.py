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
    "POVM_CHECKS",
    "frozen_stack",
    "square_stack",
    "matrix_unit",
    "hs_norm",
    "canonical_shuffle",
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

# Factor by which a check on a derived quantity (an input's norm, an imaginary part
# left by rounding, a spectrum or corner of a computed operator) widens tol.eps: such
# a quantity sums rounding over many more terms than the residual that tol.eps bounds.
ROUNDING_SLACK = 100

# Factor by which a check on one given matrix's own defect (anti-Hermitian part, negative
# spectrum, |U*U - 1|_F, a distance that must be 0 or 1) widens tol.eps for its rounding.
MATRIX_SLACK = 10

# Relative rank floor of the spans of matrix families (orthonormalize, normal_form's
# generators and span(S) of a quantum graph): a singular value at or below SPAN_RANK_FLOOR
# times the largest of the spanning family is a dependent direction blurred by rounding
# in the given matrices, not a direction of the span.
SPAN_RANK_FLOOR = 1e-8

# Largest |U*U - 1|_F of an embedding unitary or assembled frame; residuals read in it inherit it.
UNITARY_DEFECT = 1e-8
# Rank rule of algebra._nullspace; the absolute floor gives an all-noise matrix no spurious rank.
NULLSPACE_FLOOR = 1e-9
NULLSPACE_ABS_FLOOR = 1e-12
# normal_form: a relative gap or link <= GENERIC_ZERO is rounding; up to GENERIC_WINDOW x above it, redraw.
GENERIC_ZERO = 1e-6
GENERIC_WINDOW = 1e3
# Largest distance per sqrt(n) of normal_form's conjugated generators from the canonical span.
FRAME_RESIDUAL = 1e-7
# Slack on the sum of a TracialAncilla's trace weights, which a JSON file gives to ~16 digits.
TRACE_WEIGHT_SLACK = 1e-9

# Bound on the bytes of the temporaries of one chunk of strategies._star_commutator_norm,
# homgame._sandwich and graphs._bimodule_distances.
_CHUNK_BYTES = 4 << 20


def worst_residual(residuals, axes: tuple[str, ...] = ()) -> tuple[float, dict | None]:
    """Largest entry of a residual array and where it occurs.

    Entries that a check does not cover are passed as 0.  NaN counts as +inf,
    so a residual that could not be computed fails its check, and a zero is
    returned as +0.0.  Without axes the value is one `max` and there is no
    witness.  With axes the witness names the first largest entry in C order,
    one key per axis; it is None when no entry is positive.
    """
    r = np.asarray(residuals, dtype=np.float64)
    if r.size == 0:
        return 0.0, None
    if not axes:
        worst = float(r.max()) + 0.0  # max propagates NaN
        return (np.inf if worst != worst else worst), None
    flat = int(r.argmax())
    worst = float(r.flat[flat]) + 0.0
    if worst != worst:  # argmax stops at the first NaN; an earlier inf ties with it
        r = np.where(np.isnan(r), np.inf, r)
        flat, worst = int(r.argmax()), np.inf
    if not worst > 0:
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

    def at(self, tol: Tolerance) -> "CheckReport":
        """The same checks decided at tol as Check.of decides; no residual or witness reads tol."""
        return CheckReport(
            tuple(Check(c.name, c.max_residual <= tol.eps, c.max_residual, c.witness) for c in self.checks)
        )

    def __bool__(self):
        # As a plain object a report would always be true, and `assert report` could never fail.
        raise TypeError("a CheckReport has no truth value; read .passed")

    def failures(self, names: tuple[str, ...] | None = None) -> dict[str, float]:
        """Worst residual of each failed check, among names when given."""
        return {
            c.name: c.max_residual
            for c in self.checks
            if not c.passed and (names is None or c.name in names)
        }

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


def frozen_stack(family, size: int, what: str) -> np.ndarray:
    """An owned, read-only complex (m, size, size) copy of a family (a sequence or an array)
    of size x size matrices; what names one element in the ValueError for any other shape."""
    stack = np.array(family, dtype=np.complex128)
    if not len(stack):
        stack = stack.reshape(0, size, size)
    if stack.shape[1:] != (size, size):
        raise ValueError(f"{what} of shape {stack.shape[1:]}, expected {(size, size)}")
    stack.flags.writeable = False
    return stack


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """Matrix unit E_ij in M_n (0-based)."""
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def hs_norm(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def canonical_shuffle(m, outer: int, inner: int) -> np.ndarray:
    """Reindex from an M_outer(M_inner(...)) layout to M_inner(M_outer(...)).

    A permutation similarity swapping the two leading tensor legs, of each matrix
    of a (..., size, size) stack.  The size must be divisible by outer*inner; any
    remaining factor is an untouched trailing leg (the B(H) slot of block operators).
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    size = m.shape[-1]
    if outer < 1 or inner < 1 or size % (outer * inner) != 0:
        raise ValueError(f"size {size} not divisible by {outer}*{inner}")
    rest, k = size // (outer * inner), m.ndim - 2
    t = m.reshape(*m.shape[:-2], outer, inner, rest, outer, inner, rest)
    t = t.transpose(*range(k), k + 1, k, k + 2, k + 4, k + 3, k + 5)
    return np.ascontiguousarray(t.reshape(m.shape))


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of each Hermitian matrix of a (..., k, k) stack.

    Returns (eigenvalues ascending, eigenvector columns).  Rejects inputs in which
    the anti-Hermitian part of a matrix exceeds the tolerance.
    """
    a = np.asarray(a, dtype=np.complex128)
    adjoint = a.conj().swapaxes(-2, -1)
    herm_defect = worst_residual(np.linalg.norm(a - adjoint, axis=(-2, -1)))[0]
    if not herm_defect <= tol.eps * MATRIX_SLACK:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    w, v = np.linalg.eigh((a + adjoint) / 2)
    return w, v


def psd_sqrt(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root with eigenvalues clamped at 0, of each matrix of a (..., k, k) stack.

    Negative eigenvalues down to -MATRIX_SLACK * eps are zeroed (numerical
    positivity drift); anything more negative is an error.
    """
    w, v = hermitian_eig(a, tol)
    if not w.min(initial=0.0) >= -tol.eps * MATRIX_SLACK:
        raise ValueError(f"matrix is not positive (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-2, -1)


# The checks of check_measurement that make a family a POVM; all five make a PVM.
POVM_CHECKS = ("hermitian", "positivity", "sum")


def square_stack(ops) -> np.ndarray:
    """A non-empty family of square matrices of one size, as a read-only (c, N, N) stack."""
    if len(ops) == 0:
        raise ValueError("measurement must have at least one operator")
    return frozen_stack(ops, len(ops[0]), "measurement operator")


def check_measurement(ops, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Decide whether a family of operators is a POVM and a PVM.

    Five checks, in order: hermitian (|P_a - P_a*|_F), positivity
    (max(0, -lambda_min(P_a))), sum (|sum_a P_a - 1|_F), idempotency
    (|P_a^2 - P_a|_F) and orthogonality (|P_a P_b|_F over ordered pairs
    a != b).  The first three, POVM_CHECKS, make a POVM; the report passes
    when the family is a PVM.  Witnesses name the operator {a}, or the pair
    {a, b}; the sum has none.
    """
    stack = square_stack(ops)
    adjoint = stack.conj().transpose(0, 2, 1)
    # eigvalsh returns finite eigenvalues for some NaN matrices ([0, -0] for
    # [[nan, 0], [0, 1]]), so an operator with a non-finite entry reads as inf
    # and only finite operators reach it.
    finite = np.isfinite(stack).all(axis=(-2, -1))
    lowest = np.linalg.eigvalsh(np.where(finite[:, None, None], (stack + adjoint) / 2, 0.0)).min(axis=-1)
    # +0.0 for a zero eigenvalue of either sign.
    negativity = np.where(finite, np.where(lowest >= 0.0, 0.0, -lowest), np.inf)
    distinct = ~np.eye(len(stack), dtype=bool)
    rows = [np.linalg.norm(p @ stack, axis=(-2, -1)) for p in stack]  # one row a at a time
    return CheckReport(
        (
            Check.of("hermitian", np.linalg.norm(stack - adjoint, axis=(-2, -1)), tol, "a"),
            Check.of("positivity", negativity, tol, "a"),
            Check.of("sum", hs_norm(stack.sum(axis=0) - np.eye(stack.shape[-1])), tol),
            Check.of("idempotency", np.linalg.norm(stack @ stack - stack, axis=(-2, -1)), tol, "a"),
            Check.of("orthogonality", np.where(distinct, rows, 0.0), tol, "a", "b"),
        )
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
