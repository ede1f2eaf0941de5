"""Quantum-input/classical-output correlations and their synchronicity checks.

The correlation of a strategy is the tensor X^{(a,b)}_{(i,j),(k,l)}, stored
as a complex array of shape (c, c, n, n, n, n) indexed [a, b, i, j, k, l].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ROUNDING_SLACK,
    Check,
    CheckReport,
    Tolerance,
    worst_residual,
)
from .strategies import BlockStrategy, TensorStrategy, TracialAncilla

__all__ = [
    "Correlation",
    "ClassicalCorrelation",
    "correlation_from_trace",
    "correlation_from_tensor",
    "outcome_probability",
    "SyncReport",
    "check_synchronous",
    "IdentityReport",
    "synchronous_identities",
    "embed_classical",
    "compress_to_classical",
    "check_bisynchronous",
]


@dataclass(frozen=True)
class Correlation:
    n: int
    c: int
    tensor: np.ndarray  # shape (c, c, n, n, n, n)

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=np.complex128)
        expected = (self.c, self.c, self.n, self.n, self.n, self.n)
        if t.shape != expected:
            raise ValueError(f"tensor shape {t.shape}, expected {expected}")
        object.__setattr__(self, "tensor", t)

    def normalization_residual(self) -> float:
        """|sum_{a,b,i,j} X^{(a,b)}_{(i,j),(i,j)} - n|, zero for any qc-correlation;
        inf when an entry is NaN."""
        total = np.einsum("abijij->", self.tensor)
        return worst_residual(abs(complex(total) - self.n))[0]


@dataclass(frozen=True)
class ClassicalCorrelation:
    """p(a,b|x,y) for classical inputs, stored as a real array [a, b, x, y]."""

    n: int
    c: int
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=np.float64)
        expected = (self.c, self.c, self.n, self.n)
        if arr.shape != expected:
            raise ValueError(f"p shape {arr.shape}, expected {expected}")
        object.__setattr__(self, "p", arr)

    def normalization_residual(self) -> float:
        """max_{x,y} |sum_{a,b} p(a,b|x,y) - 1|; inf when an entry is NaN."""
        sums = self.p.sum(axis=(0, 1))
        return worst_residual(np.abs(sums - 1.0))[0]


def correlation_from_trace(strategy: BlockStrategy) -> Correlation:
    """X^{(a,b)}_{(i,j),(k,l)} = tau(P_{a,ij} P_{b,kl}*) with the ancilla trace.

    One GEMM: with the entries as the rows of a (c n^2, D^2) matrix E and the
    weight t_u on column (u, v), X = (E diag(t_u)) E* reshaped to
    (c, n, n, c, n, n) and transposed to [a, b, i, j, k, l].
    """
    n, c, d = strategy.n, strategy.c, strategy.ancilla.dim
    e = strategy.entries().reshape(c * n * n, d * d)
    w = np.repeat(strategy.ancilla.trace_diagonal(), d)
    x = (e * w) @ e.conj().T
    # The tensor is a transposed view: identity (2) of synchronous_identities makes its one strided
    # copy of it, and the other checks read it in place.
    return Correlation(n=n, c=c, tensor=x.reshape(c, n, n, c, n, n).transpose(0, 3, 1, 2, 4, 5))


def correlation_from_tensor(strategy: TensorStrategy) -> Correlation:
    """X^{(a,b)}_{(i,j),(k,l)} = <(P_{a,ij} (x) Q_{b,kl}) chi, chi>.

    With chi as a D_A x D_B matrix, X = sum_{xy} (chi* P_{a,ij} chi)_{xy} (Q_{b,kl})_{xy}.
    The products chi* P_{a,ij} chi of all entries are two GEMMs on Alice's
    stack, one per side, and X is one GEMM of their (c n^2, D_B^2) matrix
    against Bob's entry matrix.
    """
    n, c = strategy.n, strategy.c
    da, db = strategy.dims
    chi = strategy.chi.reshape(da, db)
    # P_{a,ij} is a D_A x D_A cell of C^n (x) H_A; Q_{b,kl} is the stride-n cell of H_B (x) C^n.
    right = (strategy.alice.reshape(-1, da) @ chi).reshape(c, n, da, n * db)  # [a, i, u, (j, y)]
    m = chi.conj().T @ right.transpose(2, 0, 1, 3).reshape(da, -1)  # [x, (a, i, j, y)]
    m = m.reshape(db, c * n * n, db).transpose(1, 0, 2).reshape(c * n * n, db * db)
    q_ent = strategy.bob.reshape(c, db, n, db, n).transpose(0, 2, 4, 1, 3)
    x = m @ q_ent.reshape(c * n * n, db * db).T
    return Correlation(n=n, c=c, tensor=x.reshape(c, n, n, c, n, n).transpose(0, 3, 1, 2, 4, 5))


def outcome_probability(
    strategy: BlockStrategy, y, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """p(a,b) = (Tr (x) tau)(P_a (Y (x) 1) P_b (Y* (x) 1) P_a) for unit inputs Y.

    y is one n x n matrix, giving a (c, c) array, or an (m, n, n) stack,
    giving (m, c, c).  Every input must have unit Frobenius norm (unit input
    state).  The entries are checked to be real within tolerance before the
    imaginary parts are dropped; a NaN entry fails that check.

    By cyclicity p(a,b) = tr(G_a P_b) with G_a = X_a* T X_a, where
    X_a = P_a (Y (x) 1) and T is the diagonal of trace weights.  This uses
    P_a* = P_a but no idempotency, so it holds for POVMs too.  X is one GEMM,
    the (c N D, n) matrix of P over its column index j against the (n, m n)
    matrix of the inputs, and one copy into the layout (..., a, row, column);
    tr(G_a P_b) is one GEMM over the flattened N^2 index.
    """
    y = np.asarray(y, dtype=np.complex128)
    n = strategy.n
    if y.ndim not in (2, 3) or y.shape[-2:] != (n, n):
        raise ValueError(f"input shape {y.shape}, expected {(n, n)} or (m, {n}, {n})")
    norms = np.linalg.norm(y, axis=(-2, -1)).ravel()
    unnormalized = ~(np.abs(norms - 1.0) <= tol.eps * ROUNDING_SLACK)
    if unnormalized.any():
        raise ValueError(f"input state is not normalized: |Y|_F = {norms[unnormalized][0]}")
    ps = strategy.projections
    c, size = ps.shape[:2]
    d, ys = size // n, y.reshape(-1, n, n)
    rows = ps.reshape(c, n, d, n, d).transpose(0, 1, 2, 4, 3).reshape(-1, n)  # [(a, i, u, v), j]
    x = rows @ ys.transpose(1, 0, 2).reshape(n, -1)  # P_a (Y (x) 1) as [(a, i, u, v), (m, k)]
    x = x.reshape(c, n, d, d, len(ys), n).transpose(4, 0, 1, 2, 5, 3).reshape(*y.shape[:-2], c, size, size)
    x *= np.sqrt(np.tile(strategy.ancilla.trace_diagonal(), n))[:, None]
    g = x.conj().swapaxes(-2, -1) @ x
    p = (g.reshape(-1, size * size) @ ps.swapaxes(-2, -1).reshape(c, size * size).T).reshape(*g.shape[:-2], c)
    imag = worst_residual(np.abs(p.imag))[0]
    if not imag <= tol.eps * ROUNDING_SLACK:
        raise ValueError(f"outcome probabilities have imaginary residual {imag:.3e}")
    return p.real


@dataclass(frozen=True)
class SyncReport:
    synchronous: bool
    diagonal_residual: float  # |(1/n) sum_a sum_ij X^{(a,a)}_{(i,j),(i,j)} - 1|
    cross_residual: float  # max_{a != b} |sum_ij X^{(a,b)}_{(i,j),(i,j)}|


def check_synchronous(x: Correlation, tol: Tolerance = DEFAULT_TOL) -> SyncReport:
    """Partition-free synchronicity criterion on the correlation entries."""
    cross = np.einsum("abijij->ab", x.tensor)
    diag = cross.trace() / x.n
    np.fill_diagonal(cross, 0.0)
    diagonal_residual = worst_residual(abs(complex(diag) - 1.0))[0]
    cross_residual = worst_residual(np.abs(cross))[0]
    ok = diagonal_residual <= tol.eps and cross_residual <= tol.eps
    return SyncReport(ok, diagonal_residual, cross_residual)


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the four synchronous-correlation identities."""

    positivity_defect: float  # (1) X^{(a,b)}_{(i,i),(j,j)} >= 0
    conjugation_residual: float  # (2) X^{(a,b)}_{(i,j),(k,l)} = conj(X^{(a,b)}_{(j,i),(l,k)})
    offdiag_row_residual: float  # (3) sum_k X^{(a,b)}_{(i,k),(j,k)} = 0, a != b
    diag_sum_residual: float  # (4) sum_a sum_k X^{(a,a)}_{(i,k),(j,k)} = delta_ij

    def passed(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return all(
            r <= tol.eps
            for r in (
                self.positivity_defect,
                self.conjugation_residual,
                self.offdiag_row_residual,
                self.diag_sum_residual,
            )
        )


def synchronous_identities(x: Correlation, tol: Tolerance = DEFAULT_TOL) -> IdentityReport:
    """Residuals of the four identities of a synchronous correlation X: (1) X^{(a,b)}_{(i,i),(j,j)} >= 0,
    (2) X^{(a,b)}_{(i,j),(k,l)} = conj(X^{(a,b)}_{(j,i),(l,k)}), (3) sum_k X^{(a,b)}_{(i,k),(j,k)} = 0 for
    a != b and (4) sum_a sum_k X^{(a,a)}_{(i,k),(j,k)} = delta_ij, (3) and (4) on the row and column sums.

    Each residual is one reduction by worst_residual: (1) of max(|Im|, -Re) on the entries, floored
    at 0; (2) of |X - conj(X^T)| from one C-order copy of the swapped tensor, conjugated and
    subtracted in place; (4) of the a = b blocks of the row and column sums, summed over a, before
    (3) zeroes those blocks in place and reads the rest.
    tol is not read here: IdentityReport.passed(tol) decides, and the callers still pass tol.
    """
    t, c, n = x.tensor, x.c, x.n
    entries = np.einsum("abiijj->abij", t)
    positivity = max(0.0, worst_residual(np.maximum(np.abs(entries.imag), -entries.real))[0])

    swapped = t.transpose(0, 1, 3, 2, 5, 4).copy()
    np.conjugate(swapped, out=swapped)
    np.subtract(t, swapped, out=swapped)
    conj_residual = worst_residual(np.abs(swapped))[0]

    sums = np.empty((2, c, c, n, n), dtype=np.complex128)
    np.einsum("abikjk->abij", t, out=sums[0])
    np.einsum("abkikj->abij", t, out=sums[1])
    diag_sum = worst_residual(np.abs(np.einsum("saaij->sij", sums) - np.eye(n)))[0]
    sums.reshape(2, c * c, n, n)[:, :: c + 1] = 0.0
    off = worst_residual(np.abs(sums))[0]
    return IdentityReport(positivity, conj_residual, off, diag_sum)


def embed_classical(
    families, ancilla: TracialAncilla | None = None
) -> BlockStrategy:
    """Embed n families of c-output POVMs on H as one block POVM: P_a = (+)_x E_{a,x}.

    families[x][a], of one (n, c, h, h) array, is the operator for input x and
    output a.  The resulting correlation vanishes off the diagonal entries, which
    is the image of the classical correlation set inside the quantum-input one.
    """
    ops = np.asarray(families, dtype=np.complex128)
    if not ops.size:
        raise ValueError("need at least one input family and at least one output per family")
    if ops.ndim != 4 or ops.shape[2] != ops.shape[3]:
        raise ValueError(f"families of shape {ops.shape}, expected (n, c, h, h)")
    n, c, h = ops.shape[:3]
    if ancilla is None:
        ancilla = TracialAncilla.full_matrix_block(h)
    if ancilla.dim != h:
        raise ValueError(f"ancilla dim {ancilla.dim} does not match operators on C^{h}")
    # P_a holds E_{a,x} in its diagonal block (x, x): [a, (x, u), (y, v)] with x = y.
    projections = np.zeros((c, n, h, n, h), dtype=np.complex128)
    projections[:, np.arange(n), :, np.arange(n), :] = ops
    return BlockStrategy(n=n, c=c, ancilla=ancilla, projections=projections.reshape(c, n * h, n * h))


def compress_to_classical(
    x: Correlation, tol: Tolerance = DEFAULT_TOL
) -> ClassicalCorrelation:
    """p(a,b|x,y) = X^{(a,b)}_{(x,x),(y,y)}; entries must be real within tolerance."""
    diag = np.einsum("abxxyy->abxy", x.tensor)
    imag = worst_residual(np.abs(diag.imag))[0]
    if not imag <= tol.eps * ROUNDING_SLACK:
        raise ValueError(f"compressed correlation has imaginary residual {imag:.3e}")
    return ClassicalCorrelation(n=x.n, c=x.c, p=diag.real)


def check_bisynchronous(p: ClassicalCorrelation, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Two checks: synchronous, p(a,b|x,x) = 0 for a != b, and bisynchronous,
    p(a,a|x,y) = 0 for x != y, each within tolerance."""
    sync = np.where(~np.eye(p.c, dtype=bool)[:, :, None], np.einsum("abxx->abx", p.p), 0.0)
    bisync = np.where(~np.eye(p.n, dtype=bool), np.einsum("aaxy->axy", p.p), 0.0)
    return CheckReport(
        (
            Check.of("synchronous", np.abs(sync), tol, "a", "b", "x"),
            Check.of("bisynchronous", np.abs(bisync), tol, "a", "x", "y"),
        )
    )
