"""Quantum-input/classical-output correlations and their synchronicity checks.

The correlation of a strategy is the tensor X^{(a,b)}_{(i,j),(k,l)}, stored
as a complex array of shape (c, c, n, n, n, n) indexed [a, b, i, j, k, l].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Check, CheckReport, Tolerance, as_matrix, worst_residual
from .strategies import BlockStrategy, TensorStrategy, TracialAncilla, times_input

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
        """|sum_{a,b,i,j} X^{(a,b)}_{(i,j),(i,j)} - n|, zero for any qc-correlation."""
        total = np.einsum("abijij->", self.tensor)
        return abs(complex(total) - self.n)


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
        sums = self.p.sum(axis=(0, 1))
        return float(np.abs(sums - 1.0).max())


def correlation_from_trace(strategy: BlockStrategy) -> Correlation:
    """X^{(a,b)}_{(i,j),(k,l)} = tau(P_{a,ij} P_{b,kl}*) with the ancilla trace."""
    ents = strategy.entries()  # (c, n, n, D, D)
    t = strategy.ancilla.trace_diagonal()
    x = np.einsum("u,aijuv,bkluv->abijkl", t, ents, np.conj(ents), optimize=True)
    return Correlation(n=strategy.n, c=strategy.c, tensor=x)


def correlation_from_tensor(strategy: TensorStrategy) -> Correlation:
    """X^{(a,b)}_{(i,j),(k,l)} = <(P_{a,ij} (x) Q_{b,kl}) chi, chi>."""
    n, c = strategy.n, strategy.c
    da, db = strategy.dims
    # P_{a,ij} is a D_A x D_A cell of C^n (x) H_A; Q_{b,kl} is the stride-n cell of H_B (x) C^n.
    p_ent = np.stack(strategy.alice).reshape(c, n, da, n, da).transpose(0, 1, 3, 2, 4)
    q_ent = np.stack(strategy.bob).reshape(c, db, n, db, n).transpose(0, 2, 4, 1, 3)
    chi = strategy.chi.reshape(da, db)
    x = np.einsum(
        "aijuv,bklxy,vy,ux->abijkl", p_ent, q_ent, chi, np.conj(chi), optimize=True
    )
    return Correlation(n=n, c=c, tensor=x)


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
    P_a* = P_a but no idempotency, so it holds for POVMs too.
    """
    y = np.asarray(y, dtype=np.complex128)
    n = strategy.n
    if y.ndim not in (2, 3) or y.shape[-2:] != (n, n):
        raise ValueError(f"input shape {y.shape}, expected {(n, n)} or (m, {n}, {n})")
    norms = np.linalg.norm(y, axis=(-2, -1)).ravel()
    unnormalized = ~(np.abs(norms - 1.0) <= tol.eps * 100)
    if unnormalized.any():
        raise ValueError(f"input state is not normalized: |Y|_F = {norms[unnormalized][0]}")
    ps = np.stack(strategy.projections)
    x = times_input(ps, y)  # axes (..., a, row, column)
    x *= np.sqrt(np.tile(strategy.ancilla.trace_diagonal(), n))[:, None]
    g = x.conj().swapaxes(-2, -1) @ x
    p = np.einsum("...aij,bji->...ab", g, ps, optimize=True)
    imag = worst_residual(np.abs(p.imag))[0]
    if not imag <= tol.eps * 100:
        raise ValueError(f"outcome probabilities have imaginary residual {imag:.3e}")
    return p.real


@dataclass(frozen=True)
class SyncReport:
    synchronous: bool
    diagonal_residual: float  # |(1/n) sum_a sum_ij X^{(a,a)}_{(i,j),(i,j)} - 1|
    cross_residual: float  # max_{a != b} |sum_ij X^{(a,b)}_{(i,j),(i,j)}|


def check_synchronous(x: Correlation, tol: Tolerance = DEFAULT_TOL) -> SyncReport:
    """Partition-free synchronicity criterion on the correlation entries."""
    diag = np.einsum("aaijij->", x.tensor) / x.n
    cross = np.einsum("abijij->ab", x.tensor)
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
    t = x.tensor
    diag_entries = np.einsum("abiijj->abij", t)
    positivity = worst_residual([np.abs(diag_entries.imag), np.maximum(-diag_entries.real, 0.0)])[0]

    conj_residual = worst_residual(np.abs(t - np.conj(t.transpose(0, 1, 3, 2, 5, 4))))[0]

    # Row and column sums, kept for a != b only.
    sums = np.abs([np.einsum("abikjk->abij", t), np.einsum("abkikj->abij", t)])
    distinct = ~np.eye(x.c, dtype=bool)[:, :, None, None]
    off = worst_residual(np.where(distinct, sums, 0.0))[0]

    diag_sums = [np.einsum("aaikjk->ij", t), np.einsum("aakikj->ij", t)]
    diag_sum = worst_residual(np.abs(np.subtract(diag_sums, np.eye(x.n))))[0]
    return IdentityReport(positivity, conj_residual, off, diag_sum)


def embed_classical(
    families, ancilla: TracialAncilla | None = None
) -> BlockStrategy:
    """Embed n families of c-output POVMs on H as one block POVM: P_a = (+)_x E_{a,x}.

    families[x][a] is the operator for input x and output a.  The resulting
    correlation vanishes off the diagonal entries, which is the image of the
    classical correlation set inside the quantum-input one.
    """
    n = len(families)
    if n == 0:
        raise ValueError("need at least one input family")
    c = len(families[0])
    mats = [[as_matrix(e) for e in fam] for fam in families]
    h = mats[0][0].shape[0]
    for fam in mats:
        if len(fam) != c:
            raise ValueError("all families must have the same number of outputs")
        for e in fam:
            if e.shape != (h, h):
                raise ValueError(f"operator shape {e.shape}, expected {(h, h)}")
    if ancilla is None:
        ancilla = TracialAncilla.full_matrix_block(h) if h > 1 else TracialAncilla.trivial()
    if ancilla.dim != h:
        raise ValueError(f"ancilla dim {ancilla.dim} does not match operators on C^{h}")
    projections = []
    for a in range(c):
        big = np.zeros((n * h, n * h), dtype=np.complex128)
        for x in range(n):
            big[x * h : (x + 1) * h, x * h : (x + 1) * h] = mats[x][a]
        projections.append(big)
    return BlockStrategy(n=n, c=c, ancilla=ancilla, projections=tuple(projections))


def compress_to_classical(
    x: Correlation, tol: Tolerance = DEFAULT_TOL
) -> ClassicalCorrelation:
    """p(a,b|x,y) = X^{(a,b)}_{(x,x),(y,y)}; entries must be real within tolerance."""
    diag = np.einsum("abxxyy->abxy", x.tensor)
    imag = float(np.abs(diag.imag).max())
    if not imag <= tol.eps * 100:
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
