"""Strategies for quantum-input games: block PVMs over tracial ancillas.

A BlockStrategy is a PVM {P_a} in M_n(A) for a finite-dimensional tracial
ancilla A = (+)_s M_{d_s}, stored as c big matrices on C^n (x) C^D with
D = sum d_s.  The (i,j) entry P_{a,ij} of each big matrix is a D x D matrix
that is block diagonal across the ancilla summands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MeasurementReport,
    Tolerance,
    as_matrix,
    canonical_shuffle,
    check_measurement,
    hermitian_eig,
    hs_norm,
    psd_sqrt,
    unit_root_power,
    worst_residual,
)

__all__ = [
    "TracialAncilla",
    "BlockStrategy",
    "TensorStrategy",
    "dilate_povm",
    "dilate_block_povm",
    "corner_compress",
    "pvm_to_unitary",
    "unitary_to_pvm",
    "round_almost_pvm",
    "RoundingReport",
    "bob_from_alice",
]


@dataclass(frozen=True)
class TracialAncilla:
    """Finite-dimensional tracial C*-algebra (+)_s M_{d_s} with faithful trace.

    trace_weights are the weights of the normalized block traces; they must be
    positive and sum to 1.  The default is Plancherel-like: w_s ~ d_s^2.
    """

    block_dims: tuple[int, ...]
    trace_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"block dims must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)
        if self.trace_weights is None:
            total = sum(d * d for d in dims)
            object.__setattr__(self, "trace_weights", tuple(d * d / total for d in dims))
        else:
            w = tuple(float(x) for x in self.trace_weights)
            if len(w) != len(dims):
                raise ValueError("one trace weight per block required")
            if not all(0 < x < np.inf for x in w):
                raise ValueError(
                    f"trace weights must be positive (faithfulness) and finite, got {w}"
                )
            if not abs(sum(w) - 1.0) <= 1e-9:
                raise ValueError(f"trace weights must sum to 1, got sum {sum(w)}")
            object.__setattr__(self, "trace_weights", w)

    @classmethod
    def trivial(cls) -> "TracialAncilla":
        return cls((1,), (1.0,))

    @classmethod
    def full_matrix_block(cls, d: int) -> "TracialAncilla":
        """M_d with its normalized trace."""
        return cls((d,), (1.0,))

    @property
    def dim(self) -> int:
        return sum(self.block_dims)

    def block_slices(self) -> list[slice]:
        out, pos = [], 0
        for d in self.block_dims:
            out.append(slice(pos, pos + d))
            pos += d
        return out

    def trace_diagonal(self) -> np.ndarray:
        """Vector t with t_u = w_s/d_s for u in block s; tau(X) = sum t_u X_uu."""
        t = np.empty(self.dim)
        for w, d, sl in zip(self.trace_weights, self.block_dims, self.block_slices()):
            t[sl] = w / d
        return t

    def trace(self, x) -> complex:
        x = as_matrix(x)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"shape mismatch: {x.shape} vs ancilla dim {self.dim}")
        return complex(np.sum(self.trace_diagonal() * np.diagonal(x)))

    def block_defect(self, x: np.ndarray) -> float:
        """Frobenius norm of the part of x outside the block-diagonal algebra."""
        mask = np.zeros((self.dim, self.dim), dtype=bool)
        for sl in self.block_slices():
            mask[sl, sl] = True
        return float(np.linalg.norm(np.where(mask, 0.0, x)))

    def tensor(self, other: "TracialAncilla") -> "TracialAncilla":
        """Tensor-product ancilla with blocks (d_s e_t) in lexicographic order."""
        dims = tuple(d * e for d in self.block_dims for e in other.block_dims)
        weights = tuple(w * u for w in self.trace_weights for u in other.trace_weights)
        return TracialAncilla(dims, weights)


@dataclass(frozen=True)
class BlockStrategy:
    """PVM (or POVM, for embeddings) in M_n(A) over a tracial ancilla A."""

    n: int
    c: int
    ancilla: TracialAncilla
    projections: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_matrix(p) for p in self.projections)
        if len(mats) != self.c:
            raise ValueError(f"expected {self.c} operators, got {len(mats)}")
        size = self.n * self.ancilla.dim
        for p in mats:
            if p.shape != (size, size):
                raise ValueError(f"operator of shape {p.shape}, expected {(size, size)}")
        object.__setattr__(self, "projections", mats)

    @property
    def ancilla_dim(self) -> int:
        return self.ancilla.dim

    def entry(self, a: int, i: int, j: int) -> np.ndarray:
        """The D x D entry P_{a,ij}."""
        d = self.ancilla.dim
        return self.projections[a][i * d : (i + 1) * d, j * d : (j + 1) * d]

    def entries(self) -> np.ndarray:
        """All entries as an array of shape (c, n, n, D, D)."""
        d = self.ancilla.dim
        stack = np.stack(self.projections)
        return stack.reshape(self.c, self.n, d, self.n, d).transpose(0, 1, 3, 2, 4)

    def measurement_report(self, tol: Tolerance = DEFAULT_TOL) -> MeasurementReport:
        return check_measurement(self.projections, tol)

    def ancilla_block_defect(self) -> float:
        """Worst violation of the ancilla's block-diagonal structure by any entry."""
        if len(self.ancilla.block_dims) == 1:
            return 0.0  # a single block imposes no structure
        d = self.ancilla.dim
        mask = np.zeros((d, d), dtype=bool)
        for sl in self.ancilla.block_slices():
            mask[sl, sl] = True
        off_block = ~np.tile(mask, (self.n, self.n))
        return worst_residual(
            [float(np.linalg.norm(np.where(off_block, p, 0.0))) for p in self.projections]
        )[0]

    def is_loc(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True when all entries pairwise *-commute (abelian ancilla behaviour)."""
        if self.ancilla.dim == 1:
            return True  # scalar entries commute
        d = self.ancilla.dim
        return _worst_star_commutator(self.entries().reshape(-1, d, d)) <= tol.eps


def times_input(ops: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P (Y (x) 1) for each P of a (c, nD, nD) stack and each Y of an (..., n, n)
    stack, as (..., c, nD, nD).  Y meets the n-index of P, seen as (c, n, D, n, D),
    so Y (x) 1 is never formed."""
    c, n, d = len(ops), y.shape[-1], ops.shape[-1] // y.shape[-1]
    out = np.einsum("aiujv,...jk->...aiukv", ops.reshape(c, n, d, n, d), y, optimize=True)
    return out.reshape(*y.shape[:-2], c, n * d, n * d)


# Bound on the bytes of the temporaries of one chunk of _worst_star_commutator.
_CHUNK_BYTES = 4 << 20


def _worst_star_commutator(ents: np.ndarray) -> float:
    """Largest |xy - yx|_F and |xy* - y*x|_F over all pairs x, y of a (N, D, D) stack.

    ad_x = x (x) 1 - 1 (x) x^T maps the row-major vec(y) to vec(xy - yx), so
    a chunk of rows x takes one product of its stacked ad_x with the
    (D^2, 2N) matrix of every vec(y) and vec(y*).  No N x N array is formed.
    NaN reads as +inf.
    """
    count, d, _ = ents.shape
    vecs = np.concatenate([ents, ents.conj().transpose(0, 2, 1)]).reshape(2 * count, d * d).T
    eye = np.eye(d)
    # Per row x: three D^2 x D^2 ad temporaries, and D^2 x 2N images with their moduli.
    rows = max(1, _CHUNK_BYTES // (48 * d * d * (d * d + count)))
    worst = []
    for start in range(0, count, rows):
        x = ents[start : start + rows]
        ad = np.einsum("kij,lm->kiljm", x, eye) - np.einsum("ij,kml->kiljm", eye, x)
        moduli = np.abs((ad.reshape(-1, d * d) @ vecs).reshape(len(x), d * d, 2 * count))
        worst.append(worst_residual(np.sqrt(np.einsum("kij,kij->kj", moduli, moduli)))[0])
    return worst_residual(worst)[0]


@dataclass(frozen=True)
class TensorStrategy:
    """Tensor-product strategy: Alice on C^n (x) H_A, Bob on H_B (x) C^n."""

    dims: tuple[int, int]
    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]
    chi: np.ndarray

    def __post_init__(self):
        da, db = self.dims
        alice = tuple(as_matrix(p) for p in self.alice)
        bob = tuple(as_matrix(q) for q in self.bob)
        chi = np.asarray(self.chi, dtype=np.complex128).reshape(-1)
        if len(alice) != len(bob):
            raise ValueError(f"Alice has {len(alice)} operators, Bob has {len(bob)}")
        n = self.n
        for p in alice:
            if p.shape != (n * da, n * da):
                raise ValueError(f"Alice operator shape {p.shape} inconsistent with dims")
        for q in bob:
            if q.shape != (db * n, db * n):
                raise ValueError(f"Bob operator shape {q.shape} inconsistent with dims")
        if chi.size != da * db:
            raise ValueError(f"state has {chi.size} amplitudes, expected {da * db}")
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "chi", chi)

    @property
    def n(self) -> int:
        da = self.dims[0]
        size = as_matrix(self.alice[0]).shape[0]
        if size % da != 0:
            raise ValueError("Alice operator size not divisible by dim H_A")
        return size // da

    @property
    def c(self) -> int:
        return len(self.alice)

    def alice_entry(self, a: int, i: int, j: int) -> np.ndarray:
        da = self.dims[0]
        return self.alice[a][i * da : (i + 1) * da, j * da : (j + 1) * da]

    def bob_entry(self, b: int, k: int, ell: int) -> np.ndarray:
        """Q_{b,kl} in B(H_B) for Bob's operators on H_B (x) C^n."""
        n = self.n
        return self.bob[b][k::n, ell::n].reshape(self.dims[1], self.dims[1])


def dilate_povm(povm, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Dilate a POVM {Q_a} on H to a PVM {P_a} on C^{c+1} (x) H.

    Builds the isometry V of square roots, completes it to a unitary U, and
    conjugates diagonal matrix units: P_a = U*(E_aa (x) I)U for a < c-1 and
    P_{c-1} = U*((E_{c-1,c-1} + E_{c,c}) (x) I)U.  The (0,0) corner of P_a
    recovers Q_a.
    """
    mats = [as_matrix(q) for q in povm]
    rep = check_measurement(mats, tol)
    if not rep.is_povm:
        raise ValueError(f"input is not a POVM within tolerance: {rep.residuals()}")
    c = len(mats)
    h = mats[0].shape[0]
    roots = [psd_sqrt(q, tol) for q in mats]
    v = np.vstack(roots)  # isometry H -> H^c
    # sqrt(I - VV*) is the projection onto the cokernel of the isometry V;
    # taking it by spectral rounding avoids the square root's noise
    # amplification at the zero eigenvalues.
    gram = v @ v.conj().T
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    kernel = evecs[:, evals < 0.5]
    w = kernel @ kernel.conj().T
    u = np.zeros(((c + 1) * h, (c + 1) * h), dtype=np.complex128)
    u[: c * h, :h] = v
    u[: c * h, h:] = w
    u[c * h :, h:] = -v.conj().T

    out = []
    for a in range(c):
        diag = np.zeros(c + 1)
        diag[a] = 1.0
        if a == c - 1:
            diag[c] = 1.0
        e = np.kron(np.diag(diag), np.eye(h))
        out.append(u.conj().T @ e @ u)
    return out


def corner_compress(p: np.ndarray, n: int, c: int, h: int) -> np.ndarray:
    """(1,1)-corner map for dilated block operators.

    For p in M_n(M_{c+1}(B(H))) returns the M_n(B(H)) matrix of H-corners,
    i.e. V* p V for the isometry V: e_i (x) xi -> e_i (x) e_0 (x) xi.
    """
    p = as_matrix(p)
    size = n * (c + 1) * h
    if p.shape != (size, size):
        raise ValueError(f"shape {p.shape} inconsistent with (n,c,h)=({n},{c},{h})")
    t = p.reshape(n, c + 1, h, n, c + 1, h)
    return np.ascontiguousarray(t[:, 0, :, :, 0, :].reshape(n * h, n * h))


def dilate_block_povm(
    povm, n: int, h: int, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Dilate a POVM in M_n(B(H)) to a PVM in M_n(M_{c+1}(B(H))).

    Views each Q_a as an operator on C^n (x) H, dilates, then performs the
    canonical shuffle to bring the n-leg back outside.  Corner compression of
    each output entry recovers the input entry: V* p_{a,ij} V = q_{a,ij}.
    """
    mats = [as_matrix(q) for q in povm]
    c = len(mats)
    for q in mats:
        if q.shape != (n * h, n * h):
            raise ValueError(f"operator shape {q.shape} inconsistent with n={n}, h={h}")
    dilated = dilate_povm(mats, tol)  # on C^{c+1} (x) C^n (x) H
    return [canonical_shuffle(s, outer=c + 1, inner=n) for s in dilated]


def pvm_to_unitary(pvm, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Order-c unitary U = sum_a omega^a P_a encoding a c-output PVM."""
    mats = [as_matrix(p) for p in pvm]
    rep = check_measurement(mats, tol)
    if not rep.is_pvm:
        raise ValueError(f"input is not a PVM within tolerance: {rep.residuals()}")
    c = len(mats)
    u = np.zeros_like(mats[0])
    for a, p in enumerate(mats, start=1):
        u += unit_root_power(c, a) * p
    return u


def unitary_to_pvm(u, c: int, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Fourier inversion on Z_c: P_a = (1/c) sum_d omega^{-ad} U^d."""
    u = as_matrix(u)
    size = u.shape[0]
    if not hs_norm(u.conj().T @ u - np.eye(size)) <= tol.eps * 10:
        raise ValueError("input is not unitary within tolerance")
    powers = [np.eye(size, dtype=np.complex128)]
    for _ in range(c):
        powers.append(powers[-1] @ u)
    order_defect = hs_norm(powers[c] - np.eye(size))
    if not order_defect <= tol.eps * 100:
        raise ValueError(f"U^{c} differs from the identity (defect {order_defect:.3e})")
    out = []
    for a in range(1, c + 1):
        p = np.zeros_like(u)
        for d in range(1, c + 1):
            p += unit_root_power(c, -a * d) * powers[d]
        out.append(p / c)
    # For a unitary of order c the inversion is an exact PVM; a failure here
    # means the spectrum leaves the c-th roots of unity.  This avoids any
    # non-Hermitian eigensolver.
    rep = check_measurement(out, Tolerance(max(tol.eps * 100, 1e-8)))
    if not rep.is_pvm:
        raise ValueError(
            f"spectrum is not contained in the c-th roots of unity: {rep.residuals()}"
        )
    return out


@dataclass(frozen=True)
class RoundingReport:
    """Input defects and rounding quality for round_almost_pvm."""

    overlap_defect: float
    idempotency_defect: float
    sum_defect: float
    max_distance_2norm: float


def round_almost_pvm(
    ops, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[np.ndarray], RoundingReport]:
    """Round a family of almost-projections to an exact PVM.

    Spectral rounding of the outcome-weighted sum A = sum_a (a+1) P_a: each
    eigenvalue is rounded to the nearest integer clamped to {1..c} and Q_a is
    the corresponding eigenprojection.  Succeeds on finite input; the quality is the
    reported max operator-norm distance to the input.
    """
    mats = [as_matrix(p) for p in ops]
    if not mats:
        raise ValueError("need at least one operator")
    c = len(mats)
    defects = check_measurement(mats, tol)

    weighted = sum((a + 1) * ((p + p.conj().T) / 2) for a, p in enumerate(mats))
    w, v = hermitian_eig(weighted, Tolerance(1e-6))
    labels = np.clip(np.rint(w).astype(int), 1, c)
    out = []
    for a in range(1, c + 1):
        cols = v[:, labels == a]
        out.append(cols @ cols.conj().T)

    dist = np.linalg.norm(np.stack(out) - np.stack(mats), ord=2, axis=(-2, -1))
    report = RoundingReport(
        overlap_defect=defects.orthogonality_defect,
        idempotency_defect=defects.idempotency_defect,
        sum_defect=defects.sum_defect,
        max_distance_2norm=worst_residual(dist)[0],
    )
    return out, report


def bob_from_alice(strategy: BlockStrategy) -> TensorStrategy:
    """Canonical tensor-product realization of a trace-path strategy.

    H_A = H_B = C^D; the shared state is the trace vector
    chi = (+)_s sqrt(w_s/d_s) sum_p e_{s,p} (x) e_{s,p}, and Bob's operators
    are the entrywise complex conjugates of Alice's, shuffled onto
    H_B (x) C^n.  The tensor correlation then reproduces the trace
    correlation, and (I (x) Q_{a,ij}) chi = (P_{a,ij}* (x) I) chi.
    """
    d = strategy.ancilla.dim
    n = strategy.n
    chi = np.zeros(d * d, dtype=np.complex128)
    t = strategy.ancilla.trace_diagonal()
    for u in range(d):
        chi[u * d + u] = np.sqrt(t[u])
    alice = strategy.projections
    bob = tuple(
        canonical_shuffle(np.conj(p), outer=n, inner=d) for p in strategy.projections
    )
    return TensorStrategy(dims=(d, d), alice=tuple(alice), bob=bob, chi=chi)
