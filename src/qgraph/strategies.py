"""Strategies for quantum-input games: block PVMs over tracial ancillas.

A BlockStrategy is a PVM {P_a} in M_n(A) for a finite-dimensional tracial
ancilla A = (+)_s M_{d_s}, stored as c big matrices on C^n (x) C^D with
D = sum d_s.  The (i,j) entry P_{a,ij} of each big matrix is a D x D matrix
that is block diagonal across the ancilla summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    _CHUNK_BYTES,
    DEFAULT_TOL,
    POVM_CHECKS,
    TRACE_WEIGHT_SLACK,
    CheckReport,
    Tolerance,
    canonical_shuffle,
    check_measurement,
    frozen_stack,
    square_stack,
    worst_residual,
)

__all__ = [
    "TracialAncilla",
    "BlockStrategy",
    "TensorStrategy",
    "dilate_povm",
    "dilate_block_povm",
    "corner_compress",
    "round_almost_pvm",
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
            if not abs(sum(w) - 1.0) <= TRACE_WEIGHT_SLACK:
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

    def block_mask(self) -> np.ndarray:
        """The D x D boolean mask of the block-diagonal algebra."""
        block = np.repeat(np.arange(len(self.block_dims)), self.block_dims)
        return block[:, None] == block

    def tensor(self, other: "TracialAncilla") -> "TracialAncilla":
        """Tensor-product ancilla with blocks (d_s e_t) in lexicographic order."""
        dims = tuple(d * e for d in self.block_dims for e in other.block_dims)
        weights = tuple(w * u for w in self.trace_weights for u in other.trace_weights)
        return TracialAncilla(dims, weights)


@dataclass(frozen=True)
class BlockStrategy:
    """PVM (or POVM, for embeddings) in M_n(A) over a tracial ancilla A.

    projections is stored as a read-only complex (c, nD, nD) copy of the
    operators given, so no write reaches the reports cached on the strategy.
    """

    n: int
    c: int
    ancilla: TracialAncilla
    projections: np.ndarray

    def __post_init__(self):
        if len(self.projections) != self.c:
            raise ValueError(f"expected {self.c} operators, got {len(self.projections)}")
        size = self.n * self.ancilla.dim
        object.__setattr__(self, "projections", frozen_stack(self.projections, size, "operator"))

    def entry(self, a: int, i: int, j: int) -> np.ndarray:
        """The D x D entry P_{a,ij}."""
        d = self.ancilla.dim
        return self.projections[a][i * d : (i + 1) * d, j * d : (j + 1) * d]

    def entries(self) -> np.ndarray:
        """All entries as an array of shape (c, n, n, D, D)."""
        d = self.ancilla.dim
        return self.projections.reshape(self.c, self.n, d, self.n, d).transpose(0, 1, 3, 2, 4)

    def measurement_report(self, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
        """check_measurement of the P_a, decided at tol; the residuals are computed once."""
        return self._measurement.at(tol)

    def ancilla_block_defect(self) -> float:
        """Worst violation of the ancilla's block-diagonal structure by any P_a: the
        largest Frobenius norm of the entries of one P_a outside the blocks."""
        outside = np.where(self.ancilla.block_mask(), 0.0, self.entries())
        return worst_residual(np.linalg.norm(outside.reshape(self.c, -1), axis=1))[0]

    def is_loc(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True when the entries E = {P_{a,ij}} *-commute: L(E) <= tol.eps, with
        L(E) = sqrt(sum |xy - yx|_F^2 over x in E, y in E u E*).  It replaced the worst
        pair, max |xy - yx|_F over the same x, y; for N = c n^2 entries,
        max <= L(E) <= sqrt(2) N max, so a verdict can only get stricter."""
        d = self.ancilla.dim
        return _star_commutator_norm(self.entries().reshape(-1, d, d)) <= tol.eps

    # Immutable value: the measurement report and the rounding are computed once and
    # shared by every game check, at every tolerance.
    @cached_property
    def _measurement(self) -> CheckReport:
        return check_measurement(self.projections)

    @cached_property
    def factors(self) -> OutcomeFactors | None:
        """round_outcomes of the P_a: None when an entry is not finite."""
        return round_outcomes(self.projections)


@dataclass(frozen=True)
class OutcomeFactors:
    """The spectral rounding of a (c, N, N) stack P to a PVM Pi: v is an N x N unitary whose
    column k belongs to outcome labels[k] (non-decreasing), projections[a] is Pi_a = V_a V_a*
    over the columns V_a of outcome a (0 if it has none), and defects[a] is d_a = |P_a - Pi_a|_F.
    """

    c: int
    v: np.ndarray
    labels: np.ndarray
    projections: np.ndarray
    defects: np.ndarray


def round_outcomes(ops: np.ndarray) -> OutcomeFactors | None:
    """Spectral rounding of a (c, N, N) stack: one eigh of A = sum_a (a+1) herm(P_a); each eigenvalue,
    rounded to the nearest integer clamped to {1..c}, labels its eigenvector with an outcome (eigh
    sorts them, so the labels are sorted too).  None, with no decomposition run, on a non-finite stack.

    The eigenvectors of A mix every outcome's deviation into each Pi_a, so V is then turned by the Cayley
    transform of the anti-Hermitian X that fits each Pi_a to its own P_a to first order: X = (G - G*)/2
    for G = V* M, column j of M = herm(P_s) v_j with s the outcome of v_j (so X is 0 within an outcome)."""
    if not np.isfinite(ops).all():
        return None
    c = len(ops)
    weighted = np.einsum("a,aij->ij", np.arange(1.0, c + 1), ops)
    w, v = np.linalg.eigh((weighted + weighted.conj().T) / 2)
    labels = np.clip(np.rint(w).astype(int), 1, c) - 1
    m = ((ops + ops.conj().transpose(0, 2, 1)) @ v)[labels, :, np.arange(len(v))].T  # 2M
    g = v.conj().T @ m
    half = (g - g.conj().T) / 8  # X/2
    v = v @ np.linalg.solve(np.eye(len(v)) - half, np.eye(len(v)) + half)
    cuts = np.searchsorted(labels, np.arange(c + 1))  # outcome a owns the columns cuts[a]:cuts[a + 1]
    pi = np.stack([v[:, lo:hi] @ v[:, lo:hi].conj().T for lo, hi in zip(cuts, cuts[1:])])
    defects = np.linalg.norm(ops - pi, axis=(1, 2))
    for cached in (v, labels, pi, defects):  # shared by every game check of the strategy
        cached.flags.writeable = False
    return OutcomeFactors(c, v, labels, pi, defects)


def _star_commutator_norm(ents: np.ndarray) -> float:
    """L(E) = sqrt(sum |xy - yx|_F^2 over x in E, y in E u E*) for an (N, D, D) stack E.

    With the rows vec(x) as X = A S V*, A's columns orthonormal, x = sum_i A_xi s_i v_i
    and the sum over x equals the sum over the <= D^2 rows s_i v_i of S V* (as D x D);
    E u E* reduces likewise from {s_i v_i} u {s_i v_i*}.  No pair of entries is
    visited, and every term is a norm.  Non-finite input gives inf."""
    if not np.isfinite(ents).all():
        return np.inf
    d = ents.shape[-1]

    def weighted_rows(m):
        _, s, vh = np.linalg.svd(m.reshape(len(m), d * d), full_matrices=False)
        return (s[:, None] * vh).reshape(-1, d, d)

    xs = weighted_rows(ents)
    ys = weighted_rows(np.concatenate([xs, xs.conj().transpose(0, 2, 1)]))
    r = len(ys)
    # A chunk of k rows x takes every x y and y x in two GEMMs, with two
    # (k, D, r, D) complex temporaries.
    rows = max(1, _CHUNK_BYTES // (32 * max(r, 1) * d * d))
    y_cols, y_rows = ys.transpose(1, 0, 2).reshape(d, r * d), ys.reshape(r * d, d)
    total = 0.0
    for start in range(0, len(xs), rows):
        x = xs[start : start + rows]
        k = len(x)
        comm = (x.reshape(k * d, d) @ y_cols).reshape(k, d, r, d)
        y_x = (y_rows @ x.transpose(1, 0, 2).reshape(d, k * d)).reshape(r, d, k, d)
        comm -= y_x.transpose(2, 1, 0, 3)
        total += np.vdot(comm, comm).real
    return float(np.sqrt(total))


@dataclass(frozen=True)
class TensorStrategy:
    """Tensor-product strategy: Alice on C^n (x) H_A, Bob on H_B (x) C^n.

    alice and bob are stored as read-only complex (c, n D_A, n D_A) and
    (c, D_B n, D_B n) copies of the operators given, chi as a read-only copy
    of the state's D_A D_B amplitudes.
    """

    dims: tuple[int, int]
    alice: np.ndarray
    bob: np.ndarray
    chi: np.ndarray

    def __post_init__(self):
        da, db = self.dims
        if not (da >= 1 and db >= 1):
            raise ValueError(f"dims of H_A and H_B must be positive, got {tuple(self.dims)}")
        if len(self.alice) != len(self.bob):
            raise ValueError(f"Alice has {len(self.alice)} operators, Bob has {len(self.bob)}")
        if not len(self.alice):
            raise ValueError("a tensor strategy needs at least one operator per party")
        n = len(self.alice[0]) // da  # a size that da does not divide fails the shape check
        chi = np.array(self.chi, dtype=np.complex128).reshape(-1)
        if chi.size != da * db:
            raise ValueError(f"state has {chi.size} amplitudes, expected {da * db}")
        chi.flags.writeable = False
        object.__setattr__(self, "alice", frozen_stack(self.alice, n * da, "Alice operator"))
        object.__setattr__(self, "bob", frozen_stack(self.bob, db * n, "Bob operator"))
        object.__setattr__(self, "chi", chi)

    @property
    def n(self) -> int:
        return self.alice.shape[1] // self.dims[0]

    @property
    def c(self) -> int:
        return len(self.alice)

    def bob_entry(self, b: int, k: int, ell: int) -> np.ndarray:
        """Q_{b,kl} in B(H_B) for Bob's operators on H_B (x) C^n."""
        n = self.n
        return self.bob[b][k::n, ell::n].reshape(self.dims[1], self.dims[1])


def dilate_povm(povm, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Dilate a POVM {Q_a} on H to a PVM {P_a} on C^{c+1} (x) H, as a (c, N, N) stack.

    Builds the isometry V of square roots and completes it to a unitary U.
    With U_a the a-th block of h rows of U, P_a = U*(E_aa (x) I)U = U_a* U_a for
    a < c-1, and P_{c-1} = U_{c-1}* U_{c-1} + U_c* U_c.  The (0,0) corner of P_a
    recovers Q_a.
    """
    stack = square_stack(povm)
    failed = check_measurement(stack, tol).failures(POVM_CHECKS)
    if failed:
        raise ValueError(f"input is not a POVM within tolerance: {failed}")
    c, h = stack.shape[:2]
    # The root of each Hermitian part, its spectrum clipped at 0: the POVM check has
    # bounded the anti-Hermitian part and the negative spectrum.
    w, q = np.linalg.eigh((stack + stack.conj().transpose(0, 2, 1)) / 2)
    roots = (q * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ q.conj().transpose(0, 2, 1)
    v = roots.reshape(c * h, h)  # isometry H -> H^c
    # sqrt(I - VV*) is the projection onto the cokernel of the isometry V;
    # taking it by spectral rounding avoids the square root's noise
    # amplification at the zero eigenvalues.
    gram = v @ v.conj().T
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    kernel = evecs[:, evals < 0.5]
    u = np.zeros(((c + 1) * h, (c + 1) * h), dtype=np.complex128)
    u[: c * h, :h] = v
    u[: c * h, h:] = kernel @ kernel.conj().T
    u[c * h :, h:] = -v.conj().T

    blocks = u.reshape(c + 1, h, (c + 1) * h)
    out = blocks.conj().transpose(0, 2, 1) @ blocks
    out[c - 1] += out[c]
    return out[:c]


def corner_compress(p, n: int, c: int, h: int) -> np.ndarray:
    """(1,1)-corner map for dilated block operators, of each matrix of a (..., size, size) stack.

    For p in M_n(M_{c+1}(B(H))) returns the M_n(B(H)) matrix of H-corners,
    i.e. V* p V for the isometry V: e_i (x) xi -> e_i (x) e_0 (x) xi.
    """
    p = np.asarray(p, dtype=np.complex128)
    size = n * (c + 1) * h
    if p.shape[-2:] != (size, size):
        raise ValueError(f"shape {p.shape} inconsistent with (n,c,h)=({n},{c},{h})")
    t = p.reshape(*p.shape[:-2], n, c + 1, h, n, c + 1, h)
    return np.ascontiguousarray(t[..., 0, :, :, 0, :].reshape(*p.shape[:-2], n * h, n * h))


def dilate_block_povm(povm, n: int, h: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Dilate a POVM in M_n(B(H)) to a PVM in M_n(M_{c+1}(B(H))), as a (c, N, N) stack.

    Views each Q_a as an operator on C^n (x) H, dilates, then performs the
    canonical shuffle to bring the n-leg back outside.  Corner compression of
    each output entry recovers the input entry: V* p_{a,ij} V = q_{a,ij}.
    """
    stack = square_stack(povm)
    if stack.shape[1] != n * h:
        raise ValueError(f"operator shape {stack.shape[1:]} inconsistent with n={n}, h={h}")
    dilated = dilate_povm(stack, tol)  # on C^{c+1} (x) C^n (x) H
    return canonical_shuffle(dilated, outer=len(stack) + 1, inner=n)


def round_almost_pvm(ops) -> tuple[np.ndarray, float]:
    """Round a family of almost-projections to an exact PVM by round_outcomes, the
    rounding every game check reads.  Succeeds on finite input; returns the projections,
    as a (c, N, N) stack, and their max operator-norm distance to the input, the
    quality of the rounding.
    """
    stack = square_stack(ops)
    rounding = round_outcomes(stack)
    if rounding is None:
        raise ValueError("operators have non-finite entries")
    dist = np.linalg.norm(rounding.projections - stack, ord=2, axis=(-2, -1))
    return rounding.projections, worst_residual(dist)[0]


def bob_from_alice(strategy: BlockStrategy) -> TensorStrategy:
    """Canonical tensor-product realization of a trace-path strategy.

    H_A = H_B = C^D; the shared state is the trace vector
    chi = vec(diag(sqrt(t))) = (+)_s sqrt(w_s/d_s) sum_p e_{s,p} (x) e_{s,p}, and
    Bob's operators are the entrywise complex conjugates of Alice's, shuffled
    onto H_B (x) C^n: one conj and one transpose of the (c, n, D, n, D) stack.
    The tensor correlation then reproduces the trace correlation, and
    (I (x) Q_{a,ij}) chi = (P_{a,ij}* (x) I) chi.
    """
    n, c, d = strategy.n, strategy.c, strategy.ancilla.dim
    chi = np.diag(np.sqrt(strategy.ancilla.trace_diagonal())).reshape(-1)
    bob = np.conj(strategy.projections).reshape(c, n, d, n, d)
    bob = bob.transpose(0, 2, 1, 4, 3).reshape(c, d * n, d * n)
    return TensorStrategy(dims=(d, d), alice=strategy.projections, bob=bob, chi=chi)
