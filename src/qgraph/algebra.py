"""Finite-dimensional von Neumann algebras M inside M_n in block normal form.

The canonical form is M = (+)_r C I_{n_r} (x) M_{k_r} with the multiplicity
leg first in each block, so within block r the ambient space factors as
C^{n_r} (x) C^{k_r}.  An optional unitary U embeds the canonical form into
ambient coordinates: M = U (canonical) U*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    FRAME_RESIDUAL, GENERIC_WINDOW, GENERIC_ZERO, NULLSPACE_ABS_FLOOR, NULLSPACE_FLOOR, SPAN_RANK_FLOOR,
    UNITARY_DEFECT, frozen_stack, hs_norm, worst_residual,
)

__all__ = [
    "VnAlgebra",
    "algebra_basis",
    "commutant",
    "commutant_units",
    "irreducible_copies",
    "normal_form",
    "orthonormalize",
    "project_onto_span",
]


@dataclass(frozen=True)
class VnAlgebra:
    """Non-degenerate von Neumann subalgebra of M_n given by its block data.

    blocks is a sequence of (mult n_r, dim k_r) pairs with sum n_r*k_r = n.
    unitary, when given, is stored as a read-only complex copy, and the cached
    bases that algebra_basis and commutant return are read-only (m, n, n) stacks.
    """

    n: int
    blocks: tuple[tuple[int, int], ...]
    unitary: np.ndarray | None = None

    def __post_init__(self):
        blocks = tuple((int(m), int(k)) for m, k in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if any(m < 1 or k < 1 for m, k in blocks):
            raise ValueError(f"block sizes must be positive, got {blocks}")
        if sum(m * k for m, k in blocks) != self.n:
            raise ValueError(
                f"blocks {blocks} do not fill M_{self.n} (non-degeneracy)"
            )
        if self.unitary is not None:
            u = frozen_stack((self.unitary,), self.n, "embedding unitary")[0]
            defect = hs_norm(u.conj().T @ u - np.eye(self.n))
            if not defect <= UNITARY_DEFECT:
                raise ValueError(f"embedding matrix is not unitary (defect {defect:.3e})")
            object.__setattr__(self, "unitary", u)

    @property
    def dim_algebra(self) -> int:
        return sum(k * k for _, k in self.blocks)

    @property
    def dim_commutant(self) -> int:
        return sum(m * m for m, _ in self.blocks)

    def block_offsets(self) -> list[int]:
        offs, pos = [], 0
        for m, k in self.blocks:
            offs.append(pos)
            pos += m * k
        return offs

    def is_abelian(self) -> bool:
        return all(k == 1 for _, k in self.blocks)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Conjugate an (..., n d, n d) stack on C^n (x) C^d from canonical
        coordinates into ambient ones, by U (x) I_d."""
        if self.unitary is None:
            return x
        u = self._lift(x)
        return u @ x @ u.conj().T

    def to_canonical(self, x: np.ndarray) -> np.ndarray:
        """The inverse of embed."""
        if self.unitary is None:
            return x
        u = self._lift(x)
        return u.conj().T @ x @ u

    def _lift(self, x: np.ndarray) -> np.ndarray:
        return np.kron(self.unitary, np.eye(x.shape[-1] // self.n))

    def central_projections(self) -> np.ndarray:
        """The minimal central projections E_r, in ambient coordinates, as an (r, n, n) stack."""
        block = np.repeat(np.arange(len(self.blocks)), [m * k for m, k in self.blocks])
        e = np.zeros((len(self.blocks), self.n, self.n), dtype=np.complex128)
        e[block, np.arange(self.n), np.arange(self.n)] = 1.0
        return self.embed(e)

    # Values are immutable, so derived bases are computed once per instance.
    @cached_property
    def _algebra_basis(self) -> np.ndarray:
        return frozen_stack(_compute_algebra_basis(self), self.n, "algebra basis element")

    @cached_property
    def _commutant_basis(self) -> np.ndarray:
        return frozen_stack(_compute_commutant(self), self.n, "commutant basis element")


def _compute_algebra_basis(alg: VnAlgebra) -> np.ndarray:
    """The (dim M, n, n) stack of I_m (x) E_uv / sqrt(m), (u, v) row-major in each block."""
    out = np.zeros((alg.dim_algebra, alg.n, alg.n), dtype=np.complex128)
    start = 0
    for off, (m, k) in zip(alg.block_offsets(), alg.blocks):
        u, v, p = np.meshgrid(np.arange(k), np.arange(k), np.arange(m), indexing="ij")
        out[start + u * k + v, off + p * k + u, off + p * k + v] = 1.0 / np.sqrt(m)
        start += k * k
    return alg.embed(out)


def irreducible_copies(alg: VnAlgebra) -> list[tuple[int, int, int]]:
    """(central, row, k) of each irreducible copy K_(r,p) = e_p (x) C^{k_r} of the
    M-action: in canonical coordinates it spans rows row .. row + k - 1, with
    row = off + p k in central block r.  The copies of one block come in order of p,
    next to each other; any valid split is equivalent for the game."""
    return [
        (r, off + p * k, k)
        for r, (off, (m, k)) in enumerate(zip(alg.block_offsets(), alg.blocks))
        for p in range(m)
    ]


def commutant_units(alg: VnAlgebra) -> list[tuple[int, int, int]]:
    """(lead, trail, k) of each unit E_pq (x) I_k / sqrt(k) of the commutant basis, in
    its order: in canonical coordinates the unit has 1/sqrt(k) at (lead + i, trail + i)
    for i < k, for each pair of copies (lead, trail) of one central block, row-major."""
    copies = irreducible_copies(alg)
    return [(lead, trail, k) for r, lead, k in copies for s, trail, _ in copies if r == s]


def _compute_commutant(alg: VnAlgebra) -> np.ndarray:
    """The (dim M', n, n) stack of the units of commutant_units, in their order."""
    out = np.zeros((alg.dim_commutant, alg.n, alg.n), dtype=np.complex128)
    for unit, (lead, trail, k) in enumerate(commutant_units(alg)):
        out[unit, lead + np.arange(k), trail + np.arange(k)] = 1.0 / np.sqrt(k)
    return alg.embed(out)


def algebra_basis(alg: VnAlgebra) -> np.ndarray:
    """Hilbert-Schmidt orthonormal basis of M: (1/sqrt(n_r)) I_{n_r} (x) E_uv, as the
    algebra's cached read-only (dim M, n, n) stack."""
    return alg._algebra_basis


def commutant(alg: VnAlgebra) -> np.ndarray:
    """HS-orthonormal basis of M' = (+)_r M_{n_r} (x) I_{k_r}, as the algebra's cached
    read-only (sum n_r^2, n, n) stack."""
    return alg._commutant_basis


def project_onto_span(x: np.ndarray, orthonormal: list[np.ndarray]) -> np.ndarray:
    """Projection onto the span of an HS-orthonormal family.

    x is one matrix or an (m, n, n) stack.  With the flattened matrices as the
    rows of Z and the family as the rows of B, the projections are (Z B^H) B.
    """
    x = np.asarray(x, dtype=np.complex128)
    z = x.reshape(-1, x.shape[-2] * x.shape[-1])
    b = np.reshape(np.asarray(orthonormal, dtype=np.complex128), (len(orthonormal), z.shape[1]))
    return ((z @ b.conj().T) @ b).reshape(x.shape)


def orthonormalize(mats) -> np.ndarray:
    """Orthonormal basis (HS inner product) of the span of a matrix family, as a
    read-only (r, n, n) stack.

    Uses an SVD of the stacked, flattened family; singular directions at or
    below SPAN_RANK_FLOOR (relative to the largest) are discarded.
    """
    stack = np.array(mats, dtype=np.complex128)
    if len(stack):
        _, s, vh = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
        stack = vh[s > SPAN_RANK_FLOOR * s[0]].reshape(-1, *stack.shape[1:])
    stack.flags.writeable = False
    return stack


def _nullspace(mat: np.ndarray, norm: float) -> np.ndarray:
    """Orthonormal rows spanning the (right) nullspace of a tall matrix whose operator
    norm is at most norm.  A singular value at or below NULLSPACE_FLOOR * norm, or at or
    below NULLSPACE_ABS_FLOOR, is rounding.  The floor comes from the caller's bound, not
    from the largest singular value: a map restricted to a subspace on which it vanishes
    has only rounding for singular values, and a floor relative to them would count
    some of that rounding as rank."""
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    return vh[int(np.sum(s > max(NULLSPACE_FLOOR * norm, NULLSPACE_ABS_FLOOR))) :].conj()


def _commutant_rows(basis: np.ndarray, h: np.ndarray, norm: float) -> np.ndarray:
    """Orthonormal flattened rows spanning A' = {X : [b, X] = 0 for each b of basis}, an
    HS-orthonormal (m, n, n) stack closed under adjoints, from a Hermitian element h of
    its span; norm bounds the operator norm of the whole map X -> ([b, X])_b.

    A' lies in {h}' = (+)_i W_i M_{d_i} W_i*, with W_i the eigenvectors of a group of
    h's eigenvalues, so the nullspace is taken over the sum d_i^2 HS-orthonormal units
    w_r w_s* of {h}'.  The groups split only at gaps above GENERIC_WINDOW * GENERIC_ZERO
    * max(1, |h|); merging close eigenvalues only enlarges {h}'.
    """
    m, n = len(basis), h.shape[-1]
    w, v = np.linalg.eigh(h)  # ascending, so each group is a run of columns
    gap = GENERIC_WINDOW * GENERIC_ZERO * max(1.0, float(np.abs(w).max()))
    group = np.concatenate([[0], np.cumsum(np.diff(w) > gap)])
    rows, cols = np.nonzero(group[:, None] == group[None, :])  # units w_r w_s*, in {h}'
    units = np.arange(len(rows))
    # [b~, E_rs] with b~ = V* b V: column s of b~ E_rs is b~[:, r], row r of E_rs b~ is b~[s, :].
    bt = v.conj().T @ basis @ v
    image = np.zeros((m, n, n, len(rows)), dtype=np.complex128)
    image[:, :, cols, units] = bt[:, :, rows]
    image[:, rows, :, units] -= bt[:, cols, :].transpose(1, 0, 2)
    coeffs = _nullspace(image.reshape(m * n * n, len(rows)), norm)
    comm = np.zeros((len(coeffs), n, n), dtype=np.complex128)
    comm[:, rows, cols] = coeffs
    return (v @ comm @ v.conj().T).reshape(len(coeffs), n * n)


def _cluster_eigenvalues(w: np.ndarray, gap: float) -> list[np.ndarray]:
    """Index groups of ascending eigenvalues split at steps larger than gap.

    A split step up to GENERIC_WINDOW * gap is a nearly degenerate generic element: its
    eigenvectors, and so the recovered frame, are accurate only to about
    roundoff over that gap.  That is a genericity failure, and the caller
    draws another element.
    """
    step = np.diff(w)
    near = (step > gap) & (step <= GENERIC_WINDOW * gap)
    if near.any():
        raise _GenericityFailure(f"eigenvalue gap {step[near.argmax()]:.3e} is too close to {gap:.3e}")
    return np.split(np.arange(len(w)), np.flatnonzero(step > gap) + 1)


_MAX_ATTEMPTS = 8


def normal_form(generators) -> tuple[VnAlgebra, np.ndarray]:
    """Recover block structure and embedding unitary from algebra generators.

    Returns (alg, U) with U* <generators> U = (+)_r C I_{n_r} (x) M_{k_r};
    the VnAlgebra carries U so it reproduces the input algebra in ambient
    coordinates.  Blocks are sorted by (k_r, n_r) for determinism.

    Works from the commutant A' alone (Murota, Kanno, Kojima and Kojima,
    2010): A' is the X with [b, X] = 0 for an orthonormal basis b of the
    generators and their adjoints.  It lies in the commutant {h}' of one
    generic Hermitian h in their span, so it is one nullspace over the
    sum d_i^2 units of {h}' (see _commutant_rows), not over all of M_n, with a
    rank floor relative to 2 |B|_2 (B the stacked basis), a bound on the norm
    of the whole map X -> ([b, X])_b.  A generic Hermitian
    element of A' has the irreducible copies as eigenspaces.  For a second
    generic Y in A', V_i* Y V_j is a nonzero multiple of a unitary within a
    block and zero across blocks; its polar part aligns the frames.  A unitary
    U, U* b U in the canonical algebra and sum n_r^2 = dim A' together
    certify the result.
    """
    if not len(generators):
        raise ValueError("need at least one generator")
    generators = frozen_stack(generators, len(generators[0]), "generator")
    n = generators.shape[-1]
    if not np.isfinite(generators).all():
        raise ValueError("generators have non-finite entries")
    if not generators.any():
        raise ValueError("generators are all zero, so they generate no unital algebra")
    basis = orthonormalize(np.concatenate([generators, generators.conj().transpose(0, 2, 1)]))

    # A *-algebra contains I exactly when its generators and their adjoints
    # have no common kernel vector: no singular value of the stacked basis B is rounding.
    s = np.linalg.svd(basis.reshape(-1, n), compute_uv=False)
    if s[-1] <= max(NULLSPACE_FLOOR * s[0], NULLSPACE_ABS_FLOOR):
        raise ValueError("generated algebra does not contain the identity (common kernel vector)")
    rng = np.random.default_rng(7)
    x = _generic(basis, rng)
    # |[b, X]|_F <= |b X|_F + |X b|_F, and sum_b b* b = sum_b b b* = B* B on a *-closed
    # span, so 2 |B|_2 bounds the norm of the whole map X -> ([b, X])_b.
    comm = _commutant_rows(basis, x + x.conj().T, 2.0 * s[0])

    for _ in range(_MAX_ATTEMPTS):
        try:
            return _normal_form_attempt(basis, comm, n, rng)
        except _GenericityFailure as exc:  # retry with fresh generic elements
            last_err = exc
    raise ValueError(f"normal form recovery failed: {last_err}")


class _GenericityFailure(RuntimeError):
    pass


def _generic(stack: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A complex Gaussian combination of the elements of a stack (or of the rows of a matrix)."""
    c = rng.normal(size=len(stack)) + 1j * rng.normal(size=len(stack))
    return np.tensordot(c, stack, axes=1)


def _normal_form_attempt(basis, comm: np.ndarray, n: int, rng: np.random.Generator):
    x = _generic(comm, rng).reshape(n, n)
    w, v = np.linalg.eigh(x + x.conj().T)  # Hermitian by construction, w ascending
    copies = _cluster_eigenvalues(w, gap=GENERIC_ZERO * max(1.0, float(np.abs(w).max())))
    starts = np.array([ix[0] for ix in copies])  # copy i spans columns starts[i] : starts[i] + k_i

    # links[i, j] = |V_i* Y V_j|_F / |Y|_F; a link inside the window is not generic.
    y = _generic(comm, rng).reshape(n, n)
    yv = v.conj().T @ y @ v
    links = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(yv) ** 2, starts, 0), starts, 1))
    links /= max(1.0, hs_norm(y))
    np.fill_diagonal(links, np.inf)  # each copy lies in its own block

    found = []  # (k_r, n_r, block isometry)
    placed = np.zeros(len(copies), dtype=bool)
    for i in range(len(copies)):
        if placed[i]:
            continue
        if np.any((links[i] > GENERIC_ZERO) & (links[i] <= GENERIC_WINDOW * GENERIC_ZERO)):
            raise _GenericityFailure("a link between two copies is nearly zero")
        members, k = np.flatnonzero(links[i] > GENERIC_WINDOW * GENERIC_ZERO), len(copies[i])
        if placed[members].any() or any(len(copies[j]) != k for j in members):
            raise _GenericityFailure("links do not split the copies into blocks")
        placed[members] = True
        cols = [v[:, starts[i] : starts[i] + k]]
        for j in members[1:]:
            # V_j* Y V_i = c W_j* W_i: its polar part maps copy j onto copy i's frame.
            p, _, q = np.linalg.svd(yv[starts[j] : starts[j] + k, starts[i] : starts[i] + k])
            cols.append(v[:, starts[j] : starts[j] + k] @ p @ q)
        found.append((k, len(members), np.hstack(cols)))

    found.sort(key=lambda t: (t[0], t[1]))
    u = np.hstack([iso for _, _, iso in found])
    blocks = tuple((mult, k) for k, mult, _ in found)
    # Merged copies, or copies grouped into the wrong blocks, change sum n_r^2.
    if sum(m * m for m, _ in blocks) != len(comm):
        raise _GenericityFailure(f"blocks {blocks} do not match dim A' = {len(comm)}")

    # The columns of u are orthonormal by construction (VnAlgebra checks it); certify the span.
    canon = algebra_basis(VnAlgebra(n=n, blocks=blocks))
    b_can = u.conj().T @ basis @ u
    residuals = np.linalg.norm(b_can - project_onto_span(b_can, canon), axis=(-2, -1))
    worst = worst_residual(residuals)[0]
    if not worst <= np.sqrt(n) * FRAME_RESIDUAL:
        raise _GenericityFailure(f"conjugated basis leaves canonical span (residual {worst:.3e})")
    return VnAlgebra(n=n, blocks=blocks, unitary=u), u
