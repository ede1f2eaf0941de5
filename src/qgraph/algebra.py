"""Finite-dimensional von Neumann algebras M inside M_n in block normal form.

The canonical form is M = (+)_r C I_{n_r} (x) M_{k_r} with the multiplicity
leg first in each block, so within block r the ambient space factors as
C^{n_r} (x) C^{k_r}.  An optional unitary U embeds the canonical form into
ambient coordinates: M = U (canonical) U*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, hermitian_eig, hs_norm

__all__ = [
    "VnAlgebra",
    "KBlock",
    "PlancherelTrace",
    "algebra_basis",
    "commutant",
    "project",
    "plancherel",
    "normal_form",
    "orthonormalize",
    "project_onto_span",
]


@dataclass(frozen=True)
class VnAlgebra:
    """Non-degenerate von Neumann subalgebra of M_n given by its block data.

    blocks is a sequence of (mult n_r, dim k_r) pairs with sum n_r*k_r = n.
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
            u = as_matrix(self.unitary)
            if u.shape != (self.n, self.n):
                raise ValueError(f"embedding unitary has shape {u.shape}, expected {(self.n, self.n)}")
            defect = hs_norm(u.conj().T @ u - np.eye(self.n))
            if defect > 1e-8:
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
        """Conjugate a matrix in canonical coordinates into ambient ones."""
        if self.unitary is None:
            return x
        return self.unitary @ x @ self.unitary.conj().T

    def to_canonical(self, x: np.ndarray) -> np.ndarray:
        if self.unitary is None:
            return x
        return self.unitary.conj().T @ x @ self.unitary

    def central_projections(self) -> list[np.ndarray]:
        """The minimal central projections E_r, in ambient coordinates."""
        out = []
        for off, (m, k) in zip(self.block_offsets(), self.blocks):
            e = np.zeros((self.n, self.n), dtype=np.complex128)
            e[off : off + m * k, off : off + m * k] = np.eye(m * k)
            out.append(self.embed(e))
        return out

    def k_blocks(self) -> list["KBlock"]:
        """Irreducible subspaces K_alpha of the M-action, standard-basis split.

        Within central block r the copies are K_(r,p) = e_p (x) C^{k_r} for
        p = 0..n_r-1; any valid split is equivalent for the game.
        """
        u = self.unitary if self.unitary is not None else np.eye(self.n, dtype=np.complex128)
        out = []
        for r, (off, (m, k)) in enumerate(zip(self.block_offsets(), self.blocks)):
            for p in range(m):
                cols = [off + p * k + i for i in range(k)]
                out.append(KBlock(central=r, mult=p, dim=k, isometry=np.ascontiguousarray(u[:, cols])))
        return out

    # Values are immutable, so derived bases are computed once per instance.
    @cached_property
    def _algebra_basis(self) -> tuple[np.ndarray, ...]:
        return tuple(_compute_algebra_basis(self))

    @cached_property
    def _commutant_basis(self) -> tuple[np.ndarray, ...]:
        return tuple(_compute_commutant(self))


@dataclass(frozen=True)
class KBlock:
    """One irreducible subspace K_alpha; isometry columns span it."""

    central: int
    mult: int
    dim: int
    isometry: np.ndarray

    @property
    def projection(self) -> np.ndarray:
        return self.isometry @ self.isometry.conj().T


def _compute_algebra_basis(alg: VnAlgebra) -> list[np.ndarray]:
    out = []
    for off, (m, k) in zip(alg.block_offsets(), alg.blocks):
        for u in range(k):
            for v in range(k):
                b = np.zeros((alg.n, alg.n), dtype=np.complex128)
                for p in range(m):
                    b[off + p * k + u, off + p * k + v] = 1.0
                out.append(alg.embed(b / np.sqrt(m)))
    return out


def _compute_commutant(alg: VnAlgebra) -> list[np.ndarray]:
    out = []
    for off, (m, k) in zip(alg.block_offsets(), alg.blocks):
        for p in range(m):
            for q in range(m):
                b = np.zeros((alg.n, alg.n), dtype=np.complex128)
                for i in range(k):
                    b[off + p * k + i, off + q * k + i] = 1.0
                out.append(alg.embed(b / np.sqrt(k)))
    return out


def algebra_basis(alg: VnAlgebra) -> list[np.ndarray]:
    """Hilbert-Schmidt orthonormal basis of M: (1/sqrt(n_r)) I_{n_r} (x) E_uv."""
    return list(alg._algebra_basis)


def commutant(alg: VnAlgebra) -> list[np.ndarray]:
    """HS-orthonormal basis of M' = (+)_r M_{n_r} (x) I_{k_r}, size sum n_r^2."""
    return list(alg._commutant_basis)


def project(alg: VnAlgebra, space: str, x) -> np.ndarray:
    """Orthogonal (Hilbert-Schmidt) projection of x onto M, M' or (M')^perp."""
    x = as_matrix(x)
    if x.shape != (alg.n, alg.n):
        raise ValueError(f"shape mismatch: {x.shape} vs {(alg.n, alg.n)}")
    if space == "alg":
        basis = algebra_basis(alg)
    elif space in ("comm", "comm_perp"):
        basis = commutant(alg)
    else:
        raise ValueError(f"space must be 'alg', 'comm' or 'comm_perp', got {space!r}")
    proj = project_onto_span(x, basis)
    if space == "comm_perp":
        return x - proj
    return proj


def project_onto_span(x: np.ndarray, orthonormal: list[np.ndarray]) -> np.ndarray:
    """Projection onto the span of an HS-orthonormal family."""
    out = np.zeros_like(x)
    for b in orthonormal:
        out += np.vdot(b, x) * b
    return out


def orthonormalize(mats, drop_tol: float = 1e-8) -> list[np.ndarray]:
    """Orthonormal basis (HS inner product) of the span of a matrix family.

    Uses an SVD of the stacked, flattened family; singular directions below
    drop_tol (relative to the largest) are discarded.
    """
    mats = [as_matrix(m) for m in mats]
    if not mats:
        return []
    shape = mats[0].shape
    stack = np.stack([m.ravel() for m in mats])
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = s > drop_tol * s[0]
    return [vh[i].reshape(shape) for i in range(len(s)) if keep[i]]


@dataclass(frozen=True)
class PlancherelTrace:
    """The block-weighted trace psi_M = (+)_r k_r/(n_r dim M) Tr_{n_r k_r}."""

    algebra: VnAlgebra
    weights: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        d = self.algebra.dim_algebra
        w = tuple(k / (m * d) for m, k in self.algebra.blocks)
        object.__setattr__(self, "weights", w)

    def __call__(self, x) -> complex:
        x = self.algebra.to_canonical(as_matrix(x))
        total = 0.0 + 0.0j
        for w, off, (m, k) in zip(self.weights, self.algebra.block_offsets(), self.algebra.blocks):
            total += w * np.trace(x[off : off + m * k, off : off + m * k])
        return complex(total)


def plancherel(alg: VnAlgebra) -> PlancherelTrace:
    return PlancherelTrace(alg)


def _nullspace(mat: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Rows spanning the (right) nullspace of mat.

    The absolute floor keeps an all-noise matrix (every singular value at
    roundoff scale) from being assigned spurious rank.
    """
    u, s, vh = np.linalg.svd(mat)
    if s.size == 0:
        return np.eye(mat.shape[1], dtype=np.complex128)
    threshold = max(rel_tol * s[0], 1e-12)
    rank = int(np.sum(s > threshold))
    return vh[rank:].conj()


def _star_algebra_closure(generators, n: int, drop_tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the *-algebra generated, by iterated products.

    The identity is not adjoined; whether the closure contains it is the
    caller's degeneracy check.
    """
    seed = []
    for g in generators:
        g = as_matrix(g)
        if g.shape != (n, n):
            raise ValueError(f"generator shape {g.shape} does not match n={n}")
        seed.append(g)
        seed.append(g.conj().T)
    basis = orthonormalize(seed, drop_tol)
    while True:
        products = [a @ b for a in basis for b in basis]
        new_basis = orthonormalize(basis + products, drop_tol)
        if len(new_basis) == len(basis):
            return new_basis
        basis = new_basis


def _cluster_eigenvalues(w: np.ndarray, gap: float) -> list[np.ndarray]:
    """Index groups of (sorted) eigenvalues split at gaps larger than gap.

    A split gap below 1000 * gap is a nearly degenerate generic element: its
    eigenvectors, and so the recovered frame, are accurate only to about
    roundoff over that gap.  That is a genericity failure, and the caller
    draws another element.
    """
    order = np.argsort(w)
    groups, current = [], [order[0]]
    for idx in order[1:]:
        step = w[idx] - w[current[-1]]
        if gap < step <= 1e3 * gap:
            raise _GenericityFailure(f"eigenvalue gap {step:.3e} is too close to {gap:.3e}")
        if step > gap:
            groups.append(np.array(current))
            current = [idx]
        else:
            current.append(idx)
    groups.append(np.array(current))
    return groups


def _commutant_of_span(basis: list[np.ndarray], dim: int) -> np.ndarray:
    """Matrix-stack nullspace computation of {X : [X, A]=0 for all A}."""
    eye = np.eye(dim, dtype=np.complex128)
    rows = [np.kron(a, eye) - np.kron(eye, a.T) for a in basis]
    return _nullspace(np.vstack(rows))


def normal_form(
    generators, tol: Tolerance = DEFAULT_TOL, _max_attempts: int = 8
) -> tuple[VnAlgebra, np.ndarray]:
    """Recover block structure and embedding unitary from algebra generators.

    Returns (alg, U) with U* <generators> U = (+)_r C I_{n_r} (x) M_{k_r};
    the VnAlgebra carries U so it reproduces the input algebra in ambient
    coordinates.  Blocks are sorted by (k_r, n_r) for determinism.

    The algorithm eigendecomposes a generic self-adjoint central element to
    find the minimal central projections, then aligns the multiplicity copies
    inside each block with a generic commutant element.
    """
    generators = [as_matrix(g) for g in generators]
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].shape[0]
    basis = _star_algebra_closure(generators, n, drop_tol=tol.eps * 10)

    eye = np.eye(n, dtype=np.complex128)
    unit_residual = hs_norm(eye - project_onto_span(eye, basis))
    if unit_residual > np.sqrt(n) * 1e-7:
        raise ValueError(
            f"generated algebra does not contain the identity (residual {unit_residual:.3e})"
        )

    # Center Z(A) = A intersect A': solve both memberships at once.
    stack = np.stack([b.ravel() for b in basis])
    in_alg = np.eye(n * n) - stack.T @ stack.conj()  # complement of the projection onto span(A)
    comm_rows = []
    for a in basis:
        comm_rows.append(np.kron(a, eye) - np.kron(eye, a.T))
    constraint = np.vstack(comm_rows + [in_alg])
    center = _nullspace(constraint)
    if center.shape[0] == 0:
        raise ValueError("empty center; generators do not span a unital *-algebra")

    rng = np.random.default_rng(7)
    last_err: Exception | None = None
    for _ in range(_max_attempts):
        try:
            return _normal_form_attempt(basis, center, n, tol, rng)
        except _GenericityFailure as exc:  # retry with fresh generic elements
            last_err = exc
    raise ValueError(f"normal form recovery failed: {last_err}")


class _GenericityFailure(RuntimeError):
    pass


def _normal_form_attempt(
    basis: list[np.ndarray],
    center: np.ndarray,
    n: int,
    tol: Tolerance,
    rng: np.random.Generator,
) -> tuple[VnAlgebra, np.ndarray]:
    z = np.zeros((n, n), dtype=np.complex128)
    for row in center:
        c = rng.normal() + 1j * rng.normal()
        z += c * row.reshape(n, n)
    z = z + z.conj().T
    w, v = hermitian_eig(z, Tolerance(1e-7))
    scale = max(1.0, float(np.abs(w).max()))
    groups = _cluster_eigenvalues(w, gap=1e-6 * scale)

    found: list[tuple[int, int, np.ndarray]] = []  # (k_r, n_r, block isometry)
    for idx in groups:
        w_block = v[:, idx]  # isometry C^{m_r} -> C^n
        m_r = w_block.shape[1]
        compressed = orthonormalize(
            [w_block.conj().T @ b @ w_block for b in basis], drop_tol=1e-8
        )
        k = round(np.sqrt(len(compressed)))
        if k * k != len(compressed) or m_r % k != 0:
            raise _GenericityFailure(
                f"central cluster of size {m_r} gave algebra dim {len(compressed)}"
            )
        mult = m_r // k
        comm_basis = _commutant_of_span(compressed, m_r)
        if comm_basis.shape[0] != mult * mult:
            raise _GenericityFailure("block commutant has unexpected dimension")

        g0 = np.zeros((m_r, m_r), dtype=np.complex128)
        for row in comm_basis:
            c = rng.normal() + 1j * rng.normal()
            g0 += c * row.reshape(m_r, m_r)
        g_herm = g0 + g0.conj().T
        w2, v2 = hermitian_eig(g_herm, Tolerance(1e-7))
        scale2 = max(1.0, float(np.abs(w2).max()))
        copies = _cluster_eigenvalues(w2, gap=1e-6 * scale2)
        if len(copies) != mult or any(len(ix) != k for ix in copies):
            raise _GenericityFailure("commutant element not generic")

        g = np.zeros((m_r, m_r), dtype=np.complex128)
        for row in comm_basis:
            c = rng.normal() + 1j * rng.normal()
            g += c * row.reshape(m_r, m_r)

        v0 = v2[:, copies[0]]
        cols = [v0]
        for ix in copies[1:]:
            vp = v2[:, ix]
            cand = vp @ (vp.conj().T @ g @ v0)
            nrm = np.linalg.norm(cand[:, 0])
            if nrm < 1e-8:
                raise _GenericityFailure("commutant element does not connect copies")
            cand = cand / nrm
            # Snap to the closest isometry (polar correction).
            uu, _, vv = np.linalg.svd(cand, full_matrices=False)
            cols.append(uu @ vv)
        v_r = np.hstack(cols)  # columns ordered (p, j) with j fast
        found.append((k, mult, w_block @ v_r))

    found.sort(key=lambda t: (t[0], t[1]))
    u = np.hstack([iso for _, _, iso in found])
    blocks = tuple((mult, k) for k, mult, _ in found)

    # Validate the recovery before committing to it.
    defect = hs_norm(u.conj().T @ u - np.eye(n))
    if defect > 1e-8:
        raise _GenericityFailure(f"assembled frame is not unitary (defect {defect:.3e})")
    candidate = VnAlgebra(n=n, blocks=blocks, unitary=u)
    canon = algebra_basis(VnAlgebra(n=n, blocks=blocks))
    worst = 0.0
    for b in basis:
        b_can = u.conj().T @ b @ u
        worst = max(worst, hs_norm(b_can - project_onto_span(b_can, canon)))
    if worst > np.sqrt(n) * 1e-7:
        raise _GenericityFailure(f"conjugated basis leaves canonical span (residual {worst:.3e})")
    return candidate, u
