"""Quantum graphs (S, M, M_n), classical graphs, and the bridge between them.

A quantum graph is an operator system S inside M_n that is a bimodule over
the commutant of a von Neumann algebra M.  Classical graphs embed via the
graph operator system S_G over the diagonal algebra, and a brute-force
oracle supplies exact chromatic numbers for small classical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import VnAlgebra, commutant, commutant_units, irreducible_copies
from .linalg import (
    _CHUNK_BYTES,
    DEFAULT_TOL,
    MATRIX_SLACK,
    SPAN_RANK_FLOOR,
    Check,
    CheckReport,
    Tolerance,
    frozen_stack,
)

__all__ = [
    "QuantumGraph",
    "EdgeBasis",
    "ClassicalGraph",
    "validate",
    "edge_basis",
    "graph_operator_system",
    "classical_graph_from_operator_system",
    "proper_coloring",
    "chromatic_number",
    "homomorphism_exists",
]

SAME_VERTEX = "same_vertex"
ADJACENCY = "adjacency"


@dataclass(frozen=True)
class QuantumGraph:
    """Triple (S, M, M_n): spanning set for S plus the algebra M.

    traceless=True selects the variant where S is a self-adjoint traceless
    bimodule instead of an operator system; the game machinery is unchanged.
    Traceless means tr Y_i = 0 for each spanning element Y_i, that is S is
    orthogonal to the identity.  That is Weaver's irreflexive S perp M' only
    when M' = C 1; for a larger commutant it is the weaker condition.

    s_basis is stored as a read-only complex (m, n, n) copy of the spanning set
    given, so no write reaches the reports cached on the graph.
    """

    n: int
    algebra: VnAlgebra
    s_basis: np.ndarray
    traceless: bool = False

    def __post_init__(self):
        object.__setattr__(self, "s_basis", frozen_stack(self.s_basis, self.n, "s_basis element"))
        if self.algebra.n != self.n:
            raise ValueError(f"algebra lives in M_{self.algebra.n}, graph in M_{self.n}")

    def span_basis(self) -> np.ndarray:
        """HS-orthonormal basis of span(S), as a read-only (dim S, n, n) stack."""
        return self._split[0].reshape(-1, self.n, self.n)

    # Immutable value: each derived basis and report is computed once, free of any tolerance.
    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """One SVD of the flattened spanning family: HS-orthonormal rows spanning
        span(S) and span(S)perp.  As in orthonormalize, directions at or below
        SPAN_RANK_FLOOR are left out of span(S), so they belong to the complement."""
        nn = self.n * self.n
        stack = self.s_basis.reshape(-1, nn)
        if not len(stack):
            return stack, np.eye(nn, dtype=np.complex128)
        _, s, vh = np.linalg.svd(stack, full_matrices=len(stack) < nn)
        vh.flags.writeable = False  # span_basis hands out a view of it
        rank = int(np.count_nonzero(s > SPAN_RANK_FLOOR * s[0]))
        return vh[:rank], vh[rank:]

    @cached_property
    def _adjacency_basis(self) -> np.ndarray:
        """S n (M')perp as an orthonormal (x, n, n) stack: the directions of span(S) whose
        principal cosine with M' is below 1/2, the right singular vectors of C B* for the
        orthonormal rows C of M' and B of span(S).  On a bimodule, traceless or not, each
        cosine is 0 or 1, so noise in S moves a cosine but not the dimension."""
        span = self._split[0]
        if not len(span):
            return span.reshape(0, self.n, self.n)
        comm = np.reshape(commutant(self.algebra), (-1, self.n * self.n))
        _, s, wh = np.linalg.svd(comm @ span.conj().T)
        cosines = np.pad(s, (0, len(span) - len(s)))  # a direction past rank(C B*) has cosine 0
        basis = (wh[cosines < 0.5] @ span).reshape(-1, self.n, self.n)
        basis.flags.writeable = False  # one of the cached game inputs, which are read-only
        return basis

    @cached_property
    def _validation(self) -> CheckReport:
        """The tolerance-free report of validate, decided at DEFAULT_TOL."""
        return _compute_validation(self)

    @cached_property
    def _edge_basis(self) -> "EdgeBasis":
        return _compute_edge_basis(self)

    @cached_property
    def _game_inputs(self) -> tuple:
        """The game's same-vertex and adjacency input spaces M' and S n (M')perp as (m, n, n) stacks,
        each with the kappa = max(|sum_Y Y Y*|_2, |sum_Y Y* Y|_2) of homgame._sandwich's bound."""
        out = []
        for ys in (commutant(self.algebra), self._adjacency_basis):
            grams = np.stack([np.einsum("kij,klj->il", ys, ys.conj()), np.einsum("kji,kjl->il", ys.conj(), ys)])
            out.append((ys, np.linalg.eigvalsh(grams)[:, -1].max()))
        return tuple(out)


def validate(g: QuantumGraph, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Check the quantum graph invariants, reporting worst residual per check.

    With Q an orthonormal basis of span(S)perp, the distance of a matrix Z from
    span(S) is |Q vec(Z)|.  self_adjoint reads it for each Y* of the spanning
    set, operator_system for the identity, and bimodule for each a Y b over
    the commutant units a, b of M'; traceless reads |tr Y|.  When span(S)perp
    = 0, as for S = M_n, those three read exactly 0 with no witness.
    The residuals are computed once per graph; tol only decides each check.
    """
    return g._validation.at(tol)


def require_valid(g: QuantumGraph, tol: Tolerance = DEFAULT_TOL):
    """Raise ValueError, naming the failed checks, when g fails validate."""
    failed = validate(g, tol).failures()
    if failed:
        raise ValueError(f"quantum graph fails validation: {failed}")


def _compute_validation(g: QuantumGraph) -> CheckReport:
    n, tol = g.n, DEFAULT_TOL
    perp = g._split[1]

    def distances(stack):
        """|Q vec(Z)| for each Z of an (..., n, n) stack: its distance from span(S)."""
        return np.linalg.norm(np.reshape(stack, (*stack.shape[:-2], n * n)) @ perp.conj().T, axis=-1)

    checks = [
        Check.of("self_adjoint", distances(g.s_basis.conj().transpose(0, 2, 1)), tol, "basis_index")
    ]
    if g.traceless:
        traces = np.abs(np.trace(g.s_basis, axis1=1, axis2=2))
        checks.append(Check.of("traceless", traces, tol, "basis_index"))
    else:
        checks.append(Check.of("operator_system", distances(np.eye(n)), tol))
    bimodule = _bimodule_distances(g.algebra, g.s_basis, perp.reshape(-1, n, n))
    checks.append(Check.of("bimodule", bimodule, tol, "comm_left", "comm_right", "basis_index"))
    return CheckReport(tuple(checks))


def _bimodule_distances(alg: VnAlgebra, ys: np.ndarray, perp: np.ndarray) -> np.ndarray:
    """|Q vec(a Y b)| for the commutant units a, b (in commutant order) and each Y of
    a (k, n, n) stack, as (m, m, k), for an orthonormal (x, n, n) stack Q.

    In the canonical frame a unit with lead rows lead + i and trail rows trail + i
    (see commutant_units) maps Y to a Y b, which holds Y[trail_a, lead_b] /
    sqrt(k_a k_b) at [lead_a, trail_b] and is 0 elsewhere.
    So the coefficients <Q_x, a Y b> are G_ab g_ab(Y) for two gathers, the
    (x, K^2) block G_ab of conj(Q) and the K^2 entries g_ab(Y) of Y, each index
    list padded to the largest k with a zero row.  With G_ab = W R (thin QR),
    |G_ab g| = |R g|, so one batched product with R replaces the one with G_ab.
    The Hilbert-Schmidt inner product is the same in either frame.
    """
    n = alg.n
    lead_start, trail_start, dims = np.array(commutant_units(alg)).T
    if not len(perp):  # span(S) is all of M_n: every distance is exactly 0
        return np.zeros((len(dims), len(dims), len(ys)))
    width = int(dims.max())
    pad = np.arange(width)
    inside = pad < dims[:, None]
    lead = np.where(inside, lead_start[:, None] + pad, n)
    trail = np.where(inside, trail_start[:, None] + pad, n)

    def canonical(stack):
        """U* X U for each X, axes (row, column, index), with a zero row and column n."""
        out = np.zeros((n + 1, n + 1, len(stack)), dtype=np.complex128)
        out[:n, :n] = np.moveaxis(alg.to_canonical(stack), 0, -1)
        return out

    q, y = canonical(perp).conj(), canonical(ys)
    m, x, k, square = len(dims), len(perp), len(ys), width * width
    out = np.empty((m, m, k))
    # A chunk of rows a holds the (a, m, K^2, x) and (a, m, K^2, k) gathers and the
    # (a, m, K^2, k) product.
    step = max(1, _CHUNK_BYTES // (16 * m * square * (x + 2 * k + square) + 1))
    for start in range(0, m, step):
        rows = slice(start, start + step)
        shape = (len(lead[rows]), m, square)
        gq = q[lead[rows, None, :, None], trail[None, :, None, :]].reshape(*shape, x)
        gy = y[trail[rows, None, :, None], lead[None, :, None, :]].reshape(*shape, k)
        r = np.linalg.qr(gq.swapaxes(-2, -1), mode="r")
        out[rows] = np.linalg.norm(r @ gy, axis=-2)
    return out / np.sqrt(dims[:, None, None] * dims[None, :, None])


@dataclass(frozen=True)
class EdgeBasis:
    """The basis as one read-only (m, n, n) stack, with the tag (SAME_VERTEX or
    ADJACENCY) of each matrix and its copy pair (a, b), indices into block_dims."""

    matrices: np.ndarray
    tags: tuple[str, ...]
    blocks: tuple[tuple[int, int], ...]
    block_dims: tuple[int, ...]


def edge_basis(g: QuantumGraph, tol: Tolerance = DEFAULT_TOL) -> EdgeBasis:
    """Quantum edge basis for the homomorphism game.

    The pairs (a, b) of irreducible copies W_a of M come in row-major order.
    Each pair first gets its same-vertex element, the normalized matrix unit
    W_a W_b*/sqrt(k) between two copies of one irreducible representation (none
    across central blocks); these are the units of commutant(M), in their
    order, an orthonormal basis of M' for every graph, traceless or not.  Its
    adjacency elements follow: an orthonormal basis of E_a (S n (M')perp) E_b,
    the right singular vectors of the coordinates W_a* Z W_b over an orthonormal
    basis Z of S n (M')perp with singular value at least 1/2.  Deterministic, and
    computed once per graph; tol only gates it on validate.
    """
    require_valid(g, tol)
    return g._edge_basis


def _compute_edge_basis(g: QuantumGraph) -> EdgeBasis:
    alg, n = g.algebra, g.n
    copies = irreducible_copies(alg)
    # In the canonical frame W_a* Z W_b is a slice of U* Z U, and W_a v W_b* holds v there.
    z = alg.to_canonical(g._adjacency_basis)
    adjacency, tags, blocks = [np.zeros((0, n, n), dtype=np.complex128)], [], []
    for a, (ra, la, ka) in enumerate(copies):
        for b, (rb, lb, kb) in enumerate(copies):
            if ra == rb:
                # E_a M' E_b is one-dimensional and orthogonal to (M')perp.
                tags.append(SAME_VERTEX)
                blocks.append((a, b))
            # On a bimodule the compression maps S n (M')perp into itself, so
            # the singular values are 0 or 1: the directions kept are those at 1.
            coords = z[:, la : la + ka, lb : lb + kb].reshape(len(z), ka * kb)
            _, s, vh = np.linalg.svd(coords, full_matrices=False)
            v = vh[s >= 0.5]
            kept = np.zeros((len(v), n, n), dtype=np.complex128)
            kept[:, la : la + ka, lb : lb + kb] = v.reshape(-1, ka, kb)
            adjacency.append(kept)
            tags += [ADJACENCY] * len(kept)
            blocks += [(a, b)] * len(kept)
    same = np.array(tags) == SAME_VERTEX
    matrices = np.empty((len(tags), n, n), dtype=np.complex128)
    matrices[same] = commutant(alg)
    matrices[~same] = alg.embed(np.concatenate(adjacency))
    matrices.flags.writeable = False  # cached on its graph
    return EdgeBasis(matrices, tuple(tags), tuple(blocks), tuple(k for _, _, k in copies))


@dataclass(frozen=True)
class ClassicalGraph:
    """Finite simple graph: vertex count plus a set of unordered edges."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertices < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.vertices}")
        seen = set()
        for e in self.edges:
            x, y = int(e[0]), int(e[1])
            if x == y:
                raise ValueError(f"loop at vertex {x} not allowed")
            if not (0 <= x < self.vertices and 0 <= y < self.vertices):
                raise ValueError(f"edge {e} out of range")
            seen.add((min(x, y), max(x, y)))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @classmethod
    def complete(cls, c: int) -> "ClassicalGraph":
        return cls(c, tuple((i, j) for i in range(c) for j in range(i + 1, c)))

    @classmethod
    def cycle(cls, n: int) -> "ClassicalGraph":
        return cls(n, tuple((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def empty(cls, n: int) -> "ClassicalGraph":
        return cls(n, ())

    def adjacent(self, x: int, y: int) -> bool:
        return (min(x, y), max(x, y)) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def _nonadjacent(self) -> np.ndarray:
        """Read-only boolean mask of the non-adjacent pairs, true on the diagonal."""
        mask = np.ones((self.vertices, self.vertices), dtype=bool)
        x, y = np.reshape(np.array(self.edges, dtype=np.intp), (-1, 2)).T
        mask[x, y] = mask[y, x] = False
        mask.flags.writeable = False
        return mask


def graph_operator_system(g: ClassicalGraph) -> QuantumGraph:
    """S_G = span({E_ii} u {E_ij : i ~ j}) over the diagonal algebra D_n: the E_ii,
    then E_ij and E_ji for each edge (i, j), as rows of the identity on M_n."""
    n = g.vertices
    units = [i * n + i for i in range(n)] + [u for i, j in g.edges for u in (i * n + j, j * n + i)]
    diag = VnAlgebra(n=n, blocks=tuple((1, 1) for _ in range(n)))
    return QuantumGraph(n=n, algebra=diag, s_basis=np.eye(n * n)[units].reshape(len(units), n, n))


def classical_graph_from_operator_system(
    g: QuantumGraph, tol: Tolerance = DEFAULT_TOL
) -> ClassicalGraph | None:
    """Recognize S_G over D_n; returns the graph, or None if g is not of that form."""
    if g.traceless or not all(b == (1, 1) for b in g.algebra.blocks):
        return None
    if g.algebra.unitary is not None:
        return None
    n = g.n
    span, perp = g._split
    # The distance of E_ij from span(S) is |Q vec(E_ij)|, the norm of column i * n + j of Q.
    r = np.linalg.norm(perp, axis=0).reshape(n, n)
    if not np.all(np.diagonal(r) <= tol.eps):
        return None
    rows, cols = np.triu_indices(n, 1)
    present = r[rows, cols] <= tol.eps
    # A partially present matrix unit means g is not a graph system.
    if not np.all(present | (np.abs(r[rows, cols] - 1.0) <= tol.eps * MATRIX_SLACK)):
        return None
    candidate = ClassicalGraph(n, tuple(zip(rows[present].tolist(), cols[present].tolist())))
    if len(span) != n + 2 * len(candidate.edges):
        return None
    return candidate


# --- brute-force oracle -----------------------------------------------------

DEFAULT_VERTEX_CAP = 8


def _check_cap(g: ClassicalGraph, cap: int):
    if g.vertices > cap:
        raise ValueError(f"graph has {g.vertices} vertices; oracle cap is {cap}")


def proper_coloring(g: ClassicalGraph, colors: int) -> tuple[int, ...] | None:
    """First proper coloring with the given number of colors, or None: the
    first homomorphism g -> K_colors."""
    return _first_homomorphism(g, ClassicalGraph.complete(max(colors, 0)))


def _first_homomorphism(g: ClassicalGraph, h: ClassicalGraph) -> tuple[int, ...] | None:
    """Backtracking over the vertices of g in index order, images in index
    order; deterministic."""
    assignment = [-1] * g.vertices
    earlier = [[a for a, b in g.edges if b == v] for v in range(g.vertices)]  # edges are (min, max)

    def extend(v: int) -> bool:
        if v == g.vertices:
            return True
        for img in range(h.vertices):
            if all(h.adjacent(assignment[u], img) for u in earlier[v]):
                assignment[v] = img
                if extend(v + 1):
                    return True
        return False

    return tuple(assignment) if extend(0) else None


def chromatic_number(g: ClassicalGraph, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Exact chromatic number by exhaustive search (chi of the empty graph on 0 vertices is 0)."""
    _check_cap(g, cap)
    if g.vertices == 0:
        return 0
    for c in range(1, g.vertices + 1):
        if proper_coloring(g, c) is not None:
            return c
    return g.vertices


def homomorphism_exists(
    g: ClassicalGraph, h: ClassicalGraph, cap: int = DEFAULT_VERTEX_CAP
) -> bool:
    """Exhaustive search for a graph homomorphism g -> h."""
    _check_cap(g, cap)
    return _first_homomorphism(g, h) is not None
