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

from .algebra import (
    VnAlgebra,
    commutant,
    orthonormalize,
    project_onto_span,
)
from .linalg import DEFAULT_TOL, Check, CheckReport, Tolerance, as_matrix, hs_norm, matrix_unit

__all__ = [
    "QuantumGraph",
    "EdgeBasisElement",
    "EdgeBasis",
    "ClassicalGraph",
    "validate",
    "edge_basis",
    "adjacency_subspace_basis",
    "vectorize",
    "devectorize",
    "bell_state",
    "graph_operator_system",
    "classical_graph_from_operator_system",
    "proper_coloring",
    "chromatic_number",
    "homomorphism_exists",
    "classical_oracle",
    "OracleReport",
]

SAME_VERTEX = "same_vertex"
ADJACENCY = "adjacency"


@dataclass(frozen=True)
class QuantumGraph:
    """Triple (S, M, M_n): spanning set for S plus the algebra M.

    traceless=True selects the variant where S is a self-adjoint traceless
    bimodule instead of an operator system; the game machinery is unchanged.
    """

    n: int
    algebra: VnAlgebra
    s_basis: tuple[np.ndarray, ...]
    traceless: bool = False

    def __post_init__(self):
        mats = tuple(as_matrix(m) for m in self.s_basis)
        for m in mats:
            if m.shape != (self.n, self.n):
                raise ValueError(f"s_basis element of shape {m.shape}, expected {(self.n, self.n)}")
        if self.algebra.n != self.n:
            raise ValueError(f"algebra lives in M_{self.algebra.n}, graph in M_{self.n}")
        object.__setattr__(self, "s_basis", mats)

    def span_basis(self) -> list[np.ndarray]:
        """HS-orthonormal basis of span(S)."""
        return list(self._span)

    # Immutable value: derived bases are computed once and memoized.
    @cached_property
    def _span(self) -> tuple[np.ndarray, ...]:
        return tuple(orthonormalize(list(self.s_basis)))

    @cached_property
    def _adjacency_basis(self) -> tuple[np.ndarray, ...]:
        basis = np.asarray(self.s_basis)
        return tuple(orthonormalize(basis - project_onto_span(basis, commutant(self.algebra))))


def validate(g: QuantumGraph, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Check the quantum graph invariants, reporting worst residual per check.

    Memoized per graph and tolerance, so edge_basis reuses the report.
    """
    return _memoized(g, "_validate_cache", tol, _compute_validation)


def _memoized(g: QuantumGraph, name: str, tol: Tolerance, compute):
    """compute(g, tol), stored on the (immutable) graph under name per tolerance."""
    cache = g.__dict__.setdefault(name, {})
    if tol.eps not in cache:
        cache[tol.eps] = compute(g, tol)
    return cache[tol.eps]


def _compute_validation(g: QuantumGraph, tol: Tolerance) -> CheckReport:
    span = g.span_basis()

    def span_defects(stack):
        return np.linalg.norm(stack - project_onto_span(stack, span), axis=(-2, -1))

    basis = np.reshape(np.asarray(g.s_basis, dtype=np.complex128), (len(g.s_basis), g.n, g.n))
    checks = [
        Check.of("self_adjoint", span_defects(basis.conj().transpose(0, 2, 1)), tol, "basis_index")
    ]
    if g.traceless:
        traces = [abs(np.trace(y)) for y in g.s_basis]
        checks.append(Check.of("traceless", traces, tol, "basis_index"))
    else:
        checks.append(Check.of("operator_system", span_defects(np.eye(g.n)), tol))

    # One (comm_right, basis_index) stack of a Y b per left commutant element a.
    comm = np.asarray(commutant(g.algebra))
    bimodule = np.array([span_defects((a @ basis)[None] @ comm[:, None]) for a in comm])
    checks.append(Check.of("bimodule", bimodule, tol, "comm_left", "comm_right", "basis_index"))
    return CheckReport(tuple(checks))


@dataclass(frozen=True)
class EdgeBasisElement:
    matrix: np.ndarray
    tag: str  # SAME_VERTEX or ADJACENCY
    block: tuple[int, int]  # indices into the flattened K-block list


@dataclass(frozen=True)
class EdgeBasis:
    elements: tuple[EdgeBasisElement, ...]
    block_dims: tuple[int, ...]

    def tagged(self, tag: str) -> list[EdgeBasisElement]:
        return [e for e in self.elements if e.tag == tag]

    def matrices(self) -> list[np.ndarray]:
        return [e.matrix for e in self.elements]


def adjacency_subspace_basis(g: QuantumGraph) -> list[np.ndarray]:
    """HS-orthonormal basis of S intersect (M')^perp."""
    return list(g._adjacency_basis)


def edge_basis(g: QuantumGraph, tol: Tolerance = DEFAULT_TOL) -> EdgeBasis:
    """Quantum edge basis for the homomorphism game.

    The K-block pairs (a, b) come in row-major order.  Each pair first gets
    its same-vertex element, the normalized matrix unit W_a W_b*/sqrt(k)
    between two copies of one irreducible representation (none across
    central blocks or for a traceless graph).  Its adjacency elements follow:
    an orthonormal basis of E_a (S n (M')perp) E_b, the right singular
    vectors of the coordinates W_a* Z W_b over an orthonormal basis Z of
    S n (M')perp, in descending singular value.  Deterministic, and memoized
    per graph and tolerance.
    """
    return _memoized(g, "_edge_basis_cache", tol, _compute_edge_basis)


def _compute_edge_basis(g: QuantumGraph, tol: Tolerance) -> EdgeBasis:
    # A report the caller already made is read from the memo, not validated again.
    report = g.__dict__.get("_validate_cache", {}).get(tol.eps) or validate(g, tol)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise ValueError(f"quantum graph fails validation: {failed}")

    kblocks = g.algebra.k_blocks()
    perp = np.reshape(adjacency_subspace_basis(g), (-1, g.n, g.n))
    elements: list[EdgeBasisElement] = []
    for a_idx, ka in enumerate(kblocks):
        for b_idx, kb in enumerate(kblocks):
            wa, wb = ka.isometry, kb.isometry
            if not g.traceless and ka.central == kb.central:
                # E_a M' E_b is one-dimensional and orthogonal to (M')perp.
                unit = wa @ wb.conj().T / np.sqrt(ka.dim)
                elements.append(EdgeBasisElement(unit, SAME_VERTEX, (a_idx, b_idx)))
            # On a bimodule the compression maps S n (M')perp into itself, so
            # the singular values are 0 or 1.
            coords = (wa.conj().T @ perp @ wb).reshape(len(perp), ka.dim * kb.dim)
            _, s, vh = np.linalg.svd(coords, full_matrices=False)
            for v in vh[s >= tol.eps * 10]:
                y = wa @ v.reshape(ka.dim, kb.dim) @ wb.conj().T
                elements.append(EdgeBasisElement(y, ADJACENCY, (a_idx, b_idx)))
    return EdgeBasis(tuple(elements), tuple(k.dim for k in kblocks))


def vectorize(y, basis: np.ndarray | None = None) -> np.ndarray:
    """Matrix -> vector under v_i (x) v_j  <->  v_i v_j*.

    With the standard basis this is the row-major flattening; a general
    orthonormal basis is handled by conjugation.  Inner-product preserving
    between the unnormalized HS and standard inner products.
    """
    y = as_matrix(y)
    n = y.shape[0]
    if y.shape != (n, n):
        raise ValueError(f"expected square matrix, got {y.shape}")
    if basis is None:
        return y.reshape(n * n).copy()
    v = _checked_basis(basis, n)
    coeff = v.conj().T @ y @ v
    return (np.kron(v, v) @ coeff.reshape(n * n)).reshape(n * n)


def devectorize(vec, basis: np.ndarray | None = None) -> np.ndarray:
    """Inverse of vectorize."""
    vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
    n = round(np.sqrt(vec.size))
    if n * n != vec.size:
        raise ValueError(f"vector of length {vec.size} is not n^2")
    if basis is None:
        return vec.reshape(n, n).copy()
    v = _checked_basis(basis, n)
    coeff = (np.kron(v, v).conj().T @ vec).reshape(n, n)
    return v @ coeff @ v.conj().T


def _checked_basis(basis, n: int) -> np.ndarray:
    v = as_matrix(basis)
    if v.shape != (n, n):
        raise ValueError(f"basis must be {n} column vectors of length {n}")
    if not hs_norm(v.conj().T @ v - np.eye(n)) <= 1e-8:
        raise ValueError("basis columns are not orthonormal")
    return v


def bell_state(subset, n: int) -> np.ndarray:
    """Maximally entangled state (1/sqrt|S|) sum_{j in S} e_j (x) e_j in C^n (x) C^n."""
    idx = sorted(set(int(j) for j in subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"subset {idx} out of range for n={n}")
    v = np.zeros(n * n, dtype=np.complex128)
    for j in idx:
        v[j * n + j] = 1.0
    return v / np.sqrt(len(idx))


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

    def neighbors(self, x: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == x:
                out.append(b)
            elif b == x:
                out.append(a)
        return sorted(out)


def graph_operator_system(g: ClassicalGraph) -> QuantumGraph:
    """S_G = span({E_ii} u {E_ij : i ~ j}) over the diagonal algebra D_n."""
    n = g.vertices
    basis = [matrix_unit(n, i, i) for i in range(n)]
    for i, j in g.edges:
        basis.append(matrix_unit(n, i, j))
        basis.append(matrix_unit(n, j, i))
    diag = VnAlgebra(n=n, blocks=tuple((1, 1) for _ in range(n)))
    return QuantumGraph(n=n, algebra=diag, s_basis=tuple(basis))


def classical_graph_from_operator_system(
    g: QuantumGraph, tol: Tolerance = DEFAULT_TOL
) -> ClassicalGraph | None:
    """Recognize S_G over D_n; returns the graph, or None if g is not of that form."""
    if g.traceless or not all(b == (1, 1) for b in g.algebra.blocks):
        return None
    if g.algebra.unitary is not None:
        return None
    n = g.n
    span = g.span_basis()
    # Row i * n + j is the matrix unit E_ij.
    units = np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)
    r = np.linalg.norm(units - project_onto_span(units, span), axis=(-2, -1)).reshape(n, n)
    if not np.all(np.diagonal(r) <= tol.eps):
        return None
    rows, cols = np.triu_indices(n, 1)
    present = r[rows, cols] <= tol.eps
    # A partially present matrix unit means g is not a graph system.
    if not np.all(present | (np.abs(r[rows, cols] - 1.0) <= tol.eps * 10)):
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
    """First proper coloring with the given number of colors, or None.

    Backtracking over vertices in index order; deterministic.
    """
    assignment = [-1] * g.vertices
    adj = [g.neighbors(v) for v in range(g.vertices)]

    def extend(v: int) -> bool:
        if v == g.vertices:
            return True
        for col in range(colors):
            if all(assignment[u] != col for u in adj[v] if u < v):
                assignment[v] = col
                if extend(v + 1):
                    return True
                assignment[v] = -1
        return False

    if extend(0):
        return tuple(assignment)
    return None


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
    if g.vertices == 0:
        return True
    if h.vertices == 0:
        return False
    adj = [g.neighbors(v) for v in range(g.vertices)]
    assignment = [-1] * g.vertices

    def extend(v: int) -> bool:
        if v == g.vertices:
            return True
        for img in range(h.vertices):
            ok = True
            for u in adj[v]:
                if u < v and not h.adjacent(assignment[u], img):
                    ok = False
                    break
            if ok:
                assignment[v] = img
                if extend(v + 1):
                    return True
                assignment[v] = -1
        return False

    return extend(0)


@dataclass(frozen=True)
class OracleReport:
    """Brute-force facts about a classical graph."""

    graph: ClassicalGraph
    chromatic_number: int
    cap: int = DEFAULT_VERTEX_CAP

    def hom_to(self, h: ClassicalGraph) -> bool:
        return homomorphism_exists(self.graph, h, self.cap)


def classical_oracle(g: ClassicalGraph, cap: int = DEFAULT_VERTEX_CAP) -> OracleReport:
    return OracleReport(graph=g, chromatic_number=chromatic_number(g, cap), cap=cap)
