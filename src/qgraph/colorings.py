"""Explicit quantum colorings of quantum complete graphs and their rigidity.

Two constructions cover every non-degenerate M inside M_n:

* teleport_coloring: for M = C I_d (x) M_k, the k^2 projections built from
  the maximally entangled (Bell) basis of C^k (x) C^k, with ancilla M_n.
* shift_multiply_coloring: for general block M, dim(M) projections indexed
  by (block s, phase a, shift b) with ancilla M_d, d = lcm of the block dims.

Both are built from the k^2 generalized Bell projections |phi_ab><phi_ab| on
C^k (x) C^k, phi_ab = k^(-1/2) sum_i omega^(ai) e_i (x) e_(i+b), of
_bell_projections: shift-multiply places them in each block with the system
leg first, teleport with the two legs swapped.

Both are minimal (c = dim M), so rigidity pins their partial traces:
(psi_M (x) id)(P_a) = 1/dim(M), equivalently every R_a is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import VnAlgebra
from .graphs import (
    DEFAULT_VERTEX_CAP,
    ClassicalGraph,
    QuantumGraph,
    chromatic_number,
    classical_graph_from_operator_system,
    proper_coloring,
)
from .homgame import GameInstance, verify_structural
from .linalg import DEFAULT_TOL, CheckReport, Tolerance, hs_norm, unit_root_power, worst_residual
from .strategies import BlockStrategy, TracialAncilla

__all__ = [
    "teleport_coloring",
    "shift_multiply_coloring",
    "abelian_loc_coloring",
    "diagonal_strategy",
    "complete_quantum_graph",
    "ColoringReport",
    "rigidity_check",
    "ChromaticBound",
    "BoundsReport",
    "chromatic_bounds",
]


def complete_quantum_graph(alg: VnAlgebra) -> QuantumGraph:
    """(M_n, M, M_n): S is all of M_n, spanned by the matrix units E_ij in row-major
    order, the rows of the identity on M_n."""
    n = alg.n
    return QuantumGraph(n=n, algebra=alg, s_basis=np.eye(n * n).reshape(n * n, n, n))


def _bell_projections(k: int) -> np.ndarray:
    """The k^2 generalized Bell projections |phi_ab><phi_ab| on C^k (x) C^k,
    phi_ab = k^(-1/2) sum_i omega^(ai) e_i (x) e_(i+b) with indices mod k.

    Shape (k^2, k, k, k, k): colors (a, b) in lexicographic order, then the
    axes (system i, ancilla u, system j, ancilla v).
    """
    phases = np.array([unit_root_power(k, m) / k for m in range(k)])
    a, b, i, j = np.ix_(*(range(k),) * 4)
    out = np.zeros((k, k, k, k, k, k), dtype=np.complex128)
    out[a, b, i, (i + b) % k, j, (j + b) % k] = phases[(a * (i - j)) % k]
    return out.reshape(k * k, k, k, k, k)


def teleport_coloring(d: int, k: int) -> BlockStrategy:
    """The k^2-coloring of (M_n, C I_d (x) M_k, M_n), n = dk, via Bell bases.

    P_(a,b) is the Bell projection |phi_ab><phi_ab| with its legs swapped (the
    M_k of the system carries e_(i+b), that of the ancilla e_i), next to I_d
    on the system and on the ancilla:
    P_(a,b) = (1/k) sum_{p,q} omega^{a(p-q)} I_d (x) E_{b+p,b+q} (x) I_d (x) E_{pq}
    with indices mod k; colors ordered lexicographically in (a, b).  Ancilla
    is the single block M_n with its normalized trace.
    """
    if d < 1 or k < 1:
        raise ValueError(f"need d, k >= 1, got ({d}, {k})")
    n = d * k
    eye_d = np.eye(d, dtype=np.complex128)
    swapped = _bell_projections(k).transpose(0, 2, 1, 4, 3)
    stack = np.einsum("xX,ciujv,yY->cxiyuXjYv", eye_d, swapped, eye_d)
    ancilla = TracialAncilla.full_matrix_block(n)
    return BlockStrategy(n=n, c=k * k, ancilla=ancilla, projections=stack.reshape(k * k, n * n, n * n))


def shift_multiply_coloring(alg: VnAlgebra) -> BlockStrategy:
    """The dim(M)-coloring of (M_n, M, M_n) by global shift and local multiply.

    For each color (s, a, b) with 0 <= a, b <= k_s - 1 the projection is
    (+)_r I_{n_r} (x) P^(r,s)_(a,b) with entries
    P^(r,s)_(a,b),(i,j) = (delta_rs / k_r) omega_{k_r}^{(i-j)a} I_{d_r} (x) E_{i+b,j+b}
    in M_d, d = lcm(k_1..k_m), d_r = d/k_r.  That is, block s carries the Bell
    projections I_{n_s} (x) |phi_ab><phi_ab| (x) I_{d_s} of M_{k_s} (x) M_{k_s},
    system leg first.  Ancilla is M_d with tr_d.
    """
    d = math.lcm(*(k for _, k in alg.blocks))
    n = alg.n
    stack = np.zeros((alg.dim_algebra, n, d, n, d), dtype=np.complex128)
    first = 0  # first color of the current block
    for off, (m_s, k_s) in zip(alg.block_offsets(), alg.blocks):
        c_s, size = k_s * k_s, m_s * k_s
        bell = _bell_projections(k_s)
        block = np.einsum("pq,ciujv,yY->cpiyuqjYv", np.eye(m_s), bell, np.eye(d // k_s))
        rows = slice(off, off + size)
        stack[first : first + c_s, rows, :, rows, :] = block.reshape(c_s, size, d, size, d)
        first += c_s
    ancilla = TracialAncilla.full_matrix_block(d)
    projections = alg.embed(stack.reshape(alg.dim_algebra, n * d, n * d))
    return BlockStrategy(n=n, c=alg.dim_algebra, ancilla=ancilla, projections=projections)


def abelian_loc_coloring(alg: VnAlgebra) -> BlockStrategy:
    """The loc coloring of (M_n, M, M_n) by central projections; M must be abelian."""
    if not alg.is_abelian():
        raise ValueError(
            f"algebra with blocks {alg.blocks} is non-abelian; no loc coloring exists"
        )
    projections = alg.central_projections()
    return BlockStrategy(n=alg.n, c=len(projections), ancilla=TracialAncilla.trivial(), projections=projections)


def diagonal_strategy(coloring, c: int) -> BlockStrategy:
    """Deterministic diagonal strategy from a classical vertex coloring.

    P_a is the diagonal projection onto the vertices of color a; trivial
    ancilla, so the strategy is loc.
    """
    n = len(coloring)
    mask = np.arange(c)[:, None, None] == np.asarray(coloring)[None, :, None]
    projections = mask * np.eye(n, dtype=np.complex128)
    return BlockStrategy(n=n, c=c, ancilla=TracialAncilla.trivial(), projections=projections)


@dataclass(frozen=True)
class ColoringReport:
    """Rigidity data for a verified coloring of a quantum complete graph."""

    colors: int
    model: str  # "loc" or "q"
    strategy: BlockStrategy
    verification: CheckReport
    rigidity: np.ndarray  # (psi_M (x) id)(P_a) per color, (c, D, D)
    r_values: np.ndarray  # R_a^(r) per color, per block, (c, blocks, D, D)
    idempotent_residual: float  # worst |R_a^(r)^2 - R_a^(r)|
    block_sum_residual: float  # worst |sum_a R_a^(r) - k_r^2 1|
    total_sum_residual: float  # |sum_a R_a - dim(M) 1|
    minimal: bool
    trace_covariance_residual: float  # worst |(psi_M (x) id)(P_a) - 1/dim(M)|, minimal case

    def passed(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        residuals = (
            self.idempotent_residual,
            self.block_sum_residual,
            self.total_sum_residual,
            self.trace_covariance_residual,  # 0 unless minimal
        )
        return self.verification.at(tol).passed and worst_residual(residuals)[0] <= tol.eps


def rigidity_check(
    strategy: BlockStrategy, alg: VnAlgebra, tol: Tolerance = DEFAULT_TOL
) -> ColoringReport:
    """Trace rigidity of a coloring of the quantum complete graph (M_n, M, M_n).

    Computes R_a^(r) = (k_r/n_r) (Tr_{n_r k_r} (x) id)(E_r P_a E_r) and checks
    each is idempotent with sum_a R_a^(r) = k_r^2 and sum_a R_a = dim(M);
    for a minimal coloring (c = dim M) each R_a must be the identity and
    (psi_M (x) id)(P_a) = 1/dim(M).
    """
    inst = GameInstance(
        source=complete_quantum_graph(alg), target=ClassicalGraph.complete(strategy.c)
    )
    verification = verify_structural(inst, strategy, tol)
    if not verification.passed:
        raise ValueError("strategy is not a valid coloring of the quantum complete graph")

    d = strategy.ancilla.dim
    stack = alg.to_canonical(strategy.projections)

    dim_m = alg.dim_algebra
    eye_d = np.eye(d)
    # Diagonal D x D entries P_{a,uu}, axes (a, u); R has axes (a, r).
    diag = np.einsum("auiuj->auij", stack.reshape(strategy.c, alg.n, d, alg.n, d))
    r_stack = np.stack(
        [
            (k_r / m_r) * diag[:, off : off + m_r * k_r].sum(axis=1)
            for off, (m_r, k_r) in zip(alg.block_offsets(), alg.blocks)
        ],
        axis=1,
    )
    idem = worst_residual(np.linalg.norm(r_stack @ r_stack - r_stack, axis=(-2, -1)))[0]
    block_totals = r_stack.sum(axis=0)
    squares = np.array([k_r * k_r for _, k_r in alg.blocks])[:, None, None]
    block_sum = worst_residual(np.linalg.norm(block_totals - squares * eye_d, axis=(-2, -1)))[0]
    total_sum = hs_norm(block_totals.sum(axis=0) - dim_m * eye_d)

    # (psi_M (x) id)(P_a) = (1/dim M) sum_r R_a^(r).
    rigidity = r_stack.sum(axis=1) / dim_m
    minimal = strategy.c == dim_m
    trace_cov = 0.0
    if minimal:
        trace_cov = worst_residual(np.linalg.norm(rigidity - eye_d / dim_m, axis=(-2, -1)))[0]

    model = "loc" if strategy.is_loc(tol) else "q"
    return ColoringReport(
        colors=strategy.c,
        model=model,
        strategy=strategy,
        verification=verification,
        rigidity=rigidity,
        r_values=r_stack,
        idempotent_residual=idem,
        block_sum_residual=block_sum,
        total_sum_residual=total_sum,
        minimal=minimal,
        trace_covariance_residual=trace_cov,
    )


@dataclass(frozen=True)
class ChromaticBound:
    model: str  # "loc" or "q"
    colors: int
    method: str
    exact: bool
    witness: BlockStrategy
    verification: CheckReport


@dataclass(frozen=True)
class BoundsReport:
    bounds: tuple[ChromaticBound, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(b.verification.passed for b in self.bounds)


def chromatic_bounds(g: QuantumGraph, tol: Tolerance = DEFAULT_TOL) -> BoundsReport:
    """Certified chromatic upper bounds with verified witness strategies.

    Every quantum graph satisfies chi_q <= dim(M) via the shift-multiply
    coloring of the complete graph over the same algebra and monotonicity
    (S is contained in M_n).  A single-block algebra also gets the k^2
    teleportation witness; abelian algebras get a loc witness; classical
    graph systems S_H (at most DEFAULT_VERTEX_CAP vertices) get the exact loc
    number from the brute-force oracle.  Every emitted witness is re-verified
    against g.

    Nonexistence facts are emitted as notes, never as computed results:
    numerics cannot certify that no strategy exists.
    """
    alg = g.algebra
    complete = len(g.span_basis()) == alg.n * alg.n
    # (model, method, exact, witness), in the order the bounds are reported.
    candidates = [("q", "shift_multiply", False, shift_multiply_coloring(alg))]
    notes = []
    if len(alg.blocks) == 1:
        s = teleport_coloring(*alg.blocks[0])
        candidates.append(("q", "teleport", False, BlockStrategy(s.n, s.c, s.ancilla, alg.embed(s.projections))))
    if alg.is_abelian():
        candidates.append(("loc", "abelian_loc", False, abelian_loc_coloring(alg)))
    elif complete:
        notes.append(
            "M is non-abelian and S is all of M_n: no loc coloring exists at "
            "any number of colors (theorem-cited; numerics cannot certify "
            "nonexistence)"
        )
    if complete:
        notes.append(
            f"every coloring of the complete quantum graph over M needs at "
            f"least dim(M) = {alg.dim_algebra} colors (theorem-cited lower "
            f"bound)"
        )

    classical = classical_graph_from_operator_system(g, tol)
    if classical is not None and classical.vertices <= DEFAULT_VERTEX_CAP:
        chi = chromatic_number(classical)
        strat = diagonal_strategy(proper_coloring(classical, chi), chi)
        candidates.append(("loc", "classical_oracle", True, strat))

    bounds = []
    for model, method, exact, strat in candidates:
        inst = GameInstance(source=g, target=ClassicalGraph.complete(strat.c))
        verification = verify_structural(inst, strat, tol)
        bounds.append(ChromaticBound(model, strat.c, method, exact, strat, verification))
    return BoundsReport(tuple(bounds), tuple(notes))
