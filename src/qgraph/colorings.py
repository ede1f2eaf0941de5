"""Explicit quantum colorings of quantum complete graphs and their rigidity.

Two constructions cover every non-degenerate M inside M_n:

* teleport_coloring: for M = C I_d (x) M_k, the k^2 projections built from
  the maximally entangled (Bell) basis of C^k (x) C^k, with ancilla M_n.
* shift_multiply_coloring: for general block M, dim(M) projections indexed
  by (block s, phase a, shift b) with ancilla M_d, d = lcm of the block dims.

Both are minimal (c = dim M), so rigidity pins their partial traces:
(psi_M (x) id)(P_a) = 1/dim(M), equivalently every R_a is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import VnAlgebra
from .graphs import (
    ClassicalGraph,
    QuantumGraph,
    chromatic_number,
    classical_graph_from_operator_system,
    proper_coloring,
)
from .homgame import GameInstance, verify_structural
from .linalg import DEFAULT_TOL, CheckReport, Tolerance, hs_norm, matrix_unit, unit_root_power, worst_residual
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
    """(M_n, M, M_n): S is all of M_n."""
    n = alg.n
    basis = tuple(matrix_unit(n, i, j) for i in range(n) for j in range(n))
    return QuantumGraph(n=n, algebra=alg, s_basis=basis)


def teleport_coloring(d: int, k: int) -> BlockStrategy:
    """The k^2-coloring of (M_n, C I_d (x) M_k, M_n), n = dk, via Bell bases.

    P_(a,b) = (1/k) sum_{p,q} omega^{a(p-q)} I_d (x) E_{b+p,b+q} (x) I_d (x) E_{pq}
    with indices mod k; colors ordered lexicographically in (a, b).  Ancilla
    is the single block M_n with its normalized trace.
    """
    if d < 1 or k < 1:
        raise ValueError(f"need d, k >= 1, got ({d}, {k})")
    n = d * k
    eye_d = np.eye(d, dtype=np.complex128)
    projections = []
    for a in range(k):
        for b in range(k):
            bell = np.zeros((k, k, k, k), dtype=np.complex128)  # [i, u, j, v]
            for p in range(k):
                for q in range(k):
                    bell[(b + p) % k, p, (b + q) % k, q] = unit_root_power(k, a * (p - q)) / k
            p_ab = np.einsum("xX,iujv,yY->xiyuXjYv", eye_d, bell, eye_d).reshape(
                n * n, n * n
            )
            projections.append(p_ab)
    ancilla = TracialAncilla.full_matrix_block(n)
    return BlockStrategy(n=n, c=k * k, ancilla=ancilla, projections=tuple(projections))


def shift_multiply_coloring(alg: VnAlgebra) -> BlockStrategy:
    """The dim(M)-coloring of (M_n, M, M_n) by global shift and local multiply.

    For each color (s, a, b) with 0 <= a, b <= k_s - 1 the projection is
    (+)_r I_{n_r} (x) P^(r,s)_(a,b) with entries
    P^(r,s)_(a,b),(i,j) = (delta_rs / k_r) omega_{k_r}^{(i-j)a} I_{d_r} (x) E_{i+b,j+b}
    in M_d, d = lcm(k_1..k_m), d_r = d/k_r.  Ancilla is M_d with tr_d.
    """
    d = math.lcm(*(k for _, k in alg.blocks))
    n = alg.n
    offsets = alg.block_offsets()
    projections = []
    for s, (m_s, k_s) in enumerate(alg.blocks):
        d_s = d // k_s
        eye_ds = np.eye(d_s, dtype=np.complex128)
        for a in range(k_s):
            for b in range(k_s):
                big = np.zeros((n * d, n * d), dtype=np.complex128)
                for p in range(m_s):
                    for i in range(k_s):
                        for j in range(k_s):
                            row = offsets[s] + p * k_s + i
                            col = offsets[s] + p * k_s + j
                            ent = (unit_root_power(k_s, (i - j) * a) / k_s) * np.kron(
                                eye_ds, matrix_unit(k_s, (i + b) % k_s, (j + b) % k_s)
                            )
                            big[row * d : (row + 1) * d, col * d : (col + 1) * d] = ent
                projections.append(big)
    if alg.unitary is not None:
        u_big = np.kron(alg.unitary, np.eye(d))
        projections = [u_big @ p @ u_big.conj().T for p in projections]
    ancilla = TracialAncilla.full_matrix_block(d)
    return BlockStrategy(
        n=n, c=alg.dim_algebra, ancilla=ancilla, projections=tuple(projections)
    )


def abelian_loc_coloring(alg: VnAlgebra) -> BlockStrategy:
    """The loc coloring of (M_n, M, M_n) by central projections; M must be abelian."""
    if not alg.is_abelian():
        raise ValueError(
            f"algebra with blocks {alg.blocks} is non-abelian; no loc coloring exists"
        )
    projections = [e.copy() for e in alg.central_projections()]
    return BlockStrategy(
        n=alg.n,
        c=len(projections),
        ancilla=TracialAncilla.trivial(),
        projections=tuple(projections),
    )


def diagonal_strategy(coloring, c: int) -> BlockStrategy:
    """Deterministic diagonal strategy from a classical vertex coloring.

    P_a is the diagonal projection onto the vertices of color a; trivial
    ancilla, so the strategy is loc.
    """
    n = len(coloring)
    projections = []
    for a in range(c):
        p = np.zeros((n, n), dtype=np.complex128)
        for x, col in enumerate(coloring):
            if col == a:
                p[x, x] = 1.0
        projections.append(p)
    return BlockStrategy(
        n=n, c=c, ancilla=TracialAncilla.trivial(), projections=tuple(projections)
    )


@dataclass(frozen=True)
class ColoringReport:
    """Rigidity data for a verified coloring of a quantum complete graph."""

    colors: int
    model: str  # "loc" or "q"
    strategy: BlockStrategy
    verification: CheckReport
    rigidity: tuple[np.ndarray, ...]  # (psi_M (x) id)(P_a) per color
    r_values: tuple[tuple[np.ndarray, ...], ...]  # R_a^(r) per color, per block
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
        return self.verification.passed and worst_residual(residuals)[0] <= tol.eps


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
    stack = np.stack(strategy.projections)
    if alg.unitary is not None:
        u_big = np.kron(alg.unitary, np.eye(d))
        stack = u_big.conj().T @ stack @ u_big

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
        rigidity=tuple(rigidity),
        r_values=tuple(tuple(per_block) for per_block in r_stack),
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

    def best(self, model: str) -> ChromaticBound | None:
        candidates = [b for b in self.bounds if b.model == model]
        return min(candidates, key=lambda b: b.colors) if candidates else None


def chromatic_bounds(g: QuantumGraph, tol: Tolerance = DEFAULT_TOL) -> BoundsReport:
    """Certified chromatic upper bounds with verified witness strategies.

    Every quantum graph satisfies chi_q <= dim(M) via the shift-multiply
    coloring of the complete graph over the same algebra and monotonicity
    (S is contained in M_n).  A single-block algebra also gets the k^2
    teleportation witness; abelian algebras get a loc witness; classical
    graph systems S_H (at most 8 vertices) get the exact loc number from the
    brute-force oracle.  Every emitted witness is re-verified against g.

    Nonexistence facts are emitted as notes, never as computed results:
    numerics cannot certify that no strategy exists.
    """
    bounds = []
    notes = []
    alg = g.algebra

    strat = shift_multiply_coloring(alg)
    inst = GameInstance(source=g, target=ClassicalGraph.complete(strat.c))
    bounds.append(
        ChromaticBound(
            model="q",
            colors=strat.c,
            method="shift_multiply",
            exact=False,
            witness=strat,
            verification=verify_structural(inst, strat, tol),
        )
    )

    if len(alg.blocks) == 1:
        m, k = alg.blocks[0]
        strat = teleport_coloring(m, k)
        if alg.unitary is not None:
            u_big = np.kron(alg.unitary, np.eye(strat.ancilla.dim))
            strat = BlockStrategy(
                n=strat.n,
                c=strat.c,
                ancilla=strat.ancilla,
                projections=tuple(u_big @ p @ u_big.conj().T for p in strat.projections),
            )
        inst = GameInstance(source=g, target=ClassicalGraph.complete(strat.c))
        bounds.append(
            ChromaticBound(
                model="q",
                colors=strat.c,
                method="teleport",
                exact=False,
                witness=strat,
                verification=verify_structural(inst, strat, tol),
            )
        )

    if alg.is_abelian():
        strat = abelian_loc_coloring(alg)
        inst = GameInstance(source=g, target=ClassicalGraph.complete(strat.c))
        bounds.append(
            ChromaticBound(
                model="loc",
                colors=strat.c,
                method="abelian_loc",
                exact=False,
                witness=strat,
                verification=verify_structural(inst, strat, tol),
            )
        )
    elif len(g.span_basis()) == alg.n * alg.n:
        notes.append(
            "M is non-abelian and S is all of M_n: no loc coloring exists at "
            "any number of colors (theorem-cited; numerics cannot certify "
            "nonexistence)"
        )
    if len(g.span_basis()) == alg.n * alg.n:
        notes.append(
            f"every coloring of the complete quantum graph over M needs at "
            f"least dim(M) = {alg.dim_algebra} colors (theorem-cited lower "
            f"bound)"
        )

    classical = classical_graph_from_operator_system(g, tol)
    if classical is not None and classical.vertices <= 8:
        chi = chromatic_number(classical)
        coloring = proper_coloring(classical, chi)
        strat = diagonal_strategy(coloring, chi)
        inst = GameInstance(source=g, target=ClassicalGraph.complete(chi))
        bounds.append(
            ChromaticBound(
                model="loc",
                colors=chi,
                method="classical_oracle",
                exact=True,
                witness=strat,
                verification=verify_structural(inst, strat, tol),
            )
        )
    return BoundsReport(tuple(bounds), tuple(notes))

