"""The quantum-to-classical graph homomorphism game and its winning checks.

All characterizations of a winning strategy are exposed and cross-checked:
the structural PVM conditions, the operational (amplitude) rules on the
quantum edge basis, the CPTP channel with its Kraus subset conditions, and
the game *-algebra relations on a concrete representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ClassicalGraph, QuantumGraph, require_valid
from .linalg import (
    _CHUNK_BYTES,
    DEFAULT_TOL,
    Check,
    CheckReport,
    Tolerance,
    check_measurement,
    worst_residual,
)
from .strategies import BlockStrategy, OutcomeFactors, TracialAncilla

__all__ = [
    "GameInstance",
    "ChannelRep",
    "verify_structural",
    "verify_operational",
    "extract_channel",
    "check_game_algebra_rep",
    "compose_reps",
]


@dataclass(frozen=True)
class GameInstance:
    """Source quantum graph and classical target for the homomorphism game."""

    source: QuantumGraph
    target: ClassicalGraph


def _sandwich(f: OutcomeFactors | None, ys: np.ndarray, kappa, mask: np.ndarray, weights=None) -> np.ndarray:
    """A fail-closed value of res_ab(P) = sqrt(sum_Y |W P_a (Y (x) 1) P_b|_F^2) per pair (a, b) of
    the c x c mask, else 0, from the rounding f of the stack P (None for a non-finite stack: inf
    on every masked pair).  For an HS-orthonormal (m, n, n) stack Y, res_ab is the HS norm of
    Z -> W P_a (Z (x) 1) P_b on its span; W is 1 or diag(weights), with positive weights.

    The value is res_ab(Pi) + |W|_2 sqrt(kappa) (d_a + d_b + d_a d_b), for the given kappa =
    max(|sum_Y Y Y*|_2, |sum_Y Y* Y|_2).  It is never below res_ab(P): with P_a = Pi_a + E_a,
    the three terms with an E obey sum_Y |A (Y (x) 1) B|_F^2 <= |B|_2^2 |A|_F^2 |sum_Y Y Y*|_2
    or its mirror, |A|_2^2 |B|_F^2 |sum_Y Y* Y|_2.

    With V unitary, |W Pi_a X Pi_b|_F = |C_a (V_a* X V_b)|_F for C_a*C_a = V_a* W^2 V_a (C_a = 1
    for W = 1).  So one N x N table per Y, C V* (Y (x) 1) V, holds every pair as a block, and
    the sum over Y of its squared entries is reduced block by block.
    """
    if f is None:
        return np.where(mask, np.inf, 0.0)
    left = f.v.conj().T
    if weights is not None:
        # The Cholesky factor of the block diagonal of V* W^2 V holds every C_a.
        gram = np.where(f.labels[:, None] == f.labels, (left * weights**2) @ f.v, 0.0)
        left = np.linalg.cholesky(gram).conj().T @ left
    size, n = len(f.v), ys.shape[-1]
    right = f.v.reshape(n, size // n * size)  # V with its n-index first
    squares = np.zeros((size, size))
    # A chunk of k inputs Y has two complex (k, N, N) temporaries.
    step = max(1, _CHUNK_BYTES // (32 * size * size + 1))
    for start in range(0, len(ys), step):
        chunk = ys[start : start + step]
        lifted = (chunk @ right).reshape(len(chunk), size, size)  # (Y (x) 1) V
        table = (left @ lifted).view(np.float64).reshape(len(chunk), size, size, 2)
        squares += np.einsum("kijz,kijz->ij", table, table)
    member = (f.labels == np.arange(f.c)[:, None]).astype(np.float64)
    d, scale = f.defects, np.sqrt(kappa) * (1.0 if weights is None else weights.max())
    bound = scale * (d[:, None] + d + np.outer(d, d))
    return np.where(mask, np.sqrt(member @ squares @ member.T) + bound, 0.0)


def _forbidden_outcomes(inst: GameInstance, strategy: BlockStrategy, tol: Tolerance, weights=None) -> tuple:
    """(same, adjacency): the sandwiches of the strategy's rounding over M' on pairs a != b and
    over S n (M')perp on non-adjacent pairs; the spaces are memoized on the graph.

    The one gate of every game decision: it raises ValueError unless the strategy's n and c
    match the game and the source passes validate at tol (the game is defined on a quantum
    graph only).  Validation is the graph's cached report, so a job computes it once."""
    if strategy.n != inst.source.n:
        raise ValueError(f"strategy has n={strategy.n}, source graph has n={inst.source.n}")
    if strategy.c != inst.target.vertices:
        raise ValueError(f"strategy has {strategy.c} outputs, target has {inst.target.vertices} vertices")
    require_valid(inst.source, tol)
    same, perp = inst.source._game_inputs
    offdiag = ~np.eye(inst.target.vertices, dtype=bool)
    adjacency = _sandwich(strategy.factors, *perp, inst.target._nonadjacent, weights)
    return _sandwich(strategy.factors, *same, offdiag, weights), adjacency


def verify_structural(
    inst: GameInstance, strategy: BlockStrategy, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Winning-strategy conditions on the PVM itself.

    (i) the family is a PVM respecting the ancilla blocks, (ii) each P_a lies
    in M (x) N, by sqrt(sum_{b != a} (S_ab^2 + S_ba^2)) with S_ab the sandwich
    sqrt(sum_Z |P_a (Z (x) 1) P_b|_F^2) over an orthonormal basis Z of M' (on a
    PVM, sqrt(sum_Z |[P_a, Z (x) 1]|_F^2), as 1 - P_a = sum_{b != a} P_b), and
    (iii) P_a ((S n (M')perp) (x) 1) P_b = 0 for every non-adjacent target pair,
    including a = b, by the sandwich over that space.
    """
    same, adjacency = _forbidden_outcomes(inst, strategy, tol)
    pvm = [c.max_residual for c in strategy.measurement_report(tol).checks]
    squares = same**2
    membership = np.sqrt(squares.sum(axis=1) + squares.sum(axis=0))
    return CheckReport(
        (
            Check.of("pvm", pvm, tol),
            Check.of("ancilla_blocks", strategy.ancilla_block_defect(), tol),
            Check.of("membership", membership, tol, "a"),
            Check.of("adjacency_zeros", adjacency, tol, "a", "b"),
        )
    )


def verify_operational(
    inst: GameInstance, strategy: BlockStrategy, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Winning-strategy conditions as vanishing forbidden outcome amplitudes.

    The amplitude of outcome (a, b) on an input Y is |T^{1/2} P_a (Y (x) 1) P_b|_F, with T
    the diagonal of trace weights: sqrt(p(a,b)) for a PVM.  Each rule reports
    sqrt(sum_Y amplitude^2) per pair it forbids, a != b over the commutant units Y of M' and
    non-adjacent pairs over an orthonormal basis Y of S n (M')perp (QuantumGraph._game_inputs).
    The sums agree with those over the edge-basis inputs of each tag, which are other
    orthonormal bases of the same two spaces: a sum of squared norms over an orthonormal basis
    does not depend on the basis.  Each rule is read, fail-closed, from the rounded PVM
    (_sandwich).  Equivalent to verify_structural for PVM strategies with a faithful trace.
    """
    weights = np.sqrt(np.tile(strategy.ancilla.trace_diagonal(), strategy.n))
    same, adjacency = _forbidden_outcomes(inst, strategy, tol, weights)
    return CheckReport(
        (
            Check.of("same_vertex_rule", same, tol, "a", "b"),
            Check.of("adjacency_rule", adjacency, tol, "a", "b"),
        )
    )


@dataclass(frozen=True)
class ChannelRep:
    """Kraus form of the CPTP map extracted from a winning PVM.

    kraus is the (nD, c, nD) stack of the F_i, each mapping C^{n D} -> C^c; choi
    is the (positive) Choi matrix of the map X -> sum_i F_i X F_i*.
    """

    kraus: np.ndarray
    choi: np.ndarray
    subset_residual: float

    @property
    def num_kraus(self) -> int:
        return len(self.kraus)


def extract_channel(
    inst: GameInstance, strategy: BlockStrategy, tol: Tolerance = DEFAULT_TOL
) -> ChannelRep:
    """Kraus operators F_k = |a_k><v_k| from the columns v_k of the spectral rounding of the
    P_a (BlockStrategy.factors), a_k the outcome of v_k, so the Kraus count is nD.

    The strategy must pass its measurement report; on a PVM the rounded PVM is the P_a,
    so F_k* F_k summed over the v_k of outcome a is P_a.  Also verifies the
    channel subset conditions: compressions of adjacency inputs land in
    S_G n (D_c)perp, compressions of same-vertex inputs land in D_c.  The
    one entry of F_k (Y (x) 1) F_l* is <v_k, (Y (x) 1) v_l>, so the residual is
    the worst of check_game_algebra_rep's relations 2 and 3, fail-closed bound included."""
    worst = worst_residual(_forbidden_outcomes(inst, strategy, tol))[0]
    failed = strategy.measurement_report(tol).failures()
    if failed:
        raise ValueError(f"strategy is not a PVM within tolerance: {failed}")
    f = strategy.factors
    size, c = len(f.v), strategy.c
    stack = np.zeros((size, c, size), dtype=np.complex128)
    stack[np.arange(size), f.labels] = f.v.conj().T
    # Entry ((u, a), (v, b)) of the Choi matrix is sum_k F_k[a, u] conj(F_k[b, v]), which is
    # conj(Pi_a[u, v]) for a = b over the Kraus vectors of outcome a, and 0 for a != b.
    choi = np.zeros((size, c, size, c), dtype=np.complex128)
    choi[:, np.arange(c), :, np.arange(c)] = np.conj(f.projections)
    if worst > tol.eps:
        raise ValueError(f"channel subset conditions violated (residual {worst:.3e})")
    return ChannelRep(
        kraus=stack,
        choi=choi.reshape(size * c, size * c),
        subset_residual=worst,
    )


def check_game_algebra_rep(
    inst: GameInstance, strategy: BlockStrategy, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """The defining relations of the game *-algebra on this representation.

    Relation 1: the p_a are self-adjoint idempotents summing to I_n (x) 1.
    Relation 2: p_a ((S n (M')perp) (x) 1) p_b = 0 for a !~ b in the target.
    Relation 3: p_a (M' (x) 1) p_b = 0 for a != b.
    Relations 2 and 3 report, per pair (a, b), the Hilbert-Schmidt norm of
    Y -> p_a (Y (x) 1) p_b on the whole space, as verify_structural does.
    """
    commutant_relation, adjacency = _forbidden_outcomes(inst, strategy, tol)
    rep = strategy.measurement_report(tol)
    relation1 = [rep.check(name).max_residual for name in ("hermitian", "idempotency", "sum")]
    return CheckReport(
        (
            Check.of("idempotents_sum_to_identity", relation1, tol),
            Check.of("adjacency_relation", adjacency, tol, "a", "b"),
            Check.of("commutant_relation", commutant_relation, tol, "a", "b"),
        )
    )


def compose_reps(
    strategy: BlockStrategy,
    hom_rep,
    hom_ancilla: TracialAncilla,
    tol: Tolerance = DEFAULT_TOL,
) -> BlockStrategy:
    """Compose a strategy for target K_c with a representation of Hom(K_c, K_r).

    hom_rep[a][v], of one (c, r, e, e) array, are self-adjoint idempotents over
    the hom ancilla with sum_v f_{a,v} = 1 for each a and f_{a,v} f_{b,v} = 0
    for a != b.  The output entries are q_{v,ij} = sum_a p_{a,ij} (x) f_{a,v}
    over the tensor-product ancilla.
    """
    c, e = strategy.c, hom_ancilla.dim
    f = np.asarray(hom_rep, dtype=np.complex128)  # axes (a, v, z, w)
    if f.ndim != 4 or f.shape[0] != c or f.shape[2:] != (e, e):
        raise ValueError(f"hom representation of shape {f.shape}, expected ({c}, r, {e}, {e})")
    r = f.shape[1]

    # Each row {f_{a,v}}_v is a PVM and each column {f_{a,v}}_a is orthogonal.
    rows = [check_measurement(row, tol) for row in f]
    residuals = [m.check(name).max_residual for m in rows for name in ("hermitian", "idempotency", "sum")]
    residuals += [check_measurement(col, tol).check("orthogonality").max_residual for col in f.swapaxes(0, 1)]
    worst = worst_residual(residuals)[0]
    if worst > tol.eps:
        raise ValueError(f"hom representation fails the K_c -> K_r relations ({worst:.3e})")

    new_ancilla = strategy.ancilla.tensor(hom_ancilla)
    n, d_new = strategy.n, new_ancilla.dim
    ents = strategy.entries()  # axes (a, i, j, x, y)
    # q_{v,ij} is block diagonal over the tensor ancilla: its blocks, in
    # lexicographic order, are sum_a p_{a,ij}[sa, sa] (x) f_{a,v}[sb, sb].
    q = np.zeros((r, n, n, d_new, d_new), dtype=np.complex128)
    blocks = [(sa, sb) for sa in strategy.ancilla.block_slices() for sb in hom_ancilla.block_slices()]
    for (sa, sb), sn in zip(blocks, new_ancilla.block_slices()):
        size = sn.stop - sn.start
        kron = np.einsum("aijxy,avzw->vijxzyw", ents[..., sa, sa], f[:, :, sb, sb])
        q[..., sn, sn] = kron.reshape(r, n, n, size, size)
    projections = q.transpose(0, 1, 3, 2, 4).reshape(r, n * d_new, n * d_new)
    return BlockStrategy(n=n, c=r, ancilla=new_ancilla, projections=projections)
