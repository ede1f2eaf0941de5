"""The quantum-to-classical graph homomorphism game and its winning checks.

All characterizations of a winning strategy are exposed and cross-checked:
the structural PVM conditions, the operational (amplitude) rules on the
quantum edge basis, the CPTP channel with its Kraus subset conditions, and
the game *-algebra relations on a concrete representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import commutant
from .graphs import SAME_VERTEX, ClassicalGraph, QuantumGraph, adjacency_subspace_basis, edge_basis
from .linalg import DEFAULT_TOL, Check, CheckReport, Tolerance, check_measurement, hs_norm, worst_residual
from .strategies import BlockStrategy, TracialAncilla, times_input

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


def _check_dims(inst: GameInstance, strategy: BlockStrategy):
    if strategy.n != inst.source.n:
        raise ValueError(
            f"strategy has n={strategy.n}, source graph has n={inst.source.n}"
        )
    if strategy.c != inst.target.vertices:
        raise ValueError(
            f"strategy has {strategy.c} outputs, target has {inst.target.vertices} vertices"
        )


def _nonadjacent(target: ClassicalGraph) -> np.ndarray:
    """Boolean c x c mask of non-adjacent pairs; true on the diagonal (targets are loop-free)."""
    c = target.vertices
    return np.array([[not target.adjacent(a, b) for b in range(c)] for a in range(c)], dtype=bool)


def _sandwich(strategy: BlockStrategy, ys, mask: np.ndarray, weights=None) -> np.ndarray:
    """|W P_a (Y (x) 1) P_b|_F over axes (a, b, Y) where the broadcast mask holds, else 0.

    W is the identity or diag(weights).  Taking one b at a time keeps every
    array within the size of the stack of P_a (Y (x) 1).
    """
    ps = np.stack(strategy.projections)
    x = times_input(ps, np.reshape(ys, (-1, strategy.n, strategy.n)))  # axes (Y, a, row, column)
    if weights is not None:
        x *= weights[:, None]
    mask = np.broadcast_to(mask, (strategy.c, strategy.c, len(x)))
    out = np.zeros(mask.shape)
    for b in range(strategy.c):
        a, k = np.nonzero(mask[:, b])
        out[a, b, k] = np.linalg.norm(x[k, a] @ ps[b], axis=(-2, -1))
    return out


def _adjacency_zeros(inst: GameInstance, strategy: BlockStrategy, tol: Tolerance, name: str) -> Check:
    """P_a ((S n (M')perp) (x) 1) P_b = 0 for every non-adjacent pair, including a = b."""
    nonadjacent = _nonadjacent(inst.target)[:, :, None]
    residuals = _sandwich(strategy, adjacency_subspace_basis(inst.source), nonadjacent)
    return Check.of(name, residuals, tol, "a", "b", "basis_index")


def verify_structural(
    inst: GameInstance, strategy: BlockStrategy, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Winning-strategy conditions on the PVM itself.

    (i) the family is a PVM respecting the ancilla blocks, (ii) each P_a lies
    in M (x) N (commutes with M' (x) 1), and (iii) P_a ((S n (M')perp) (x) 1)
    P_b = 0 for every non-adjacent target pair, including a = b.
    """
    _check_dims(inst, strategy)
    rep = strategy.measurement_report(tol)
    pvm = [
        rep.hermitian_defect,
        max(0.0, -rep.min_eigenvalue),
        rep.sum_defect,
        rep.idempotency_defect,
        rep.orthogonality_defect,
    ]
    comm = np.asarray(commutant(inst.source.algebra))
    ps = np.stack(strategy.projections)
    diff = times_input(ps, comm)
    # (Z (x) 1) P_a = (P_a^T (Z^T (x) 1))^T, with no copy for the transposes
    diff -= times_input(ps.swapaxes(-2, -1), comm.swapaxes(-2, -1)).swapaxes(-2, -1)
    membership = np.linalg.norm(diff, axis=(-2, -1)).T  # axes (a, commutant_index)
    return CheckReport(
        (
            Check.of("pvm", pvm, tol),
            Check.of("ancilla_blocks", strategy.ancilla_block_defect(), tol),
            Check.of("membership", membership, tol, "a", "commutant_index"),
            _adjacency_zeros(inst, strategy, tol, "adjacency_zeros"),
        )
    )


def verify_operational(
    inst: GameInstance, strategy: BlockStrategy, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Winning-strategy conditions as vanishing forbidden outcome amplitudes.

    The amplitude of outcome (a, b) on an edge-basis input Y is
    |T^{1/2} P_a (Y (x) 1) P_b|_F, with T the diagonal of trace weights.
    For a PVM it is sqrt(p(a,b)); for a POVM it vanishes exactly when p(a,b)
    does.  Every same-vertex input must give 0 for a != b; every adjacency
    input must give 0 for non-adjacent target pairs.  Equivalent to
    verify_structural for PVM strategies with a faithful trace.
    """
    _check_dims(inst, strategy)
    basis = edge_basis(inst.source, tol)
    same = np.array([e.tag == SAME_VERTEX for e in basis.elements], dtype=bool)
    distinct, nonadjacent = ~np.eye(strategy.c, dtype=bool), _nonadjacent(inst.target)
    forbidden = np.where(same, distinct[:, :, None], nonadjacent[:, :, None])
    weights = np.sqrt(np.tile(strategy.ancilla.trace_diagonal(), strategy.n))
    amplitudes = np.moveaxis(_sandwich(strategy, basis.matrices(), forbidden, weights), -1, 0)
    axes = ("basis_index", "a", "b")
    return CheckReport(
        (
            Check.of("same_vertex_rule", np.where(same[:, None, None], amplitudes, 0.0), tol, *axes),
            Check.of("adjacency_rule", np.where(same[:, None, None], 0.0, amplitudes), tol, *axes),
        )
    )


@dataclass(frozen=True)
class ChannelRep:
    """Kraus form of the CPTP map extracted from a winning PVM.

    kraus[i] maps C^{n D} -> C^c; choi is the (positive) Choi matrix of the
    map X -> sum_i F_i X F_i*.
    """

    kraus: tuple[np.ndarray, ...]
    choi: np.ndarray
    completeness_residual: float
    subset_residual: float

    @property
    def num_kraus(self) -> int:
        return len(self.kraus)


def extract_channel(
    inst: GameInstance, strategy: BlockStrategy, tol: Tolerance = DEFAULT_TOL
) -> ChannelRep:
    """Kraus operators F_{(a,k)} = |a><u_{a,k}| from eigenvectors of each P_a.

    Projections must have spectrum within tol of {0,1}; eigenvectors above 1/2
    are kept, so the Kraus count is sum_a rank(P_a).  Also verifies the
    channel subset conditions: compressions of adjacency inputs land in
    S_G n (D_c)perp, compressions of same-vertex inputs land in D_c.
    """
    _check_dims(inst, strategy)
    rep = strategy.measurement_report(tol)
    if not rep.is_pvm:
        raise ValueError(f"strategy is not a PVM within tolerance: {rep.residuals()}")
    size = strategy.n * strategy.ancilla.dim
    c = strategy.c

    vectors = []
    for a, p in enumerate(strategy.projections):
        w, v = np.linalg.eigh((p + p.conj().T) / 2)
        drift = float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
        if not drift <= max(tol.eps * 100, 1e-8):
            raise ValueError(f"P_{a} spectrum drifts from {{0,1}} by {drift:.3e}")
        vectors.append(v[:, w > 0.5])
    labels = np.repeat(np.arange(c), [v.shape[1] for v in vectors])
    u = np.concatenate(vectors, axis=1)  # column k is u_k, the Kraus vector of outcome labels[k]
    stack = np.zeros((len(labels), c, size), dtype=np.complex128)
    stack[np.arange(len(labels)), labels] = u.conj().T
    completeness = hs_norm(
        np.einsum("mau,mav->uv", np.conj(stack), stack) - np.eye(size)
    )
    choi = np.einsum("mau,mbv->uavb", stack, np.conj(stack)).reshape(
        size * c, size * c
    )

    worst = _subset_residual(inst, strategy, u, labels, tol)
    if worst > tol.eps:
        raise ValueError(f"channel subset conditions violated (residual {worst:.3e})")
    return ChannelRep(
        kraus=tuple(stack),
        choi=choi,
        completeness_residual=completeness,
        subset_residual=worst,
    )


def _subset_residual(
    inst: GameInstance, strategy: BlockStrategy, u: np.ndarray, labels: np.ndarray, tol: Tolerance
) -> float:
    """Worst |<u_k, (Y_e (x) 1) u_l>| over edge-basis elements e and Kraus vectors k, l
    whose outcome pair (labels[k], labels[l]) the tag of e forbids.

    F_k (Y (x) 1) F_l* is that entry at (labels[k], labels[l]), so this is
    the largest forbidden entry of any compressed input.
    """
    basis = edge_basis(inst.source, tol)
    n, d = strategy.n, strategy.ancilla.dim
    ys = np.reshape(basis.matrices(), (-1, n, n))
    u = u.reshape(n, d, -1)
    entries = np.einsum("eij,iuk,jul->ekl", ys, np.conj(u), u, optimize=True)
    same = np.array([e.tag == SAME_VERTEX for e in basis.elements], dtype=bool)[:, None, None]
    forbidden = np.where(same, ~np.eye(strategy.c, dtype=bool), _nonadjacent(inst.target))
    mask = forbidden[:, labels][:, :, labels]
    return worst_residual(np.where(mask, np.abs(entries), 0.0))[0]


def check_game_algebra_rep(
    inst: GameInstance, strategy: BlockStrategy, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """The defining relations of the game *-algebra on this representation.

    Relation 1: the p_a are self-adjoint idempotents summing to I_n (x) 1.
    Relation 2: p_a ((S n (M')perp) (x) 1) p_b = 0 for a !~ b in the target.
    Relation 3: p_a (M' (x) 1) p_b = 0 for a != b.
    """
    _check_dims(inst, strategy)
    rep = strategy.measurement_report(tol)
    relation1 = [rep.hermitian_defect, rep.idempotency_defect, rep.sum_defect]
    distinct = ~np.eye(strategy.c, dtype=bool)[:, :, None]
    commutant_relation = _sandwich(strategy, commutant(inst.source.algebra), distinct)
    return CheckReport(
        (
            Check.of("idempotents_sum_to_identity", relation1, tol),
            _adjacency_zeros(inst, strategy, tol, "adjacency_relation"),
            Check.of("commutant_relation", commutant_relation, tol, "a", "b", "commutant_index"),
        )
    )


def compose_reps(
    strategy: BlockStrategy,
    hom_rep,
    hom_ancilla: TracialAncilla,
    tol: Tolerance = DEFAULT_TOL,
) -> BlockStrategy:
    """Compose a strategy for target K_c with a representation of Hom(K_c, K_r).

    hom_rep[a][v] are self-adjoint idempotents over the hom ancilla with
    sum_v f_{a,v} = 1 for each a and f_{a,v} f_{b,v} = 0 for a != b.  The
    output entries are q_{v,ij} = sum_a p_{a,ij} (x) f_{a,v} over the
    tensor-product ancilla.
    """
    c = strategy.c
    if len(hom_rep) != c:
        raise ValueError(f"hom representation must have {c} input rows")
    r = len(hom_rep[0])
    e = hom_ancilla.dim
    f = [[np.asarray(m, dtype=np.complex128).reshape(e, e) for m in row] for row in hom_rep]
    if any(len(row) != r for row in f):
        raise ValueError("ragged hom representation")

    # Each row {f_{a,v}}_v is a PVM and each column {f_{a,v}}_a is orthogonal.
    rows = [check_measurement(row, tol) for row in f]
    residuals = [d for m in rows for d in (m.hermitian_defect, m.idempotency_defect, m.sum_defect)]
    residuals += [check_measurement(col, tol).orthogonality_defect for col in zip(*f)]
    worst = worst_residual(residuals)[0]
    if worst > tol.eps:
        raise ValueError(f"hom representation fails the K_c -> K_r relations ({worst:.3e})")

    new_ancilla = strategy.ancilla.tensor(hom_ancilla)
    n, d_new = strategy.n, new_ancilla.dim
    ents = strategy.entries()  # axes (a, i, j, x, y)
    f = np.array(f)  # axes (a, v, z, w)
    # q_{v,ij} is block diagonal over the tensor ancilla: its blocks, in
    # lexicographic order, are sum_a p_{a,ij}[sa, sa] (x) f_{a,v}[sb, sb].
    q = np.zeros((r, n, n, d_new, d_new), dtype=np.complex128)
    blocks = [(sa, sb) for sa in strategy.ancilla.block_slices() for sb in hom_ancilla.block_slices()]
    for (sa, sb), sn in zip(blocks, new_ancilla.block_slices()):
        size = sn.stop - sn.start
        kron = np.einsum("aijxy,avzw->vijxzyw", ents[..., sa, sa], f[:, :, sb, sb])
        q[..., sn, sn] = kron.reshape(r, n, n, size, size)
    projections = q.transpose(0, 1, 3, 2, 4).reshape(r, n * d_new, n * d_new)
    return BlockStrategy(n=n, c=r, ancilla=new_ancilla, projections=tuple(projections))
