"""The quantum-to-classical graph homomorphism game and its winning checks.

All characterizations of a winning strategy are exposed and cross-checked:
the structural PVM conditions, the operational (probability) rules on the
quantum edge basis, the CPTP channel with its Kraus subset conditions, and
the game *-algebra relations on a concrete representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import commutant
from .correlations import outcome_probability
from .graphs import SAME_VERTEX, ClassicalGraph, QuantumGraph, adjacency_subspace_basis, edge_basis
from .linalg import DEFAULT_TOL, Check, CheckReport, Tolerance, check_measurement, hs_norm, worst_residual
from .strategies import BlockStrategy, TracialAncilla

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


def _lift(mats, strategy: BlockStrategy) -> list[np.ndarray]:
    """X (x) 1 on C^n (x) C^D for each X."""
    eye = np.eye(strategy.ancilla.dim)
    return [np.kron(x, eye) for x in mats]


def _sandwich_residuals(strategy: BlockStrategy, lifted, mask: np.ndarray) -> np.ndarray:
    """|P_a Z P_b|_F over axes (a, b, Z) where mask[a, b]; 0 elsewhere."""
    c = strategy.c
    out = np.zeros((c, c, len(lifted)))
    for a, pa in enumerate(strategy.projections):
        if not mask[a].any():
            continue
        left = [pa @ z for z in lifted]
        for b in np.flatnonzero(mask[a]):
            pb = strategy.projections[b]
            out[a, b] = [hs_norm(lz @ pb) for lz in left]
    return out


def _adjacency_zeros(inst: GameInstance, strategy: BlockStrategy, tol: Tolerance, name: str) -> Check:
    """P_a ((S n (M')perp) (x) 1) P_b = 0 for every non-adjacent pair, including a = b."""
    lifted = _lift(adjacency_subspace_basis(inst.source), strategy)
    residuals = _sandwich_residuals(strategy, lifted, _nonadjacent(inst.target))
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
    lifted = _lift(commutant(inst.source.algebra), strategy)
    membership = [[hs_norm(p @ x - x @ p) for x in lifted] for p in strategy.projections]
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
    """Winning-strategy conditions as vanishing forbidden outcome probabilities.

    Every same-vertex edge-basis input must give p(a,b) = 0 for a != b; every
    adjacency input must give p(a,b) = 0 for non-adjacent target pairs.
    Equivalent to verify_structural for PVM strategies with a faithful trace.
    """
    _check_dims(inst, strategy)
    elements = edge_basis(inst.source, tol).elements
    c = strategy.c
    if all(np.isfinite(p).all() for p in strategy.projections):
        probs = [np.abs(outcome_probability(strategy, e.matrix, tol)) for e in elements]
    else:
        # outcome_probability refuses NaN; every rule reads it and fails instead.
        probs = np.full((len(elements), c, c), np.nan)
    probs = np.reshape(probs, (len(elements), c, c))  # axes (basis_index, a, b)
    same = np.array([e.tag == SAME_VERTEX for e in elements], dtype=bool)[:, None, None]
    offdiag = ~np.eye(c, dtype=bool)
    axes = ("basis_index", "a", "b")
    return CheckReport(
        (
            Check.of("same_vertex_rule", np.where(same & offdiag, probs, 0.0), tol, *axes),
            Check.of(
                "adjacency_rule",
                np.where(~same & _nonadjacent(inst.target), probs, 0.0),
                tol,
                *axes,
            ),
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

    kraus = []
    for a, p in enumerate(strategy.projections):
        w, v = np.linalg.eigh((p + p.conj().T) / 2)
        drift = float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
        if not drift <= max(tol.eps * 100, 1e-8):
            raise ValueError(f"P_{a} spectrum drifts from {{0,1}} by {drift:.3e}")
        for k in np.nonzero(w > 0.5)[0]:
            f = np.zeros((c, size), dtype=np.complex128)
            f[a, :] = v[:, k].conj()
            kraus.append(f)

    stack = np.stack(kraus)
    completeness = hs_norm(
        np.einsum("mau,mav->uv", np.conj(stack), stack) - np.eye(size)
    )
    choi = np.einsum("mau,mbv->uavb", stack, np.conj(stack)).reshape(
        size * c, size * c
    )

    basis = edge_basis(inst.source, tol)
    eye_d = np.eye(strategy.ancilla.dim)
    offdiag = ~np.eye(c, dtype=bool)
    nonadjacent = _nonadjacent(inst.target)
    residuals = []
    for elem in basis.elements:
        big = np.kron(elem.matrix, eye_d)
        # [F_i (Y x 1) F_j*] has a single entry at (a_i, a_j); assemble the
        # c x c table of those entries over all Kraus pairs at once.
        table = np.einsum("mau,uv,lbv->mlab", stack, big, np.conj(stack))
        forbidden = offdiag if elem.tag == SAME_VERTEX else nonadjacent
        residuals.append(np.where(forbidden, np.abs(table).max(axis=(0, 1)), 0.0))
    worst = worst_residual(residuals)[0]
    if worst > tol.eps:
        raise ValueError(f"channel subset conditions violated (residual {worst:.3e})")
    return ChannelRep(
        kraus=tuple(kraus),
        choi=choi,
        completeness_residual=completeness,
        subset_residual=worst,
    )


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
    lifted = _lift(commutant(inst.source.algebra), strategy)
    distinct = ~np.eye(strategy.c, dtype=bool)
    return CheckReport(
        (
            Check.of("idempotents_sum_to_identity", relation1, tol),
            _adjacency_zeros(inst, strategy, tol, "adjacency_relation"),
            Check.of(
                "commutant_relation",
                _sandwich_residuals(strategy, lifted, distinct),
                tol,
                "a",
                "b",
                "commutant_index",
            ),
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
    n = strategy.n
    d_new = new_ancilla.dim
    a_slices = strategy.ancilla.block_slices()
    b_slices = hom_ancilla.block_slices()
    new_slices = new_ancilla.block_slices()

    def tensor_entry(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Blockwise Kronecker product into the tensor ancilla's block layout."""
        out = np.zeros((d_new, d_new), dtype=np.complex128)
        pos = 0
        for sa in a_slices:
            for sb in b_slices:
                out[new_slices[pos], new_slices[pos]] = np.kron(x[sa, sa], y[sb, sb])
                pos += 1
        return out

    projections = []
    for v in range(r):
        big = np.zeros((n * d_new, n * d_new), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                acc = np.zeros((d_new, d_new), dtype=np.complex128)
                for a in range(c):
                    acc += tensor_entry(strategy.entry(a, i, j), f[a][v])
                big[i * d_new : (i + 1) * d_new, j * d_new : (j + 1) * d_new] = acc
        projections.append(big)
    return BlockStrategy(n=n, c=r, ancilla=new_ancilla, projections=tuple(projections))
