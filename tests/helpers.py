"""Random generators shared across the test suite (always seeded by the caller)."""

from __future__ import annotations

import math

import numpy as np

from qgraph import (
    BlockStrategy,
    ClassicalGraph,
    Correlation,
    QuantumGraph,
    TensorStrategy,
    TracialAncilla,
    VnAlgebra,
    graph_operator_system,
    round_almost_pvm,
    shift_multiply_coloring,
)
from qgraph.algebra import commutant_units
from qgraph.colorings import complete_quantum_graph, diagonal_strategy
from qgraph.correlations import IdentityReport
from qgraph.graphs import ADJACENCY, SAME_VERTEX, EdgeBasis
from qgraph.linalg import canonical_shuffle, matrix_unit, unit_root_power, worst_residual


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rand_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2


def random_pvm(rng: np.random.Generator, size: int, c: int) -> list[np.ndarray]:
    """Random PVM with c outputs on C^size; every output can be zero-rank."""
    u = rand_unitary(rng, size)
    labels = rng.integers(0, c, size=size)
    # Ensure at least one nonzero projection so the family is not degenerate.
    labels[0] = 0
    out = []
    for a in range(c):
        cols = u[:, labels == a]
        out.append(cols @ cols.conj().T)
    return out


def random_povm(rng: np.random.Generator, size: int, c: int) -> list[np.ndarray]:
    gs = []
    for _ in range(c):
        z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        gs.append(z @ z.conj().T + 1e-2 * np.eye(size))
    total = sum(gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ g @ inv_sqrt for g in gs]


def random_weights(rng: np.random.Generator, m: int) -> tuple[float, ...]:
    w = rng.uniform(0.2, 1.0, size=m)
    w = w / w.sum()
    # Renormalize exactly so the ancilla constructor accepts it.
    w[-1] = 1.0 - w[:-1].sum()
    return tuple(w)


def random_block_strategy(
    rng: np.random.Generator,
    n: int,
    c: int,
    block_dims: tuple[int, ...],
    weights: tuple[float, ...] | None = None,
) -> BlockStrategy:
    """Random PVM in M_n((+)_s M_{d_s}) with a random (or given) trace."""
    if weights is None:
        weights = random_weights(rng, len(block_dims))
    ancilla = TracialAncilla(tuple(block_dims), tuple(weights))
    per_block = [random_pvm(rng, n * d, c) for d in block_dims]
    d_total = ancilla.dim
    projections = []
    for a in range(c):
        big = np.zeros((n * d_total, n * d_total), dtype=np.complex128)
        off = 0
        for d, pvm in zip(block_dims, per_block):
            p = pvm[a].reshape(n, d, n, d)
            for i in range(n):
                for j in range(n):
                    big[i * d_total + off : i * d_total + off + d,
                        j * d_total + off : j * d_total + off + d] = p[i, :, j, :]
            off += d
        projections.append(big)
    return BlockStrategy(n=n, c=c, ancilla=ancilla, projections=tuple(projections))


def block_mixing_strategy(rng: np.random.Generator) -> BlockStrategy:
    """An exact PVM over M_2 + M_1 whose entries leave the algebra: a random block PVM with
    trace weights (1/2, 1/2), conjugated by 1 (x) U for a Haar U on C^3.  Its entries neither
    commute nor lie in the algebra, and tau(x y) != tau(y x) on them."""
    s = random_block_strategy(rng, 3, 3, (2, 1), (0.5, 0.5))
    mix = np.kron(np.eye(3), rand_unitary(rng, 3))
    return BlockStrategy(n=3, c=3, ancilla=s.ancilla, projections=conjugate(mix, s.projections))


def tagged(basis: EdgeBasis, tag: str) -> np.ndarray:
    """The matrices of an edge basis with the given tag, in order, as a stack."""
    return basis.matrices[np.array(basis.tags) == tag]


def copy_isometries(alg: VnAlgebra) -> list[tuple[int, np.ndarray]]:
    """(central block, isometry W) of each irreducible copy e_p (x) C^k of M, in the order
    of algebra.irreducible_copies: W holds the columns of the embedding unitary spanning it."""
    u = alg.unitary if alg.unitary is not None else np.eye(alg.n, dtype=np.complex128)
    return [
        (r, u[:, off + p * k : off + (p + 1) * k])
        for r, (off, (m, k)) in enumerate(zip(alg.block_offsets(), alg.blocks))
        for p in range(m)
    ]


def reference_isometry_edge_basis(g: QuantumGraph) -> EdgeBasis:
    """The ambient-isometry construction that graphs._compute_edge_basis replaced, kept as
    its reference: per copy pair, W_a W_b*/sqrt(k), then one SVD of the coordinates W_a* Z W_b
    over S n (M')perp, each kept direction mapped back by W_a v W_b* on its own."""
    copies = copy_isometries(g.algebra)
    perp = g._adjacency_basis
    mats, tags, blocks = [], [], []
    for a, (ra, wa) in enumerate(copies):
        for b, (rb, wb) in enumerate(copies):
            ka, kb = wa.shape[1], wb.shape[1]
            if ra == rb:
                mats.append(wa @ wb.conj().T / np.sqrt(ka))
                tags.append(SAME_VERTEX)
                blocks.append((a, b))
            coords = (wa.conj().T @ perp @ wb).reshape(len(perp), ka * kb)
            _, s, vh = np.linalg.svd(coords, full_matrices=False)
            for v in vh[s >= 0.5]:
                mats.append(wa @ v.reshape(ka, kb) @ wb.conj().T)
                tags.append(ADJACENCY)
                blocks.append((a, b))
    dims = tuple(w.shape[1] for _, w in copies)
    return EdgeBasis(np.reshape(mats, (-1, g.n, g.n)), tuple(tags), tuple(blocks), dims)


def reference_synchronous_identities(x: Correlation) -> IdentityReport:
    """The body that correlations.synchronous_identities replaced, kept as its reference:
    identity (4) from its own two einsums over the blocks a = b."""
    t = x.tensor
    diag_entries = np.einsum("abiijj->abij", t)
    positivity = worst_residual([np.abs(diag_entries.imag), np.maximum(-diag_entries.real, 0.0)])[0]
    conj_residual = worst_residual(np.abs(t - np.conj(t.transpose(0, 1, 3, 2, 5, 4))))[0]
    sums = np.abs([np.einsum("abikjk->abij", t), np.einsum("abkikj->abij", t)])
    distinct = ~np.eye(x.c, dtype=bool)[:, :, None, None]
    off = worst_residual(np.where(distinct, sums, 0.0))[0]
    diag_sums = [np.einsum("aaikjk->ij", t), np.einsum("aakikj->ij", t)]
    diag_sum = worst_residual(np.abs(np.subtract(diag_sums, np.eye(x.n))))[0]
    return IdentityReport(positivity, conj_residual, off, diag_sum)


def times_input(ops: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P (Y (x) 1) for each P of a (c, nD, nD) stack and each Y of an (..., n, n)
    stack, as (..., c, nD, nD).  Y meets the n-index of P, seen as (c, n, D, n, D),
    so Y (x) 1 is never formed."""
    c, n, d = len(ops), y.shape[-1], ops.shape[-1] // y.shape[-1]
    out = np.einsum("aiujv,...jk->...aiukv", ops.reshape(c, n, d, n, d), y, optimize=True)
    return out.reshape(*y.shape[:-2], c, n * d, n * d)


def reference_correlation_from_trace(strategy: BlockStrategy) -> Correlation:
    """The einsum that correlations.correlation_from_trace replaced, kept as its reference."""
    ents = strategy.entries()  # (c, n, n, D, D)
    t = strategy.ancilla.trace_diagonal()
    x = np.einsum("u,aijuv,bkluv->abijkl", t, ents, np.conj(ents), optimize=True)
    return Correlation(n=strategy.n, c=strategy.c, tensor=x)


def reference_correlation_from_tensor(strategy: TensorStrategy) -> Correlation:
    """The einsum that correlations.correlation_from_tensor replaced, kept as its reference."""
    n, c = strategy.n, strategy.c
    da, db = strategy.dims
    p_ent = np.stack(strategy.alice).reshape(c, n, da, n, da).transpose(0, 1, 3, 2, 4)
    q_ent = np.stack(strategy.bob).reshape(c, db, n, db, n).transpose(0, 2, 4, 1, 3)
    chi = strategy.chi.reshape(da, db)
    x = np.einsum(
        "aijuv,bklxy,vy,ux->abijkl", p_ent, q_ent, chi, np.conj(chi), optimize=True
    )
    return Correlation(n=n, c=c, tensor=x)


def reference_bob_from_alice(strategy: BlockStrategy) -> TensorStrategy:
    """The loop that strategies.bob_from_alice replaced, kept as its reference: chi
    one amplitude at a time and one canonical_shuffle per projection."""
    d = strategy.ancilla.dim
    n = strategy.n
    chi = np.zeros(d * d, dtype=np.complex128)
    t = strategy.ancilla.trace_diagonal()
    for u in range(d):
        chi[u * d + u] = np.sqrt(t[u])
    bob = tuple(
        canonical_shuffle(np.conj(p), outer=n, inner=d) for p in strategy.projections
    )
    return TensorStrategy(dims=(d, d), alice=strategy.projections, bob=bob, chi=chi)


def dense_sandwich(ps: np.ndarray, ys: np.ndarray, mask: np.ndarray, weights=None) -> np.ndarray:
    """The dense kernel that homgame._sandwich replaced, kept as its reference:
    sqrt(sum_Y |W P_a (Y (x) 1) P_b|_F^2) per masked pair (a, b), else 0, from the
    (m, c, nD, nD) stack of P_a (Y (x) 1), one b at a time."""
    x = times_input(ps, ys)  # axes (Y, a, row, column)
    if weights is not None:
        x *= weights[:, None]
    out = np.zeros(mask.shape)
    for b in range(len(ps)):
        (a,) = np.nonzero(mask[:, b])
        out[a, b] = np.linalg.norm(np.linalg.norm(x[:, a] @ ps[b], axis=(-2, -1)), axis=0)
    return out


def spread(ys: np.ndarray) -> float:
    """kappa = max(|sum_Y Y Y*|_2, |sum_Y Y* Y|_2) of an (m, n, n) stack, the constant of
    homgame._sandwich's bound, from the norms of the two sums."""
    n = ys.shape[-1]
    sums = (sum((y @ y.conj().T for y in ys), np.zeros((n, n))), sum((y.conj().T @ y for y in ys), np.zeros((n, n))))
    return max(np.linalg.norm(m, ord=2) for m in sums)


def rounded_dense_sandwich(ps: np.ndarray, ys: np.ndarray, mask: np.ndarray, weights=None) -> np.ndarray:
    """The value homgame._sandwich reports, from the dense kernel: dense_sandwich on the
    rounded PVM Pi of round_almost_pvm, plus |W|_2 sqrt(kappa) (d_a + d_b + d_a d_b) on the
    masked pairs, with d_a = |P_a - Pi_a|_F and kappa = spread(Y)."""
    pi = np.stack(round_almost_pvm(ps)[0])
    d = np.linalg.norm(ps - pi, axis=(-2, -1))
    scale = np.sqrt(spread(ys)) * (1.0 if weights is None else weights.max())
    return dense_sandwich(pi, ys, mask, weights) + np.where(mask, scale * (d[:, None] + d + np.outer(d, d)), 0.0)


def dense_membership(ps: np.ndarray, comm: np.ndarray) -> np.ndarray:
    """The commutator form of verify_structural's membership, kept as its reference:
    sqrt(sum_Z |[P_a, Z (x) 1]|_F^2) per a, from two full (m, c, nD, nD) stacks.
    It equals the per-a sum over the M' sandwich table on a PVM only."""
    diff = times_input(ps, comm)
    diff -= times_input(ps.swapaxes(-2, -1), comm.swapaxes(-2, -1)).swapaxes(-2, -1)
    return np.linalg.norm(np.linalg.norm(diff, axis=(-2, -1)), axis=0)


def reference_teleport_projections(d: int, k: int) -> np.ndarray:
    """The entry loop that colorings.teleport_coloring replaced, kept as its
    reference: the (k^2, n^2, n^2) stack of P_(a,b), one Bell tensor per color."""
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
    return np.stack(projections)


def reference_shift_multiply_projections(alg: VnAlgebra) -> np.ndarray:
    """The entry loop that colorings.shift_multiply_coloring replaced, kept as
    its reference: the (dim M, n d, n d) stack, one D x D entry at a time."""
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
    return alg.embed(np.stack(projections))


def reference_diagonal_projections(coloring, c: int) -> tuple[np.ndarray, ...]:
    """The loop that colorings.diagonal_strategy replaced, kept as its reference."""
    n = len(coloring)
    projections = []
    for a in range(c):
        p = np.zeros((n, n), dtype=np.complex128)
        for x, col in enumerate(coloring):
            if col == a:
                p[x, x] = 1.0
        projections.append(p)
    return tuple(projections)


def reference_algebra_basis(alg: VnAlgebra) -> list[np.ndarray]:
    """The per-element loop that algebra._compute_algebra_basis replaced, kept as its
    reference: one I_m (x) E_uv / sqrt(m) and one embed at a time."""
    out = []
    for off, (m, k) in zip(alg.block_offsets(), alg.blocks):
        for u in range(k):
            for v in range(k):
                b = np.zeros((alg.n, alg.n), dtype=np.complex128)
                for p in range(m):
                    b[off + p * k + u, off + p * k + v] = 1.0
                out.append(alg.embed(b / np.sqrt(m)))
    return out


def reference_commutant(alg: VnAlgebra) -> list[np.ndarray]:
    """The per-element loop that algebra._compute_commutant replaced, kept as its reference."""
    out = []
    for lead, trail, k in commutant_units(alg):
        b = np.zeros((alg.n, alg.n), dtype=np.complex128)
        b[lead + np.arange(k), trail + np.arange(k)] = 1.0
        out.append(alg.embed(b / np.sqrt(k)))
    return out


def commutator_map(basis) -> np.ndarray:
    """The (m n^2, n^2) matrix of X -> ([b, X])_b over an (m, n, n) stack, on row-major
    vec(X): kron(b, 1) - kron(1, b^T) for each b."""
    basis = np.asarray(basis, dtype=np.complex128)
    eye = np.eye(basis.shape[-1])
    return np.concatenate([np.kron(b, eye) - np.kron(eye, b.T) for b in basis])


def reference_commutant_rows(basis) -> np.ndarray:
    """The nullspace that algebra._commutant_rows replaced, kept as its reference: the
    flattened X with [b, X] = 0 for each b of an (m, n, n) stack, from commutator_map, with
    the rank floor relative to its largest singular value, the norm of that whole map."""
    _, s, vh = np.linalg.svd(commutator_map(basis), full_matrices=False)
    return vh[int(np.sum(s > max(1e-9 * s[0], 1e-12))) :].conj()


def reference_central_projections(alg: VnAlgebra) -> list[np.ndarray]:
    """The per-block loop that VnAlgebra.central_projections replaced, kept as its reference."""
    out = []
    for off, (m, k) in zip(alg.block_offsets(), alg.blocks):
        e = np.zeros((alg.n, alg.n), dtype=np.complex128)
        e[off : off + m * k, off : off + m * k] = np.eye(m * k)
        out.append(alg.embed(e))
    return out


LADDER = {
    "M_2": ((1, 2),),
    "C+M_2": ((1, 1), (1, 2)),
    "I_2xM_2": ((2, 2),),
    "M_3": ((1, 3),),
}


def conjugate(u, mats):
    return tuple(u @ m @ u.conj().T for m in mats)


def merge_first_two(s):
    merged = (s.projections[0] + s.projections[1],) + tuple(s.projections[2:])
    return BlockStrategy(n=s.n, c=s.c - 1, ancilla=s.ancilla, projections=merged)


def rotate(rng, s):
    u = np.kron(rand_unitary(rng, s.n), np.eye(s.ancilla.dim))
    return BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=conjugate(u, s.projections))


def ladder_cases():
    """The seeded ladder of game cases: (label, graph, target, strategy, wins)."""
    rng = np.random.default_rng(2020)
    for label, blocks in LADDER.items():
        n = sum(m * k for m, k in blocks)
        alg = VnAlgebra(n=n, blocks=blocks, unitary=rand_unitary(rng, n))
        g = complete_quantum_graph(alg)
        s = shift_multiply_coloring(alg)
        yield f"{label} winning", g, ClassicalGraph.complete(s.c), s, True
        yield f"{label} merged", g, ClassicalGraph.complete(s.c - 1), merge_first_two(s), False
        # A rotation of C^n keeps P_a in M (x) M_d only when M = M_n.
        yield f"{label} rotated", g, ClassicalGraph.complete(s.c), rotate(rng, s), blocks == ((1, n),)
    # S_C5 in a random basis, with its proper 3-colouring.
    v = rand_unitary(rng, 5)
    g0 = graph_operator_system(ClassicalGraph.cycle(5))
    alg = VnAlgebra(n=5, blocks=g0.algebra.blocks, unitary=v)
    g = QuantumGraph(n=5, algebra=alg, s_basis=conjugate(v, g0.s_basis))
    d = diagonal_strategy((0, 1, 0, 1, 2), 3)
    s = BlockStrategy(n=5, c=3, ancilla=d.ancilla, projections=conjugate(v, d.projections))
    yield "S_C5 winning", g, ClassicalGraph.complete(3), s, True
    yield "S_C5 merged", g, ClassicalGraph.complete(2), merge_first_two(s), False
    yield "S_C5 rotated", g, ClassicalGraph.complete(3), rotate(rng, s), False


def reference_ancilla_block_defect(strategy: BlockStrategy) -> float:
    """The per-outcome loop that BlockStrategy.ancilla_block_defect replaced, kept as its reference."""
    mask = strategy.ancilla.block_mask()
    return worst_residual([float(np.linalg.norm(np.where(mask, 0.0, p))) for p in strategy.entries()])[0]


def reference_embed_projections(families) -> np.ndarray:
    """The per-block loop that correlations.embed_classical replaced, kept as its reference."""
    n, c, h = len(families), len(families[0]), len(families[0][0])
    out = np.zeros((c, n * h, n * h), dtype=np.complex128)
    for a in range(c):
        for x in range(n):
            out[a, x * h : (x + 1) * h, x * h : (x + 1) * h] = families[x][a]
    return out
