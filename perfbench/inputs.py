"""Seeded inputs for the benchmark, built with plain numpy.

Every input is a raw array (or a JSON file of raw arrays) from which a job
builds fresh qgraph objects.  Each pass draws its own conjugation unitaries
from ``numpy.random.default_rng([seed, pass, workload])``, so the same seed
gives the same inputs and no two passes share numeric inputs.  The winning
colourings handed to the game checks are constructed here from the paper's
formulas, not by qgraph.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The algebra ladder: (label, blocks) with blocks as (multiplicity n_r, size k_r).
LADDER = (
    ("M_2", ((1, 2),)),
    ("C+M_2", ((1, 1), (1, 2))),
    ("I_2xM_2", ((2, 2),)),
    ("M_3", ((1, 3),)),
    ("M_2+M_3", ((1, 2), (1, 3))),
    ("I_2xM_3", ((2, 3),)),
    ("M_4", ((1, 4),)),
    ("(I_2xM_2)^2", ((2, 2), (2, 2))),
)
LARGEST = "(I_2xM_2)^2"
CYCLES = (5, 6, 7, 8)

WORKLOAD_IDS = {"game-ladder": 1, "rigidity-ladder": 2, "cli-roundtrip": 3}


def pass_rng(seed: int, workload: str, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], pass_index])


def size_of(blocks) -> int:
    return sum(m * k for m, k in blocks)


def dim_algebra(blocks) -> int:
    return sum(k * k for _, k in blocks)


def dim_commutant(blocks) -> int:
    return sum(m * m for m, _ in blocks)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2


def matrix_units(n: int) -> np.ndarray:
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


def conjugate(u: np.ndarray, mats) -> np.ndarray:
    """u X u* for every X of a stack."""
    return np.einsum("ij,ajk,lk->ail", u, np.asarray(mats), u.conj())


def algebra_generators(rng, blocks, v) -> list[np.ndarray]:
    """Two random self-adjoint elements of v ((+)_r I_{n_r} (x) M_{k_r}) v*.

    Two generic elements generate the whole algebra, repeated blocks included.
    """
    n = size_of(blocks)
    gens = []
    for _ in range(2):
        x = np.zeros((n, n), dtype=np.complex128)
        off = 0
        for m, k in blocks:
            x[off : off + m * k, off : off + m * k] = np.kron(np.eye(m), random_hermitian(rng, k))
            off += m * k
        gens.append(v @ x @ v.conj().T)
    return gens


def shift_multiply(blocks) -> tuple[np.ndarray, int]:
    """The dim(M) projections of the shift-multiply colouring, canonical coordinates,
    and the ancilla size d.

    P_(s,a,b) = (+)_p sum_ij (omega_k^{(i-j)a}/k) E_ij (x) I_{d/k} (x) E_{i+b,j+b}
    on block s with k = k_s, ancilla M_d with d = lcm of the block sizes.
    """
    d = math.lcm(*(k for _, k in blocks))
    n = size_of(blocks)
    out = []
    off = 0
    for m, k in blocks:
        shift = np.roll(np.eye(k), 1, axis=0)  # e_i -> e_{i+1}
        for a in range(k):
            phase = np.exp(2j * np.pi * a * np.arange(k) / k)
            for b in range(k):
                big = np.zeros((n, d, n, d), dtype=np.complex128)
                sb = np.linalg.matrix_power(shift, b)
                for i in range(k):
                    for j in range(k):
                        ent = phase[i] * phase[j].conj() / k * np.kron(
                            np.eye(d // k), sb[:, [i]] @ sb[:, [j]].T
                        )
                        for p in range(m):
                            big[off + p * k + i, :, off + p * k + j, :] = ent
                out.append(big.reshape(n * d, n * d))
        off += m * k
    return np.stack(out), d


def lift(v: np.ndarray, d: int) -> np.ndarray:
    return np.kron(v, np.eye(d))


def merge_first_two(projections: np.ndarray) -> np.ndarray:
    """A PVM with c-1 outputs: colours 0 and 1 merged."""
    return np.concatenate([projections[:1] + projections[1:2], projections[2:]])


def cycle_edges(m: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % m) for i in range(m)]


def graph_system_basis(m: int, edges, summed: bool = False) -> np.ndarray:
    """S_G = span{E_ii, E_ij, E_ji : ij an edge}; summed=True uses E_ij + E_ji instead."""
    units = matrix_units(m)
    basis = [units[i * m + i] for i in range(m)]
    for i, j in edges:
        if summed:
            basis.append(units[i * m + j] + units[j * m + i])
        else:
            basis += [units[i * m + j], units[j * m + i]]
    return np.stack(basis)


def cycle_colouring(m: int) -> list[int]:
    """A proper colouring of C_m with chi(C_m) colours: 2 if m is even, 3 if odd."""
    col = [i % 2 for i in range(m)]
    if m % 2:
        col[-1] = 2
    return col


def diagonal_projections(colouring, c: int) -> np.ndarray:
    m = len(colouring)
    out = np.zeros((c, m, m), dtype=np.complex128)
    for x, a in enumerate(colouring):
        out[a, x, x] = 1.0
    return out


def random_block_pvm(rng, n: int, c: int, block_dims) -> np.ndarray:
    """Random PVM in M_n((+)_s M_{d_s}): one random PVM on C^n (x) C^{d_s} per block."""
    dim = sum(block_dims)
    out = np.zeros((c, n, dim, n, dim), dtype=np.complex128)
    off = 0
    for d in block_dims:
        u = haar_unitary(rng, n * d)
        labels = rng.integers(0, c, size=n * d)
        for a in range(c):
            cols = u[:, labels == a]
            out[a, :, off : off + d, :, off : off + d] = (cols @ cols.conj().T).reshape(n, d, n, d)
        off += d
    return out.reshape(c, n * dim, n * dim)


def random_weights(rng, m: int) -> tuple[float, ...]:
    w = rng.uniform(0.2, 1.0, size=m)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return tuple(float(x) for x in w)


# --- JSON in the documented file formats ------------------------------------


def matrix_json(m) -> list:
    m = np.asarray(m)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def algebra_json(n: int, blocks, unitary) -> dict:
    return {
        "n": n,
        "blocks": [{"mult": m, "dim": k} for m, k in blocks],
        "unitary": None if unitary is None else matrix_json(unitary),
    }


def graph_json(n: int, blocks, unitary, s_basis) -> dict:
    return {
        "n": n,
        "algebra": algebra_json(n, blocks, unitary),
        "s_basis": [matrix_json(y) for y in s_basis],
        "traceless": False,
    }


def strategy_json(n: int, c: int, d: int, projections) -> dict:
    return {
        "n": n,
        "c": c,
        "ancilla": {"block_dims": [d], "trace_weights": [1.0]},
        "projections": [matrix_json(p) for p in projections],
    }


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)

