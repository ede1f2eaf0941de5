"""Checks made apart from qgraph: plain numpy, theory and the JSON standard.

No check compares against stored output.  Each either recomputes a quantity
with numpy (block-pattern residuals, the trace-path correlation, Gram
matrices) or tests a property the method must have (a winning colouring of a
quantum complete graph passes every mode; c - 1 < dim M colours fail every
mode; chi(C_m) is 2 or 3 by parity).
"""

from __future__ import annotations

import json

import numpy as np

EXACT = 1e-9


class Tally:
    """Operations attempted and failed, and whether every non-failed one was right.

    An operation fails when qgraph's verdict differs from the expected one.
    Only operations marked as a known fault may fail without making the run
    incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, label: str, mismatches: list[str], known_fault: bool) -> None:
        self.attempted += 1
        if mismatches:
            self.failed += 1
            if not known_fault:
                self.correct = False
                self.problems.append(f"{label}: {'; '.join(mismatches)}")


def compare_verdicts(got: dict, expected: dict) -> list[str]:
    return [
        f"{k} gave {got.get(k)!r}, expected {v!r}" for k, v in expected.items() if got.get(k) != v
    ]


def negative_control() -> None:
    """Feed the checker one wrong verdict and require that it counts a failure."""
    tally = Tally()
    tally.record("control", compare_verdicts({"structural": True}, {"structural": False}), False)
    if tally.failed != 1 or tally.correct:
        raise RuntimeError("negative control: the checker accepted a wrong verdict")


def block_pattern_residual(h: np.ndarray, blocks) -> float:
    """Distance of h from (+)_r I_{n_r} (x) M_{k_r} in canonical (multiplicity-first) layout."""
    fitted = np.zeros_like(h)
    off = 0
    for m, k in blocks:
        blk = h[off : off + m * k, off : off + m * k].reshape(m, k, m, k)
        x = np.einsum("pipj->ij", blk) / m
        fitted[off : off + m * k, off : off + m * k] = np.kron(np.eye(m), x)
        off += m * k
    return float(np.linalg.norm(h - fitted))


def normal_form_mismatches(alg_blocks, u, generators, expected_blocks) -> list[str]:
    out = []
    if sorted(alg_blocks) != sorted(tuple(b) for b in expected_blocks):
        out.append(f"normal_form blocks {alg_blocks}, generated {expected_blocks}")
    worst = max(block_pattern_residual(u.conj().T @ g @ u, alg_blocks) for g in generators)
    if not worst <= EXACT:
        out.append(f"U* g U leaves the block pattern by {worst:.3e}")
    return out


def trace_correlation(projections: np.ndarray, n: int, trace_diag: np.ndarray) -> np.ndarray:
    """X[a,b,i,j,k,l] = sum_uv t_u P_a[i,u; j,v] conj(P_b[k,u; l,v])."""
    c = projections.shape[0]
    d = trace_diag.size
    e = projections.reshape(c, n, d, n, d)
    return np.einsum("u,aiujv,bkulv->abijkl", trace_diag, e, e.conj(), optimize=True)


def monochromatic_edges(edges, colouring) -> list[tuple[int, int]]:
    return [(i, j) for i, j in edges if colouring[i] == colouring[j]]


def cycle_chromatic_number(m: int) -> int:
    return 2 if m % 2 == 0 else 3


def gram_residual(mats: np.ndarray) -> float:
    flat = mats.reshape(mats.shape[0], -1)
    return float(np.linalg.norm(flat.conj() @ flat.T - np.eye(flat.shape[0])))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, refusing NaN and Infinity, which the JSON standard does not allow."""
    return json.loads(text, parse_constant=_reject_constant)


def matrix_from_pairs(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]
