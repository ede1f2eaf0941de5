"""The shared check report: its reducer, fail-closed NaN handling, and a
seeded cross-check of every verifier and array kernel against the
per-residual loops it replaced."""

import numpy as np
import pytest

from helpers import rand_unitary, random_block_strategy, random_povm
from qgraph import (
    BlockStrategy,
    CheckReport,
    ClassicalGraph,
    GameInstance,
    QuantumGraph,
    Tolerance,
    VnAlgebra,
    check_game_algebra_rep,
    graph_operator_system,
    shift_multiply_coloring,
    teleport_coloring,
    validate,
    verify_operational,
    verify_structural,
)
from qgraph.algebra import commutant, project_onto_span
from qgraph.colorings import complete_quantum_graph, diagonal_strategy
from qgraph.correlations import embed_classical, outcome_probability
from qgraph.graphs import SAME_VERTEX, adjacency_subspace_basis, edge_basis
from qgraph.linalg import Check, hs_norm, worst_residual
from qgraph.strategies import _worst_star_commutator

K = ClassicalGraph.complete


# --- the reducer --------------------------------------------------------------


def test_worst_residual_first_largest_in_c_order():
    r = np.array([[0.0, 2.0, 1.0], [2.0, 0.5, 0.0]])
    assert worst_residual(r, ("a", "b")) == (2.0, {"a": 0, "b": 1})


def test_worst_residual_nan_counts_as_infinity():
    r = np.array([[0.0, 5.0], [np.nan, np.inf]])
    assert worst_residual(r, ("a", "b")) == (np.inf, {"a": 1, "b": 0})
    assert worst_residual(np.nan) == (np.inf, None)


def test_worst_residual_without_witness():
    assert worst_residual(np.zeros((2, 3)), ("a", "b")) == (0.0, None)
    assert worst_residual(np.zeros((0, 3)), ("a", "b")) == (0.0, None)
    assert worst_residual(0.25) == (0.25, None)


def test_check_fails_closed_on_nan():
    check = Check.of("x", [0.0, np.nan], Tolerance(1e-3), "i")
    assert not check.passed and check.max_residual == np.inf and check.witness == {"i": 1}
    report = CheckReport((Check.of("y", [0.0], Tolerance()), check))
    assert not report.passed
    assert report.to_dict()["checks"][1] == {
        "name": "x",
        "pass": False,
        "max_residual": np.inf,
        "witness": {"i": 1},
    }


@pytest.mark.parametrize("eps", [np.inf, -np.inf, np.nan, 0.0, -1e-9])
def test_tolerance_rejects_non_finite_or_non_positive(eps):
    with pytest.raises(ValueError):
        Tolerance(eps)


# --- NaN regressions ------------------------------------------------------------


def nan_m2_instance():
    alg = VnAlgebra(n=2, blocks=((1, 2),))
    s = shift_multiply_coloring(alg)
    projections = [p.copy() for p in s.projections]
    projections[0][0, 0] = np.nan
    strat = BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=tuple(projections))
    return GameInstance(source=complete_quantum_graph(alg), target=K(s.c)), strat


@pytest.mark.parametrize(
    "verifier, names",
    [
        (verify_structural, ["pvm", "membership", "adjacency_zeros"]),
        (verify_operational, ["same_vertex_rule", "adjacency_rule"]),
        (
            check_game_algebra_rep,
            ["idempotents_sum_to_identity", "adjacency_relation", "commutant_relation"],
        ),
    ],
)
def test_nan_strategy_fails_every_check_that_reads_it(verifier, names):
    inst, strat = nan_m2_instance()
    report = verifier(inst, strat)
    assert not report.passed
    for name in names:
        check = report.check(name)
        assert not check.passed and check.max_residual == np.inf, name


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("graph", ["complete", "cycle"])
def test_validate_never_passes_a_non_finite_graph(graph, value):
    if graph == "complete":
        g = complete_quantum_graph(VnAlgebra(n=2, blocks=((1, 2),)))
    else:
        g = graph_operator_system(ClassicalGraph.cycle(4))
    basis = [y.copy() for y in g.s_basis]
    basis[-1][0, -1] = value
    g = QuantumGraph(n=g.n, algebra=g.algebra, s_basis=tuple(basis), traceless=g.traceless)
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            report = validate(g)
    except ValueError:
        return
    assert not report.passed


# --- reference: the per-residual loops the reducer replaced --------------------
#
# Each returns {name: (passed, worst, witness, table)}, where table maps the
# sorted witness items of every visited entry to its residual.


def _record(table, witness, r):
    table[tuple(sorted(witness.items()))] = r


def reference_validate(g, tol):
    span = g.span_basis()
    out = {}
    worst, witness, table = 0.0, None, {}
    for idx, y in enumerate(g.s_basis):
        r = hs_norm(y.conj().T - project_onto_span(y.conj().T, span))
        _record(table, {"basis_index": idx}, r)
        if r > worst:
            worst, witness = r, {"basis_index": idx}
    out["self_adjoint"] = (worst <= tol.eps, worst, witness, table)
    eye = np.eye(g.n, dtype=np.complex128)
    r = hs_norm(eye - project_onto_span(eye, span))
    out["operator_system"] = (r <= tol.eps, r, None, {})
    comm = commutant(g.algebra)
    worst, witness, table = 0.0, None, {}
    for ai, a in enumerate(comm):
        for bi, b in enumerate(comm):
            for yi, y in enumerate(g.s_basis):
                z = a @ y @ b
                r = hs_norm(z - project_onto_span(z, span))
                wit = {"comm_left": ai, "comm_right": bi, "basis_index": yi}
                _record(table, wit, r)
                if r > worst:
                    worst, witness = r, wit
    out["bimodule"] = (worst <= tol.eps, worst, witness, table)
    return out


def _nonadjacent_pairs(target):
    c = target.vertices
    return [(a, b) for a in range(c) for b in range(c) if not target.adjacent(a, b)]


def _reference_adjacency(inst, strategy, tol):
    eye = np.eye(strategy.ancilla.dim)
    perp = adjacency_subspace_basis(inst.source)
    worst, witness, table = 0.0, None, {}
    for a, b in _nonadjacent_pairs(inst.target):
        pa, pb = strategy.projections[a], strategy.projections[b]
        for yi, y in enumerate(perp):
            r = hs_norm(pa @ np.kron(y, eye) @ pb)
            _record(table, {"a": a, "b": b, "basis_index": yi}, r)
            if r > worst:
                worst, witness = r, {"a": a, "b": b, "basis_index": yi}
    return (worst <= tol.eps, worst, witness, table)


def reference_structural(inst, strategy, tol):
    out = {}
    rep = strategy.measurement_report(tol)
    pvm_residual = max(
        rep.hermitian_defect,
        max(0.0, -rep.min_eigenvalue),
        rep.sum_defect,
        rep.idempotency_defect,
        rep.orthogonality_defect,
    )
    out["pvm"] = (rep.is_pvm, pvm_residual, None, {})
    block_defect = strategy.ancilla_block_defect()
    out["ancilla_blocks"] = (block_defect <= tol.eps, block_defect, None, {})
    eye = np.eye(strategy.ancilla.dim)
    worst, witness, table = 0.0, None, {}
    for a, p in enumerate(strategy.projections):
        for ci, x in enumerate(commutant(inst.source.algebra)):
            big = np.kron(x, eye)
            r = hs_norm(p @ big - big @ p)
            _record(table, {"a": a, "commutant_index": ci}, r)
            if r > worst:
                worst, witness = r, {"a": a, "commutant_index": ci}
    out["membership"] = (worst <= tol.eps, worst, witness, table)
    out["adjacency_zeros"] = _reference_adjacency(inst, strategy, tol)
    return out


def reference_outcome_probability(strategy, y, tol):
    """The (a, b) loop of outcome_probability: (Tr (x) tau)(P_a W P_b W* P_a)."""
    d = strategy.ancilla.dim
    w = np.kron(y, np.eye(d))
    diag_weights = np.tile(strategy.ancilla.trace_diagonal(), strategy.n)
    p = np.empty((strategy.c, strategy.c), dtype=np.complex128)
    for a, pa in enumerate(strategy.projections):
        left = pa @ w
        for b, pb in enumerate(strategy.projections):
            z = left @ pb @ w.conj().T @ pa
            p[a, b] = np.sum(diag_weights * np.diagonal(z))
    imag = float(np.abs(p.imag).max())
    if imag > tol.eps * 100:
        raise ValueError(f"outcome probabilities have imaginary residual {imag:.3e}")
    return p.real


def reference_is_loc(strategy, tol):
    """The pairwise loop of is_loc; returns (verdict, worst residual)."""
    if strategy.ancilla.dim == 1:
        return True, 0.0
    ents = [
        strategy.entry(a, i, j)
        for a in range(strategy.c)
        for i in range(strategy.n)
        for j in range(strategy.n)
    ]
    worst = 0.0
    for x in ents:
        for y in ents:
            worst = max(worst, hs_norm(x @ y - y @ x))
            worst = max(worst, hs_norm(x @ y.conj().T - y.conj().T @ x))
    return worst <= tol.eps, worst


def reference_operational(inst, strategy, tol):
    basis = edge_basis(inst.source, tol)
    nonadj = _nonadjacent_pairs(inst.target)
    c = strategy.c
    same_worst, same_wit, same_table = 0.0, None, {}
    adj_worst, adj_wit, adj_table = 0.0, None, {}
    for idx, elem in enumerate(basis.elements):
        p = reference_outcome_probability(strategy, elem.matrix, tol)
        if elem.tag == SAME_VERTEX:
            for a in range(c):
                for b in range(c):
                    if a != b:
                        _record(same_table, {"a": a, "b": b, "basis_index": idx}, abs(p[a, b]))
                    if a != b and abs(p[a, b]) > same_worst:
                        same_worst = float(abs(p[a, b]))
                        same_wit = {"a": a, "b": b, "basis_index": idx}
        else:
            for a, b in nonadj:
                _record(adj_table, {"a": a, "b": b, "basis_index": idx}, abs(p[a, b]))
                if abs(p[a, b]) > adj_worst:
                    adj_worst = float(abs(p[a, b]))
                    adj_wit = {"a": a, "b": b, "basis_index": idx}
    return {
        "same_vertex_rule": (same_worst <= tol.eps, same_worst, same_wit, same_table),
        "adjacency_rule": (adj_worst <= tol.eps, adj_worst, adj_wit, adj_table),
    }


def reference_algebra(inst, strategy, tol):
    eye_d = np.eye(strategy.ancilla.dim)
    size = strategy.n * strategy.ancilla.dim
    r1 = max(
        max(hs_norm(p - p.conj().T) for p in strategy.projections),
        max(hs_norm(p @ p - p) for p in strategy.projections),
        hs_norm(sum(strategy.projections) - np.eye(size)),
    )
    comm = commutant(inst.source.algebra)
    r3, wit3, table = 0.0, None, {}
    for a in range(strategy.c):
        for b in range(strategy.c):
            if a == b:
                continue
            for ci, x in enumerate(comm):
                r = hs_norm(
                    strategy.projections[a] @ np.kron(x, eye_d) @ strategy.projections[b]
                )
                _record(table, {"a": a, "b": b, "commutant_index": ci}, r)
                if r > r3:
                    r3, wit3 = r, {"a": a, "b": b, "commutant_index": ci}
    return {
        "idempotents_sum_to_identity": (r1 <= tol.eps, r1, None, {}),
        "adjacency_relation": _reference_adjacency(inst, strategy, tol),
        "commutant_relation": (r3 <= tol.eps, r3, wit3, table),
    }


def assert_matches_reference(report, reference):
    assert [c.name for c in report.checks] == list(reference)
    for check in report.checks:
        passed, worst, witness, table = reference[check.name]
        assert check.passed == passed, check.name
        assert abs(check.max_residual - worst) <= 1e-12, check.name
        assert (check.witness is None) == (witness is None), check.name
        if check.witness is not None:
            # Symmetric strategies tie, so compare residuals, not indices.
            at_witness = table[tuple(sorted(check.witness.items()))]
            assert abs(at_witness - worst) <= 1e-12, check.name


# --- the seeded ladder ------------------------------------------------------------

LADDER = {
    "M_2": ((1, 2),),
    "C+M_2": ((1, 1), (1, 2)),
    "I_2xM_2": ((2, 2),),
    "M_3": ((1, 3),),
}


def _conjugate(u, mats):
    return tuple(u @ m @ u.conj().T for m in mats)


def _merge_first_two(s):
    merged = (s.projections[0] + s.projections[1],) + s.projections[2:]
    return BlockStrategy(n=s.n, c=s.c - 1, ancilla=s.ancilla, projections=merged)


def _rotate(rng, s):
    u = np.kron(rand_unitary(rng, s.n), np.eye(s.ancilla.dim))
    return BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=_conjugate(u, s.projections))


def ladder_cases():
    rng = np.random.default_rng(2020)
    for label, blocks in LADDER.items():
        n = sum(m * k for m, k in blocks)
        alg = VnAlgebra(n=n, blocks=blocks, unitary=rand_unitary(rng, n))
        g = complete_quantum_graph(alg)
        s = shift_multiply_coloring(alg)
        yield f"{label} winning", g, K(s.c), s, True
        yield f"{label} merged", g, K(s.c - 1), _merge_first_two(s), False
        # A rotation of C^n keeps P_a in M (x) M_d only when M = M_n.
        yield f"{label} rotated", g, K(s.c), _rotate(rng, s), blocks == ((1, n),)
    # S_C5 in a random basis, with its proper 3-colouring.
    v = rand_unitary(rng, 5)
    g0 = graph_operator_system(ClassicalGraph.cycle(5))
    alg = VnAlgebra(n=5, blocks=g0.algebra.blocks, unitary=v)
    g = QuantumGraph(n=5, algebra=alg, s_basis=_conjugate(v, g0.s_basis))
    d = diagonal_strategy((0, 1, 0, 1, 2), 3)
    s = BlockStrategy(n=5, c=3, ancilla=d.ancilla, projections=_conjugate(v, d.projections))
    yield "S_C5 winning", g, K(3), s, True
    yield "S_C5 merged", g, K(2), _merge_first_two(s), False
    yield "S_C5 rotated", g, K(3), _rotate(rng, s), False


CASES = list(ladder_cases())


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_verifiers_match_reference_loops(label, g, target, s, wins):
    tol = Tolerance()
    assert_matches_reference(validate(g, tol), reference_validate(g, tol))
    inst = GameInstance(source=g, target=target)
    assert_matches_reference(verify_structural(inst, s, tol), reference_structural(inst, s, tol))
    assert_matches_reference(
        verify_operational(inst, s, tol), reference_operational(inst, s, tol)
    )
    assert_matches_reference(
        check_game_algebra_rep(inst, s, tol), reference_algebra(inst, s, tol)
    )
    assert verify_structural(inst, s, tol).passed == wins


# --- the array kernels of is_loc and outcome_probability ---------------------------


def kernel_cases():
    for label, _, _, s, _ in CASES:
        yield label, s
    for d, k in ((1, 2), (2, 2), (1, 3)):
        yield f"teleport d={d} k={k}", teleport_coloring(d, k)
    rng = np.random.default_rng(2021)
    yield "random block PVM (2, 1)", random_block_strategy(rng, 3, 3, (2, 1))
    # Entries block diagonal over M_1 + M_1: D = 2 and loc.
    yield "loc D=2", random_block_strategy(rng, 3, 2, (1, 1))
    # A POVM, not a PVM: the kernel does not use idempotency.
    yield "POVM", embed_classical([random_povm(rng, 2, 3) for _ in range(3)])


KERNEL_CASES = list(kernel_cases())


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_is_loc_matches_reference_loop(label, s):
    tol = Tolerance()
    loc, worst = reference_is_loc(s, tol)
    assert s.is_loc(tol) == loc
    assert loc == (label == "loc D=2" or s.ancilla.dim == 1)
    if s.ancilla.dim > 1:
        d = s.ancilla.dim
        assert abs(_worst_star_commutator(s.entries().reshape(-1, d, d)) - worst) <= 1e-12


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_outcome_probability_matches_reference_loop(label, s):
    tol = Tolerance()
    rng = np.random.default_rng(2022)
    for _ in range(3):
        y = rng.normal(size=(s.n, s.n)) + 1j * rng.normal(size=(s.n, s.n))
        y /= np.linalg.norm(y)
        ref = reference_outcome_probability(s, y, tol)
        assert np.abs(outcome_probability(s, y, tol) - ref).max() <= 1e-12
