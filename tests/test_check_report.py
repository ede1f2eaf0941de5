"""The shared check report: its reducer, fail-closed NaN handling, and a
seeded cross-check of every verifier and array kernel against the
per-residual loops it replaced."""

import dataclasses

import numpy as np
import pytest

from helpers import rand_hermitian, rand_unitary, random_block_strategy, random_povm
from qgraph import (
    BlockStrategy,
    CheckReport,
    ClassicalGraph,
    GameInstance,
    QuantumGraph,
    Tolerance,
    TracialAncilla,
    VnAlgebra,
    check_bisynchronous,
    check_game_algebra_rep,
    check_measurement,
    check_synchronous,
    compose_reps,
    compress_to_classical,
    correlation_from_trace,
    graph_operator_system,
    rigidity_check,
    round_almost_pvm,
    shift_multiply_coloring,
    synchronous_identities,
    teleport_coloring,
    validate,
    verify_operational,
    verify_structural,
)
from qgraph.algebra import commutant, project_onto_span
from qgraph.colorings import complete_quantum_graph, diagonal_strategy
from qgraph.correlations import ClassicalCorrelation, Correlation, embed_classical, outcome_probability
from qgraph.graphs import SAME_VERTEX, adjacency_subspace_basis, classical_graph_from_operator_system, edge_basis
from qgraph.linalg import Check, hermitian_eig, hs_norm, matrix_unit, worst_residual
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


def m2_correlation():
    return correlation_from_trace(shift_multiply_coloring(VnAlgebra(n=2, blocks=((1, 2),))))


def with_nan(x, index):
    t = x.tensor.copy()
    t[index] = np.nan
    return Correlation(n=x.n, c=x.c, tensor=t)


def test_check_bisynchronous_fails_on_nan():
    # p(a, b | x, y) = 1/2 when (a == b) == (x == y): bisynchronous.
    same = np.eye(2, dtype=bool)
    p = np.where(same[:, :, None, None] == same[None, None], 0.5, 0.0)
    assert check_bisynchronous(ClassicalCorrelation(n=2, c=2, p=p))
    p[0, 1, 0, 0] = np.nan
    assert not check_bisynchronous(ClassicalCorrelation(n=2, c=2, p=p))


@pytest.mark.parametrize(
    "field, index",
    [
        ("positivity_defect", (0, 1, 0, 0, 1, 1)),  # a diagonal entry's real part
        ("conjugation_residual", (0, 0, 0, 1, 0, 1)),
        ("offdiag_row_residual", (0, 1, 0, 0, 1, 0)),  # row sum a=0, b=1, i=0, j=1
        ("diag_sum_residual", (0, 0, 0, 0, 1, 0)),
    ],
)
def test_identity_residual_is_inf_for_nan_in_its_entries(field, index):
    x = m2_correlation()
    assert synchronous_identities(x).passed()
    rep = synchronous_identities(with_nan(x, index))
    assert getattr(rep, field) == np.inf and not rep.passed()


def test_check_synchronous_reports_inf_cross_residual_for_nan():
    rep = check_synchronous(with_nan(m2_correlation(), (0, 1, 0, 0, 0, 0)))
    assert rep.cross_residual == np.inf and not rep.synchronous


@pytest.mark.parametrize(
    "field",
    ["idempotent_residual", "block_sum_residual", "total_sum_residual", "trace_covariance_residual"],
)
def test_coloring_report_fails_on_nan_in_any_field(field):
    alg = VnAlgebra(n=2, blocks=((1, 2),))
    rep = rigidity_check(shift_multiply_coloring(alg), alg)
    assert rep.passed()
    assert not dataclasses.replace(rep, **{field: np.nan}).passed()


def test_compress_to_classical_refuses_nan_imaginary_part():
    x = m2_correlation()
    t = x.tensor.copy()
    t[0, 0, 0, 0, 0, 0] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="imaginary residual"):
        compress_to_classical(Correlation(n=x.n, c=x.c, tensor=t))


def test_hermitian_eig_refuses_nan():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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


# --- references for the relation kernels and the reductions they replaced -----------


def reference_check_measurement(ops, tol):
    """The per-operator loops of the old check_measurement (pairs a < b)."""
    mats = [np.asarray(p, dtype=np.complex128) for p in ops]
    herm = worst_residual([hs_norm(p - p.conj().T) for p in mats])[0]
    min_eig = -worst_residual(
        [-float(np.linalg.eigvalsh((p + p.conj().T) / 2).min()) for p in mats]
    )[0]
    sum_defect = worst_residual(hs_norm(sum(mats) - np.eye(mats[0].shape[0])))[0]
    idem = worst_residual([hs_norm(p @ p - p) for p in mats])[0]
    orth = worst_residual(
        [hs_norm(mats[a] @ mats[b]) for a in range(len(mats)) for b in range(a + 1, len(mats))]
    )[0]
    is_povm = herm <= tol.eps and min_eig >= -tol.eps and sum_defect <= tol.eps
    residuals = {
        "hermitian": herm,
        "min_eigenvalue": min_eig,
        "sum": sum_defect,
        "idempotency": idem,
        "orthogonality": orth,
    }
    return is_povm, is_povm and idem <= tol.eps and orth <= tol.eps, residuals


def reference_rounding_defects(ops, rounded):
    """The defect loops and the distance of the old round_almost_pvm."""
    c = len(ops)
    overlap = max(
        (hs_norm(ops[a] @ ops[b]) for a in range(c) for b in range(c) if a != b),
        default=0.0,
    )
    idem = max(hs_norm(p @ p - p) for p in ops)
    sum_defect = hs_norm(sum(ops) - np.eye(ops[0].shape[0]))
    dist = max(float(np.linalg.norm(q - p, ord=2)) for q, p in zip(rounded, ops))
    return overlap, idem, sum_defect, dist


def reference_compose_relations(f, tol):
    """The relation loop of the old compose_reps; returns (verdict, worst)."""
    c = len(f)
    eye_e = np.eye(f[0][0].shape[0])
    residuals = [hs_norm(sum(row) - eye_e) for row in f]
    for a, row in enumerate(f):
        for v, x in enumerate(row):
            residuals += [hs_norm(x - x.conj().T), hs_norm(x @ x - x)]
            residuals += [hs_norm(x @ f[b][v]) for b in range(c) if b != a]
    worst = worst_residual(residuals)[0]
    return worst <= tol.eps, worst


def reference_classical_graph(g, tol):
    """The per-unit loop of the old classical_graph_from_operator_system."""
    if g.traceless or not all(b == (1, 1) for b in g.algebra.blocks):
        return None
    if g.algebra.unitary is not None:
        return None
    n = g.n
    span = g.span_basis()
    edges = []
    for i in range(n):
        e = matrix_unit(n, i, i)
        if hs_norm(e - project_onto_span(e, span)) > tol.eps:
            return None
    for i in range(n):
        for j in range(i + 1, n):
            e = matrix_unit(n, i, j)
            r = hs_norm(e - project_onto_span(e, span))
            if r <= tol.eps:
                edges.append((i, j))
            elif abs(r - 1.0) > tol.eps * 10:
                return None
    candidate = ClassicalGraph(n, tuple(edges))
    if len(span) != n + 2 * len(candidate.edges):
        return None
    return candidate


def reference_bisync(p):
    """The two double loops of the old check_bisynchronous; returns (sync, bisync)."""
    arr = p.p
    sync = 0.0
    for a in range(p.c):
        for b in range(p.c):
            if a != b:
                sync = max(sync, float(np.abs(np.diagonal(arr[a, b])).max()))
    bisync = 0.0
    for x in range(p.n):
        for y in range(p.n):
            if x != y:
                bisync = max(bisync, float(np.abs(np.diagonal(arr[:, :, x, y])).max()))
    return sync, bisync


def reference_sync_and_identities(x):
    """The old check_synchronous residuals and synchronous_identities, off-diagonal loop included."""
    t = x.tensor
    diagonal = abs(complex(np.einsum("aaijij->", t) / x.n) - 1.0)
    cross = np.einsum("abijij->ab", t)
    np.fill_diagonal(cross, 0.0)
    cross_residual = float(np.abs(cross).max()) if x.c > 1 else 0.0
    diag_entries = np.einsum("abiijj->abij", t)
    positivity = max(
        float(np.abs(diag_entries.imag).max()),
        float(max(0.0, -diag_entries.real.min())),
    )
    conj_residual = float(np.abs(t - np.conj(t.transpose(0, 1, 3, 2, 5, 4))).max())
    row = np.einsum("abikjk->abij", t)
    col = np.einsum("abkikj->abij", t)
    off = 0.0
    for a in range(x.c):
        for b in range(x.c):
            if a != b:
                off = max(off, float(np.abs(row[a, b]).max()), float(np.abs(col[a, b]).max()))
    eye = np.eye(x.n)
    diag_sum = max(
        float(np.abs(np.einsum("aaikjk->ij", t) - eye).max()),
        float(np.abs(np.einsum("aakikj->ij", t) - eye).max()),
    )
    return (diagonal, cross_residual), (positivity, conj_residual, off, diag_sum)


def reference_rigidity(strategy, alg):
    """The per-colour, per-block loop of the old rigidity_check, after verification."""
    d = strategy.ancilla.dim
    projections = strategy.projections
    if alg.unitary is not None:
        u_big = np.kron(alg.unitary, np.eye(d))
        projections = tuple(u_big.conj().T @ p @ u_big for p in projections)
    dim_m = alg.dim_algebra
    eye_d = np.eye(d)
    r_values = []
    idem = 0.0
    block_totals = [np.zeros((d, d), dtype=np.complex128) for _ in alg.blocks]
    for p in projections:
        per_block = []
        for r, (off, (m_r, k_r)) in enumerate(zip(alg.block_offsets(), alg.blocks)):
            tr_block = np.zeros((d, d), dtype=np.complex128)
            for u in range(off, off + m_r * k_r):
                tr_block += p[u * d : (u + 1) * d, u * d : (u + 1) * d]
            r_ar = (k_r / m_r) * tr_block
            per_block.append(r_ar)
            idem = max(idem, hs_norm(r_ar @ r_ar - r_ar))
            block_totals[r] += r_ar
        r_values.append(per_block)
    rigidity = [sum(per_block) / dim_m for per_block in r_values]
    block_sum = max(
        hs_norm(total - k_r * k_r * eye_d) for total, (_, k_r) in zip(block_totals, alg.blocks)
    )
    total_sum = hs_norm(sum(block_totals) - dim_m * eye_d)
    trace_cov = 0.0
    if strategy.c == dim_m:
        trace_cov = max(hs_norm(psi_p - eye_d / dim_m) for psi_p in rigidity)
    return {
        "idempotent_residual": idem,
        "block_sum_residual": block_sum,
        "total_sum_residual": total_sum,
        "trace_covariance_residual": trace_cov,
        "r_values": r_values,
        "rigidity": rigidity,
    }


def _noisy(rng, mats, scale, hermitian=True):
    """Seeded perturbation of each matrix by about scale in Frobenius norm."""
    out = []
    for m in mats:
        if hermitian:
            z = rand_hermitian(rng, m.shape[0])
        else:
            z = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
        out.append(m + scale * z / np.linalg.norm(z))
    return out


def measurement_cases():
    rng = np.random.default_rng(2023)
    for label, s in KERNEL_CASES:
        yield label, list(s.projections)
        yield f"{label} +1e-8", _noisy(rng, s.projections, 1e-8)
    yield "POVM on C^4", random_povm(rng, 4, 3)
    yield "single operator", [np.eye(3)]


MEASUREMENT_CASES = list(measurement_cases())


@pytest.mark.parametrize("label, ops", MEASUREMENT_CASES, ids=[c[0] for c in MEASUREMENT_CASES])
def test_check_measurement_matches_reference_loop(label, ops):
    # Over Hermitian families |P_b P_a| = |P_a P_b|, so ordered pairs a != b
    # give the worst of the pairs a < b.
    tol = Tolerance()
    is_povm, is_pvm, residuals = reference_check_measurement(ops, tol)
    rep = check_measurement(ops, tol)
    assert (rep.is_povm, rep.is_pvm) == (is_povm, is_pvm)
    for name, value in rep.residuals().items():
        assert abs(value - residuals[name]) <= 1e-12, name


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_round_almost_pvm_matches_reference_defects(label, s, hermitian):
    ops = _noisy(np.random.default_rng(2024), s.projections, 1e-3, hermitian)
    rounded, rep = round_almost_pvm(ops)
    reference = reference_rounding_defects(ops, rounded)
    got = (rep.overlap_defect, rep.idempotency_defect, rep.sum_defect, rep.max_distance_2norm)
    assert np.abs(np.subtract(got, reference)).max() <= 1e-12


def hom_rep(rng, c, r, e, noise=0.0):
    """Hom(K_c, K_r) on C^e: f_{a,v} projects onto the columns of U labelled v by row a."""
    u = rand_unitary(rng, e)
    shift = rng.integers(0, r, size=e)
    f = []
    for a in range(c):
        labels = (shift + a) % r  # distinct across rows a, so each column is orthogonal
        f.append([u[:, labels == v] @ u[:, labels == v].conj().T for v in range(r)])
    return [_noisy(rng, row, noise, hermitian=False) for row in f] if noise else f


def compose_cases():
    rng = np.random.default_rng(2025)
    for c, r, e in ((2, 2, 3), (2, 3, 4), (3, 3, 2)):
        for noise in (0.0, 1e-13, 1e-6):
            yield f"c={c} r={r} e={e} noise={noise}", c, hom_rep(rng, c, r, e, noise)
    # Halved matrix units: every relation but orthogonality fails.
    yield "halved", 4, [[np.array([[0.5 if a == v else 0.0]]) for v in range(4)] for a in range(4)]


COMPOSE_CASES = list(compose_cases())


@pytest.mark.parametrize("label, c, f", COMPOSE_CASES, ids=[case[0] for case in COMPOSE_CASES])
def test_compose_relations_match_reference_loop(label, c, f):
    tol = Tolerance()
    passed, worst = reference_compose_relations(f, tol)
    # The relations as compose_reps reads them from check_measurement.
    rows = [check_measurement(row, tol) for row in f]
    cols = [check_measurement(col, tol) for col in zip(*f)]
    residuals = [
        max(m.hermitian_defect, m.idempotency_defect, m.sum_defect) for m in rows
    ] + [m.orthogonality_defect for m in cols]
    assert abs(max(residuals) - worst) <= 1e-12
    strategy = random_block_strategy(np.random.default_rng(2026), 2, c, (1,))
    ancilla = TracialAncilla.full_matrix_block(len(f[0][0]))
    if passed:
        compose_reps(strategy, f, ancilla, tol)
    else:
        with pytest.raises(ValueError, match="relations"):
            compose_reps(strategy, f, ancilla, tol)
    assert passed == label.endswith(("noise=0.0", "noise=1e-13"))


def classical_graph_cases():
    rng = np.random.default_rng(2027)
    for label, h in (("C_5", ClassicalGraph.cycle(5)), ("K_4", ClassicalGraph.complete(4)),
                     ("empty 3", ClassicalGraph.empty(3))):
        yield label, graph_operator_system(h)
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.5]
    yield "random 6", graph_operator_system(ClassicalGraph(6, tuple(edges)))
    g = graph_operator_system(ClassicalGraph.cycle(4))
    diag_alg = g.algebra
    units = {(i, j): matrix_unit(4, i, j) for i in range(4) for j in range(4)}
    cases = {
        "missing E_00": [units[i, i] for i in range(1, 4)],
        "E_01 without E_10": [units[i, i] for i in range(4)] + [units[0, 1]],
        "partial E_01 + E_12": [units[i, i] for i in range(4)] + [units[0, 1] + units[1, 2]],
        "mixed edge basis": [units[i, i] for i in range(4)]
        + [units[0, 1] + units[1, 0], units[0, 1] - units[1, 0]],
    }
    for label, basis in cases.items():
        yield label, QuantumGraph(n=4, algebra=diag_alg, s_basis=tuple(basis))
    v = rand_unitary(rng, 4)
    yield "rotated", QuantumGraph(
        n=4, algebra=VnAlgebra(n=4, blocks=diag_alg.blocks, unitary=v), s_basis=_conjugate(v, g.s_basis)
    )
    yield "M_2", complete_quantum_graph(VnAlgebra(n=2, blocks=((1, 2),)))


CLASSICAL_GRAPH_CASES = list(classical_graph_cases())


@pytest.mark.parametrize(
    "label, g", CLASSICAL_GRAPH_CASES, ids=[c[0] for c in CLASSICAL_GRAPH_CASES]
)
def test_classical_graph_recognition_matches_reference_loop(label, g):
    tol = Tolerance()
    assert classical_graph_from_operator_system(g, tol) == reference_classical_graph(g, tol)


def correlation_cases():
    rng = np.random.default_rng(2028)
    for label, s in KERNEL_CASES:
        x = correlation_from_trace(s)
        yield label, x
        noise = rng.normal(size=x.tensor.shape) + 1j * rng.normal(size=x.tensor.shape)
        yield f"{label} +1e-3", Correlation(n=x.n, c=x.c, tensor=x.tensor + 1e-3 * noise)


CORRELATION_CASES = list(correlation_cases())


@pytest.mark.parametrize("label, x", CORRELATION_CASES, ids=[c[0] for c in CORRELATION_CASES])
def test_sync_and_identities_match_reference_loops(label, x):
    tol = Tolerance()
    (diagonal, cross), identities = reference_sync_and_identities(x)
    sync = check_synchronous(x, tol)
    assert sync.synchronous == (diagonal <= tol.eps and cross <= tol.eps)
    assert abs(sync.diagonal_residual - diagonal) <= 1e-12
    assert abs(sync.cross_residual - cross) <= 1e-12
    rep = synchronous_identities(x, tol)
    got = (rep.positivity_defect, rep.conjugation_residual, rep.offdiag_row_residual, rep.diag_sum_residual)
    assert np.abs(np.subtract(got, identities)).max() <= 1e-12
    assert rep.passed(tol) == (max(identities) <= tol.eps)


def classical_correlation_cases():
    for label, x in CORRELATION_CASES:
        if not label.endswith("+1e-3"):
            yield label, compress_to_classical(x)
    rng = np.random.default_rng(2029)
    for n, c in ((2, 2), (3, 2), (2, 4)):
        yield f"random n={n} c={c}", ClassicalCorrelation(n=n, c=c, p=rng.uniform(size=(c, c, n, n)))


CLASSICAL_CORRELATION_CASES = list(classical_correlation_cases())


@pytest.mark.parametrize(
    "label, p", CLASSICAL_CORRELATION_CASES, ids=[c[0] for c in CLASSICAL_CORRELATION_CASES]
)
def test_bisync_matches_reference_loops(label, p):
    worst = max(reference_bisync(p))
    assert check_bisynchronous(p, Tolerance()) == (worst <= Tolerance().eps)
    # The verdict flips within 1e-12 of the reference residual.
    assert check_bisynchronous(p, Tolerance(worst + 1e-12))
    if worst > 2e-12:
        assert not check_bisynchronous(p, Tolerance(worst - 1e-12))


def rigidity_cases():
    for label, g, _, s, wins in CASES:
        if wins and label.split()[0] in LADDER:
            yield label, g.algebra, s
    yield "teleport d=2 k=2", VnAlgebra(n=4, blocks=((2, 2),)), teleport_coloring(2, 2)
    alg = VnAlgebra(n=3, blocks=((1, 1), (1, 2)))
    s = shift_multiply_coloring(alg)
    zero = np.zeros_like(s.projections[0])
    # One colour more than dim M: not minimal.
    yield "C+M_2 plus an empty colour", alg, BlockStrategy(
        n=s.n, c=s.c + 1, ancilla=s.ancilla, projections=s.projections + (zero,)
    )


RIGIDITY_CASES = list(rigidity_cases())


@pytest.mark.parametrize("label, alg, s", RIGIDITY_CASES, ids=[c[0] for c in RIGIDITY_CASES])
def test_rigidity_matches_reference_loop(label, alg, s):
    reference = reference_rigidity(s, alg)
    rep = rigidity_check(s, alg)
    for name in ("idempotent_residual", "block_sum_residual", "total_sum_residual",
                 "trace_covariance_residual"):
        assert abs(getattr(rep, name) - reference[name]) <= 1e-12, name
    assert np.abs(np.subtract(rep.r_values, reference["r_values"])).max() <= 1e-12
    assert np.abs(np.subtract(rep.rigidity, reference["rigidity"])).max() <= 1e-12
    assert rep.minimal == (s.c == alg.dim_algebra)
    assert rep.passed()
