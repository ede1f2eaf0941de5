"""The shared check report: its reducer, fail-closed NaN handling, and a
seeded cross-check of every verifier and array kernel against the
per-residual loops it replaced, of normal_form against the *-closure and
centre solve it replaced, and of edge_basis against its Gram-Schmidt loop."""

import dataclasses
import json
import os

import numpy as np
import pytest

from helpers import rand_hermitian, rand_unitary, random_block_strategy, random_povm, random_pvm
from qgraph import (
    BlockStrategy,
    CheckReport,
    ClassicalGraph,
    GameInstance,
    QuantumGraph,
    Tolerance,
    TensorStrategy,
    TracialAncilla,
    VnAlgebra,
    bob_from_alice,
    check_bisynchronous,
    check_game_algebra_rep,
    check_measurement,
    check_synchronous,
    compose_reps,
    compress_to_classical,
    correlation_from_tensor,
    correlation_from_trace,
    extract_channel,
    graph_operator_system,
    normal_form,
    rigidity_check,
    round_almost_pvm,
    shift_multiply_coloring,
    synchronous_identities,
    teleport_coloring,
    validate,
    verify_operational,
    verify_structural,
)
from qgraph.algebra import (
    _cluster_eigenvalues,
    _GenericityFailure,
    algebra_basis,
    commutant,
    orthonormalize,
    project_onto_span,
)
from qgraph.colorings import complete_quantum_graph, diagonal_strategy
from qgraph.correlations import ClassicalCorrelation, Correlation, embed_classical, outcome_probability
from qgraph.graphs import (
    ADJACENCY,
    SAME_VERTEX,
    EdgeBasis,
    EdgeBasisElement,
    adjacency_subspace_basis,
    classical_graph_from_operator_system,
    edge_basis,
)
from qgraph.homgame import _nonadjacent, _sandwich, _subset_residual
from qgraph.linalg import Check, canonical_shuffle, hermitian_eig, hs_norm, matrix_unit, worst_residual
from qgraph.serialize import matrix_from_json
from qgraph.strategies import _worst_star_commutator

K = ClassicalGraph.complete
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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


def reference_operational(inst, strategy, tol, basis=None):
    basis = basis or edge_basis(inst.source, tol)
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


def reference_operational_amplitude(inst, strategy, tol, basis=None):
    """The (Y, a, b) loop of the operational rules: |T^{1/2} P_a (Y (x) 1) P_b|_F."""
    basis = basis or edge_basis(inst.source, tol)
    eye = np.eye(strategy.ancilla.dim)
    root_t = np.diag(np.sqrt(np.tile(strategy.ancilla.trace_diagonal(), strategy.n)))
    nonadj = _nonadjacent_pairs(inst.target)
    offdiag = [(a, b) for a in range(strategy.c) for b in range(strategy.c) if a != b]
    out = {}
    rules = (("same_vertex_rule", SAME_VERTEX, offdiag), ("adjacency_rule", ADJACENCY, nonadj))
    for name, tag, pairs in rules:
        worst, witness, table = 0.0, None, {}
        for idx, elem in enumerate(basis.elements):
            if elem.tag != tag:
                continue
            w = np.kron(elem.matrix, eye)
            for a, b in pairs:
                r = hs_norm(root_t @ strategy.projections[a] @ w @ strategy.projections[b])
                _record(table, {"a": a, "b": b, "basis_index": idx}, r)
                if r > worst:
                    worst, witness = r, {"a": a, "b": b, "basis_index": idx}
        out[name] = (worst <= tol.eps, worst, witness, table)
    return out


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
        verify_operational(inst, s, tol), reference_operational_amplitude(inst, s, tol)
    )
    assert_matches_reference(
        check_game_algebra_rep(inst, s, tol), reference_algebra(inst, s, tol)
    )
    assert verify_structural(inst, s, tol).passed == wins


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_operational_amplitude_squared_is_the_probability_on_pvms(label, g, target, s, wins):
    tol = Tolerance()
    assert s.measurement_report(tol).is_pvm
    inst = GameInstance(source=g, target=target)
    report = verify_operational(inst, s, tol)
    probability = reference_operational(inst, s, tol)
    for check in report.checks:
        passed, worst, _, _ = probability[check.name]
        assert check.passed == passed, check.name
        assert abs(check.max_residual**2 - worst) <= 1e-12, check.name


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


# --- homgame's sandwich kernel against its (a, b, Y) kron loop -----------------------


def reference_sandwich(strategy, mats, mask, weights):
    """The (a, b, Y) loop of _sandwich: one hs_norm of W P_a (Y (x) 1) P_b each."""
    eye = np.eye(strategy.ancilla.dim)
    w = np.diag(weights)
    out = np.zeros(mask.shape)
    for a, b, k in zip(*np.nonzero(mask)):
        lifted = np.kron(mats[k], eye)
        out[a, b, k] = hs_norm(w @ strategy.projections[a] @ lifted @ strategy.projections[b])
    return out


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_sandwich_kernel_matches_reference_loop(label, g, target, s, wins):
    rng = np.random.default_rng(2024)
    size = s.n * s.ancilla.dim
    pairs = [_nonadjacent(target), ~np.eye(s.c, dtype=bool), rng.random((s.c, s.c)) < 0.3]
    for mats in (commutant(g.algebra), adjacency_subspace_basis(g), []):
        masks = [np.repeat(m[:, :, None], len(mats), axis=2) for m in pairs]
        masks.append(rng.random((s.c, s.c, len(mats))) < 0.3)
        for mask in masks:
            for weights in (None, rng.random(size)):
                ref = reference_sandwich(s, mats, mask, np.ones(size) if weights is None else weights)
                got = _sandwich(s, mats, mask, weights)
                assert np.abs(got - ref).max(initial=0.0) <= 1e-12


# --- normal_form against the *-closure and centre solve it replaced -----------------


def _reference_nullspace(mat, rel_tol=1e-9):
    u, s, vh = np.linalg.svd(mat)
    if s.size == 0:
        return np.eye(mat.shape[1], dtype=np.complex128)
    rank = int(np.sum(s > max(rel_tol * s[0], 1e-12)))
    return vh[rank:].conj()


def _reference_commutant_of_span(basis, dim):
    eye = np.eye(dim, dtype=np.complex128)
    return _reference_nullspace(np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in basis]))


def reference_normal_form(generators, tol=Tolerance()):
    """The old normal_form: *-closure by products, centre solve, then per
    central cluster a compression, a commutant solve and two generic draws."""
    generators = [np.asarray(g, dtype=np.complex128) for g in generators]
    n = generators[0].shape[0]
    basis = orthonormalize(generators + [g.conj().T for g in generators], tol.eps * 10)
    while True:
        new_basis = orthonormalize(basis + [a @ b for a in basis for b in basis], tol.eps * 10)
        if len(new_basis) == len(basis):
            break
        basis = new_basis
    basis = new_basis
    eye = np.eye(n, dtype=np.complex128)
    unit_residual = hs_norm(eye - project_onto_span(eye, basis))
    if not unit_residual <= np.sqrt(n) * 1e-7:
        raise ValueError(f"generated algebra does not contain the identity ({unit_residual:.3e})")
    stack = np.stack([b.ravel() for b in basis])
    in_alg = np.eye(n * n) - stack.T @ stack.conj()
    center = _reference_nullspace(
        np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in basis] + [in_alg])
    )
    if center.shape[0] == 0:
        raise ValueError("empty center")
    rng = np.random.default_rng(7)
    for _ in range(8):
        try:
            return _reference_attempt(basis, center, n, rng)
        except _GenericityFailure as exc:
            last_err = exc
    raise ValueError(f"normal form recovery failed: {last_err}")


def _reference_attempt(basis, center, n, rng):
    def draw(rows, m):
        g = np.zeros((m, m), dtype=np.complex128)
        for row in rows:
            g += (rng.normal() + 1j * rng.normal()) * row.reshape(m, m)
        return g

    z = draw(center, n)
    w, v = hermitian_eig(z + z.conj().T, Tolerance(1e-7))
    groups = _cluster_eigenvalues(w, gap=1e-6 * max(1.0, float(np.abs(w).max())))
    found = []
    for idx in groups:
        w_block = v[:, idx]
        m_r = w_block.shape[1]
        compressed = orthonormalize([w_block.conj().T @ b @ w_block for b in basis], 1e-8)
        k = round(np.sqrt(len(compressed)))
        if k * k != len(compressed) or m_r % k != 0:
            raise _GenericityFailure("central cluster is not a full matrix block")
        mult = m_r // k
        comm_basis = _reference_commutant_of_span(compressed, m_r)
        if comm_basis.shape[0] != mult * mult:
            raise _GenericityFailure("block commutant has unexpected dimension")
        g0 = draw(comm_basis, m_r)
        w2, v2 = hermitian_eig(g0 + g0.conj().T, Tolerance(1e-7))
        copies = _cluster_eigenvalues(w2, gap=1e-6 * max(1.0, float(np.abs(w2).max())))
        if len(copies) != mult or any(len(ix) != k for ix in copies):
            raise _GenericityFailure("commutant element not generic")
        g = draw(comm_basis, m_r)
        v0 = v2[:, copies[0]]
        cols = [v0]
        for ix in copies[1:]:
            vp = v2[:, ix]
            cand = vp @ (vp.conj().T @ g @ v0)
            nrm = np.linalg.norm(cand[:, 0])
            if nrm < 1e-8:
                raise _GenericityFailure("commutant element does not connect copies")
            uu, _, vv = np.linalg.svd(cand / nrm, full_matrices=False)
            cols.append(uu @ vv)
        found.append((k, mult, w_block @ np.hstack(cols)))
    found.sort(key=lambda t: (t[0], t[1]))
    u = np.hstack([iso for _, _, iso in found])
    blocks = tuple((mult, k) for k, mult, _ in found)
    if not hs_norm(u.conj().T @ u - np.eye(n)) <= 1e-8:
        raise _GenericityFailure("assembled frame is not unitary")
    canon = algebra_basis(VnAlgebra(n=n, blocks=blocks))
    b_can = u.conj().T @ np.asarray(basis) @ u
    residuals = np.linalg.norm(b_can - project_onto_span(b_can, canon), axis=(-2, -1))
    if not worst_residual(residuals)[0] <= np.sqrt(n) * 1e-7:
        raise _GenericityFailure("conjugated basis leaves canonical span")
    return VnAlgebra(n=n, blocks=blocks, unitary=u), u


def block_pattern_residual(h, blocks):
    """Distance of h from (+)_r I_{n_r} (x) M_{k_r} in canonical layout."""
    fitted = np.zeros_like(h)
    off = 0
    for m, k in blocks:
        blk = h[off : off + m * k, off : off + m * k].reshape(m, k, m, k)
        fitted[off : off + m * k, off : off + m * k] = np.kron(np.eye(m), np.einsum("pipj->ij", blk) / m)
        off += m * k
    return float(np.linalg.norm(h - fitted))


NF_LADDER = {
    **LADDER,
    "M_2+M_3": ((1, 2), (1, 3)),
    "I_2xM_3": ((2, 3),),
    "M_4": ((1, 4),),
    "(I_2xM_2)^2": ((2, 2), (2, 2)),
}


def _generic_elements(rng, blocks, v):
    """Two random self-adjoint elements of v ((+)_r I_{n_r} (x) M_{k_r}) v*."""
    out = []
    for _ in range(2):
        x = np.zeros((len(v), len(v)), dtype=np.complex128)
        off = 0
        for m, k in blocks:
            x[off : off + m * k, off : off + m * k] = np.kron(np.eye(m), rand_hermitian(rng, k))
            off += m * k
        out.append(v @ x @ v.conj().T)
    return out


def normal_form_cases():
    rng = np.random.default_rng(2025)
    for seed in range(3):
        for label, blocks in NF_LADDER.items():
            n = sum(m * k for m, k in blocks)
            v = rand_unitary(rng, n)
            yield f"{label} two generators #{seed}", _generic_elements(rng, blocks, v), seed == 0
            full = algebra_basis(VnAlgebra(n=n, blocks=blocks, unitary=v))
            yield f"{label} full basis #{seed}", full, seed == 0
    for m in (5, 6, 7, 8):
        yield f"D_{m}", _generic_elements(rng, ((1, 1),) * m, rand_unitary(rng, m)), True
    with open(os.path.join(FIXTURES, "near_degenerate_center.json")) as f:
        fixture = json.load(f)
    yield "near-degenerate centre", [matrix_from_json(m, "") for m in fixture["generators"]], True


NF_CASES = list(normal_form_cases())


def _verdicts(alg):
    g = complete_quantum_graph(alg)
    s = shift_multiply_coloring(alg)
    out = {"validate": validate(g).passed}
    for tag, target, strat in (("winning", K(s.c), s), ("merged", K(s.c - 1), _merge_first_two(s))):
        inst = GameInstance(source=g, target=target)
        for fn in (verify_structural, verify_operational, check_game_algebra_rep):
            out[tag, fn.__name__] = fn(inst, strat).passed
    return out


@pytest.mark.parametrize("label, gens, verdicts", NF_CASES, ids=[c[0] for c in NF_CASES])
def test_normal_form_matches_reference(label, gens, verdicts):
    alg, u = normal_form(gens)
    ref_alg, ref_u = reference_normal_form(gens)
    assert alg.blocks == ref_alg.blocks
    for w in (u, ref_u):
        assert max(block_pattern_residual(w.conj().T @ g @ w, alg.blocks) for g in gens) <= 1e-9
    if verdicts:
        new = _verdicts(alg)
        assert new == _verdicts(ref_alg)
        assert all(new[k] == (k == "validate" or k[0] == "winning") for k in new)


@pytest.mark.parametrize(
    "gens",
    [
        [np.diag([1.0, 1.0, 0.0])],
        [matrix_unit(2, 0, 0)],
        [matrix_unit(3, 0, 1), np.diag([0.0, 0.0, 0.0])],
        _conjugate(rand_unitary(np.random.default_rng(2026), 4), [np.diag([1.0, 2.0, 0.0, 0.0])]),
        _conjugate(
            rand_unitary(np.random.default_rng(2027), 3),
            [np.pad(matrix_unit(2, i, j), ((0, 1), (0, 1))) for i in range(2) for j in range(2)],
        ),
    ],
)
def test_normal_form_refuses_what_the_reference_refuses(gens):
    with pytest.raises(ValueError, match="identity"):
        reference_normal_form(gens)
    with pytest.raises(ValueError, match="identity"):
        normal_form(gens)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_normal_form_refuses_non_finite_generators_before_any_svd(value):
    gen = np.eye(2, dtype=np.complex128)
    gen[0, 1] = value
    with pytest.raises(ValueError, match="non-finite"):
        normal_form([np.eye(2), gen])


def test_normal_form_refuses_all_zero_generators():
    with pytest.raises(ValueError, match="all zero"):
        normal_form([np.zeros((3, 3)), np.zeros((3, 3))])


# --- the edge basis as one SVD per block pair, and the loops it removed --------------


def reference_edge_basis(g, tol):
    """The modified Gram-Schmidt that edge_basis ran over every compression P_a Z P_b."""
    kblocks = g.algebra.k_blocks()
    elements = []
    for a_idx, ka in enumerate(kblocks):
        for b_idx, kb in enumerate(kblocks):
            kept = []
            if not g.traceless and ka.central == kb.central:
                unit = ka.isometry @ kb.isometry.conj().T / np.sqrt(ka.dim)
                kept.append(unit)
                elements.append(EdgeBasisElement(unit, SAME_VERTEX, (a_idx, b_idx)))
            for z in adjacency_subspace_basis(g):
                cand = ka.projection @ z @ kb.projection
                for prev in kept:
                    cand = cand - np.vdot(prev, cand) * prev
                nrm = hs_norm(cand)
                if nrm >= tol.eps * 10:
                    kept.append(cand / nrm)
                    elements.append(EdgeBasisElement(cand / nrm, ADJACENCY, (a_idx, b_idx)))
    return EdgeBasis(tuple(elements), tuple(k.dim for k in kblocks))


EDGE_LADDER = dict(LADDER, **{
    "M_2+M_3": ((1, 2), (1, 3)),
    "I_2xM_3": ((2, 3),),
    "M_4": ((1, 4),),
    "(I_2xM_2)^2": ((2, 2), (2, 2)),
})


def edge_basis_cases():
    rng = np.random.default_rng(2028)
    for label, blocks in EDGE_LADDER.items():
        n = sum(m * k for m, k in blocks)
        yield label, complete_quantum_graph(VnAlgebra(n=n, blocks=blocks, unitary=rand_unitary(rng, n)))
    for m in (5, 6, 7, 8):
        v = rand_unitary(rng, m)
        g0 = graph_operator_system(ClassicalGraph.cycle(m))
        alg = VnAlgebra(n=m, blocks=g0.algebra.blocks, unitary=v)
        yield f"S_C{m}", QuantumGraph(n=m, algebra=alg, s_basis=_conjugate(v, g0.s_basis))
    v = rand_unitary(rng, 3)
    offdiag = [matrix_unit(3, i, j) for i in range(3) for j in range(3) if i != j]
    alg = VnAlgebra(n=3, blocks=((1, 3),), unitary=v)
    yield "traceless", QuantumGraph(n=3, algebra=alg, s_basis=_conjugate(v, offdiag), traceless=True)
    # Over C I_2 (x) M_2, M' = M_2 (x) 1, and S = M_2 (x) span{1, sigma_x} is a proper bimodule.
    v = rand_unitary(rng, 4)
    sigma = [np.eye(2), np.array([[0, 1], [1, 0]])]
    s = [np.kron(matrix_unit(2, i, j), x) for i in range(2) for j in range(2) for x in sigma]
    alg = VnAlgebra(n=4, blocks=((2, 2),), unitary=v)
    yield "C I_2 (x) M_2, S = M_2 (x) span{1, X}", QuantumGraph(n=4, algebra=alg, s_basis=_conjugate(v, s))


EDGE_CASES = list(edge_basis_cases())


def _by_block_pair(basis):
    pairs = {}
    for e in basis.elements:
        pairs.setdefault(e.block, {SAME_VERTEX: [], ADJACENCY: []})[e.tag].append(e.matrix)
    return pairs


@pytest.mark.parametrize("label, g", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
def test_edge_basis_matches_gram_schmidt_reference(label, g):
    tol = Tolerance()
    basis, reference = edge_basis(g, tol), reference_edge_basis(g, tol)
    assert basis.block_dims == reference.block_dims
    assert [(e.block, e.tag) for e in basis.elements] == [(e.block, e.tag) for e in reference.elements]
    got, want = _by_block_pair(basis), _by_block_pair(reference)
    for pair, tags in want.items():
        for y, ref in zip(got[pair][SAME_VERTEX], tags[SAME_VERTEX]):
            assert np.abs(y - ref).max() <= 1e-12
        # The adjacency elements may differ; the spaces they span may not.
        vecs = [np.reshape(got[pair][ADJACENCY], (-1, g.n * g.n)), np.reshape(tags[ADJACENCY], (-1, g.n * g.n))]
        projectors = [v.T @ v.conj() for v in vecs]
        assert np.abs(projectors[0] - projectors[1]).max() <= 1e-12
    gram = np.reshape(basis.matrices(), (len(basis.elements), -1))
    assert np.abs(gram.conj() @ gram.T - np.eye(len(gram))).max() <= 1e-12


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_operational_verdicts_match_gram_schmidt_basis(label, g, target, s, wins):
    tol = Tolerance()
    inst = GameInstance(source=g, target=target)
    report = verify_operational(inst, s, tol)
    reference = reference_operational_amplitude(inst, s, tol, reference_edge_basis(g, tol))
    assert [(c.name, c.passed) for c in report.checks] == [(k, v[0]) for k, v in reference.items()]
    # Same-vertex elements and their positions are unchanged, so is their residual.
    same = report.check("same_vertex_rule").max_residual
    assert abs(same - reference["same_vertex_rule"][1]) <= 1e-12
    assert report.passed == wins


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_stacked_outcome_probability_matches_per_input_calls(label, s):
    tol = Tolerance()
    rng = np.random.default_rng(2029)
    ys = rng.normal(size=(4, s.n, s.n)) + 1j * rng.normal(size=(4, s.n, s.n))
    ys /= np.linalg.norm(ys, axis=(-2, -1), keepdims=True)
    stacked = outcome_probability(s, ys, tol)
    assert stacked.shape == (4, s.c, s.c)
    for y, p in zip(ys, stacked):
        assert np.abs(p - reference_outcome_probability(s, y, tol)).max() <= 1e-12
        assert np.abs(p - outcome_probability(s, y, tol)).max() <= 1e-12
    for k in range(len(ys)):
        bad = ys.copy()
        bad[k] *= 1.001
        with pytest.raises(ValueError, match="not normalized"):
            outcome_probability(s, bad, tol)


def reference_subset_residual(inst, strategy, kraus, tol):
    """The per-element loop of extract_channel: one kron and one einsum per input."""
    stack = np.stack(kraus)
    eye_d = np.eye(strategy.ancilla.dim)
    offdiag = ~np.eye(strategy.c, dtype=bool)
    nonadjacent = _nonadjacent(inst.target)
    residuals = []
    for elem in edge_basis(inst.source, tol).elements:
        big = np.kron(elem.matrix, eye_d)
        table = np.einsum("mau,uv,lbv->mlab", stack, big, np.conj(stack))
        forbidden = offdiag if elem.tag == SAME_VERTEX else nonadjacent
        residuals.append(np.where(forbidden, np.abs(table).max(axis=(0, 1)), 0.0))
    return worst_residual(residuals)[0]


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_subset_residual_matches_reference_loop(label, g, target, s, wins):
    tol = Tolerance()
    inst = GameInstance(source=g, target=target)
    vectors = [v[:, w > 0.5] for w, v in (np.linalg.eigh((p + p.conj().T) / 2) for p in s.projections)]
    labels = np.repeat(np.arange(s.c), [v.shape[1] for v in vectors])
    u = np.concatenate(vectors, axis=1)
    kraus = [np.outer(np.eye(s.c)[a], u[:, k].conj()) for k, a in enumerate(labels)]
    worst = reference_subset_residual(inst, s, kraus, tol)
    assert abs(_subset_residual(inst, s, u, labels, tol) - worst) <= 1e-12
    assert (worst <= tol.eps) == wins
    if wins:
        assert abs(extract_channel(inst, s, tol).subset_residual - worst) <= 1e-12
    else:
        with pytest.raises(ValueError, match="subset conditions"):
            extract_channel(inst, s, tol)


def reference_compose(strategy, f, hom_ancilla):
    """The (v, i, j, a) loop of compose_reps, one blockwise kron per entry."""
    new_ancilla = strategy.ancilla.tensor(hom_ancilla)
    n, d_new = strategy.n, new_ancilla.dim
    new_slices = new_ancilla.block_slices()

    def tensor_entry(x, y):
        out = np.zeros((d_new, d_new), dtype=np.complex128)
        pos = 0
        for sa in strategy.ancilla.block_slices():
            for sb in hom_ancilla.block_slices():
                out[new_slices[pos], new_slices[pos]] = np.kron(x[sa, sa], y[sb, sb])
                pos += 1
        return out

    projections = []
    for v in range(len(f[0])):
        big = np.zeros((n * d_new, n * d_new), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                acc = sum(tensor_entry(strategy.entry(a, i, j), f[a][v]) for a in range(strategy.c))
                big[i * d_new : (i + 1) * d_new, j * d_new : (j + 1) * d_new] = acc
        projections.append(big)
    return projections


@pytest.mark.parametrize("label, c, f", COMPOSE_CASES[:9], ids=[case[0] for case in COMPOSE_CASES[:9]])
@pytest.mark.parametrize("split", [False, True])
def test_compose_reps_matches_reference_loop(label, c, f, split):
    e = len(f[0][0])
    hom_ancilla = TracialAncilla((1, e - 1)) if split else TracialAncilla.full_matrix_block(e)
    strategy = random_block_strategy(np.random.default_rng(2030), 2, c, (2, 1))
    # The loosest tolerance lets the noisy representations through too.
    composed = compose_reps(strategy, f, hom_ancilla, Tolerance(1e-3))
    assert composed.ancilla == strategy.ancilla.tensor(hom_ancilla)
    reference = reference_compose(strategy, f, hom_ancilla)
    assert np.abs(np.subtract(composed.projections, reference)).max() <= 1e-12


def reference_tensor_entries(ts):
    """The triple copy loop of correlation_from_tensor over alice_entry and bob_entry."""
    n, c = ts.n, ts.c
    da, db = ts.dims
    p_ent = np.empty((c, n, n, da, da), dtype=np.complex128)
    q_ent = np.empty((c, n, n, db, db), dtype=np.complex128)
    for a in range(c):
        for i in range(n):
            for j in range(n):
                p_ent[a, i, j] = ts.alice_entry(a, i, j)
                q_ent[a, i, j] = ts.bob_entry(a, i, j)
    return p_ent, q_ent


def tensor_strategy_cases():
    for label, s in KERNEL_CASES[:6]:
        yield f"bob_from_alice {label}", bob_from_alice(s)
    rng = np.random.default_rng(2031)
    n, da, db = 3, 2, 3
    alice = random_pvm(rng, n * da, 2)
    bob = [canonical_shuffle(q, outer=n, inner=db) for q in random_pvm(rng, n * db, 2)]
    chi = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    yield "random da=2 db=3", TensorStrategy((da, db), tuple(alice), tuple(bob), chi / np.linalg.norm(chi))


TENSOR_CASES = list(tensor_strategy_cases())


@pytest.mark.parametrize("label, ts", TENSOR_CASES, ids=[c[0] for c in TENSOR_CASES])
def test_tensor_entries_match_reference_loop(label, ts):
    n, c = ts.n, ts.c
    da, db = ts.dims
    p_ref, q_ref = reference_tensor_entries(ts)
    assert np.array_equal(np.stack(ts.alice).reshape(c, n, da, n, da).transpose(0, 1, 3, 2, 4), p_ref)
    assert np.array_equal(np.stack(ts.bob).reshape(c, db, n, db, n).transpose(0, 2, 4, 1, 3), q_ref)
    chi = ts.chi.reshape(da, db)
    x = np.einsum("aijuv,bklxy,vy,ux->abijkl", p_ref, q_ref, chi, np.conj(chi), optimize=True)
    assert np.abs(correlation_from_tensor(ts).tensor - x).max() <= 1e-12
