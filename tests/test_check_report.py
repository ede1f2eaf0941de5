"""The shared check report: its reducer, fail-closed NaN handling, and a
seeded cross-check of every verifier and array kernel against the
per-residual loops it replaced, of normal_form against the *-closure and
centre solve it replaced and of its commutant against the kron nullspace it
replaced, and of edge_basis against its Gram-Schmidt loop."""

import dataclasses
import importlib.util
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import (
    LADDER,
    block_mixing_strategy,
    commutator_map,
    conjugate,
    copy_isometries,
    dense_membership,
    dense_sandwich,
    ladder_cases,
    merge_first_two,
    rand_hermitian,
    rand_unitary,
    random_block_strategy,
    random_povm,
    random_pvm,
    reference_algebra_basis,
    reference_ancilla_block_defect,
    reference_bob_from_alice,
    reference_central_projections,
    reference_commutant,
    reference_commutant_rows,
    reference_correlation_from_tensor,
    reference_correlation_from_trace,
    reference_diagonal_projections,
    reference_embed_projections,
    reference_isometry_edge_basis,
    reference_shift_multiply_projections,
    reference_synchronous_identities,
    reference_teleport_projections,
    rounded_dense_sandwich,
    spread,
)
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
    dilate_povm,
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
    _commutant_rows,
    _generic,
    _GenericityFailure,
    algebra_basis,
    commutant,
    orthonormalize,
    project_onto_span,
)
from qgraph.colorings import _bell_projections, complete_quantum_graph, diagonal_strategy
from qgraph.correlations import ClassicalCorrelation, Correlation, embed_classical, outcome_probability
from qgraph.graphs import (
    ADJACENCY,
    SAME_VERTEX,
    EdgeBasis,
    _bimodule_distances,
    classical_graph_from_operator_system,
    edge_basis,
)
from qgraph.homgame import _forbidden_outcomes, _sandwich
from qgraph.linalg import (
    POVM_CHECKS,
    Check,
    canonical_shuffle,
    hermitian_eig,
    hs_norm,
    matrix_unit,
    unit_root_power,
    worst_residual,
)
from qgraph.serialize import graph_from_json, matrix_from_json
from qgraph.strategies import _star_commutator_norm, round_outcomes

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


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
        elements=st.floats(allow_nan=True, allow_infinity=True),
    )
)
@example(np.array([-0.0, 0.0]))  # max and argmax disagree on the sign of a zero
@example(np.array([0.0, -0.0]))
def test_worst_residual_without_axes_is_the_witness_value(r):
    axes = tuple(f"i{k}" for k in range(r.ndim))
    (bare, none), (worst, witness) = worst_residual(r), worst_residual(r, axes)
    assert none is None
    assert np.float64(bare).tobytes() == np.float64(worst).tobytes()
    finite = np.where(np.isnan(r), np.inf, r)
    assert worst == (finite.max() if r.size else 0.0)
    if not worst > 0:
        assert witness is None
        return
    # The witness is the first largest entry in C order.
    flat = np.ravel_multi_index(tuple(witness[a] for a in axes), r.shape)
    assert finite.flat[flat] == worst and not (finite.ravel()[:flat] >= worst).any()


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
    assert check_bisynchronous(ClassicalCorrelation(n=2, c=2, p=p)).passed
    p[0, 1, 0, 0] = np.nan
    rep = check_bisynchronous(ClassicalCorrelation(n=2, c=2, p=p))
    assert not rep.passed and rep.check("synchronous").witness == {"a": 0, "b": 1, "x": 0}


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


def test_normalization_residual_is_inf_for_nan():
    x = m2_correlation()
    assert x.normalization_residual() <= 1e-12
    assert with_nan(x, (0, 0, 0, 0, 0, 0)).normalization_residual() == np.inf


def test_classical_normalization_residual_is_inf_for_nan():
    p = np.full((2, 2, 2, 2), 0.25)
    assert ClassicalCorrelation(n=2, c=2, p=p).normalization_residual() == 0.0
    p[1, 0, 0, 1] = np.nan
    assert ClassicalCorrelation(n=2, c=2, p=p).normalization_residual() == np.inf


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
# sorted witness items of every visited entry to its residual.  passed and
# worst are those of the old definition, the worst entry over one basis; the
# relations now summed over the basis read their values from summed(table).


def _record(table, witness, r):
    table[tuple(sorted(witness.items()))] = r


# The input index of each relation that reports a Hilbert-Schmidt sum over a space.
INPUT_AXES = ("basis_index", "commutant_index")
SUMMED = {
    "membership", "adjacency_zeros", "adjacency_relation", "commutant_relation",
    "same_vertex_rule", "adjacency_rule",
}


def summed(table):
    """The table's sums over its input index, per remaining witness (as sorted
    items, like the table), and the number of inputs summed over."""
    sums, inputs = {}, set()
    for key, r in table.items():
        rest = tuple(item for item in key if item[0] not in INPUT_AXES)
        sums[rest] = sums.get(rest, 0.0) + r
        inputs.update(item for item in key if item[0] in INPUT_AXES)
    return sums, len(inputs)


def assert_sum_bounds(worst, new, m, slack=0.0):
    """The largest term bounds a sum of m squares from below, and sqrt(m) times it from above;
    slack is what a reported value may add to the sum."""
    assert worst <= new * (1 + 1e-12) + 1e-15
    assert new <= np.sqrt(m) * worst * (1 + 1e-12) + 1e-15 + slack


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
    perp = inst.source._adjacency_basis
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
    pvm_residual = max(c.max_residual for c in rep.checks)
    out["pvm"] = (rep.passed, pvm_residual, None, {})
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
    """The pairwise loop of is_loc before L(E), over x in E and y in E u E* for the
    entries E; returns (its verdict, max |[x, y]|_F, sqrt(sum |[x, y]|_F^2))."""
    if strategy.ancilla.dim == 1:
        return True, 0.0, 0.0
    ents = [
        strategy.entry(a, i, j)
        for a in range(strategy.c)
        for i in range(strategy.n)
        for j in range(strategy.n)
    ]
    worst = squares = 0.0
    for x in ents:
        for y in ents:
            for z in (y, y.conj().T):
                norm = hs_norm(x @ z - z @ x)
                worst, squares = max(worst, norm), squares + norm * norm
    return worst <= tol.eps, worst, np.sqrt(squares)


def reference_operational(inst, strategy, tol, basis=None):
    basis = basis or edge_basis(inst.source, tol)
    nonadj = _nonadjacent_pairs(inst.target)
    c = strategy.c
    same_worst, same_wit, same_table = 0.0, None, {}
    adj_worst, adj_wit, adj_table = 0.0, None, {}
    for idx, (y, tag) in enumerate(zip(basis.matrices, basis.tags)):
        p = reference_outcome_probability(strategy, y, tol)
        if tag == SAME_VERTEX:
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
        for idx, (y, y_tag) in enumerate(zip(basis.matrices, basis.tags)):
            if y_tag != tag:
                continue
            w = np.kron(y, eye)
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
    """Verdicts equal the reference's; a summed relation reports the root of the
    largest sum of squares and lies within its bounds, any other the worst entry."""
    assert [c.name for c in report.checks] == list(reference)
    for check in report.checks:
        passed, worst, witness, table = reference[check.name]
        assert check.passed == passed, check.name
        if check.name in SUMMED:
            sums, m = summed({key: r * r for key, r in table.items()})
            table = {key: np.sqrt(total) for key, total in sums.items()}
            new = max(table.values(), default=0.0)
            assert_sum_bounds(worst, new, m)
            worst = new
        assert abs(check.max_residual - worst) <= 1e-12, check.name
        assert (check.witness is None) == (witness is None), check.name
        if check.witness is not None:
            # Symmetric strategies tie, so compare residuals, not indices.
            at_witness = table[tuple(sorted(check.witness.items()))]
            assert abs(at_witness - worst) <= 1e-12, check.name


# --- the seeded ladder ------------------------------------------------------------

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


# --- validate against the projection loop ------------------------------------------

# The benchmark's algebra ladder: the test ladder and four larger rungs.
VALIDATE_LADDER = {
    **LADDER,
    "M_2+M_3": ((1, 2), (1, 3)),
    "I_2xM_3": ((2, 3),),
    "M_4": ((1, 4),),
    "(I_2xM_2)^2": ((2, 2), (2, 2)),
}


def random_matrices(rng, n, k):
    return tuple(rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))


def summed_cycle_graph(rng, m):
    """S_{C_m} spanned by E_ii and E_ij + E_ji, in a random frame: an operator system
    but no bimodule, as E_ii (E_ij + E_ji) E_jj = E_ij sits at distance 1/sqrt(2)."""
    v = rand_unitary(rng, m)
    basis = [matrix_unit(m, i, i) for i in range(m)]
    basis += [matrix_unit(m, i, j) + matrix_unit(m, j, i) for i, j in ClassicalGraph.cycle(m).edges]
    alg = VnAlgebra(n=m, blocks=((1, 1),) * m, unitary=v)
    return QuantumGraph(n=m, algebra=alg, s_basis=conjugate(v, basis))


def validate_cases():
    rng = np.random.default_rng(1717)
    # Multiplicity blocks (n_r > 1) of unequal k in a random frame, where a gather
    # index that swaps the two sides of a unit shows.
    alg = VnAlgebra(n=7, blocks=((2, 2), (3, 1)), unitary=rand_unitary(rng, 7))
    comm = tuple(commutant(alg))
    yield "(I_2xM_2)+(I_3xC), M' + H", QuantumGraph(7, alg, comm + (rand_hermitian(rng, 7),))
    yield "(I_2xM_2)+(I_3xC), random", QuantumGraph(7, alg, (np.eye(7),) + random_matrices(rng, 7, 3))
    # A bimodule over M' = M_2 (x) 1 with multiplicity, and a 1e-7 break of it.
    alg = VnAlgebra(n=4, blocks=((2, 2),), unitary=rand_unitary(rng, 4))
    u = alg.unitary
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    bimodule = [u @ np.kron(matrix_unit(2, i, j), f) @ u.conj().T for i in range(2) for j in range(2)
                for f in (np.eye(2), sx)]
    yield "I_2xM_2, bimodule", QuantumGraph(4, alg, tuple(bimodule))
    bimodule[3] = bimodule[3] + 1e-7 * rand_hermitian(rng, 4)
    yield "I_2xM_2, broken bimodule", QuantumGraph(4, alg, tuple(bimodule))
    for label, blocks in VALIDATE_LADDER.items():
        n = sum(m * k for m, k in blocks)
        alg = VnAlgebra(n=n, blocks=blocks, unitary=rand_unitary(rng, n))
        yield f"{label}, random", QuantumGraph(n, alg, (np.eye(n),) + random_matrices(rng, n, 3))
    # Redundant spanning sets: k > dim S, and k > n^2.
    g = summed_cycle_graph(rng, 5)
    v = g.algebra.unitary
    cycle = conjugate(v, graph_operator_system(ClassicalGraph.cycle(5)).s_basis)
    yield "S_C5, redundant", QuantumGraph(5, g.algebra, cycle + (cycle[5] + cycle[6], 2 * cycle[0]))
    g = complete_quantum_graph(VnAlgebra(n=2, blocks=((1, 2),), unitary=rand_unitary(rng, 2)))
    yield "M_2 complete, redundant", QuantumGraph(2, g.algebra, tuple(g.s_basis) + random_matrices(rng, 2, 2))
    yield "empty", QuantumGraph(n=3, algebra=VnAlgebra(n=3, blocks=((1, 1),) * 3), s_basis=())
    yield "traceless", QuantumGraph(
        n=2,
        algebra=VnAlgebra(n=2, blocks=((1, 1), (1, 1))),
        s_basis=(matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)),
        traceless=True,
    )
    yield "S_C8 summed", summed_cycle_graph(rng, 8)


VALIDATE_CASES = list(validate_cases())


def assert_validate_matches_reference(g, tol=Tolerance()):
    """Verdicts equal and residuals within 1e-12 of the projection loop's; witnesses
    are compared only where the reference's worst residual is above 1e-12, and a tie
    compares the residual at the witness."""
    reference = reference_validate(g, tol)
    if g.traceless:
        table = {(("basis_index", i),): abs(np.trace(y)) for i, y in enumerate(g.s_basis)}
        worst, witness = worst_residual(list(table.values()), ("basis_index",))
        del reference["operator_system"]
        reference = {
            "self_adjoint": reference["self_adjoint"],
            "traceless": (worst <= tol.eps, worst, witness, table),
            "bimodule": reference["bimodule"],
        }
    report = validate(g, tol)
    assert [c.name for c in report.checks] == list(reference)
    for check in report.checks:
        passed, worst, witness, table = reference[check.name]
        assert check.passed == passed, check.name
        assert abs(check.max_residual - worst) <= 1e-12, check.name
        if worst > 1e-12:
            assert (check.witness is None) == (witness is None), check.name
            if check.witness is not None:
                at_witness = table[tuple(sorted(check.witness.items()))]
                assert abs(at_witness - worst) <= 1e-12, check.name
    return report


@pytest.mark.parametrize("label, g", VALIDATE_CASES, ids=[c[0] for c in VALIDATE_CASES])
def test_validate_matches_projection_loop(label, g):
    assert_validate_matches_reference(g)


@pytest.mark.parametrize("label, g", VALIDATE_CASES, ids=[c[0] for c in VALIDATE_CASES])
def test_validate_in_one_row_chunks(monkeypatch, label, g):
    monkeypatch.setattr("qgraph.graphs._CHUNK_BYTES", 1)
    assert_validate_matches_reference(g)


def test_validate_cases_cover_both_verdicts():
    verdicts = {label: validate(g).check("bimodule").passed for label, g in VALIDATE_CASES}
    assert verdicts["I_2xM_2, bimodule"] and not verdicts["I_2xM_2, broken bimodule"]
    assert not verdicts["(I_2xM_2)+(I_3xC), M' + H"]
    broken = validate(dict(VALIDATE_CASES)["I_2xM_2, broken bimodule"]).check("bimodule")
    assert 1e-9 < broken.max_residual < 1e-6


def test_summed_cycle_bimodule_residual_is_one_over_root_two():
    check = validate(dict(VALIDATE_CASES)["S_C8 summed"]).check("bimodule")
    assert abs(check.max_residual - 1 / np.sqrt(2)) <= 1e-12 and not check.passed


@pytest.mark.parametrize("label, blocks", VALIDATE_LADDER.items(), ids=list(VALIDATE_LADDER))
def test_complete_graph_report_skips_the_empty_complement(label, blocks):
    """S = M_n leaves span(S)perp empty, so the bimodule distances return before the gathers.
    The report is the one the gathers give on a complement of one zero row: exactly 0 with
    no witness, in the canonical frame and in a conjugated one."""
    rng = np.random.default_rng(2032)
    n = sum(m * k for m, k in blocks)
    for u in (None, rand_unitary(rng, n)):
        alg = VnAlgebra(n=n, blocks=blocks, unitary=u)
        g = complete_quantum_graph(alg)
        if u is not None:
            g = QuantumGraph(n, alg, conjugate(u, g.s_basis))
        assert g._split[1].shape == (0, n * n)
        ys = np.asarray(g.s_basis)
        gathered = _bimodule_distances(alg, ys, np.zeros((1, n, n)))
        assert np.array_equal(_bimodule_distances(alg, ys, g._split[1].reshape(0, n, n)), gathered)
        report = assert_validate_matches_reference(g)
        expected = [(name, 0.0, None) for name in ("self_adjoint", "operator_system", "bimodule")]
        assert [(c.name, c.max_residual, c.witness) for c in report.checks] == expected
        assert report.check("bimodule") == Check.of(
            "bimodule", gathered, Tolerance(), "comm_left", "comm_right", "basis_index"
        )


@pytest.mark.parametrize("blocks", list(VALIDATE_LADDER.values()), ids=list(VALIDATE_LADDER))
def test_validate_reads_exactly_zero_when_s_is_all_of_m_n(blocks):
    # span(S)perp = 0, so every distance from span(S) is an empty sum.
    n = sum(m * k for m, k in blocks)
    alg = VnAlgebra(n=n, blocks=blocks, unitary=rand_unitary(np.random.default_rng(n), n))
    report = validate(complete_quantum_graph(alg))
    for check in report.checks:
        assert check.max_residual == 0.0 and check.witness is None, check.name


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_membership_matches_dense_stacks(monkeypatch, label, g, target, s, wins):
    # On a PVM the M' table's per-a sum is the commutator norm: 1 - P_a = sum_{b != a} P_b.
    inst = GameInstance(source=g, target=target)
    expected = dense_membership(np.stack(s.projections), np.asarray(commutant(g.algebra)))
    worst = expected.max(initial=0.0)
    for chunk in (None, 1):
        if chunk is not None:
            monkeypatch.setattr("qgraph.homgame._CHUNK_BYTES", chunk)
        check = verify_structural(inst, s).check("membership")
        assert abs(check.max_residual - worst) <= 1e-12
        if worst > 1e-12:
            assert abs(expected[check.witness["a"]] - worst) <= 1e-12


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_operational_amplitude_squared_is_the_probability_on_pvms(label, g, target, s, wins):
    tol = Tolerance()
    assert s.measurement_report(tol).passed
    inst = GameInstance(source=g, target=target)
    report = verify_operational(inst, s, tol)
    probability = reference_operational(inst, s, tol)
    for check in report.checks:
        passed, _, _, table = probability[check.name]
        assert check.passed == passed, check.name
        # The squared rule is sum_Y p_Y(a, b) at the worst pair.
        totals, _ = summed(table)
        assert abs(check.max_residual**2 - max(totals.values(), default=0.0)) <= 1e-12, check.name


# --- the array kernels of is_loc, outcome_probability and the trace correlation -----


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
    # Entries that neither commute nor lie in M_2 + M_1, whose trace weights differ
    # (1/4, 1/4, 1/2): tau(x y) != tau(y x) on them, so trace weights on the column
    # index read differently.
    yield "block-mixing D=3", block_mixing_strategy(rng)


KERNEL_CASES = list(kernel_cases())


def assert_star_commutator_norm(ents, expected):
    """L(E) within 1e-12 relative; on a commuting family both sides are rounding
    noise, so the floor is 1e-12 of the scale sum |x|_F^2 that bounds L(E)."""
    scale = float(np.vdot(ents, ents).real)
    assert _star_commutator_norm(ents) == pytest.approx(expected, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_is_loc_matches_reference_loop(label, s):
    tol = Tolerance()
    loc, worst, total = reference_is_loc(s, tol)
    assert s.is_loc(tol) == loc
    assert loc == (label == "loc D=2" or s.ancilla.dim == 1)
    d = s.ancilla.dim
    ents = s.entries().reshape(-1, d, d)
    assert_star_commutator_norm(ents, total)
    # The sum is never below the worst pair, nor above sqrt(2) N times it.
    assert worst <= total * (1 + 1e-12) + 1e-15
    assert total <= np.sqrt(2) * len(ents) * worst * (1 + 1e-12) + 1e-15


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_star_commutator_norm_in_one_row_chunks(monkeypatch, label, s):
    d = s.ancilla.dim
    ents = s.entries().reshape(-1, d, d)
    whole = _star_commutator_norm(ents)
    monkeypatch.setattr("qgraph.strategies._CHUNK_BYTES", 1)
    assert_star_commutator_norm(ents, whole)


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_star_commutator_norm_is_invariant_under_unitary_mixing(label, s):
    # L(E) depends on E only through its Gram matrix, so x_k -> sum_l U_kl x_l keeps it.
    d = s.ancilla.dim
    ents = s.entries().reshape(-1, d, d)
    mix = rand_unitary(np.random.default_rng(2023), len(ents))
    assert_star_commutator_norm(np.einsum("kl,lij->kij", mix, ents), _star_commutator_norm(ents))


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_outcome_probability_matches_reference_loop(label, s):
    tol = Tolerance()
    rng = np.random.default_rng(2022)
    for _ in range(3):
        y = rng.normal(size=(s.n, s.n)) + 1j * rng.normal(size=(s.n, s.n))
        y /= np.linalg.norm(y)
        ref = reference_outcome_probability(s, y, tol)
        assert np.abs(outcome_probability(s, y, tol) - ref).max() <= 1e-12


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_correlation_from_trace_matches_reference_einsum(label, s):
    ref = reference_correlation_from_trace(s).tensor
    assert np.abs(correlation_from_trace(s).tensor - ref).max() <= 1e-12


@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_bob_from_alice_matches_reference_loop(label, s):
    ts, ref = bob_from_alice(s), reference_bob_from_alice(s)
    assert ts.dims == ref.dims
    assert np.array_equal(ts.chi, ref.chi)
    assert np.array_equal(np.stack(ts.alice), np.stack(ref.alice))
    assert np.array_equal(np.stack(ts.bob), np.stack(ref.bob))


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


def _worst(*arrays) -> float:
    """Largest entry of all the arrays, NaN read as inf; independent of worst_residual."""
    v = float(np.max(np.concatenate([np.ravel(a) for a in arrays])))
    return np.inf if np.isnan(v) else v


def reference_sync_and_identities(x):
    """The old check_synchronous residuals and synchronous_identities, off-diagonal loop included."""
    t = x.tensor
    diagonal = _worst([abs(complex(np.einsum("aaijij->", t) / x.n) - 1.0)])
    cross = np.einsum("abijij->ab", t)
    np.fill_diagonal(cross, 0.0)
    cross_residual = _worst(np.abs(cross))
    diag_entries = np.einsum("abiijj->abij", t)
    positivity = _worst(np.abs(diag_entries.imag), [0.0], -diag_entries.real)
    conj_residual = _worst(np.abs(t - np.conj(t.transpose(0, 1, 3, 2, 5, 4))))
    row = np.einsum("abikjk->abij", t)
    col = np.einsum("abkikj->abij", t)
    off = [[0.0]]
    for a in range(x.c):
        for b in range(x.c):
            if a != b:
                off += [np.abs(row[a, b]), np.abs(col[a, b])]
    eye = np.eye(x.n)
    diag_sum = _worst(np.abs(np.einsum("aaikjk->ij", t) - eye), np.abs(np.einsum("aakikj->ij", t) - eye))
    return (diagonal, cross_residual), (positivity, conj_residual, _worst(*off), diag_sum)


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
    assert (not rep.failures(POVM_CHECKS), rep.passed) == (is_povm, is_pvm)
    residuals["positivity"] = max(0.0, -residuals.pop("min_eigenvalue"))
    assert [c.name for c in rep.checks] == ["hermitian", "positivity", "sum", "idempotency", "orthogonality"]
    for check in rep.checks:
        assert abs(check.max_residual - residuals[check.name]) <= 1e-12, check.name


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("label, s", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_round_almost_pvm_matches_reference_defects(label, s, hermitian):
    ops = _noisy(np.random.default_rng(2024), s.projections, 1e-3, hermitian)
    rounded, distance = round_almost_pvm(ops)
    reference = reference_rounding_defects(ops, rounded)
    rep = check_measurement(ops)
    got = [rep.check(name).max_residual for name in ("orthogonality", "idempotency", "sum")] + [distance]
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
        max(m.check(name).max_residual for name in ("hermitian", "idempotency", "sum")) for m in rows
    ] + [m.check("orthogonality").max_residual for m in cols]
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
        n=4, algebra=VnAlgebra(n=4, blocks=diag_alg.blocks, unitary=v), s_basis=conjugate(v, g.s_basis)
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
    """Each trace correlation in the strided layout of the trace path, and with seeded noise,
    each with a C-order twin (the layout correlation_from_json builds); then NaN at an entry
    of each identity on one twin."""
    rng = np.random.default_rng(2028)
    strategies = list(KERNEL_CASES) + [
        # The largest rigidity-ladder case, n = c = 8.
        ("(I_2xM_2)^2", shift_multiply_coloring(VnAlgebra(n=8, blocks=((2, 2), (2, 2))))),
        ("c=1 n=3", BlockStrategy(n=3, c=1, ancilla=TracialAncilla.full_matrix_block(2), projections=(np.eye(6),))),
        ("n=1 c=3", embed_classical([[matrix_unit(3, a, a) for a in range(3)]])),
    ]
    for label, s in strategies:
        x = correlation_from_trace(s)
        noise = rng.normal(size=x.tensor.shape) + 1j * rng.normal(size=x.tensor.shape)
        noisy = x.tensor.copy(order="K")
        noisy += 1e-3 * noise
        for case, t in ((label, x.tensor), (f"{label} +1e-3", noisy)):
            yield case, Correlation(n=x.n, c=x.c, tensor=t)
            yield f"{case} C-order", Correlation(n=x.n, c=x.c, tensor=np.ascontiguousarray(t))
    t = np.ascontiguousarray(correlation_from_trace(dict(KERNEL_CASES)["C+M_2 winning"]).tensor)
    for identity, entry, value in (
        ("(1) Re", (0, 1, 2, 2, 0, 0), complex(np.nan, 0.0)),
        ("(1) Im", (0, 1, 2, 2, 0, 0), complex(0.0, np.nan)),
        ("(2)", (0, 1, 0, 1, 2, 0), complex(np.nan, 0.0)),
        ("(3)", (0, 1, 0, 2, 1, 2), complex(np.nan, 0.0)),
        ("(4)", (1, 1, 0, 2, 1, 2), complex(np.nan, 0.0)),
    ):
        bad = t.copy()
        bad[entry] = value
        yield f"C+M_2 winning C-order NaN at {identity}", Correlation(n=3, c=5, tensor=bad)


CORRELATION_CASES = list(correlation_cases())


@pytest.mark.parametrize("label, x", CORRELATION_CASES, ids=[c[0] for c in CORRELATION_CASES])
def test_sync_and_identities_match_reference_loops(label, x):
    tol = Tolerance()
    (diagonal, cross), identities = reference_sync_and_identities(x)
    sync = check_synchronous(x, tol)
    assert sync.synchronous == (diagonal <= tol.eps and cross <= tol.eps)
    np.testing.assert_allclose((sync.diagonal_residual, sync.cross_residual), (diagonal, cross), rtol=0, atol=1e-12)
    rep = synchronous_identities(x, tol)
    got = (rep.positivity_defect, rep.conjugation_residual, rep.offdiag_row_residual, rep.diag_sum_residual)
    np.testing.assert_allclose(got, identities, rtol=0, atol=1e-12)
    assert rep.passed(tol) == (max(identities) <= tol.eps)


@pytest.mark.parametrize("label, x", CORRELATION_CASES, ids=[c[0] for c in CORRELATION_CASES])
def test_synchronous_identities_match_reference_einsums(label, x):
    # Identity (4) now sums the diagonal blocks of identity (3)'s row and column sums.
    tol = Tolerance()
    rep, ref = synchronous_identities(x, tol), reference_synchronous_identities(x)
    np.testing.assert_allclose(dataclasses.astuple(rep), dataclasses.astuple(ref), rtol=0, atol=1e-12)
    assert rep.passed(tol) == ref.passed(tol)


def test_nan_at_each_identity_entry_reads_as_inf():
    cases = {label: x for label, x in CORRELATION_CASES if " NaN at " in label}
    assert len(cases) == 5
    for label, x in cases.items():
        rep = dataclasses.astuple(synchronous_identities(x))
        # (2) reads every entry; the others read the entry named in the label.
        read = {"(1)": 0, "(2)": 1, "(3)": 2, "(4)": 3}[label.split(" NaN at ")[1][:3]]
        assert rep[1] == np.inf and rep[read] == np.inf, label
        assert all(np.isfinite(r) for k, r in enumerate(rep) if k not in (1, read)), label


def classical_correlation_cases():
    for label, s in KERNEL_CASES:
        # tau is no trace on the block-mixing entries, so their compression is not real.
        if not label.startswith("block-mixing"):
            yield label, compress_to_classical(correlation_from_trace(s))
    rng = np.random.default_rng(2029)
    for n, c in ((2, 2), (3, 2), (2, 4)):
        yield f"random n={n} c={c}", ClassicalCorrelation(n=n, c=c, p=rng.uniform(size=(c, c, n, n)))


CLASSICAL_CORRELATION_CASES = list(classical_correlation_cases())


@pytest.mark.parametrize(
    "label, p", CLASSICAL_CORRELATION_CASES, ids=[c[0] for c in CLASSICAL_CORRELATION_CASES]
)
def test_bisync_matches_reference_loops(label, p):
    residuals = dict(zip(("synchronous", "bisynchronous"), reference_bisync(p)))
    worst = max(residuals.values())
    rep = check_bisynchronous(p, Tolerance())
    assert rep.passed == (worst <= Tolerance().eps)
    for check in rep.checks:
        assert abs(check.max_residual - residuals[check.name]) <= 1e-12, check.name
    # The verdict flips within 1e-12 of the reference residual.
    assert check_bisynchronous(p, Tolerance(worst + 1e-12)).passed
    if worst > 2e-12:
        assert not check_bisynchronous(p, Tolerance(worst - 1e-12)).passed


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
        n=s.n, c=s.c + 1, ancilla=s.ancilla, projections=tuple(s.projections) + (zero,)
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
    """The (a, b, Y) loop of the old _sandwich: one hs_norm of W P_a (Y (x) 1) P_b each."""
    eye = np.eye(strategy.ancilla.dim)
    w = np.diag(weights)
    out = np.zeros(mask.shape + (len(mats),))
    for a, b in zip(*np.nonzero(mask)):
        for k, y in enumerate(mats):
            lifted = np.kron(y, eye)
            out[a, b, k] = hs_norm(w @ strategy.projections[a] @ lifted @ strategy.projections[b])
    return out


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_sandwich_kernel_matches_reference_loop(label, g, target, s, wins):
    rng = np.random.default_rng(2024)
    size = s.n * s.ancilla.dim
    factors = round_outcomes(np.stack(s.projections))
    # The reported value is res(Pi) + beta with beta = |W|_2 sqrt(kappa) (d_a + d_b + d_a d_b),
    # and res(Pi) <= res(P) + beta by the same bound, so it exceeds res(P) by at most 2 beta;
    # kappa <= n and |W|_2 <= 1 here.
    d = factors.defects.max()
    slack = 2 * np.sqrt(s.n) * (2 * d + d * d)
    masks = [target._nonadjacent, ~np.eye(s.c, dtype=bool), rng.random((s.c, s.c)) < 0.3]
    for mats in (commutant(g.algebra), list(g._adjacency_basis), []):
        stack = np.reshape(mats, (-1, s.n, s.n))
        # Another orthonormal basis of the same span.
        mixed = np.einsum("kl,lij->kij", rand_unitary(rng, len(mats)), stack) if len(mats) else stack
        for mask in masks:
            for weights in (None, rng.random(size)):
                ref = reference_sandwich(s, mats, mask, np.ones(size) if weights is None else weights)
                got = _sandwich(factors, stack, spread(stack), mask, weights)
                assert np.abs(got - np.sqrt((ref**2).sum(axis=-1))).max(initial=0.0) <= 1e-12
                assert np.abs(_sandwich(factors, mixed, spread(mixed), mask, weights) - got).max(initial=0.0) <= 1e-12
                assert_sum_bounds(ref.max(initial=0.0), got.max(initial=0.0), len(mats), slack)


# --- the factored sandwich against the dense kernel it replaced ----------------------


def assert_factored_matches_dense(ps, g, masks, weights_list, reference=dense_sandwich):
    """The factored kernel on the rounding of ps equals the reference within 1e-12 over M',
    S n (M')perp and the empty space, for every mask and weight."""
    factors = round_outcomes(ps)
    for mats in (commutant(g.algebra), g._adjacency_basis, []):
        ys = np.reshape(mats, (-1, g.n, g.n))
        for mask in masks:
            for weights in weights_list:
                want = reference(ps, ys, mask, weights)
                got = _sandwich(factors, ys, spread(ys), mask, weights)
                assert np.abs(got - want).max(initial=0.0) <= 1e-12


def game_masks(rng, target, c):
    return [target._nonadjacent, ~np.eye(c, dtype=bool), rng.random((c, c)) < 0.3]


def trace_weights(s):
    return np.sqrt(np.tile(s.ancilla.trace_diagonal(), s.n))


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_factored_sandwich_matches_dense_kernel(label, g, target, s, wins):
    rng = np.random.default_rng(2030)
    masks = game_masks(rng, target, s.c)
    assert_factored_matches_dense(np.stack(s.projections), g, masks, (None, trace_weights(s)))


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_factored_sandwich_in_one_input_chunks(monkeypatch, label, g, target, s, wins):
    rng = np.random.default_rng(2033)
    ys = g._adjacency_basis
    mask, weights = game_masks(rng, target, s.c)[2], trace_weights(s)
    whole = _sandwich(s.factors, ys, spread(ys), mask, weights)
    monkeypatch.setattr("qgraph.homgame._CHUNK_BYTES", 1)
    assert np.abs(_sandwich(s.factors, ys, spread(ys), mask, weights) - whole).max(initial=0.0) <= 1e-12


def off_ladder_stacks(rng, s):
    """Stacks that are not PVMs: the factored kernel holds for any finite stack."""
    ps = np.stack(s.projections)
    broken = ps.copy()
    broken[0] += 1e-9 * rand_hermitian(rng, len(ps[0]))  # an idempotency break at 1e-9
    yield broken
    z = rng.normal(size=ps.shape) + 1j * rng.normal(size=ps.shape)
    yield z / np.linalg.norm(z, ord=2, axis=(-2, -1), keepdims=True)  # non-Hermitian contractions
    # An outcome with P_a = 0 keeps no singular triple: an empty block between two others.
    yield np.concatenate([ps[:1], np.zeros_like(ps[:1]), ps[1:]])


WINNING = [c for c in CASES if c[4]]


@pytest.mark.parametrize("label, g, target, s, wins", WINNING, ids=[c[0] for c in WINNING])
def test_rounded_sandwich_matches_dense_kernel_off_pvms(label, g, target, s, wins):
    # Off a PVM the kernel reads the rounded PVM and adds the bound term.
    rng = np.random.default_rng(2031)
    for ps in off_ladder_stacks(rng, s):
        weights = (None, rng.uniform(0.1, 1.0, size=ps.shape[-1]))
        assert_factored_matches_dense(ps, g, game_masks(rng, K(len(ps)), len(ps)), weights, rounded_dense_sandwich)


@pytest.mark.parametrize("label, g, target, s, wins", WINNING, ids=[c[0] for c in WINNING])
def test_membership_off_pvms_sums_rows_and_columns_of_the_reported_table(label, g, target, s, wins):
    # Off a PVM, membership is the per-a sum over the reported M' table, not the commutator
    # norm; a non-Hermitian stack makes the table asymmetric.
    rng = np.random.default_rng(2034)
    comm = np.asarray(commutant(g.algebra))
    for ps in off_ladder_stacks(rng, s):
        c = len(ps)
        strategy = BlockStrategy(n=s.n, c=c, ancilla=s.ancilla, projections=tuple(ps))
        squares = rounded_dense_sandwich(ps, comm, ~np.eye(c, dtype=bool)) ** 2
        want = np.sqrt(squares.sum(axis=0) + squares.sum(axis=1))
        check = verify_structural(GameInstance(source=g, target=K(c)), strategy).check("membership")
        assert abs(check.max_residual - want.max()) <= 1e-12
        assert abs(want[check.witness["a"]] - want.max()) <= 1e-12


@pytest.mark.parametrize("label, g, target, s, wins", WINNING, ids=[c[0] for c in WINNING])
def test_factored_sandwich_reads_inf_on_a_nan_stack(label, g, target, s, wins):
    ps = np.stack(s.projections)
    ps[-1, 0, -1] = np.nan
    assert round_outcomes(ps) is None
    with pytest.raises(ValueError, match="non-finite"):
        round_almost_pvm(ps)
    mask = ~np.eye(s.c, dtype=bool)
    for mats in (commutant(g.algebra), g._adjacency_basis):
        ys = np.reshape(mats, (-1, g.n, g.n))
        got = _sandwich(round_outcomes(ps), ys, spread(ys), mask, trace_weights(s))
        assert np.array_equal(got, np.where(mask, np.inf, 0.0))


@pytest.mark.parametrize("label, g, target, s, wins", WINNING, ids=[c[0] for c in WINNING])
def test_adjacency_zeros_off_pvms_reads_the_reported_table(label, g, target, s, wins):
    rng = np.random.default_rng(2035)
    perp = g._adjacency_basis
    for ps in off_ladder_stacks(rng, s):
        strategy = BlockStrategy(n=s.n, c=len(ps), ancilla=s.ancilla, projections=tuple(ps))
        want = rounded_dense_sandwich(ps, perp, K(len(ps))._nonadjacent)
        check = verify_structural(GameInstance(source=g, target=K(len(ps))), strategy).check("adjacency_zeros")
        assert abs(check.max_residual - want.max()) <= 1e-12


# S = span{E_10, E_20} over the diagonal algebra is not self-adjoint: sum Y Y* = E_11 + E_22 and
# sum Y* Y = 2 E_00, so kappa must take the larger of the two.
ONE_SIDED = QuantumGraph(n=3, algebra=VnAlgebra(n=3, blocks=((1, 1),) * 3), s_basis=(matrix_unit(3, 1, 0), matrix_unit(3, 2, 0)))


@pytest.mark.parametrize("g", [c[1] for c in CASES] + [ONE_SIDED], ids=[c[0] for c in CASES] + ["one-sided"])
def test_input_spaces_are_the_game_bases_with_their_spread(g):
    (same, k_same), (perp, k_perp) = g._game_inputs
    assert np.array_equal(same, np.asarray(commutant(g.algebra)))
    assert np.array_equal(perp, g._adjacency_basis)
    assert abs(k_same - spread(same)) <= 1e-12 and abs(k_perp - spread(perp)) <= 1e-12


NEAR_PVM_CASES = [c for c in CASES if c[3].n * c[3].ancilla.dim <= 8]


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(NEAR_PVM_CASES),
    scale=st.floats(-13.0, -0.3),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_reported_sandwich_never_reads_below_the_dense_one(case, scale, hermitian, seed):
    # The fail-closed bound: on a near-PVM the value is at least the sandwich of the stack itself.
    _, g, target, s, _ = case
    rng = np.random.default_rng(seed)
    ps = np.stack(_noisy(rng, s.projections, 10.0**scale, hermitian))
    factors = round_outcomes(ps)
    for mats in (commutant(g.algebra), g._adjacency_basis):
        ys = np.reshape(mats, (-1, g.n, g.n))
        for mask in game_masks(rng, target, s.c):
            for weights in (None, trace_weights(s)):
                got = _sandwich(factors, ys, spread(ys), mask, weights)
                assert (got >= dense_sandwich(ps, ys, mask, weights) - 1e-12).all()


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


def reference_normal_form(generators):
    """The old normal_form: *-closure by products, centre solve, then per
    central cluster a compression, a commutant solve and two generic draws."""
    generators = [np.asarray(g, dtype=np.complex128) for g in generators]
    n = generators[0].shape[0]
    basis = orthonormalize(generators + [g.conj().T for g in generators])
    while True:
        new_basis = orthonormalize(list(basis) + [a @ b for a in basis for b in basis])
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
        compressed = orthonormalize([w_block.conj().T @ b @ w_block for b in basis])
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
    for tag, target, strat in (("winning", K(s.c), s), ("merged", K(s.c - 1), merge_first_two(s))):
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
        conjugate(rand_unitary(np.random.default_rng(2026), 4), [np.diag([1.0, 2.0, 0.0, 0.0])]),
        conjugate(
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


# --- normal_form's commutant inside {h}' against the kron nullspace it replaced -------


def _span_basis(gens):
    """normal_form's orthonormal basis of the span of the generators and their adjoints."""
    gens = np.asarray(gens, dtype=np.complex128)
    return orthonormalize(np.concatenate([gens, gens.conj().transpose(0, 2, 1)]))


def _map_norm(basis):
    """2 |B|_2 of the stacked basis B, normal_form's bound on the norm of X -> ([b, X])_b."""
    return 2.0 * np.linalg.norm(basis.reshape(-1, basis.shape[-1]), 2)


def _generic_hermitian(basis, seed=7):
    x = _generic(basis, np.random.default_rng(seed))
    return x + x.conj().T


def assert_commutant_matches_reference(basis, h):
    rows, reference = _commutant_rows(basis, h, _map_norm(basis)), reference_commutant_rows(basis)
    assert rows.shape == reference.shape
    assert np.abs(rows.T @ rows.conj() - reference.T @ reference.conj()).max() <= 1e-12


COMMUTANT_CASES = [(label, gens) for label, gens, _ in NF_CASES] + [
    (f"C 1_{n}", [np.eye(n)]) for n in (1, 4, 9)  # h is scalar: one eigenvalue group
]


@pytest.mark.parametrize("label, gens", COMMUTANT_CASES, ids=[c[0] for c in COMMUTANT_CASES])
def test_commutant_matches_kron_reference(label, gens):
    basis = _span_basis(gens)
    assert_commutant_matches_reference(basis, _generic_hermitian(basis))
    # The rank floor's scale bounds the norm of the whole map.
    whole = np.linalg.norm(commutator_map(basis), 2)
    assert whole <= _map_norm(basis) * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_commutant_matches_kron_reference_when_h_commutes_with_only_the_algebra(seed):
    """An abelian A = (+)_i C P_i in a Haar frame, rank P_i = mults[i], and h = sum_i
    (1 + 1.03e-3 i) P_i: each split gap of h is 1.03e-3, just above the merge gap
    1e-3 |h|, so {h}' = A' and every singular value of the restricted map is rounding.
    A rank floor taken from the largest of them counts some of that rounding as rank."""
    mults = (2, 2, 2, 2, 1)
    n = sum(mults)
    frame = rand_unitary(np.random.default_rng(seed), n)
    alg = VnAlgebra(n=n, blocks=tuple((m, 1) for m in mults), unitary=frame)
    basis = algebra_basis(alg)  # P_i / sqrt(rank P_i)
    h = np.tensordot((1.0 + 1.03e-3 * np.arange(len(mults))) * np.sqrt(mults), basis, axes=1)
    w = np.linalg.eigvalsh(h)
    merge, gaps = 1e-3 * np.abs(w).max(), np.diff(w)
    split = gaps[gaps > merge]
    assert len(split) == len(mults) - 1 and split.min() < 1.05 * merge
    assert_commutant_matches_reference(basis, h)
    assert len(_commutant_rows(basis, h, _map_norm(basis))) == alg.dim_commutant


@st.composite
def block_data(draw, size=8):
    """(mult, dim) pairs filling at most size."""
    blocks, left = [], size
    while left and (not blocks or draw(st.booleans())):
        k = draw(st.integers(1, min(left, 3)))
        blocks.append((draw(st.integers(1, left // k)), k))
        left -= blocks[-1][0] * k
    return blocks


@settings(max_examples=60, deadline=None)
@given(blocks=block_data(), seed=st.integers(0, 2**32 - 1), full=st.booleans())
def test_normal_form_recovers_random_block_data_in_a_haar_frame(blocks, seed, full):
    n = sum(m * k for m, k in blocks)
    rng = np.random.default_rng(seed)
    v = rand_unitary(rng, n)
    source = VnAlgebra(n=n, blocks=blocks, unitary=v)
    gens = algebra_basis(source) if full else _generic_elements(rng, blocks, v)
    alg, u = normal_form(gens)
    assert sorted(alg.blocks) == sorted(blocks)
    assert max(block_pattern_residual(u.conj().T @ g @ u, alg.blocks) for g in gens) <= 1e-9


def test_normal_form_recovers_d24_in_a_haar_frame():
    rng = np.random.default_rng(24)
    alg, _ = normal_form(_generic_elements(rng, ((1, 1),) * 24, rand_unitary(rng, 24)))
    assert alg.blocks == ((1, 1),) * 24


# --- the edge basis as one SVD per block pair, and the loops it removed --------------


def reference_edge_basis(g, tol):
    """The modified Gram-Schmidt that edge_basis ran over every compression P_a Z P_b."""
    copies = copy_isometries(g.algebra)
    mats, tags, blocks = [], [], []
    for a_idx, (ra, wa) in enumerate(copies):
        for b_idx, (rb, wb) in enumerate(copies):
            kept = []
            if ra == rb:
                kept.append(wa @ wb.conj().T / np.sqrt(wa.shape[1]))
                tags.append(SAME_VERTEX)
            for z in g._adjacency_basis:
                cand = wa @ wa.conj().T @ z @ wb @ wb.conj().T
                for prev in kept:
                    cand = cand - np.vdot(prev, cand) * prev
                nrm = hs_norm(cand)
                if nrm >= tol.eps * 10:
                    kept.append(cand / nrm)
                    tags.append(ADJACENCY)
            mats += kept
            blocks += [(a_idx, b_idx)] * len(kept)
    dims = tuple(w.shape[1] for _, w in copies)
    return EdgeBasis(np.reshape(mats, (-1, g.n, g.n)), tuple(tags), tuple(blocks), dims)


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
        yield f"S_C{m}", QuantumGraph(n=m, algebra=alg, s_basis=conjugate(v, g0.s_basis))
    v = rand_unitary(rng, 3)
    offdiag = [matrix_unit(3, i, j) for i in range(3) for j in range(3) if i != j]
    alg = VnAlgebra(n=3, blocks=((1, 3),), unitary=v)
    yield "traceless", QuantumGraph(n=3, algebra=alg, s_basis=conjugate(v, offdiag), traceless=True)
    # Over C I_2 (x) M_2, M' = M_2 (x) 1, and S = M_2 (x) span{1, sigma_x} is a proper bimodule.
    v = rand_unitary(rng, 4)
    sigma = [np.eye(2), np.array([[0, 1], [1, 0]])]
    s = [np.kron(matrix_unit(2, i, j), x) for i in range(2) for j in range(2) for x in sigma]
    alg = VnAlgebra(n=4, blocks=((2, 2),), unitary=v)
    yield "C I_2 (x) M_2, S = M_2 (x) span{1, X}", QuantumGraph(n=4, algebra=alg, s_basis=conjugate(v, s))


EDGE_CASES = list(edge_basis_cases())


def _by_block_pair(basis):
    pairs = {}
    for y, tag, pair in zip(basis.matrices, basis.tags, basis.blocks):
        pairs.setdefault(pair, {SAME_VERTEX: [], ADJACENCY: []})[tag].append(y)
    return pairs


@pytest.mark.parametrize("label, g", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
def test_edge_basis_matches_gram_schmidt_reference(label, g):
    tol = Tolerance()
    basis, reference = edge_basis(g, tol), reference_edge_basis(g, tol)
    assert basis.block_dims == reference.block_dims
    assert (basis.blocks, basis.tags) == (reference.blocks, reference.tags)
    got, want = _by_block_pair(basis), _by_block_pair(reference)
    for pair, tags in want.items():
        for y, ref in zip(got[pair][SAME_VERTEX], tags[SAME_VERTEX]):
            assert np.abs(y - ref).max() <= 1e-12
        # The adjacency elements may differ; the spaces they span may not.
        vecs = [np.reshape(got[pair][ADJACENCY], (-1, g.n * g.n)), np.reshape(tags[ADJACENCY], (-1, g.n * g.n))]
        projectors = [v.T @ v.conj() for v in vecs]
        assert np.abs(projectors[0] - projectors[1]).max() <= 1e-12
    gram = basis.matrices.reshape(len(basis.matrices), -1)
    assert np.abs(gram.conj() @ gram.T - np.eye(len(gram))).max() <= 1e-12


EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples")


def isometry_cases():
    """The seeded edge-basis cases (the ladder's complete graphs in Haar frames, C+M_2
    among them, and rotated S_C5..S_C8), the example graphs and the edgeless S_G."""
    yield from EDGE_CASES
    for name in ("quantum_graph", "traceless_graph", "rotated_scalar_graph"):
        with open(os.path.join(EXAMPLES, f"{name}.json")) as fh:
            yield name, graph_from_json(json.load(fh))
    yield "S_G, G edgeless on 3", graph_operator_system(ClassicalGraph.empty(3))


ISOMETRY_CASES = list(isometry_cases())


@pytest.mark.parametrize("label, g", ISOMETRY_CASES, ids=[c[0] for c in ISOMETRY_CASES])
def test_edge_basis_matches_isometry_reference(label, g):
    # The canonical-frame slices give what W_a* Z W_b gave: the same tags and copy pairs,
    # the same units W_a W_b*/sqrt(k) and the same span per pair, in one read-only stack.
    basis, reference = edge_basis(g), reference_isometry_edge_basis(g)
    assert (basis.block_dims, basis.tags, basis.blocks) == (reference.block_dims, reference.tags, reference.blocks)
    same = np.array(basis.tags) == SAME_VERTEX
    assert np.abs(basis.matrices[same] - reference.matrices[same]).max() <= 1e-12
    got, want = _by_block_pair(basis), _by_block_pair(reference)
    for pair, tags in want.items():
        vecs = [np.reshape(got[pair][ADJACENCY], (-1, g.n * g.n)), np.reshape(tags[ADJACENCY], (-1, g.n * g.n))]
        projectors = [v.T @ v.conj() for v in vecs]
        assert np.abs(projectors[0] - projectors[1]).max() <= 1e-12
    gram = basis.matrices.reshape(len(basis.matrices), -1)
    assert np.abs(gram.conj() @ gram.T - np.eye(len(gram))).max() <= 1e-12
    assert basis.matrices.shape == (len(basis.tags), g.n, g.n) and not basis.matrices.flags.writeable


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_operational_verdicts_match_gram_schmidt_basis(label, g, target, s, wins):
    tol = Tolerance()
    inst = GameInstance(source=g, target=target)
    report = verify_operational(inst, s, tol)
    # The Gram-Schmidt inputs of each tag span the same space, so they give the same sums.
    assert_matches_reference(
        report, reference_operational_amplitude(inst, s, tol, reference_edge_basis(g, tol))
    )
    assert report.passed == wins


# --- S n (M')perp from principal cosines, and the tolerance that only decides ---------


def reference_adjacency_basis(g):
    """The old S n (M')perp: the spanning set minus its projection onto M', with the
    singular directions above SPAN_RANK_FLOOR times the spanning family's largest."""
    basis = np.reshape(np.asarray(g.s_basis, dtype=np.complex128), (-1, g.n * g.n))
    comm = np.reshape(commutant(g.algebra), (-1, g.n * g.n))
    residual = basis - (basis @ comm.conj().T) @ comm
    _, s, vh = np.linalg.svd(residual, full_matrices=False)
    top = np.linalg.svd(basis, compute_uv=False)[0] if len(basis) else 0.0
    return vh[s > 1e-8 * top]


def _projector(rows):
    rows = np.reshape(rows, (len(rows), -1))
    return rows.T @ rows.conj()


def _valid_graphs():
    seen = set()
    cases = [(label, g) for label, g, *_ in CASES] + EDGE_CASES + VALIDATE_CASES
    for label, g in cases:
        if id(g) not in seen and validate(g).passed:
            seen.add(id(g))
            yield label, g


VALID_GRAPHS = list(_valid_graphs())


@pytest.mark.parametrize("label, g", VALID_GRAPHS, ids=[c[0] for c in VALID_GRAPHS])
def test_adjacency_basis_spans_the_space_of_the_residual_svd(label, g):
    new, old = g._adjacency_basis, reference_adjacency_basis(g)
    assert len(new) == len(old)
    if len(new):
        assert np.abs(_projector(new) - _projector(old)).max() <= 1e-12
        gram = new.reshape(len(new), -1)
        assert np.abs(gram.conj() @ gram.T - np.eye(len(new))).max() <= 1e-12


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_game_residuals_on_the_residual_svd_basis(label, g, target, s, wins):
    # The same graph with the old basis in place of the new one: every residual within 1e-12.
    old = QuantumGraph(g.n, g.algebra, g.s_basis, g.traceless)
    old.__dict__["_adjacency_basis"] = reference_adjacency_basis(g).reshape(-1, g.n, g.n)
    for fn in (verify_structural, verify_operational, check_game_algebra_rep):
        new_rep = fn(GameInstance(source=g, target=target), s)
        old_rep = fn(GameInstance(source=old, target=target), s)
        assert [c.passed for c in new_rep.checks] == [c.passed for c in old_rep.checks]
        for a, b in zip(new_rep.checks, old_rep.checks):
            assert abs(a.max_residual - b.max_residual) <= 1e-12, (fn.__name__, a.name)


TOLERANCES = (Tolerance(1e-9), Tolerance(1e-6), Tolerance(1e-3))


def tolerance_cases():
    """CASES, and each winning one with seeded Hermitian noise, of norm 1e-7 / sqrt(c) on
    each P_a and 1e-7 / k on each of the k spanning elements, so that verdicts differ
    between the tolerances."""
    rng = np.random.default_rng(2030)
    for label, g, target, s, wins in CASES:
        yield label, g, target, s
        if wins:
            ps = _noisy(rng, s.projections, 1e-7 / np.sqrt(s.c))
            noisy = QuantumGraph(g.n, g.algebra, tuple(_noisy(rng, g.s_basis, 1e-7 / len(g.s_basis))))
            yield f"{label} noisy", noisy, target, BlockStrategy(s.n, s.c, s.ancilla, tuple(ps))


TOLERANCE_CASES = list(tolerance_cases())


def _tolerance_free(report):
    return [(c.name, c.max_residual, c.witness) for c in report.checks]


@pytest.mark.parametrize("label, g, target, s", TOLERANCE_CASES, ids=[c[0] for c in TOLERANCE_CASES])
def test_tolerance_changes_verdicts_only(label, g, target, s):
    """Fresh objects at each tolerance, so no cached value is shared between them."""
    seen, bases = {}, {}
    for tol in TOLERANCES:
        graph = QuantumGraph(g.n, g.algebra, g.s_basis, g.traceless)
        strategy = BlockStrategy(s.n, s.c, s.ancilla, s.projections)
        inst = GameInstance(source=graph, target=target)
        reports = {"validate": validate(graph, tol), "measurement": strategy.measurement_report(tol)}
        for fn in (verify_structural, verify_operational, check_game_algebra_rep):
            try:
                reports[fn.__name__] = fn(inst, strategy, tol)
            except ValueError:  # operational refuses a graph that fails validate at tol
                assert not reports["validate"].passed
        for name, report in reports.items():
            for c in report.checks:
                assert c.passed == (c.max_residual <= tol.eps), (name, c.name)
            seen.setdefault(name, []).append(_tolerance_free(report))
        if reports["validate"].passed:
            bases[tol.eps] = edge_basis(graph, tol)
    for name, values in seen.items():
        assert all(v == values[0] for v in values), name
    first = next(iter(bases.values()), None)
    for basis in bases.values():
        assert basis.block_dims == first.block_dims
        assert (basis.tags, basis.blocks) == (first.tags, first.blocks)
        assert np.array_equal(basis.matrices, first.matrices)


def test_tolerance_cases_move_verdicts():
    moved = set()
    for label, g, target, s in TOLERANCE_CASES:
        inst = GameInstance(source=g, target=target)
        verdicts = {validate(g, tol).passed for tol in TOLERANCES}
        for tol in TOLERANCES:
            try:
                verdicts.add(verify_structural(inst, s, tol).passed)
            except ValueError:  # the game refuses a graph that fails validate at tol: a failed verdict
                verdicts.add(False)
        if len(verdicts) > 1:
            moved.add(label)
    assert all(label in moved for label, *_ in TOLERANCE_CASES if label.endswith("noisy"))


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
    """The per-element loop of the old extract_channel: one kron and one einsum per input.

    Returns the worst forbidden entry, the largest root over (tag, a, b) of the
    sum of the squared entries, and a bound on the number of terms in one sum."""
    stack = np.stack(kraus)
    eye_d = np.eye(strategy.ancilla.dim)
    offdiag = ~np.eye(strategy.c, dtype=bool)
    nonadjacent = inst.target._nonadjacent
    residuals, sums, inputs = [], {}, {}
    basis = edge_basis(inst.source, tol)
    for y, tag in zip(basis.matrices, basis.tags):
        big = np.kron(y, eye_d)
        table = np.einsum("mau,uv,lbv->mlab", stack, big, np.conj(stack))
        forbidden = offdiag if tag == SAME_VERTEX else nonadjacent
        residuals.append(np.where(forbidden, np.abs(table).max(axis=(0, 1)), 0.0))
        squares = np.where(forbidden, (np.abs(table) ** 2).sum(axis=(0, 1)), 0.0)
        sums[tag] = sums.get(tag, 0.0) + squares
        inputs[tag] = inputs.get(tag, 0) + 1
    new = max((np.sqrt(total).max() for total in sums.values()), default=0.0)
    # One (a, b) sum has a term per input of its tag and per Kraus pair (k, l) of (a, b).
    rank = max(round(np.trace(p).real) for p in strategy.projections)
    return worst_residual(residuals)[0], new, max(inputs.values(), default=0) * rank**2


@pytest.mark.parametrize("label, g, target, s, wins", CASES, ids=[c[0] for c in CASES])
def test_subset_residual_matches_reference_loop(label, g, target, s, wins):
    tol = Tolerance()
    inst = GameInstance(source=g, target=target)
    vectors = [v[:, w > 0.5] for w, v in (np.linalg.eigh((p + p.conj().T) / 2) for p in s.projections)]
    labels = np.repeat(np.arange(s.c), [v.shape[1] for v in vectors])
    u = np.concatenate(vectors, axis=1)
    kraus = [np.outer(np.eye(s.c)[a], u[:, k].conj()) for k, a in enumerate(labels)]
    worst, new, terms = reference_subset_residual(inst, s, kraus, tol)
    q = BlockStrategy(s.n, s.c, s.ancilla, tuple(v @ v.conj().T for v in vectors))
    assert abs(worst_residual(_forbidden_outcomes(inst, q, tol))[0] - new) <= 1e-12
    assert_sum_bounds(worst, new, terms)
    assert (worst <= tol.eps) == wins and (new <= tol.eps) == wins
    if wins:
        assert abs(extract_channel(inst, s, tol).subset_residual - new) <= 1e-12
    else:
        with pytest.raises(ValueError, match="subset conditions"):
            extract_channel(inst, s, tol)


@pytest.mark.parametrize("label, g, target, s, wins", [c for c in CASES if c[4]], ids=[c[0] for c in CASES if c[4]])
def test_choi_matches_reference_einsum(label, g, target, s, wins):
    # The einsum over the zero-padded (N, c, N) Kraus stack that extract_channel ran.
    rep = extract_channel(GameInstance(source=g, target=target), s)
    stack = np.stack(rep.kraus)
    size, c = stack.shape[0], s.c
    reference = np.einsum("mau,mbv->uavb", stack, np.conj(stack)).reshape(size * c, size * c)
    assert rep.choi.shape == reference.shape
    assert np.abs(rep.choi - reference).max() <= 1e-12


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
    """The triple copy loop over Alice's D_A x D_A blocks and bob_entry, the reference for the
    entry views of reference_correlation_from_tensor."""
    n, c = ts.n, ts.c
    da, db = ts.dims
    p_ent = np.empty((c, n, n, da, da), dtype=np.complex128)
    q_ent = np.empty((c, n, n, db, db), dtype=np.complex128)
    for a in range(c):
        for i in range(n):
            for j in range(n):
                p_ent[a, i, j] = ts.alice[a][i * da : (i + 1) * da, j * da : (j + 1) * da]
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
    # A square chi that is not symmetric: chi and chi^T give different correlations.
    n, d = 2, 2
    alice = random_pvm(rng, n * d, 3)
    bob = [canonical_shuffle(q, outer=n, inner=d) for q in random_pvm(rng, n * d, 3)]
    chi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    yield "random da=db=2", TensorStrategy((d, d), tuple(alice), tuple(bob), chi / np.linalg.norm(chi))


TENSOR_CASES = list(tensor_strategy_cases())


@pytest.mark.parametrize("label, ts", TENSOR_CASES, ids=[c[0] for c in TENSOR_CASES])
def test_tensor_entries_match_reference_loop(label, ts):
    n, c = ts.n, ts.c
    da, db = ts.dims
    p_ref, q_ref = reference_tensor_entries(ts)
    assert np.array_equal(np.stack(ts.alice).reshape(c, n, da, n, da).transpose(0, 1, 3, 2, 4), p_ref)
    assert np.array_equal(np.stack(ts.bob).reshape(c, db, n, db, n).transpose(0, 2, 4, 1, 3), q_ref)


@pytest.mark.parametrize("label, ts", TENSOR_CASES, ids=[c[0] for c in TENSOR_CASES])
def test_correlation_from_tensor_matches_reference_einsum(label, ts):
    ref = reference_correlation_from_tensor(ts).tensor
    assert np.abs(correlation_from_tensor(ts).tensor - ref).max() <= 1e-12


# --- the colouring constructions ----------------------------------------------


def _benchmark_ladder():
    """The block lists of the benchmark's algebra ladder (perfbench/inputs.py)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [blocks for _, blocks in inputs.LADDER]


COLORING_BLOCKS = _benchmark_ladder() + [((1, 1),) * 3, ((3, 1), (1, 5))]


def assert_same_bits(new, old):
    assert np.array_equal(new, old)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(new)), np.signbit(part(old)))


@pytest.mark.parametrize("rotated", [False, True], ids=["canonical", "haar"])
@pytest.mark.parametrize("blocks", COLORING_BLOCKS, ids=str)
def test_shift_multiply_matches_reference_loop(blocks, rotated):
    n = sum(m * k for m, k in blocks)
    unitary = rand_unitary(np.random.default_rng(2040 + n), n) if rotated else None
    alg = VnAlgebra(n=n, blocks=blocks, unitary=unitary)
    new = np.stack(shift_multiply_coloring(alg).projections)
    old = reference_shift_multiply_projections(alg)
    if rotated:
        assert_same_bits(new, old)
    else:
        # The entry loop wrote -0.0 where kron multiplied a phase by 0.0.
        assert np.array_equal(new, old)


@pytest.mark.parametrize("rotated", [False, True], ids=["canonical", "haar"])
@pytest.mark.parametrize("blocks", COLORING_BLOCKS, ids=str)
def test_algebra_bases_match_reference_loops(blocks, rotated):
    n = sum(m * k for m, k in blocks)
    unitary = rand_unitary(np.random.default_rng(2042 + n), n) if rotated else None
    alg = VnAlgebra(n=n, blocks=blocks, unitary=unitary)
    for new, old in (
        (algebra_basis(alg), reference_algebra_basis(alg)),
        (commutant(alg), reference_commutant(alg)),
        (alg.central_projections(), reference_central_projections(alg)),
    ):
        assert len(new) == len(old)
        assert_same_bits(np.stack(new), np.stack(old))


@pytest.mark.parametrize("n, c, h", [(1, 1, 1), (2, 3, 2), (3, 2, 3)])
def test_embed_classical_matches_reference_loop(n, c, h):
    families = [random_povm(np.random.default_rng(2043 + x), h, c) for x in range(n)]
    assert_same_bits(embed_classical(families).projections, reference_embed_projections(families))


# One norm per outcome, or per traced matrix, replaced one per entry: the sums and the
# modulus of a complex number round in another order, within a few ulps of the reference.
REORDERED_RTOL = 64 * np.finfo(np.float64).eps


@pytest.mark.parametrize("seed", range(4))
def test_ancilla_block_defect_matches_reference_loop(seed):
    rng = np.random.default_rng(2044 + seed)
    for s in (block_mixing_strategy(rng), random_block_strategy(rng, 2, 3, (2, 1, 1))):
        assert s.ancilla_block_defect() == pytest.approx(reference_ancilla_block_defect(s), rel=REORDERED_RTOL, abs=0)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_traceless_residual_matches_reference_loop(n):
    rng = np.random.default_rng(2045 + n)
    g = QuantumGraph(n, VnAlgebra(n=n, blocks=((1, n),)), random_matrices(rng, n, 6), traceless=True)
    reference = [abs(np.trace(y)) for y in g.s_basis]
    check = validate(g).check("traceless")
    assert check.max_residual == pytest.approx(max(reference), rel=REORDERED_RTOL, abs=0)
    assert check.witness == {"basis_index": int(np.argmax(reference))}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_teleport_matches_reference_loop(d, k):
    assert_same_bits(np.stack(teleport_coloring(d, k).projections), reference_teleport_projections(d, k))


@pytest.mark.parametrize(
    "coloring, c",
    [((), 0), (tuple(np.random.default_rng(2041).integers(0, 4, size=7).tolist()), 4)],
    ids=["empty", "seeded"],
)
def test_diagonal_strategy_matches_reference_loop(coloring, c):
    s = diagonal_strategy(coloring, c)
    ref = reference_diagonal_projections(coloring, c)
    assert len(s.projections) == len(ref) == c
    for new, old in zip(s.projections, ref):
        assert_same_bits(new, old)


# --- the dilation and the Fourier inversion against the loops they replaced --------


def reference_unitary_to_pvm(u, c):
    """The Fourier double loop P_a = (1/c) sum_d omega^(-ad) U^d, a = 1..c: the spectral
    projection of an order-c unitary U at omega^a."""
    powers = [np.eye(len(u), dtype=np.complex128)]
    for _ in range(c):
        powers.append(powers[-1] @ u)
    out = []
    for a in range(1, c + 1):
        p = np.zeros_like(u)
        for d in range(1, c + 1):
            p += unit_root_power(c, -a * d) * powers[d]
        out.append(p / c)
    return out


def reference_dilate_povm(povm):
    """The old dilate_povm: one (c+1)h-sized kron conjugation U*(E (x) I)U per outcome."""
    mats = [np.asarray(q, dtype=np.complex128) for q in povm]
    c, h = len(mats), mats[0].shape[0]
    roots = []
    for q in mats:
        w, v = np.linalg.eigh((q + q.conj().T) / 2)
        roots.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
    v = np.vstack(roots)
    gram = v @ v.conj().T
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    kernel = evecs[:, evals < 0.5]
    u = np.zeros(((c + 1) * h, (c + 1) * h), dtype=np.complex128)
    u[: c * h, :h] = v
    u[: c * h, h:] = kernel @ kernel.conj().T
    u[c * h :, h:] = -v.conj().T
    out = []
    for a in range(c):
        diag = np.zeros(c + 1)
        diag[a] = 1.0
        if a == c - 1:
            diag[c] = 1.0
        out.append(u.conj().T @ np.kron(np.diag(diag), np.eye(h)) @ u)
    return out


@pytest.mark.parametrize("size, c", [(1, 1), (1, 3), (2, 2), (3, 4), (4, 3)])
def test_dilate_povm_matches_reference_loop(size, c):
    rng = np.random.default_rng(2050 + 10 * size + c)
    for povm in (random_povm(rng, size, c), random_pvm(rng, size, c)):
        new, old = dilate_povm(povm), reference_dilate_povm(povm)
        assert len(new) == len(old) == c
        assert max(np.abs(p - q).max() for p, q in zip(new, old)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_bell_projections_match_fourier_reference_loop(k):
    """phi_ab spans the joint eigenspace of X* (x) X* at omega^a and Z* (x) Z at omega^b
    (Z e_i = omega^i e_i, X e_i = e_(i+1)), so each Bell projection of the colorings is the
    product of two spectral projections from the Fourier double loop."""
    clock = np.diag([unit_root_power(k, i) for i in range(k)])
    shift = np.roll(np.eye(k, dtype=np.complex128), 1, axis=0)
    xs = reference_unitary_to_pvm(np.kron(shift, shift).conj().T, k)
    zs = reference_unitary_to_pvm(np.kron(clock.conj(), clock), k)
    old = np.stack([xs[(a - 1) % k] @ zs[(b - 1) % k] for a in range(k) for b in range(k)])
    new = _bell_projections(k).reshape(k * k, k * k, k * k)
    assert np.abs(new - old).max() <= 1e-12
