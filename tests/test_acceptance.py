"""Acceptance suite: every theorem-level claim as a residual test.

Each criterion prints one pass/fail line (run with -s to see them all);
tolerances are pinned in the assertions, never computed.
"""

import itertools
import time

import numpy as np

from helpers import rand_hermitian, random_block_strategy, random_povm, random_pvm
from qgraph import (
    BlockStrategy,
    ClassicalGraph,
    GameInstance,
    Tolerance,
    TracialAncilla,
    VnAlgebra,
    bob_from_alice,
    check_bisynchronous,
    check_measurement,
    check_synchronous,
    compose_reps,
    compress_to_classical,
    correlation_from_tensor,
    correlation_from_trace,
    corner_compress,
    dilate_block_povm,
    graph_operator_system,
    proper_coloring,
    rigidity_check,
    round_almost_pvm,
    shift_multiply_coloring,
    synchronous_identities,
    teleport_coloring,
    verify_operational,
    verify_structural,
)
from qgraph.colorings import complete_quantum_graph, diagonal_strategy
from qgraph.graphs import homomorphism_exists
from qgraph.linalg import matrix_unit

K = ClassicalGraph.complete

TELEPORT_CASES = [(1, 2), (1, 3), (2, 2), (1, 4), (3, 2)]
SHIFT_MULTIPLY_BLOCKS = [
    ((1, 1),),
    ((2, 1), (1, 2)),
    ((1, 1), (1, 1), (1, 2)),
    ((1, 2), (1, 2)),
    ((1, 3),),
]


def report(number: int, description: str):
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def worst_residual(game_report) -> float:
    return max(c.max_residual for c in game_report.checks)


def test_criterion_01_teleport_coloring():
    for d, k in TELEPORT_CASES:
        s = teleport_coloring(d, k)
        assert s.c == k * k
        rep = s.measurement_report(Tolerance(1e-10))
        assert rep.passed, (d, k, rep.failures())
        alg = VnAlgebra(n=d * k, blocks=((d, k),))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(k * k))
        game = verify_structural(inst, s, Tolerance(1e-10))
        assert game.passed and worst_residual(game) <= 1e-10, (d, k)
    report(1, "teleportation colorings pass PVM + structural checks at 1e-10")


def test_criterion_02_shift_multiply_coloring():
    for blocks in SHIFT_MULTIPLY_BLOCKS:
        alg = VnAlgebra(n=sum(m * k for m, k in blocks), blocks=blocks)
        assert alg.n <= 8
        s = shift_multiply_coloring(alg)
        assert s.c == alg.dim_algebra
        import math

        assert s.ancilla.dim == math.lcm(*(k for _, k in blocks))
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(s.c))
        game = verify_structural(inst, s, Tolerance(1e-10))
        assert game.passed and worst_residual(game) <= 1e-10, blocks
    report(2, "shift-multiply colorings: dim(M) projections verified at 1e-10")


def test_criterion_03_rigidity():
    minimal_cases = [
        (teleport_coloring(d, k), VnAlgebra(n=d * k, blocks=((d, k),)))
        for d, k in TELEPORT_CASES
    ] + [
        (
            shift_multiply_coloring(VnAlgebra(n=sum(m * k for m, k in blocks), blocks=blocks)),
            VnAlgebra(n=sum(m * k for m, k in blocks), blocks=blocks),
        )
        for blocks in SHIFT_MULTIPLY_BLOCKS
    ]
    for s, alg in minimal_cases:
        rep = rigidity_check(s, alg, Tolerance(1e-10))
        assert rep.minimal
        d = s.ancilla.dim
        dim_m = alg.dim_algebra
        for psi_p in rep.rigidity:
            assert np.abs(psi_p - np.eye(d) / dim_m).max() <= 1e-10
        for per_block in rep.r_values:
            assert np.abs(sum(per_block) - np.eye(d)).max() <= 1e-10
        for r, (_, k_r) in enumerate(alg.blocks):
            total = sum(per_block[r] for per_block in rep.r_values)
            assert np.abs(total - k_r**2 * np.eye(d)).max() <= 1e-10
    report(3, "rigidity: psi_M (x) id traces and R-idempotents at 1e-10")


def _random_small_strategy(rng) -> BlockStrategy:
    n = int(rng.integers(1, 5))
    c = int(rng.integers(1, 5))
    n_blocks = int(rng.integers(1, 3))
    dims = []
    remaining = 4
    for _ in range(n_blocks):
        d = int(rng.integers(1, max(2, remaining - (n_blocks - len(dims) - 1)) + 1))
        dims.append(d)
        remaining -= d
        if remaining <= 0:
            break
    return random_block_strategy(rng, n, c, tuple(dims))


def test_criterion_04_synchronicity():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        s = _random_small_strategy(rng)
        x = correlation_from_trace(s)
        sync = check_synchronous(x, Tolerance(1e-9))
        assert sync.synchronous, (s.n, s.c, s.ancilla.block_dims)
        ids = synchronous_identities(x, Tolerance(1e-9))
        assert ids.passed(Tolerance(1e-9))
        assert x.normalization_residual() <= 1e-9
    report(4, "100 random trace correlations: synchronous + identity suite at 1e-9")


def test_criterion_05_bob_from_alice():
    rng = np.random.default_rng(2025)
    for _ in range(50):
        s = _random_small_strategy(rng)
        ts = bob_from_alice(s)
        xt = correlation_from_trace(s)
        xx = correlation_from_tensor(ts)
        assert np.abs(xt.tensor - xx.tensor).max() <= 1e-9
        # Synchronicity condition on the shared state, with the adjoint as in
        # the tracial form Q_{a,ij} psi = P_{a,ij}* psi.
        d = s.ancilla.dim
        eye = np.eye(d)
        for a in range(s.c):
            for i in range(s.n):
                for j in range(s.n):
                    lhs = np.kron(eye, ts.bob_entry(a, i, j)) @ ts.chi
                    rhs = np.kron(s.entry(a, i, j).conj().T, eye) @ ts.chi
                    assert np.linalg.norm(lhs - rhs) <= 1e-10
    report(5, "50 random strategies: tensor/trace paths agree at 1e-9, state identity at 1e-10")


def test_criterion_06_dilation():
    rng = np.random.default_rng(2026)
    cases = [(2, 2), (3, 2)]
    for trial in range(50):
        n, h = cases[trial % len(cases)]
        for c in (2, 3):
            q = random_povm(rng, n * h, c)
            dil = dilate_block_povm(q, n=n, h=h, tol=Tolerance(1e-10))
            rep = check_measurement(dil, Tolerance(1e-10))
            assert rep.passed
            for p, qq in zip(dil, q):
                assert np.linalg.norm(corner_compress(p, n, c, h) - qq) <= 1e-10
    report(6, "dilation: corner recovery and exact PVM at 1e-10 on 50 random POVMs")


def _all_graphs_up_to_iso(n: int) -> list[ClassicalGraph]:
    """All simple graphs on n vertices up to isomorphism, by canonical bitmask."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen, out = set(), []
    for mask in range(2**len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        canon = min(
            tuple(sorted((min(pi[a], pi[b]), max(pi[a], pi[b])) for a, b in edges))
            for pi in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(ClassicalGraph(n, tuple(edges)))
    return out


def _least_diagonal_chromatic(graph: ClassicalGraph) -> int:
    """Least c such that some diagonal loc strategy over S_G wins vs K_c."""
    g = graph_operator_system(graph)
    n = graph.vertices
    for c in range(1, n + 1):
        inst = GameInstance(source=g, target=K(c))
        # Assignments with canonical color order (first use of color b
        # precedes first use of b+1): every coloring is a relabeling of one
        # of these, and relabelings of K_c colorings win identically.
        for assign in _restricted_growth_strings(n, c):
            s = diagonal_strategy(assign, c)
            if verify_structural(inst, s, Tolerance(1e-10)).passed:
                return c
    return n


def _restricted_growth_strings(n: int, c: int):
    def extend(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for color in range(min(used + 1, c)):
            prefix.append(color)
            yield from extend(prefix, max(used, color + 1))
            prefix.pop()

    yield from extend([], 0)


def test_criterion_07_classical_equivalence():
    started = time.monotonic()
    checked = 0
    for n in range(1, 6):
        for graph in _all_graphs_up_to_iso(n):
            expected = 0 if n == 0 else _brute_chromatic(graph)
            assert _least_diagonal_chromatic(graph) == expected
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    assert checked == 1 + 2 + 4 + 11 + 34
    report(7, f"classical equivalence on {checked} graphs (<=5 vertices) in {elapsed:.1f}s")


def _brute_chromatic(graph: ClassicalGraph) -> int:
    for c in range(1, graph.vertices + 1):
        if proper_coloring(graph, c) is not None:
            return c
    return graph.vertices


def _valid_instances(rng):
    """Pool of (instance, strategy) pairs with winning strategies."""
    out = []
    for d, k in [(1, 2), (2, 2)]:
        alg = VnAlgebra(n=d * k, blocks=((d, k),))
        out.append(
            (
                GameInstance(source=complete_quantum_graph(alg), target=K(k * k)),
                teleport_coloring(d, k),
            )
        )
    for blocks in [((1, 1), (1, 2)), ((2, 1), (1, 2))]:
        alg = VnAlgebra(n=sum(m * k for m, k in blocks), blocks=blocks)
        out.append(
            (
                GameInstance(
                    source=complete_quantum_graph(alg), target=K(alg.dim_algebra)
                ),
                shift_multiply_coloring(alg),
            )
        )
    # Classical homomorphism instances with non-complete targets, where a
    # projection swap genuinely corrupts.
    hom_cases = [
        (ClassicalGraph.cycle(4), ClassicalGraph.cycle(4), [0, 1, 2, 3]),
        (ClassicalGraph.cycle(5), ClassicalGraph.cycle(5), [0, 1, 2, 3, 4]),
        (ClassicalGraph.cycle(4), K(2), [0, 1, 0, 1]),
    ]
    for source_graph, target, hom in hom_cases:
        assert homomorphism_exists(source_graph, target)
        inst = GameInstance(source=graph_operator_system(source_graph), target=target)
        out.append((inst, _hom_strategy(hom, target.vertices)))
    return out


def _hom_strategy(hom, c):
    n = len(hom)
    projections = []
    for a in range(c):
        p = np.zeros((n, n), dtype=complex)
        for x, img in enumerate(hom):
            if img == a:
                p[x, x] = 1.0
        projections.append(p)
    return BlockStrategy(
        n=n, c=c, ancilla=TracialAncilla.trivial(), projections=tuple(projections)
    )


def _corrupt(rng, inst, s, kind):
    if kind == "swap":
        order = list(range(s.c))
        a, b = rng.choice(s.c, size=2, replace=False)
        order[a], order[b] = order[b], order[a]
        projs = tuple(s.projections[i] for i in order)
        return BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=projs)
    if kind == "perturb":
        projs = list(s.projections)
        idx = int(rng.integers(0, s.c))
        noise = rand_hermitian(rng, projs[idx].shape[0])
        noise = 1e-3 * noise / np.linalg.norm(noise)
        projs[idx] = projs[idx] + noise
        return BlockStrategy(n=s.n, c=s.c, ancilla=s.ancilla, projections=tuple(projs))
    if kind == "reweight":
        dims = s.ancilla.block_dims
        if len(dims) == 1:
            return s  # a single block admits only the normalized trace
        w = np.asarray(s.ancilla.trace_weights) * rng.uniform(0.5, 1.5, size=len(dims))
        w = w / w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        anc = TracialAncilla(dims, tuple(w))
        return BlockStrategy(n=s.n, c=s.c, ancilla=anc, projections=s.projections)
    return s


def test_criterion_08_structural_operational_agreement():
    rng = np.random.default_rng(2028)
    pool = _valid_instances(rng)
    kinds = ["none", "swap", "perturb", "reweight"]
    verdicts = {True: 0, False: 0}
    for trial in range(200):
        inst, base = pool[trial % len(pool)]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        s = _corrupt(rng, inst, base, kind)
        rs = verify_structural(inst, s)
        ro = verify_operational(inst, s)
        assert rs.passed == ro.passed, (trial, kind)
        verdicts[rs.passed] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
    report(
        8,
        f"structural == operational on 200 strategies ({verdicts[True]} pass / {verdicts[False]} fail)",
    )


def test_criterion_09_bisynchronicity():
    for n in (2, 3, 4):
        s = BlockStrategy(
            n=n,
            c=n,
            ancilla=TracialAncilla.trivial(),
            projections=tuple(matrix_unit(n, a, a) for a in range(n)),
        )
        p = compress_to_classical(correlation_from_trace(s))
        assert check_bisynchronous(p, Tolerance(1e-12)).passed
    constant = BlockStrategy(
        n=2,
        c=2,
        ancilla=TracialAncilla.trivial(),
        projections=(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)),
    )
    x = correlation_from_trace(constant)
    assert check_synchronous(x).synchronous
    assert not check_bisynchronous(compress_to_classical(x)).passed
    report(9, "diagonal colorings bisynchronous; constant answers synchronous only")


def test_criterion_10_rounding():
    rng = np.random.default_rng(2030)
    for _ in range(20):
        size = int(rng.integers(2, 9))
        c = int(rng.integers(2, 5))
        pvm = random_pvm(rng, size, c)
        rounded, distance = round_almost_pvm(pvm)
        assert distance <= 1e-12
    for _ in range(100):
        size = int(rng.integers(2, 17))
        c = int(rng.integers(2, 5))
        pvm = random_pvm(rng, size, c)
        noisy = []
        for p in pvm:
            noise = rand_hermitian(rng, size)
            noisy.append(p + 1e-3 * noise / np.linalg.norm(noise))
        rounded, distance = round_almost_pvm(noisy)
        assert check_measurement(rounded, Tolerance(1e-12)).passed
        assert distance <= 5e-2
    report(10, "rounding: identity on exact PVMs (1e-12); 2-norm <= 5e-2 on 1e-3 noise")


def test_criterion_11_composition():
    algebras = [
        VnAlgebra(n=1, blocks=((1, 1),)),
        VnAlgebra(n=2, blocks=((1, 1), (1, 1))),
        VnAlgebra(n=3, blocks=((1, 1),) * 3),
        VnAlgebra(n=2, blocks=((1, 2),)),
        VnAlgebra(n=4, blocks=((2, 1), (1, 2))),
    ]
    for alg in algebras:
        dim_m = alg.dim_algebra
        assert dim_m <= 5
        s = shift_multiply_coloring(alg)
        inst = GameInstance(source=complete_quantum_graph(alg), target=K(dim_m))
        for perm in itertools.permutations(range(dim_m)):
            f = [
                [
                    np.array([[1.0 if perm[a] == v else 0.0]], dtype=complex)
                    for v in range(dim_m)
                ]
                for a in range(dim_m)
            ]
            composed = compose_reps(s, f, TracialAncilla.trivial())
            assert verify_structural(inst, composed, Tolerance(1e-10)).passed
    report(11, "composition with every K_c automorphism (dim M <= 5) stays winning")
