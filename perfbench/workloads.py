"""The three workloads: their job lists, and how each job is run and checked.

A job is one operation: ``run()`` calls qgraph and is the only timed part,
``check(output)`` compares the result with computations made apart from
qgraph (see checks.py).  A pass is the workload's whole job list, built from
that pass's seeded inputs; runs always attempt whole passes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import inputs as gen
from inputs import CYCLES, LADDER, LARGEST

import qgraph.cli
from qgraph import (
    BlockStrategy,
    ClassicalGraph,
    GameInstance,
    QuantumGraph,
    TracialAncilla,
    VnAlgebra,
    bob_from_alice,
    check_game_algebra_rep,
    check_synchronous,
    chromatic_number,
    correlation_from_tensor,
    correlation_from_trace,
    normal_form,
    rigidity_check,
    shift_multiply_coloring,
    synchronous_identities,
    teleport_coloring,
    validate,
    verify_operational,
    verify_structural,
)


@dataclass
class Job:
    label: str
    case: str  # per-case row the job's spans are charged to
    run: Callable[[], tuple[dict, object]]
    expected: dict
    check: Callable[[object], list[str]] = lambda out: []
    known_fault: bool = False
    largest: bool = False


@dataclass
class CaseInfo:
    n: int
    c: int
    D: int
    dim_S: int
    dim_Mprime: int


@dataclass
class PassInputs:
    jobs: list[Job]
    cases: dict[str, CaseInfo] = field(default_factory=dict)


def spread_out(*groups) -> list[Job]:
    """Merge job groups so that each group is spread evenly over the pass.

    The jobs of one size class then sample the whole pass instead of one
    moment of it, which steadies the median job time on a machine whose
    speed drifts from second to second.  Order within a group is kept.
    """
    keyed = [((i + 0.5) / len(g), gi, i, job) for gi, g in enumerate(groups) for i, job in enumerate(g)]
    return [k[3] for k in sorted(keyed, key=lambda k: k[:3])]


def ladder_info(blocks, c: int, d: int) -> CaseInfo:
    n = gen.size_of(blocks)
    return CaseInfo(n, c, d, n * n, gen.dim_commutant(blocks))


# --- game-ladder --------------------------------------------------------------

def game_job(label, case, gens, blocks, s_basis, projections, d, target, expected, known_fault=False):
    """normal_form -> validate -> the three game checks, the way the CLI chains them."""
    n = gen.size_of(blocks)
    c = len(projections)

    def run():
        alg, u = normal_form(gens)
        g = QuantumGraph(n=n, algebra=alg, s_basis=tuple(s_basis))
        verdicts = {"validate": validate(g).passed}
        strat = BlockStrategy(
            n=n, c=c, ancilla=TracialAncilla((d,), (1.0,)), projections=tuple(projections)
        )
        inst = GameInstance(source=g, target=target())
        # Looked up at call time, so that a traced run sees the wrapped functions.
        modes = (
            ("structural", verify_structural),
            ("operational", verify_operational),
            ("algebra", check_game_algebra_rep),
        )
        for mode, fn in modes:
            try:
                verdicts[mode] = fn(inst, strat).passed
            except ValueError:  # the CLI reports these as a failed verification (exit 1)
                verdicts[mode] = False
        return verdicts, (alg.blocks, u)

    def check(out):
        return checks.normal_form_mismatches(out[0], out[1], gens, blocks)

    return Job(label, case, run, expected, check, known_fault)


def _all(value: bool) -> dict:
    return {"validate": True, "structural": value, "operational": value, "algebra": value}


def _complete(c):
    return lambda: ClassicalGraph.complete(c)


def _cycle(m):
    return lambda: ClassicalGraph.cycle(m)


def _conj_case(rng, blocks):
    n = gen.size_of(blocks)
    v = gen.haar_unitary(rng, n)
    return v, gen.algebra_generators(rng, blocks, v), gen.conjugate(v, gen.matrix_units(n))


SWEEP_ALGEBRAS = (("C^2+M_2", ((2, 1), (1, 2))),)
SWEEP_HOMS = (("C_5->C_5", 5, (0, 1, 2, 3, 4), 5),)
SWEEP_REPEAT = 2


def _is_hom(m, images, target_edges) -> bool:
    allowed = {frozenset(e) for e in target_edges}
    return all(frozenset((images[i], images[j])) in allowed for i, j in gen.cycle_edges(m))


def game_ladder(seed: int, p: int) -> PassInputs:
    rng = gen.pass_rng(seed, "game-ladder", p)
    # Winning colourings first, merged ones second, so that the two jobs of
    # the largest case fall at two different times of the pass.
    winning, merged, cycles, sweep, cases = [], [], [], [], {}
    for label, blocks in LADDER:
        v, gens, s_basis = _conj_case(rng, blocks)
        proj, d = gen.shift_multiply(blocks)
        proj = gen.conjugate(gen.lift(v, d), proj)
        c = len(proj)
        cases[label] = ladder_info(blocks, c, d)
        winning.append(game_job(f"{label} K_{c}", label, gens, blocks, s_basis, proj, d, _complete(c), _all(True)))
        merged.append(game_job(f"{label} K_{c - 1}", label, gens, blocks, s_basis, gen.merge_first_two(proj), d,
                               _complete(c - 1), _all(False)))
        winning[-1].largest = merged[-1].largest = label == LARGEST

    for m in CYCLES:
        label = f"S_C{m}"
        blocks = ((1, 1),) * m
        v = gen.haar_unitary(rng, m)
        gens = [v @ np.diag(rng.normal(size=m)) @ v.conj().T for _ in range(2)]
        s_basis = gen.conjugate(v, gen.graph_system_basis(m, gen.cycle_edges(m)))
        chi = checks.cycle_chromatic_number(m)
        proper = gen.cycle_colouring(m)
        # Alternating colours leave one monochromatic edge, (m-1, 0), on an odd
        # cycle.  A 2-colouring of an even cycle has an even number of them;
        # flipping vertex 0 gives two.
        bad = [i % 2 for i in range(m)]
        if m % 2 == 0:
            bad[0] = 1
        cases[label] = CaseInfo(m, chi, 1, 3 * m, m)
        for colouring, tag in ((proper, "proper"), (bad, "monochromatic")):
            ok = not checks.monochromatic_edges(gen.cycle_edges(m), colouring)
            proj = gen.conjugate(v, gen.diagonal_projections(colouring, chi))
            job = game_job(f"{label} {tag}", label, gens, blocks, s_basis, proj, 1, _complete(chi), _all(ok))
            job.run = _with_chromatic(job.run, m)
            job.expected = dict(job.expected, chromatic_number=chi)
            cycles.append(job)

    # Seeded sweep of small valid and corrupted strategies (acceptance criterion 08):
    # a fixed list of (instance, corruption), fresh numbers every pass.  Its
    # jobs and S_C5's are of one size class, which holds the median job.
    for _ in range(SWEEP_REPEAT):
        for label, blocks in SWEEP_ALGEBRAS:
            n = gen.size_of(blocks)
            for kind in ("none", "swap", "rotate"):
                v, gens, s_basis = _conj_case(rng, blocks)
                proj, d = gen.shift_multiply(blocks)
                proj = _corrupt(rng, kind, gen.conjugate(gen.lift(v, d), proj), n, d)
                # Relabelling colours is an automorphism of K_c; a generic
                # rotation leaves M (x) M_d, since M != M_n.
                sweep.append(game_job(f"sweep {label} {kind}", "sweep", gens, blocks, s_basis, proj, d,
                                     _complete(len(proj)), _all(kind != "rotate")))
        for label, m, hom, c in SWEEP_HOMS:
            blocks = ((1, 1),) * m
            for kind in ("none", "swap", "rotate"):
                v = gen.haar_unitary(rng, m)
                gens = [v @ np.diag(rng.normal(size=m)) @ v.conj().T for _ in range(2)]
                s_basis = gen.conjugate(v, gen.graph_system_basis(m, gen.cycle_edges(m)))
                images = list(hom)
                if kind == "swap":
                    a, b = (int(x) for x in rng.choice(c, size=2, replace=False))
                    images = [b if x == a else a if x == b else x for x in images]
                proj = gen.conjugate(v, gen.diagonal_projections(images, c))
                if kind == "rotate":
                    proj = _corrupt(rng, kind, proj, m, 1)
                ok = kind != "rotate" and _is_hom(m, images, gen.cycle_edges(c))
                sweep.append(game_job(f"sweep {label} {kind}", "sweep", gens, blocks, s_basis, proj, 1,
                                     _cycle(c), _all(ok)))

    # Fixed input, independent of the seed: one NaN entry must fail every mode.
    blocks = ((1, 2),)
    proj, d = gen.shift_multiply(blocks)
    proj[0, 0, 0] = np.nan
    gens = [np.array([[1, 0], [0, -1]], dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    cases["nan-entry"] = ladder_info(blocks, len(proj), d)
    nan_job = game_job("nan-entry M_2", "nan-entry", gens, blocks, gen.matrix_units(2), proj, d,
                       _complete(len(proj)), _all(False), known_fault=True)
    return PassInputs(spread_out(winning + merged, cycles, sweep, [nan_job]), cases)


def _with_chromatic(run, m):
    def wrapped():
        verdicts, out = run()
        verdicts["chromatic_number"] = chromatic_number(ClassicalGraph.cycle(m))
        return verdicts, out

    return wrapped


def _corrupt(rng, kind, proj, n, d):
    if kind == "swap":
        a, b = (int(x) for x in rng.choice(len(proj), size=2, replace=False))
        proj = proj.copy()
        proj[[a, b]] = proj[[b, a]]
    elif kind == "rotate":
        proj = gen.conjugate(gen.lift(gen.haar_unitary(rng, n), d), proj)
    return proj


# --- rigidity-ladder ----------------------------------------------------------

TELEPORT = ("M_2", "I_2xM_2", "M_3", "M_4")  # single-block ladder algebras with n <= 4
# Random strategies of one size class (n, c, ancilla blocks), two thirds of
# the job list, so that the median job lies well inside them.
SYNC_SWEEP = (3, 3, (2, 1))
SYNC_SWEEP_JOBS = 48


def _colouring_maker(method, blocks, v):
    n = gen.size_of(blocks)

    def build():
        alg = VnAlgebra(n=n, blocks=blocks, unitary=v)
        if method == "shift-multiply":
            return alg, shift_multiply_coloring(alg)
        (m, k), = blocks
        s = teleport_coloring(m, k)
        u = np.kron(v, np.eye(s.ancilla.dim))
        return alg, BlockStrategy(
            n=s.n, c=s.c, ancilla=s.ancilla,
            projections=tuple(u @ q @ u.conj().T for q in s.projections),
        )

    return build


def rigidity_job(label, case, build):
    def run():
        alg, s = build()
        rep = rigidity_check(s, alg)
        return {"minimal": rep.minimal, "model": rep.model, "passed": rep.passed()}, rep

    def check(rep):
        r = rep.trace_covariance_residual
        return [] if r <= checks.EXACT else [f"trace_covariance_residual {r:.3e}"]

    return Job(label, case, run, {"minimal": True, "model": "q", "passed": True}, check)


def correlation_job(label, case, build):
    """Trace path against tensor path, both synchronous and satisfying the identities."""

    def run():
        s = build()
        x_trace = correlation_from_trace(s)
        x_tensor = correlation_from_tensor(bob_from_alice(s))
        verdicts = {}
        for path, x in (("trace", x_trace), ("tensor", x_tensor)):
            verdicts[f"synchronous_{path}"] = check_synchronous(x).synchronous
            verdicts[f"identities_{path}"] = synchronous_identities(x).passed()
        return verdicts, (s, x_trace, x_tensor)

    def check(out):
        s, x_trace, x_tensor = out
        own = checks.trace_correlation(np.stack(s.projections), s.n, s.ancilla.trace_diagonal())
        bad = []
        for path, x in (("trace", x_trace), ("tensor", x_tensor)):
            r = float(np.abs(x.tensor - own).max())
            if not r <= checks.EXACT:
                bad.append(f"{path} correlation differs from the numpy einsum by {r:.3e}")
        return bad

    expected = {f"{k}_{p}": True for k in ("synchronous", "identities") for p in ("trace", "tensor")}
    return Job(label, case, run, expected, check)


def rigidity_ladder(seed: int, p: int) -> PassInputs:
    rng = gen.pass_rng(seed, "rigidity-ladder", p)
    rigidity, correlation, sweep, cases = [], [], [], {}
    for label, blocks in LADDER:
        n = gen.size_of(blocks)
        for method in ("shift-multiply", "teleport"):
            if method == "teleport" and label not in TELEPORT:
                continue
            build = _colouring_maker(method, blocks, gen.haar_unitary(rng, n))
            case = label if method == "shift-multiply" else f"{label} teleport"
            d = n if method == "teleport" else math.lcm(*(k for _, k in blocks))
            cases[case] = ladder_info(blocks, gen.dim_algebra(blocks), d)
            job = rigidity_job(f"rigidity {case}", case, build)
            job.largest = label == LARGEST and method == "shift-multiply"
            rigidity.append(job)
            correlation.append(correlation_job(f"correlation {case}", case, lambda b=build: b()[1]))
    n, c, dims = SYNC_SWEEP
    for _ in range(SYNC_SWEEP_JOBS):
        pvm = gen.random_block_pvm(rng, n, c, dims)
        ancilla = TracialAncilla(dims, gen.random_weights(rng, len(dims)))
        build = (lambda pvm=pvm, ancilla=ancilla:
                 BlockStrategy(n=n, c=c, ancilla=ancilla, projections=tuple(pvm)))
        sweep.append(correlation_job(f"correlation sweep n={n} c={c} D={dims}", "sync-sweep", build))
    return PassInputs(spread_out(rigidity, correlation, sweep), cases)


# --- cli-roundtrip ------------------------------------------------------------


class SubprocessCli:
    """Runs ``python -m qgraph.cli`` as a child process, one at a time."""

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child_cpu_s = 0.0
        self.wait_s = 0.0

    def __call__(self, argv):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qgraph.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=150,
        )
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        self.child_cpu_s += cpu
        self.wait_s += wall - cpu
        return proc.returncode, proc.stdout, proc.stderr


class InProcessCli:
    """Calls ``qgraph.cli.main(argv)`` in this process, capturing stdout."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qgraph.cli.main(list(argv))
        text = out.getvalue()
        if self.tracer is not None:
            written = len(text.encode())
            if "--out" in argv:
                written += os.path.getsize(argv[argv.index("--out") + 1])
            self.tracer.add_bytes("serialize.bytes_out", written)
        return code, text, err.getvalue()


def cli_job(label, case, runner, argv, exit_code, check_report, read_from=None):
    def run():
        code, stdout, stderr = runner(argv)
        return {"exit": code}, (stdout, stderr)

    def check(out):
        stdout, stderr = out
        problems = [f"stderr: {stderr.strip()[-300:]}"] if stderr.strip() else []
        try:
            if read_from is not None:
                with open(read_from) as fh:
                    stdout = fh.read()
            report = checks.strict_json(stdout)
        except ValueError as exc:
            return problems + [f"output is not strict JSON: {exc}"]
        return problems + check_report(report)

    return Job(label, case, run, {"exit": exit_code}, check)


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


def cli_roundtrip(seed: int, p: int, workdir: str, runner) -> PassInputs:
    rng = gen.pass_rng(seed, "cli-roundtrip", p)
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    cases, graphs, strategies = {}, {}, {}
    for label, blocks in LADDER:
        n = gen.size_of(blocks)
        v = gen.haar_unitary(rng, n)
        graphs[label] = path(f"graph {label}.json")
        gen.write_json(graphs[label], gen.graph_json(n, blocks, v, gen.conjugate(v, gen.matrix_units(n))))
        proj, d = gen.shift_multiply(blocks)
        cases[label] = ladder_info(blocks, len(proj), d)
        if label in (LARGEST, "M_4", "M_2+M_3"):
            proj = gen.conjugate(gen.lift(v, d), proj)
            strategies[label] = (proj, n, d)
            gen.write_json(path(f"strategy {label}.json"), gen.strategy_json(n, len(proj), d, proj))
            gen.write_json(path(f"algebra {label}.json"), gen.algebra_json(n, blocks, v))

    for m in CYCLES:
        v = gen.haar_unitary(rng, m)
        graphs[f"S_C{m}"] = path(f"graph S_C{m} conjugated.json")
        basis = gen.conjugate(v, gen.graph_system_basis(m, gen.cycle_edges(m)))
        gen.write_json(graphs[f"S_C{m}"], gen.graph_json(m, ((1, 1),) * m, v, basis))
    for m in CYCLES:
        perm = rng.permutation(m)
        relabelled = [[int(perm[i]), int(perm[j])] for i, j in gen.cycle_edges(m)]
        gen.write_json(path(f"cycle C_{m}.json"), {"vertices": m, "edges": relabelled})
    v8 = gen.haar_unitary(rng, 8)
    edges = gen.cycle_edges(8)
    bad = gen.conjugate(v8, gen.graph_system_basis(8, edges, summed=True))
    gen.write_json(path("graph S_C8 summed.json"), gen.graph_json(8, ((1, 1),) * 8, v8, bad))
    # bounds reads S_C8 in the standard basis (its classical oracle needs a diagonal
    # algebra); a seeded relabelling of the vertices keeps the input fresh.
    perm = rng.permutation(8)
    relabelled = [(int(perm[i]), int(perm[j])) for i, j in edges]
    gen.write_json(path("graph S_C8.json"), gen.graph_json(8, ((1, 1),) * 8, None, gen.graph_system_basis(8, relabelled)))

    c8 = len(strategies[LARGEST][0])
    verify = cli_job(
        f"verify-hom --mode both {LARGEST}", LARGEST, runner,
        ["verify-hom", "--mode", "both", "--graph", graphs[LARGEST], "--complete", str(c8),
         "--strategy", path(f"strategy {LARGEST}.json")], 0,
        lambda r: _expect(r.get("pass") is True and r["structural"]["pass"] and r["operational"]["pass"],
                          "winning colouring not passed by both modes"),
    )
    verify.largest = True
    validate_ladder = []
    for label, _ in LADDER:
        validate_ladder.append(cli_job(
            f"validate {label}", label, runner, ["validate", graphs[label]], 0,
            lambda r: _expect(r.get("pass") is True and all(c["pass"] for c in r["checks"]),
                              "complete quantum graph not valid"),
        ))
    validate_cycles = []
    for m in CYCLES:
        label = f"S_C{m}"
        validate_cycles.append(cli_job(
            f"validate {label}", label, runner, ["validate", graphs[label]], 0,
            lambda r: _expect(r.get("pass") is True, "graph system not valid"),
        ))
        cases[label] = CaseInfo(m, 0, 1, 3 * m, m)
    chromatic = [
        cli_job(f"classical-chromatic C_{m}", f"C_{m}", runner, ["classical-chromatic", path(f"cycle C_{m}.json")], 0,
                lambda r, m=m: _expect(r.get("chromatic_number") == checks.cycle_chromatic_number(m),
                                       f"chromatic number {r.get('chromatic_number')}"))
        for m in CYCLES
    ]
    validate_bad = cli_job(
        "validate S_C8 summed", "S_C8 summed", runner, ["validate", path("graph S_C8 summed.json")], 1,
        _check_bimodule,
    )
    rigidity = cli_job(
        "rigidity M_4", "M_4", runner,
        ["rigidity", "--algebra", path("algebra M_4.json"), "--strategy", path("strategy M_4.json")], 0,
        lambda r: _expect(r.get("pass") is True and r["minimal"] is True and r["model"] == "q"
                          and r["trace_covariance_residual"] <= checks.EXACT,
                          f"rigidity report {dict((k, r.get(k)) for k in ('pass', 'minimal', 'model'))}"),
    )
    corr = path("correlation M_2+M_3.json")
    proj, n, d = strategies["M_2+M_3"]
    # identities and check-sync read the report the correlation job writes.
    chain = [cli_job(
        "correlation --from tensor M_2+M_3", "M_2+M_3", runner,
        ["correlation", "--from", "tensor", "--strategy", path("strategy M_2+M_3.json"), "--out", corr], 0,
        lambda r: _check_correlation(r, proj, n, d), read_from=corr,
    ), cli_job("identities M_2+M_3", "M_2+M_3", runner, ["identities", corr], 0,
               lambda r: _expect(r.get("pass") is True, "identities failed")),
       cli_job("check-sync M_2+M_3", "M_2+M_3", runner, ["check-sync", corr], 0,
               lambda r: _expect(r.get("synchronous") is True, "not synchronous"))]
    edges_job = cli_job(f"edge-basis {LARGEST}", LARGEST, runner, ["edge-basis", graphs[LARGEST]], 0,
                        _check_edge_basis)
    bounds = cli_job("bounds S_C8", "S_C8 bounds", runner, ["bounds", path("graph S_C8.json")], 0,
                     _check_bounds)
    cases["S_C8 bounds"] = CaseInfo(8, 2, 1, 24, 8)
    cases["S_C8 summed"] = CaseInfo(8, 0, 1, 16, 8)
    jobs = spread_out(validate_ladder + validate_cycles + chromatic + [validate_bad, bounds],
                      [verify, rigidity, edges_job] + chain)
    return PassInputs(jobs, cases)


def _check_bimodule(r):
    check = {c["name"]: c for c in r.get("checks", [])}.get("bimodule")
    if check is None or check["pass"]:
        return ["bimodule check did not fail"]
    return _expect(abs(check["max_residual"] - 2 ** -0.5) <= checks.EXACT,
                   f"bimodule residual {check['max_residual']!r}, expected 1/sqrt(2)")


def _check_correlation(r, proj, n, d):
    x = checks.matrix_from_pairs(r["X"])
    own = checks.trace_correlation(proj, n, np.full(d, 1.0 / d))
    err = float(np.abs(x - own).max())
    return _expect(err <= checks.EXACT, f"tensor correlation differs from the numpy einsum by {err:.3e}")


def _check_edge_basis(r):
    mats = np.stack([checks.matrix_from_pairs(e["matrix"]) for e in r["elements"]])
    n = mats.shape[1]
    err = checks.gram_residual(mats)
    return _expect(len(mats) == n * n and err <= checks.EXACT,
                   f"{len(mats)} elements, Gram residual {err:.3e}; expected an orthonormal basis of M_{n}")


def _check_bounds(r):
    exact_loc = [b["colors"] for b in r.get("bounds", []) if b["model"] == "loc" and b["exact"]]
    return _expect(r.get("pass") is True and exact_loc == [2], f"exact loc bounds {exact_loc}, expected [2]")
