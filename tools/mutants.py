"""Mutation checks: each mutant is one textual edit of the library that named tests must catch.

Run from the root of a checkout:

    python tools/mutants.py

First the union of the named tests runs on an unchanged copy of the tree and must
pass.  Then, for each mutant, the checkout (without .git and caches) is copied
into a temporary directory, `old` (which must occur exactly once in `file`) is replaced by `new`,
and `python -m pytest -x -q TESTS` runs there.  A failing run kills the mutant; a
passing run lets it survive.  A mutant marked equivalent computes the same
results by another route, so its survival is expected and reported only.  The
exit status is 1 when an unmarked mutant survives, an edit does not apply or the
unchanged tests fail, and 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Left out of each copy: version control, caches and benchmark outputs.
SKIPPED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "build", "out", "work")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments: node ids, files, or "-k" and an expression
    equivalent: str = ""  # why the mutant cannot change a result, if it cannot


ALGEBRA = "src/qgraph/algebra.py"
GRAPHS = "src/qgraph/graphs.py"
COMMUTANT_TESTS = ("tests/test_check_report.py", "-k", "kron_reference")
NORMAL_FORM_TESTS = ("tests/test_check_report.py", "-k", "normal_form", "tests/test_algebra.py")
EDGE_BASIS_TESTS = ("tests/test_check_report.py", "-k", "edge_basis")
CORRELATIONS = "src/qgraph/correlations.py"
LINALG = "src/qgraph/linalg.py"
SYNC_TESTS = ("tests/test_check_report.py", "-k", "sync_and_identities_match_reference_loops")

MUTANTS = (
    Mutant(
        "commutant: no merge gap between h's eigenvalues",
        ALGEBRA,
        "gap = GENERIC_WINDOW * GENERIC_ZERO * max(1.0, float(np.abs(w).max()))",
        "gap = 0.0",
        COMMUTANT_TESTS,
    ),
    Mutant(
        "commutant: conj dropped on W in W C W*",
        ALGEBRA,
        "return (v @ comm @ v.conj().T)",
        "return (v @ comm @ v.T)",
        COMMUTANT_TESTS,
    ),
    Mutant(
        "commutant: conj dropped on W in W* b W",
        ALGEBRA,
        "bt = v.conj().T @ basis @ v",
        "bt = v.T @ basis @ v",
        COMMUTANT_TESTS,
    ),
    Mutant(
        "commutant: rank floor from the restricted map's largest singular value",
        ALGEBRA,
        "max(NULLSPACE_FLOOR * norm, NULLSPACE_ABS_FLOOR)",
        "max(NULLSPACE_FLOOR * s[0], NULLSPACE_ABS_FLOOR)",
        COMMUTANT_TESTS,
    ),
    Mutant(
        "commutant: [b, Y] written as [Y, b]",
        ALGEBRA,
        "image[:, :, cols, units] = bt[:, :, rows]\n    image[:, rows, :, units] -= ",
        "image[:, :, cols, units] = -bt[:, :, rows]\n    image[:, rows, :, units] += ",
        COMMUTANT_TESTS,
        equivalent="[Y, b] = -[b, Y] has the same nullspace",
    ),
    Mutant(
        "commutant: h taken from one basis element",
        ALGEBRA,
        "x = _generic(basis, rng)",
        "x = basis[0]",
        NORMAL_FORM_TESTS,
        equivalent="any Hermitian h in the algebra has A' inside {h}'; a non-generic h only enlarges {h}'",
    ),
    Mutant(
        "edge basis: commutant units in reversed order",
        GRAPHS,
        "matrices[same] = commutant(alg)",
        "matrices[same] = commutant(alg)[::-1]",
        EDGE_BASIS_TESTS,
    ),
    Mutant(
        "edge basis: adjacency basis not taken to the canonical frame",
        GRAPHS,
        "z = alg.to_canonical(g._adjacency_basis)",
        "z = g._adjacency_basis",
        EDGE_BASIS_TESTS,
    ),
    Mutant(
        "identity (2): no conjugation",
        CORRELATIONS,
        "    np.conjugate(swapped, out=swapped)\n",
        "",
        SYNC_TESTS,
    ),
    Mutant(
        "identity (2): (i, j) not swapped",
        CORRELATIONS,
        "swapped = t.transpose(0, 1, 3, 2, 5, 4).copy()",
        "swapped = t.transpose(0, 1, 2, 3, 5, 4).copy()",
        SYNC_TESTS,
    ),
    Mutant(
        "identity (4): summed after the a = b blocks are zeroed",
        CORRELATIONS,
        "    diag_sum = worst_residual(np.abs(np.einsum(\"saaij->sij\", sums) - np.eye(n)))[0]\n"
        "    sums.reshape(2, c * c, n, n)[:, :: c + 1] = 0.0\n",
        "    sums.reshape(2, c * c, n, n)[:, :: c + 1] = 0.0\n"
        "    diag_sum = worst_residual(np.abs(np.einsum(\"saaij->sij\", sums) - np.eye(n)))[0]\n",
        SYNC_TESTS,
    ),
    Mutant(
        "identity (1): positivity reads only -Re",
        CORRELATIONS,
        "np.maximum(np.abs(entries.imag), -entries.real)",
        "-entries.real",
        SYNC_TESTS,
    ),
    Mutant(
        "check_synchronous: diagonal taken after fill_diagonal",
        CORRELATIONS,
        "    diag = cross.trace() / x.n\n    np.fill_diagonal(cross, 0.0)\n",
        "    np.fill_diagonal(cross, 0.0)\n    diag = cross.trace() / x.n\n",
        SYNC_TESTS,
    ),
    Mutant(
        "worst_residual: NaN not read as inf without axes",
        LINALG,
        "return (np.inf if worst != worst else worst), None",
        "return worst, None",
        ("tests/test_check_report.py::test_worst_residual_nan_counts_as_infinity",),
    ),
)


def copy_tree(dest: str) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(*SKIPPED))


def child_env(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def imports_from(tree: str) -> bool:
    """Whether the copy's own qgraph is the one imported there, not an installed one."""
    code = "import qgraph; print(qgraph.__file__)"
    out = subprocess.run([sys.executable, "-c", code], cwd=tree, env=child_env(tree),
                         capture_output=True, text=True, timeout=60)
    return out.returncode == 0 and os.path.realpath(out.stdout.strip()).startswith(os.path.realpath(tree))


def run_tests(tree: str, tests: tuple[str, ...]) -> int:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=child_env(tree), capture_output=True, timeout=600).returncode


def apply(tree: str, mutant: Mutant) -> str | None:
    """Apply the edit in the copy; an error message if it does not apply."""
    path = os.path.join(tree, mutant.file)
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        return f"`old` occurs {count} times in {mutant.file}"
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    return None


def main() -> int:
    start, faults = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="qgraph-mutants-") as scratch:
        baseline = os.path.join(scratch, "unchanged")
        copy_tree(baseline)
        if not imports_from(baseline):
            print("FAULT     a copy of the tree does not import its own qgraph")
            return 1
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            if run_tests(baseline, tests) != 0:
                print(f"FAULT     the unchanged tree fails {' '.join(tests)}")
                faults += 1
        for i, mutant in enumerate(MUTANTS):
            tree = os.path.join(scratch, f"mutant{i}")
            copy_tree(tree)
            error = apply(tree, mutant)
            if error:
                print(f"FAULT     {mutant.name}: {error}")
                faults += 1
                continue
            # pytest exits 1 when a test fails and 2 when a module fails to import.
            killed = run_tests(tree, mutant.tests) in (1, 2)
            if killed:
                verdict = "killed"
            elif mutant.equivalent:
                verdict = "survived (equivalent)"
            else:
                verdict = "SURVIVED"
                faults += 1
            print(f"{verdict:9s} {mutant.name}" + (f"  [{mutant.equivalent}]" if mutant.equivalent else ""))
            shutil.rmtree(tree)
    unmarked = sum(1 for m in MUTANTS if not m.equivalent)
    print(f"{len(MUTANTS)} mutants ({unmarked} unmarked), {faults} faults, {time.perf_counter() - start:.0f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
