"""Benchmark of the qgraph verifier: three seeded workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload game-ladder --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --check            # one pass of every workload, all checks

Each run is a closed loop: one process, one job at a time.  It attempts whole
passes over the workload's job list, starting another only if it would end
within --seconds, checks every verdict, and prints as its last line one JSON
object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a traced run reports the per-layer
ones (see README.md).
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
WORKLOAD_NAMES = ("game-ladder", "rigidity-ladder", "cli-roundtrip")

END_TO_END = ("setup_s", "jobs_per_s", "job_p50_s", "largest_job_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "largest_job_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "linalg.check_measurement", "algebra.normal_form", "graphs.validate", "graphs.edge_basis",
    "strategies.is_loc", "correlations.outcome_probability", "correlations.correlation_from_trace",
    "correlations.correlation_from_tensor", "correlations.synchronous_identities",
    "homgame.verify_structural", "homgame.verify_operational", "homgame.check_game_algebra_rep",
    "colorings.shift_multiply_coloring", "colorings.teleport_coloring", "colorings.rigidity_check",
    "colorings.chromatic_bounds", "serialize.parse", "serialize.emit",
)
LAYER_CALLS = (
    "linalg.hs_norm", "algebra.project_onto_span", "graphs.validate", "strategies.is_loc",
    "correlations.outcome_probability",
)
LAYER_BYTES = ("serialize.bytes_in", "serialize.bytes_out")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def probe_import_s() -> float:
    """Time of `import qgraph.cli` (numpy included) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import qgraph.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def probe_process_start_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qgraph.cli", "--version"], cwd=ROOT, env=child_env(),
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - start


def ref_loop_s() -> float:
    """A fixed loop of numpy products and Python arithmetic that calls no qgraph code."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    acc = 0.0
    start = time.perf_counter()
    for i in range(10000):
        c = a @ b
        acc += abs(complex(c[i % 16, 0])) * 1e-9 + (i % 7) * 0.5
    return time.perf_counter() - start


class Workload:
    """Makes each pass's inputs and holds what its jobs need (the CLI runner, a work dir)."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.name, self.seed, self.wl = name, seed, workloads
        self.workdir = os.path.join(HERE, "work", f"{name}-{os.getpid()}")
        self.runner = workloads.SubprocessCli(ROOT) if name == "cli-roundtrip" else None
        self.next_pass = 0
        self.first = None

    def make(self, p: int):
        wl = self.wl
        if self.name == "game-ladder":
            return wl.game_ladder(self.seed, p)
        if self.name == "rigidity-ladder":
            return wl.rigidity_ladder(self.seed, p)
        return wl.cli_roundtrip(self.seed, p, self.pass_dir(p), lambda argv: self.runner(argv))

    def setup(self, repeats: int) -> float:
        """Make the first pass's inputs several times; the median time of one."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.first = self.make(0)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def run_passes(self, run_one, stop) -> list:
        """Whole passes, each on fresh inputs, until stop(last pass's seconds) is true."""
        out = []
        while True:
            p = self.next_pass
            self.next_pass += 1
            start = time.perf_counter()
            inputs = self.first if p == 0 and self.first is not None else self.make(p)
            try:
                out.append(run_one(inputs))
            finally:
                shutil.rmtree(self.pass_dir(p), ignore_errors=True)
            if stop(time.perf_counter() - start):
                return out

    def pass_dir(self, p: int) -> str:
        return os.path.join(self.workdir, f"pass{p}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))  # only when no other run uses it
        except OSError:
            pass


class PassResult:
    def __init__(self):
        self.times: list[float] = []
        self.largest_times: list[float] = []  # the jobs of the workload's largest case

    @property
    def jobs(self) -> int:
        return len(self.times)

    @property
    def largest(self) -> float:
        return statistics.fmean(self.largest_times)

    @property
    def busy_s(self) -> float:
        return sum(self.times)


def run_pass(inputs, tally, tracer=None) -> PassResult:
    import checks

    result = PassResult()
    for job in inputs.jobs:
        if tracer is not None:
            tracer.case = job.case
        start = time.perf_counter()
        try:
            verdicts, out = job.run()
        except Exception:  # a job must end in a verdict; record how it did not
            verdicts, out = {"error": traceback.format_exc(limit=4)}, None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.case = None
        mismatches = checks.compare_verdicts(verdicts, job.expected)
        if "error" in verdicts:
            mismatches.append(verdicts["error"])
        if out is not None:
            mismatches += job.check(out)
        tally.record(job.label, mismatches, job.known_fault)
        result.times.append(elapsed)
        if job.largest:
            result.largest_times.append(elapsed)
    return result


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    import checks
    import numpy as np

    checks.negative_control()
    tally = checks.Tally()
    workload = Workload(name, seed)
    try:
        import_s = statistics.median(probe_import_s() for _ in range(9))
        generate_s = workload.setup(repeats=5)
        ref_s = statistics.median(ref_loop_s() for _ in range(3))
        info = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas_name(np), "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "import_s": import_s, "generate_s": generate_s, "ref_loop_s": ref_s,
            "jobs_per_pass": len(workload.first.jobs),
        }
        start = time.perf_counter()
        # Start a pass only if one more like the last would end in time, so a
        # run lasts about --seconds; the first pass always runs.
        time_up = lambda last: time.perf_counter() - start + last > seconds  # noqa: E731
        if trace:
            metrics, rows = traced(workload, tally, time_up, info)
            metrics["bench.ref_loop_s"] = {"value": ref_s, "unit": "s"}
        else:
            done = workload.run_passes(lambda inp: run_pass(inp, tally), time_up)
            metrics = end_to_end(name, done, import_s + generate_s)
            info["passes"] = len(done)
            info["pass_busy_s"] = [r.busy_s for r in done]
            rows = []
        if tally.problems:
            info["problems"] = tally.problems[:20]
        result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                  "metrics": metrics}
        return result, info, rows
    finally:
        workload.close()


def end_to_end(name: str, done: list[PassResult], setup_s: float) -> dict:
    times = [t for r in done for t in r.times]
    if name == "cli-roundtrip":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "jobs_per_s": sum(r.jobs for r in done) / sum(r.busy_s for r in done),
        "job_p50_s": statistics.median(times),
        "largest_job_s": statistics.median(r.largest for r in done),
        "peak_rss_mb": rss_kb / 1024,
    }
    return {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}


def traced(workload, tally, time_up, info):
    """An untraced pass as the baseline, then traced passes until the time is up."""
    import tracer as tracing
    import workloads

    once = lambda last: True  # noqa: E731
    untraced = lambda inp: run_pass(inp, tally)  # noqa: E731
    metrics = {"cli.child_cpu_s": 0.0, "cli.wait_s": 0.0}
    baseline = workload.run_passes(untraced, once)
    if workload.name == "cli-roundtrip":
        # The subprocess pass gives the cli.* figures; the baseline for the
        # tracing overhead is an untraced in-process pass.
        metrics["cli.child_cpu_s"] = workload.runner.child_cpu_s
        metrics["cli.wait_s"] = workload.runner.wait_s
        workload.runner = workloads.InProcessCli()
        baseline = workload.run_passes(untraced, once)
    metrics["cli.process_start_s"] = statistics.median(probe_process_start_s() for _ in range(3))

    tr = tracing.Tracer()
    if workload.name == "cli-roundtrip":
        workload.runner = workloads.InProcessCli(tr)
    snapshots = []

    def one_traced(inputs):
        tr.pass_index += 1
        res = run_pass(inputs, tally, tr)
        snapshots.append((dict(tr.self_s), dict(tr.calls), inputs.cases))
        tr.self_s.clear()
        tr.calls.clear()
        return res

    tr.install()
    try:
        done = workload.run_passes(one_traced, time_up)
    finally:
        tr.uninstall()

    untraced_rate = sum(r.jobs for r in baseline) / sum(r.busy_s for r in baseline)
    traced_rate = sum(r.jobs for r in done) / sum(r.busy_s for r in done)
    info.update(passes=workload.next_pass, traced_passes=len(done),
                untraced_jobs_per_s=untraced_rate, traced_jobs_per_s=traced_rate)

    def per_pass(index, layer):
        return [sum(v for (_, name), v in snap[index].items() if name == layer) for snap in snapshots]

    for layer in LAYER_TIMES:
        metrics[f"{layer}_s"] = float(statistics.median(per_pass(0, layer)))
    # Call counts do not depend on the numbers drawn, so every traced pass must
    # give the same ones.  Byte counts follow the lengths of printed floats.
    counts_repeat = True
    for layer in LAYER_CALLS:
        counts = per_pass(1, layer)
        counts_repeat &= len(set(counts)) == 1
        metrics[f"{layer}_calls"] = counts[0]
    for layer in LAYER_BYTES:
        metrics[layer] = per_pass(1, layer)[0]
    info["counts_repeat"] = counts_repeat
    metrics["bench.trace_overhead"] = untraced_rate / traced_rate - 1.0

    def unit(key):
        if key.startswith("serialize.bytes"):
            return "B"
        if key.endswith("_calls"):
            return "count"
        return "ratio" if key == "bench.trace_overhead" else "s"

    rows = case_rows(snapshots)
    write_trace(workload, tr, rows, info)
    return {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}, rows


def case_rows(snapshots) -> list[dict]:
    """Per-case self times and counts, averaged over the traced passes."""
    rows = defaultdict(lambda: defaultdict(float))
    for self_s, calls, _ in snapshots:
        for (case, layer), v in self_s.items():
            rows[case][f"{layer}_s"] += v / len(snapshots)
        for (case, layer), v in calls.items():
            key = layer if layer in LAYER_BYTES else f"{layer}_calls"
            rows[case][key] += v / len(snapshots)
    sizes = snapshots[-1][2]
    out = []
    for case, values in rows.items():
        row = {"case": case}
        if case in sizes:
            row.update(vars(sizes[case]))
        row.update(values)
        out.append(row)
    return out


def write_trace(workload, tr, rows, info) -> None:
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"trace-{workload.name}-seed{workload.seed}-{os.getpid()}.json")
    spans = [dict(zip(("name", "start", "end", "parent", "pass", "case"), s)) for s in tr.spans]
    with open(path, "w") as fh:
        json.dump({"info": info, "rows": rows, "spans": spans}, fh)
    info["trace_file"] = os.path.relpath(path, ROOT)


def _blas_name(np) -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def check_all(seed: int) -> int:
    """One pass of every workload with all its checks, for quick use during development."""
    import checks

    checks.negative_control()
    ok = True
    for name in WORKLOAD_NAMES:
        tally = checks.Tally()
        workload = Workload(name, seed)
        start = time.perf_counter()
        try:
            res = workload.run_passes(lambda inp: run_pass(inp, tally), lambda last: True)[0]
        finally:
            workload.close()
        line = {"workload": name, "correct": tally.correct, "attempted": tally.attempted,
                "failed": tally.failed, "seconds": round(time.perf_counter() - start, 3),
                "largest_job_s": res.largest, "problems": tally.problems}
        print(json.dumps(line))
        ok &= tally.correct
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run every workload once with all its checks and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qgraph", "__init__.py")):
        print(f"qgraph sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.check:
        return check_all(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --check is given")
    result, info, rows = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for row in rows:
        print(json.dumps({"case_row": row}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
