"""Command-line surface: construct, serialize, and verify every artifact.

Exit codes: 0 on pass, 1 on verification failure (well-formed input that
fails a check or a mathematical precondition), 2 on malformed input (schema
violations report a JSON pointer to the offending field).

The default tolerance is 1e-9; the QGRAPH_TOL environment variable overrides
it and the --tol flag overrides both.  A tolerance above MAX_TOL is malformed
input: it would let a far-from-valid strategy pass.

Every verb is a function (args, tol) -> (report, ok) that writes nothing.
main alone resolves the tolerance, so a malformed one exits 2 for every verb,
even one that reads no tolerance; it then emits the report and maps ok to the
exit code, the same way for every verb.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .colorings import (
    abelian_loc_coloring,
    chromatic_bounds,
    rigidity_check,
    shift_multiply_coloring,
    teleport_coloring,
)
from .correlations import (
    check_bisynchronous,
    check_synchronous,
    compress_to_classical,
    correlation_from_tensor,
    correlation_from_trace,
    embed_classical,
    synchronous_identities,
)
from .graphs import ClassicalGraph, chromatic_number, edge_basis, validate
from .homgame import GameInstance, check_game_algebra_rep, compose_reps, extract_channel, verify_operational, verify_structural
from .linalg import POVM_CHECKS, ROUNDING_SLACK, Check, CheckReport, Tolerance, check_measurement
from .serialize import (
    SchemaError,
    algebra_from_json,
    classical_correlation_from_json,
    classical_correlation_to_json,
    classical_graph_from_json,
    correlation_from_json,
    correlation_to_json,
    families_from_json,
    graph_from_json,
    hom_rep_from_json,
    matrix_to_json,
    ops_from_json,
    povm_from_json,
    strategy_from_json,
    strategy_to_json,
)
from .strategies import BlockStrategy, bob_from_alice, corner_compress, dilate_block_povm, round_almost_pvm

PASS, FAIL, MALFORMED = 0, 1, 2

# The largest tolerance accepted from --tol or QGRAPH_TOL.  Internal checks
# widen the tolerance by up to linalg.ROUNDING_SLACK, which keeps them at or below 0.1.
MAX_TOL = 1e-3


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(path, "file not found")
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}")


def _dumps(obj, indent: str = "") -> str:
    """Strict JSON text of a report, with sorted keys.

    Objects, and arrays that hold an object, put one entry per line at a
    two-space indent.  Every other value, numeric arrays included, is one
    line from json's C encoder: json.dumps with an indent runs its
    pure-Python encoder, one call per nested array.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{inner}{json.dumps(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj)]
    elif isinstance(obj, list) and any(isinstance(v, dict) for v in obj):
        items = [inner + _dumps(v, inner) for v in obj]
    else:
        return json.dumps(obj, separators=(",", ":"), sort_keys=True, allow_nan=False)
    opening, closing = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    return opening + "\n" + ",\n".join(items) + "\n" + indent + closing


def _emit(report, out_path: str | None):
    text = _dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _tolerance(args) -> Tolerance:
    if args.tol is not None:
        pointer, raw = "--tol", args.tol
    elif "QGRAPH_TOL" in os.environ:
        pointer, raw = "QGRAPH_TOL", os.environ["QGRAPH_TOL"]
    else:
        return Tolerance()
    try:
        tol = Tolerance(float(raw))
    except ValueError as exc:
        raise SchemaError(pointer, f"invalid tolerance {raw!r}: {exc}") from exc
    if tol.eps > MAX_TOL:
        raise SchemaError(pointer, f"tolerance {tol.eps} exceeds the cap {MAX_TOL}")
    return tol


def _cmd_validate(args, tol):
    reports = [
        {"input": path, **validate(graph_from_json(_load_json(path)), tol).to_dict()}
        for path in args.inputs
    ]
    return reports if len(reports) > 1 else reports[0], all(r["pass"] for r in reports)


def _cmd_edge_basis(args, tol):
    g = graph_from_json(_load_json(args.input))
    basis = edge_basis(g, tol)
    elements = [
        {"matrix": matrix_to_json(y), "tag": tag, "block": list(block)}
        for y, tag, block in zip(basis.matrices, basis.tags, basis.blocks)
    ]
    return {"block_dims": list(basis.block_dims), "elements": elements}, True


def _cmd_dilate(args, tol):
    ops, n, h = povm_from_json(_load_json(args.input))
    c = len(ops)
    dilated = dilate_block_povm(ops, n=n, h=h, tol=tol)
    corner = np.linalg.norm(corner_compress(dilated, n, c, h) - ops, axis=(-2, -1))
    rep = CheckReport(
        check_measurement(dilated, tol).checks
        + (Check.of("corner", corner, Tolerance(tol.eps * ROUNDING_SLACK), "a"),)
    )
    report = {
        "n": n,
        "c": c,
        "h": h,
        "projections": matrix_to_json(dilated),
        **rep.to_dict(),
    }
    return report, rep.passed


def _cmd_round_pvm(args, tol):
    ops = ops_from_json(_load_json(args.input))
    rounded, distance = round_almost_pvm(ops)
    report = {
        "projections": matrix_to_json(rounded),
        "input": check_measurement(ops, tol).to_dict(),
        "max_distance_2norm": distance,
    }
    return report, True


def _cmd_color(args, tol):
    if args.method == "teleport":
        if args.d is None or args.k is None:
            raise SchemaError("--d/--k", "teleport coloring needs --d and --k")
        if args.d < 1 or args.k < 1:
            raise SchemaError("--d/--k", f"need d, k >= 1, got ({args.d}, {args.k})")
        strat = teleport_coloring(args.d, args.k)
    else:
        if args.algebra is None:
            raise SchemaError("--algebra", f"{args.method} coloring needs --algebra")
        alg = algebra_from_json(_load_json(args.algebra))
        if args.method == "shift-multiply":
            strat = shift_multiply_coloring(alg)
        else:
            strat = abelian_loc_coloring(alg)
    rep = strat.measurement_report(tol)
    report = {
        "method": args.method,
        "colors": strat.c,
        "strategy": strategy_to_json(strat),
        **rep.to_dict(),
    }
    return report, rep.passed


def _game_instance(args) -> GameInstance:
    if args.target is not None and args.complete is not None:
        raise SchemaError("--target", "give --target FILE or --complete C, not both")
    if args.complete is not None and args.complete < 0:
        raise SchemaError("--complete", f"vertex count must be nonnegative, got {args.complete}")
    source = graph_from_json(_load_json(args.graph))
    if args.target is not None:
        target = classical_graph_from_json(_load_json(args.target))
    elif args.complete is not None:
        target = ClassicalGraph.complete(args.complete)
    else:
        raise SchemaError("--target", "need --target FILE or --complete C")
    return GameInstance(source=source, target=target)


def _cmd_verify_hom(args, tol):
    inst = _game_instance(args)
    strat = strategy_from_json(_load_json(args.strategy))
    verifiers = {
        "structural": verify_structural,
        "operational": verify_operational,
        "algebra": check_game_algebra_rep,
    }
    modes = ("structural", "operational") if args.mode == "both" else (args.mode,)
    report = {mode: verifiers[mode](inst, strat, tol).to_dict() for mode in modes}
    ok = all(r["pass"] for r in report.values())
    return {**report, "pass": ok}, ok


def _in_ancilla_algebra(strat: BlockStrategy, tol) -> BlockStrategy:
    """The strategy, once its operators are block diagonal over its ancilla within tol."""
    defect = strat.ancilla_block_defect()
    if not defect <= tol.eps:
        raise ValueError(f"strategy leaves its ancilla algebra (ancilla_block_defect {defect:.3e})")
    return strat


def _cmd_correlation(args, tol):
    strat = _in_ancilla_algebra(strategy_from_json(_load_json(args.strategy)), tol)
    if args.source == "tensor":
        x = correlation_from_tensor(bob_from_alice(strat))
    else:
        x = correlation_from_trace(strat)
    return correlation_to_json(x), True


def _cmd_check_sync(args, tol):
    x = correlation_from_json(_load_json(args.input))
    rep = check_synchronous(x, tol)
    report = {
        "synchronous": rep.synchronous,
        "diagonal_residual": rep.diagonal_residual,
        "cross_residual": rep.cross_residual,
        "normalization_residual": x.normalization_residual(),
    }
    return report, rep.synchronous


def _cmd_identities(args, tol):
    x = correlation_from_json(_load_json(args.input))
    rep = synchronous_identities(x, tol)
    report = {
        "pass": rep.passed(tol),
        "positivity_defect": rep.positivity_defect,
        "conjugation_residual": rep.conjugation_residual,
        "offdiag_row_residual": rep.offdiag_row_residual,
        "diag_sum_residual": rep.diag_sum_residual,
    }
    return report, rep.passed(tol)


def _cmd_compress(args, tol):
    x = correlation_from_json(_load_json(args.input))
    p = compress_to_classical(x, tol)
    return classical_correlation_to_json(p), True


def _cmd_embed(args, tol):
    families, ancilla = families_from_json(_load_json(args.input))
    for x, family in enumerate(families):
        failed = check_measurement(family, tol).failures(POVM_CHECKS)
        if failed:
            raise ValueError(f"input family {x} is not a POVM within tolerance: {failed}")
    strat = _in_ancilla_algebra(embed_classical(families, ancilla), tol)
    return strategy_to_json(strat), True


def _cmd_bisync(args, tol):
    p = classical_correlation_from_json(_load_json(args.input))
    rep = check_bisynchronous(p, tol)
    return rep.to_dict(), rep.passed


def _cmd_extract_channel(args, tol):
    inst = _game_instance(args)
    strat = strategy_from_json(_load_json(args.strategy))
    rep = extract_channel(inst, strat, tol)
    report = {
        "num_kraus": rep.num_kraus,
        "kraus": matrix_to_json(rep.kraus),
        "choi": matrix_to_json(rep.choi),
        "subset_residual": rep.subset_residual,
    }
    return report, True


def _cmd_compose(args, tol):
    strat = strategy_from_json(_load_json(args.strategy))
    f, ancilla = hom_rep_from_json(_load_json(args.map))
    composed = compose_reps(strat, f, ancilla, tol)
    report = {"strategy": strategy_to_json(composed)}
    ok = True
    if args.graph is not None:
        inst = GameInstance(
            source=graph_from_json(_load_json(args.graph)),
            target=ClassicalGraph.complete(composed.c),
        )
        r = verify_structural(inst, composed, tol)
        report["verification"] = r.to_dict()
        ok = r.passed
    return report, ok


def _cmd_bounds(args, tol):
    g = graph_from_json(_load_json(args.input))
    rep = chromatic_bounds(g, tol)
    report = {
        "pass": rep.passed,
        "bounds": [
            {
                "model": b.model,
                "colors": b.colors,
                "method": b.method,
                "exact": b.exact,
                "witness": strategy_to_json(b.witness),
                "verification": b.verification.to_dict(),
            }
            for b in rep.bounds
        ],
        "notes": list(rep.notes),
    }
    return report, rep.passed


def _cmd_rigidity(args, tol):
    alg = algebra_from_json(_load_json(args.algebra))
    strat = strategy_from_json(_load_json(args.strategy))
    rep = rigidity_check(strat, alg, tol)
    report = {
        "pass": rep.passed(tol),
        "colors": rep.colors,
        "model": rep.model,
        "minimal": rep.minimal,
        "idempotent_residual": rep.idempotent_residual,
        "block_sum_residual": rep.block_sum_residual,
        "total_sum_residual": rep.total_sum_residual,
        "trace_covariance_residual": rep.trace_covariance_residual,
        "rigidity": matrix_to_json(rep.rigidity),
    }
    return report, rep.passed(tol)


def _cmd_classical_chromatic(args, tol):
    g = classical_graph_from_json(_load_json(args.input))
    return {"chromatic_number": chromatic_number(g)}, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Quantum graphs, homomorphism games, and verified colorings.",
    )
    parser.add_argument("--version", action="version", version=f"qgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--tol", type=float, default=None, help=f"absolute tolerance (Frobenius scale), at most {MAX_TOL}"
        )
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        p.set_defaults(func=func)
        return p

    def game(p):
        p.add_argument("--graph", required=True, help="source quantum graph JSON")
        p.add_argument("--target", default=None, help="target classical graph JSON")
        p.add_argument("--complete", type=int, default=None, help="use the complete target K_c")
        p.add_argument("--strategy", required=True, help="BlockStrategy JSON")
        return p

    verb("validate", _cmd_validate, "check quantum graph invariants").add_argument(
        "inputs", nargs="+", help="quantum graph JSON file(s)"
    )
    verb("edge-basis", _cmd_edge_basis, "quantum edge basis of a quantum graph").add_argument("input")
    verb("dilate", _cmd_dilate, "dilate a block POVM to a block PVM").add_argument(
        "input", help='JSON {"n", "h", "ops"}'
    )
    verb("round-pvm", _cmd_round_pvm, "round almost-projections to an exact PVM").add_argument(
        "input", help='JSON {"ops"}'
    )

    p = verb("color", _cmd_color, "construct an explicit coloring strategy")
    p.add_argument("--method", choices=["teleport", "shift-multiply", "abelian-loc"], required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--algebra", default=None, help="VnAlgebra JSON file")

    p = game(verb("verify-hom", _cmd_verify_hom, "verify a homomorphism-game strategy"))
    p.add_argument("--mode", choices=["structural", "operational", "both", "algebra"], default="both")

    p = verb("correlation", _cmd_correlation, "correlation of a strategy")
    p.add_argument("--from", dest="source", choices=["trace", "tensor"], default="trace")
    p.add_argument("--strategy", required=True)

    verb("check-sync", _cmd_check_sync, "synchronicity of a correlation").add_argument("input")
    verb("identities", _cmd_identities, "synchronous-correlation identity suite").add_argument("input")
    verb("compress", _cmd_compress, "compress a correlation to classical inputs").add_argument("input")
    verb("embed", _cmd_embed, "embed classical POVM families as a block strategy").add_argument(
        "input", help='JSON {"n", "c", "h", "families"}'
    )
    verb("bisync", _cmd_bisync, "bisynchronicity of a classical correlation").add_argument("input")
    game(verb("extract-channel", _cmd_extract_channel, "Kraus/Choi channel of a winning strategy"))

    p = verb("compose", _cmd_compose, "compose a strategy with a Hom(K_c, K_r) representation")
    p.add_argument("--strategy", required=True)
    p.add_argument("--map", required=True, help='JSON {"c", "r", "ancilla", "f"}')
    p.add_argument("--graph", default=None, help="re-verify against this source graph")

    verb("bounds", _cmd_bounds, "certified chromatic bounds with witnesses").add_argument(
        "input", help="quantum graph JSON"
    )
    p = verb("rigidity", _cmd_rigidity, "trace rigidity of a complete-graph coloring")
    p.add_argument("--algebra", required=True)
    p.add_argument("--strategy", required=True)
    verb("classical-chromatic", _cmd_classical_chromatic, "brute-force chromatic number").add_argument(
        "input", help="classical graph JSON"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, ok = args.func(args, _tolerance(args))
        _emit(report, args.out)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "pointer": exc.pointer}), file=sys.stderr)
        return MALFORMED
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return FAIL
    return PASS if ok else FAIL


if __name__ == "__main__":
    sys.exit(main())
