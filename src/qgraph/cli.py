"""Command-line surface: construct, serialize, and verify every artifact.

Exit codes: 0 on pass, 1 on verification failure (well-formed input that
fails a check or a mathematical precondition), 2 on malformed input (schema
violations report a JSON pointer to the offending field).

The default tolerance is 1e-9; the QGRAPH_TOL environment variable overrides
it and the --tol flag overrides both.  A tolerance above MAX_TOL is malformed
input: it would let a far-from-valid strategy pass.
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
from .linalg import ROUNDING_SLACK, Check, CheckReport, Tolerance, check_measurement
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
from .strategies import bob_from_alice, corner_compress, dilate_block_povm, round_almost_pvm

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


def _cmd_validate(args) -> int:
    tol = _tolerance(args)
    reports = [
        {"input": path, **validate(graph_from_json(_load_json(path)), tol).to_dict()}
        for path in args.inputs
    ]
    _emit(reports if len(reports) > 1 else reports[0], args.out)
    return PASS if all(r["pass"] for r in reports) else FAIL


def _cmd_edge_basis(args) -> int:
    tol = _tolerance(args)
    g = graph_from_json(_load_json(args.input))
    basis = edge_basis(g, tol)
    report = {
        "block_dims": list(basis.block_dims),
        "elements": [
            {
                "matrix": matrix_to_json(e.matrix),
                "tag": e.tag,
                "block": list(e.block),
            }
            for e in basis.elements
        ],
    }
    _emit(report, args.out)
    return PASS


def _cmd_dilate(args) -> int:
    tol = _tolerance(args)
    ops, n, h = povm_from_json(_load_json(args.input))
    c = len(ops)
    dilated = dilate_block_povm(ops, n=n, h=h, tol=tol)
    corner = [np.linalg.norm(corner_compress(p, n, c, h) - q) for p, q in zip(dilated, ops)]
    rep = CheckReport(
        check_measurement(dilated, tol).checks
        + (Check.of("corner", corner, Tolerance(tol.eps * ROUNDING_SLACK), "a"),)
    )
    report = {
        "n": n,
        "c": c,
        "h": h,
        "projections": [matrix_to_json(p) for p in dilated],
        **rep.to_dict(),
    }
    _emit(report, args.out)
    return PASS if rep.passed else FAIL


def _cmd_round_pvm(args) -> int:
    tol = _tolerance(args)
    ops = ops_from_json(_load_json(args.input))
    rounded, distance = round_almost_pvm(ops)
    report = {
        "projections": [matrix_to_json(q) for q in rounded],
        "input": check_measurement(ops, tol).to_dict(),
        "max_distance_2norm": distance,
    }
    _emit(report, args.out)
    return PASS


def _cmd_color(args) -> int:
    tol = _tolerance(args)
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
    _emit(report, args.out)
    return PASS if rep.passed else FAIL


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


def _cmd_verify_hom(args) -> int:
    tol = _tolerance(args)
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
    _emit({**report, "pass": ok}, args.out)
    return PASS if ok else FAIL


def _cmd_correlation(args) -> int:
    strat = strategy_from_json(_load_json(args.strategy))
    if getattr(args, "source", "trace") == "tensor":
        x = correlation_from_tensor(bob_from_alice(strat))
    else:
        x = correlation_from_trace(strat)
    _emit(correlation_to_json(x), args.out)
    return PASS


def _cmd_check_sync(args) -> int:
    tol = _tolerance(args)
    x = correlation_from_json(_load_json(args.input))
    rep = check_synchronous(x, tol)
    report = {
        "synchronous": rep.synchronous,
        "diagonal_residual": rep.diagonal_residual,
        "cross_residual": rep.cross_residual,
        "normalization_residual": x.normalization_residual(),
    }
    _emit(report, args.out)
    return PASS if rep.synchronous else FAIL


def _cmd_identities(args) -> int:
    tol = _tolerance(args)
    x = correlation_from_json(_load_json(args.input))
    rep = synchronous_identities(x, tol)
    report = {
        "pass": rep.passed(tol),
        "positivity_defect": rep.positivity_defect,
        "conjugation_residual": rep.conjugation_residual,
        "offdiag_row_residual": rep.offdiag_row_residual,
        "diag_sum_residual": rep.diag_sum_residual,
    }
    _emit(report, args.out)
    return PASS if rep.passed(tol) else FAIL


def _cmd_compress(args) -> int:
    tol = _tolerance(args)
    x = correlation_from_json(_load_json(args.input))
    p = compress_to_classical(x, tol)
    _emit(classical_correlation_to_json(p), args.out)
    return PASS


def _cmd_embed(args) -> int:
    families, ancilla = families_from_json(_load_json(args.input))
    strat = embed_classical(families, ancilla)
    _emit(strategy_to_json(strat), args.out)
    return PASS


def _cmd_bisync(args) -> int:
    tol = _tolerance(args)
    p = classical_correlation_from_json(_load_json(args.input))
    rep = check_bisynchronous(p, tol)
    _emit(rep.to_dict(), args.out)
    return PASS if rep.passed else FAIL


def _cmd_extract_channel(args) -> int:
    tol = _tolerance(args)
    inst = _game_instance(args)
    strat = strategy_from_json(_load_json(args.strategy))
    rep = extract_channel(inst, strat, tol)
    report = {
        "num_kraus": rep.num_kraus,
        "kraus": [matrix_to_json(f) for f in rep.kraus],
        "choi": matrix_to_json(rep.choi),
        "completeness_residual": rep.completeness_residual,
        "subset_residual": rep.subset_residual,
    }
    _emit(report, args.out)
    return PASS


def _cmd_compose(args) -> int:
    tol = _tolerance(args)
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
    _emit(report, args.out)
    return PASS if ok else FAIL


def _cmd_bounds(args) -> int:
    tol = _tolerance(args)
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
    _emit(report, args.out)
    return PASS if rep.passed else FAIL


def _cmd_rigidity(args) -> int:
    tol = _tolerance(args)
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
        "rigidity": [matrix_to_json(m) for m in rep.rigidity],
    }
    _emit(report, args.out)
    return PASS if rep.passed(tol) else FAIL


def _cmd_classical_chromatic(args) -> int:
    g = classical_graph_from_json(_load_json(args.input))
    _emit({"chromatic_number": chromatic_number(g)}, args.out)
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Quantum graphs, homomorphism games, and verified colorings.",
    )
    parser.add_argument("--version", action="version", version=f"qgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--tol", type=float, default=None, help=f"absolute tolerance (Frobenius scale), at most {MAX_TOL}"
        )
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p = sub.add_parser("validate", help="check quantum graph invariants")
    p.add_argument("inputs", nargs="+", help="quantum graph JSON file(s)")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("edge-basis", help="quantum edge basis of a quantum graph")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_edge_basis)

    p = sub.add_parser("dilate", help="dilate a block POVM to a block PVM")
    p.add_argument("input", help='JSON {"n", "h", "ops"}')
    common(p)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("round-pvm", help="round almost-projections to an exact PVM")
    p.add_argument("input", help='JSON {"ops"}')
    common(p)
    p.set_defaults(func=_cmd_round_pvm)

    p = sub.add_parser("color", help="construct an explicit coloring strategy")
    p.add_argument("--method", choices=["teleport", "shift-multiply", "abelian-loc"], required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--algebra", default=None, help="VnAlgebra JSON file")
    common(p)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify-hom", help="verify a homomorphism-game strategy")
    p.add_argument("--graph", required=True, help="source quantum graph JSON")
    p.add_argument("--target", default=None, help="target classical graph JSON")
    p.add_argument("--complete", type=int, default=None, help="use the complete target K_c")
    p.add_argument("--strategy", required=True, help="BlockStrategy JSON")
    p.add_argument("--mode", choices=["structural", "operational", "both", "algebra"], default="both")
    common(p)
    p.set_defaults(func=_cmd_verify_hom)

    p = sub.add_parser("correlation", help="correlation of a strategy")
    p.add_argument("--from", dest="source", choices=["trace", "tensor"], default="trace")
    p.add_argument("--strategy", required=True)
    common(p)
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("check-sync", help="synchronicity of a correlation")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_check_sync)

    p = sub.add_parser("identities", help="synchronous-correlation identity suite")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("compress", help="compress a correlation to classical inputs")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("embed", help="embed classical POVM families as a block strategy")
    p.add_argument("input", help='JSON {"n", "c", "h", "families"}')
    common(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("bisync", help="bisynchronicity of a classical correlation")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_bisync)

    p = sub.add_parser("extract-channel", help="Kraus/Choi channel of a winning strategy")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--complete", type=int, default=None)
    p.add_argument("--strategy", required=True)
    common(p)
    p.set_defaults(func=_cmd_extract_channel)

    p = sub.add_parser("compose", help="compose a strategy with a Hom(K_c, K_r) representation")
    p.add_argument("--strategy", required=True)
    p.add_argument("--map", required=True, help='JSON {"c", "r", "ancilla", "f"}')
    p.add_argument("--graph", default=None, help="re-verify against this source graph")
    common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("bounds", help="certified chromatic bounds with witnesses")
    p.add_argument("input", help="quantum graph JSON")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("rigidity", help="trace rigidity of a complete-graph coloring")
    p.add_argument("--algebra", required=True)
    p.add_argument("--strategy", required=True)
    common(p)
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("classical-chromatic", help="brute-force chromatic number")
    p.add_argument("input", help="classical graph JSON")
    common(p)
    p.set_defaults(func=_cmd_classical_chromatic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "pointer": exc.pointer}), file=sys.stderr)
        return MALFORMED
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
