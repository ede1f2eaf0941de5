import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import block_mixing_strategy, random_block_strategy, random_povm
from qgraph import ClassicalGraph, TracialAncilla, VnAlgebra, embed_classical, graph_operator_system
from qgraph import cli
from qgraph.cli import main
from qgraph.colorings import complete_quantum_graph
from qgraph.serialize import (
    algebra_to_json,
    classical_graph_to_json,
    graph_to_json,
    matrix_to_json,
    strategy_to_json,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def m2_graph_file(tmp_path):
    g = complete_quantum_graph(VnAlgebra(n=2, blocks=((1, 2),)))
    return write(tmp_path, "m2.json", graph_to_json(g))


def test_color_then_verify_roundtrip(tmp_path, m2_graph_file, capsys):
    strat_path = str(tmp_path / "strategy.json")
    assert main(["color", "--method", "teleport", "--d", "1", "--k", "2", "--out", strat_path]) == 0
    doc = read(strat_path)
    assert doc["pass"] and doc["colors"] == 4

    inner = write(tmp_path, "inner.json", doc["strategy"])
    code = main(
        ["verify-hom", "--graph", m2_graph_file, "--complete", "4", "--strategy", inner]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["pass"] and out["structural"]["pass"] and out["operational"]["pass"]


def test_validate_failure_names_check(tmp_path, capsys):
    alg = {"n": 2, "blocks": [{"mult": 1, "dim": 2}], "unitary": None}
    doc = {
        "n": 2,
        "algebra": alg,
        "s_basis": [matrix_to_json(np.array([[0, 1], [1, 0]], dtype=complex))],
        "traceless": False,
    }
    path = write(tmp_path, "bad.json", doc)
    assert main(["validate", path]) == 1
    out = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in out["checks"] if not c["pass"]]
    assert "operator_system" in failed


def test_validate_multiple_files(tmp_path, capsys):
    g = graph_operator_system(ClassicalGraph.cycle(4))
    p1 = write(tmp_path, "a.json", graph_to_json(g))
    p2 = write(tmp_path, "b.json", graph_to_json(g))
    assert main(["validate", p1, p2]) == 0
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out, list) and len(out) == 2


def test_classical_chromatic(tmp_path, capsys):
    path = write(tmp_path, "c5.json", classical_graph_to_json(ClassicalGraph.cycle(5)))
    assert main(["classical-chromatic", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"chromatic_number": 3}


def test_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    path2 = write(tmp_path, "schema.json", {"n": 2})
    assert main(["validate", path2]) == 2
    err = capsys.readouterr().err
    assert "algebra" in err  # JSON pointer to the missing field


@pytest.mark.parametrize("verb", ["verify-hom", "extract-channel"])
@pytest.mark.parametrize("flags, pointer", [(["--complete", "-1"], "--complete"),
                                            (["--target", "TARGET", "--complete", "4"], "--target")])
def test_malformed_target_flags_exit_2_with_pointer(tmp_path, m2_graph_file, capsys, verb, flags, pointer):
    target = write(tmp_path, "k4.json", classical_graph_to_json(ClassicalGraph.complete(4)))
    strategy = write(tmp_path, "strategy.json", {})
    flags = [target if f == "TARGET" else f for f in flags]
    assert main([verb, "--graph", m2_graph_file, *flags, "--strategy", strategy]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["pointer"] == pointer


@pytest.mark.parametrize("d, k", [("0", "2"), ("2", "-1")])
def test_teleport_with_non_positive_size_exits_2(capsys, d, k):
    assert main(["color", "--method", "teleport", "--d", d, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["pointer"] == "--d/--k"


def test_dilate_command(tmp_path, capsys):
    rng = np.random.default_rng(90)
    povm = random_povm(rng, 4, 2)
    path = write(tmp_path, "povm.json", {"n": 2, "h": 2, "ops": [matrix_to_json(q) for q in povm]})
    assert main(["dilate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"]
    corner = out["checks"][-1]
    assert corner["name"] == "corner" and corner["max_residual"] < 1e-10


def test_round_pvm_command(tmp_path, capsys):
    path = write(
        tmp_path,
        "ops.json",
        {"ops": [matrix_to_json(np.eye(2) / 2), matrix_to_json(np.eye(2) / 2)]},
    )
    assert main(["round-pvm", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["projections"]) == 2
    failed = [c["name"] for c in out["input"]["checks"] if not c["pass"]]
    assert failed == ["idempotency", "orthogonality"] and abs(out["max_distance_2norm"] - 0.5) <= 1e-12


@pytest.mark.parametrize(
    "ops, pointer",
    [([np.eye(2), np.eye(3)], "/ops/1"), ([np.ones((1, 3))], "/ops/0")],
    ids=["two sizes", "1x3"],
)
def test_round_pvm_refuses_ops_of_other_shapes_with_pointer(tmp_path, capsys, ops, pointer):
    path = write(tmp_path, "ops.json", {"ops": [matrix_to_json(m) for m in ops]})
    assert main(["round-pvm", path]) == 2
    assert json.loads(capsys.readouterr().err)["pointer"] == pointer


def test_correlation_paths_agree(tmp_path, capsys):
    rng = np.random.default_rng(91)
    s = random_block_strategy(rng, 2, 2, (2,))
    path = write(tmp_path, "s.json", strategy_to_json(s))
    assert main(["correlation", "--from", "trace", "--strategy", path]) == 0
    x1 = json.loads(capsys.readouterr().out)
    assert main(["correlation", "--from", "tensor", "--strategy", path]) == 0
    x2 = json.loads(capsys.readouterr().out)
    a1 = np.asarray(x1["X"], dtype=float)
    a2 = np.asarray(x2["X"], dtype=float)
    assert np.abs(a1 - a2).max() < 1e-10


@pytest.mark.parametrize("source", ["trace", "tensor"])
def test_correlation_refuses_a_strategy_outside_its_ancilla_algebra(tmp_path, capsys, source):
    s = block_mixing_strategy(np.random.default_rng(92))
    assert s.ancilla_block_defect() > 0.1
    path = write(tmp_path, "s.json", strategy_to_json(s))
    assert main(["correlation", "--from", source, "--strategy", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "ancilla_block_defect" in json.loads(err)["error"]


def test_check_sync_and_identities_and_compress(tmp_path, capsys):
    rng = np.random.default_rng(92)
    s = random_block_strategy(rng, 2, 2, (2,))
    spath = write(tmp_path, "s.json", strategy_to_json(s))
    corr_path = str(tmp_path / "corr.json")
    assert main(["correlation", "--strategy", spath, "--out", corr_path]) == 0
    assert main(["check-sync", corr_path]) == 0
    sync = json.loads(capsys.readouterr().out)
    assert sync["synchronous"]
    assert main(["identities", corr_path]) == 0
    idr = json.loads(capsys.readouterr().out)
    assert idr["pass"]
    out_path = str(tmp_path / "classical.json")
    assert main(["compress", corr_path, "--out", out_path]) == 0
    assert read(out_path)["n"] == 2


def test_embed_and_bisync(tmp_path, capsys):
    perm = [1, 0]
    families = [
        [matrix_to_json(np.array([[1.0 if perm[x] == a else 0.0]])) for a in range(2)]
        for x in range(2)
    ]
    fpath = write(tmp_path, "fam.json", {"n": 2, "c": 2, "h": 1, "families": families})
    spath = str(tmp_path / "emb.json")
    assert main(["embed", fpath, "--out", spath]) == 0
    corr_path = str(tmp_path / "c.json")
    assert main(["correlation", "--strategy", spath, "--out", corr_path]) == 0
    cls_path = str(tmp_path / "cls.json")
    assert main(["compress", corr_path, "--out", cls_path]) == 0
    assert main(["bisync", cls_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] and [c["name"] for c in out["checks"]] == ["synchronous", "bisynchronous"]


def test_embed_refuses_an_ancilla_of_another_dim_with_pointer(tmp_path, capsys):
    # The example operators act on C^1, so an M_2 ancilla is malformed input.
    doc = json.loads((EXAMPLES / "families.json").read_text())
    doc["ancilla"] = {"block_dims": [2]}
    assert main(["embed", write(tmp_path, "fam.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["pointer"] == "/ancilla"


def test_embed_refuses_a_family_outside_its_ancilla_algebra(tmp_path, capsys):
    # E_0 = |+><+| and E_1 = 1 - E_0 on C^2 are not block diagonal over the ancilla
    # C + C, so embed refuses the strategy it would write, with correlation's error.
    plus = np.full((2, 2), 0.5)
    families = [[plus, np.eye(2) - plus]]
    doc = {"n": 1, "c": 2, "h": 2, "families": [[matrix_to_json(e) for e in families[0]]],
           "ancilla": {"block_dims": [1, 1]}}
    assert main(["embed", write(tmp_path, "fam.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "ancilla_block_defect" in json.loads(err)["error"]
    strategy = strategy_to_json(embed_classical(families, TracialAncilla((1, 1))))
    assert main(["correlation", "--strategy", write(tmp_path, "s.json", strategy)]) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("case, failed", [("negative operator", "positivity"), ("family summing to 0", "sum")])
def test_embed_refuses_a_family_that_is_not_a_povm(tmp_path, capsys, case, failed):
    if case == "negative operator":  # 2 and -1 sum to 1, but -1 is not positive
        doc = {"n": 1, "c": 2, "h": 1, "families": [[[[[2.0, 0.0]]], [[[-1.0, 0.0]]]]]}
    else:  # the example with its first operator set to 0
        doc = json.loads((EXAMPLES / "families.json").read_text())
        doc["families"][0][0] = [[[0.0, 0.0]]]
    assert main(["embed", write(tmp_path, "fam.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert "input family 0 is not a POVM" in error and failed in error
    assert main(["embed", str(EXAMPLES / "families.json")]) == 0


def test_extract_channel_command(tmp_path, m2_graph_file, capsys):
    strat_path = str(tmp_path / "s.json")
    main(["color", "--method", "teleport", "--d", "1", "--k", "2", "--out", strat_path])
    inner = write(tmp_path, "inner.json", read(strat_path)["strategy"])
    assert (
        main(
            [
                "extract-channel",
                "--graph",
                m2_graph_file,
                "--complete",
                "4",
                "--strategy",
                inner,
            ]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["num_kraus"] == 4
    assert "completeness_residual" not in out


def test_compose_command(tmp_path, m2_graph_file, capsys):
    strat_path = str(tmp_path / "s.json")
    main(["color", "--method", "teleport", "--d", "1", "--k", "2", "--out", strat_path])
    inner = write(tmp_path, "inner.json", read(strat_path)["strategy"])
    perm = [1, 2, 3, 0]
    fdoc = {
        "c": 4,
        "r": 4,
        "ancilla": {"block_dims": [1], "trace_weights": [1.0]},
        "f": [
            [matrix_to_json(np.array([[1.0 if perm[a] == v else 0.0]])) for v in range(4)]
            for a in range(4)
        ],
    }
    fpath = write(tmp_path, "f.json", fdoc)
    assert main(["compose", "--strategy", inner, "--map", fpath, "--graph", m2_graph_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verification"]["pass"]


def test_bounds_command(tmp_path, capsys):
    g = graph_operator_system(ClassicalGraph.cycle(5))
    path = write(tmp_path, "c5.json", graph_to_json(g))
    assert main(["bounds", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"]
    oracle = [b for b in out["bounds"] if b["method"] == "classical_oracle"]
    assert oracle and oracle[0]["colors"] == 3


def test_rigidity_command(tmp_path, capsys):
    alg_path = write(tmp_path, "alg.json", algebra_to_json(VnAlgebra(n=2, blocks=((1, 2),))))
    strat_path = str(tmp_path / "s.json")
    main(["color", "--method", "teleport", "--d", "1", "--k", "2", "--out", strat_path])
    inner = write(tmp_path, "inner.json", read(strat_path)["strategy"])
    assert main(["rigidity", "--algebra", alg_path, "--strategy", inner]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] and out["minimal"]


def test_tolerance_env_and_flag(tmp_path, monkeypatch, capsys):
    # A PVM perturbed at the 1e-6 scale passes at a loose tolerance and
    # fails at the default.
    p = np.diag([1.0, 0.0]) + 1e-6 * np.diag([1.0, -1.0])
    q = np.diag([0.0, 1.0])
    g = complete_quantum_graph(VnAlgebra(n=2, blocks=((1, 1), (1, 1))))
    gpath = write(tmp_path, "g.json", graph_to_json(g))
    sdoc = {
        "n": 2,
        "c": 2,
        "ancilla": {"block_dims": [1], "trace_weights": [1.0]},
        "projections": [matrix_to_json(p), matrix_to_json(q)],
    }
    spath = write(tmp_path, "s.json", sdoc)
    args = ["verify-hom", "--graph", gpath, "--complete", "2", "--strategy", spath, "--mode", "structural"]
    assert main(args) == 1
    capsys.readouterr()
    monkeypatch.setenv("QGRAPH_TOL", "1e-3")
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--tol", "1e-9"]) == 1
    capsys.readouterr()


def test_verify_reports_are_bit_stable(tmp_path, m2_graph_file, capsys):
    strat_path = str(tmp_path / "s.json")
    main(["color", "--method", "teleport", "--d", "1", "--k", "2", "--out", strat_path])
    inner = write(tmp_path, "inner.json", read(strat_path)["strategy"])
    args = ["verify-hom", "--graph", m2_graph_file, "--complete", "4", "--strategy", inner]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

# (arguments, file to corrupt, field set to a non-finite number, expected pointer);
# FILE stands for the corrupted copy.  Matrix pointers name the [re, im] pair.
NON_FINITE_CASES = [
    (["validate", "FILE"], "quantum_graph.json", "/s_basis/1/0/1/0", "/s_basis/1/0/1"),
    (["color", "--method", "shift-multiply", "--algebra", "FILE"], "algebra.json",
     "/unitary/1/1/1", "/unitary/1/1"),
    (["verify-hom", "--graph", "quantum_graph.json", "--complete", "4", "--strategy", "FILE"],
     "strategy.json", "/projections/2/3/1/0", "/projections/2/3/1"),
    (["verify-hom", "--graph", "quantum_graph.json", "--complete", "4", "--strategy", "FILE"],
     "strategy.json", "/ancilla/trace_weights/0", "/ancilla/trace_weights/0"),
    (["check-sync", "FILE"], "correlation.json", "/X/0/1/0/0/0/0/1", "/X/0/1/0/0/0/0/1"),
    (["bisync", "FILE"], "classical_correlation.json", "/p/1/0/0/0", "/p/1/0/0/0"),
    (["dilate", "FILE"], "povm.json", "/ops/1/0/1/1", "/ops/1/0/1"),
    (["round-pvm", "FILE"], "almost_pvm.json", "/ops/0/1/1/0", "/ops/0/1/1"),
    (["embed", "FILE"], "families.json", "/families/1/0/0/0/0", "/families/1/0/0/0"),
    (["compose", "--strategy", "strategy.json", "--map", "FILE"], "hom_map.json",
     "/f/0/1/0/0/0", "/f/0/1/0/0"),
]


def _set_field(doc, pointer, value):
    keys = [int(k) if k.isdigit() else k for k in pointer.strip("/").split("/")]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999", "1" + "0" * 400])
@pytest.mark.parametrize(
    "argv, example, field, pointer", NON_FINITE_CASES, ids=[c[0][0] + ":" + c[3] for c in NON_FINITE_CASES]
)
def test_non_finite_input_exits_2_with_pointer(tmp_path, capsys, argv, example, field, pointer, literal):
    doc = json.loads((EXAMPLES / example).read_text())
    if example == "algebra.json":
        doc["unitary"] = matrix_to_json(np.eye(doc["n"]))
    sentinel = 123456.5
    _set_field(doc, field, sentinel)
    path = tmp_path / example
    path.write_text(json.dumps(doc).replace(json.dumps(sentinel), literal))
    args = [str(path) if a == "FILE" else str(EXAMPLES / a) if a.endswith(".json") else a for a in argv]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)["pointer"]
    # An integer beyond the float range in an array parsed in one piece (the
    # correlations) is reported at the array; everything else at the entry.
    assert err == pointer or (literal.isdigit() and pointer.startswith(err + "/"))


def test_traceless_bell_example_fails_operational_and_has_no_channel(capsys):
    # M = C (+) C with the traceless S = span{E_01, E_10}: the same-vertex inputs of M'
    # catch the Bell PVM, whose P_a leave M (x) M_2.
    files = ["--graph", str(EXAMPLES / "traceless_graph.json"), "--complete", "4",
             "--strategy", str(EXAMPLES / "bell_strategy.json")]
    assert main(["validate", str(EXAMPLES / "traceless_graph.json")]) == 0
    capsys.readouterr()
    assert main(["verify-hom", *files, "--mode", "operational"]) == 1
    assert abs(json.loads(capsys.readouterr().out)["operational"]["checks"][0]["max_residual"] - 0.5) <= 1e-12
    assert main(["extract-channel", *files]) == 1
    assert "subset conditions" in json.loads(capsys.readouterr().err)["error"]


def test_rotated_scalar_example_wins_against_k1(capsys):
    # M = C I_2 in a rotated frame and S = M_2 = M': S n (M')perp = 0, so P_0 = 1 wins.
    files = ["--graph", str(EXAMPLES / "rotated_scalar_graph.json"), "--complete", "1",
             "--strategy", str(EXAMPLES / "one_colour_strategy.json")]
    assert main(["validate", str(EXAMPLES / "rotated_scalar_graph.json")]) == 0
    for mode in ("both", "algebra"):
        assert main(["verify-hom", *files, "--mode", mode]) == 0, mode
    capsys.readouterr()
    assert main(["edge-basis", str(EXAMPLES / "rotated_scalar_graph.json")]) == 0
    tags = [e["tag"] for e in json.loads(capsys.readouterr().out)["elements"]]
    assert tags == ["same_vertex"] * 4


@pytest.mark.parametrize(
    "tol_args, env",
    [(["--tol", "inf"], None), (["--tol", "nan"], None), (["--tol", "1e300"], None), ([], "1e300")],
)
def test_tolerance_that_passes_anything_is_refused(tmp_path, m2_graph_file, monkeypatch, capsys, tol_args, env):
    zero = np.zeros((2, 2))
    sdoc = {
        "n": 2,
        "c": 4,
        "ancilla": {"block_dims": [1], "trace_weights": [1.0]},
        "projections": [matrix_to_json(zero)] * 4,
    }
    spath = write(tmp_path, "zero.json", sdoc)
    args = ["verify-hom", "--graph", m2_graph_file, "--complete", "4", "--strategy", spath]
    assert main(args) == 1
    capsys.readouterr()
    if env is not None:
        monkeypatch.setenv("QGRAPH_TOL", env)
    assert main(args + tol_args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == ("--tol" if tol_args else "QGRAPH_TOL")


def test_validate_has_no_jobs_option(tmp_path):
    path = write(tmp_path, "c4.json", graph_to_json(graph_operator_system(ClassicalGraph.cycle(4))))
    with pytest.raises(SystemExit) as exc:
        main(["validate", path, "--jobs", "2"])
    assert exc.value.code == 2


def test_overflowing_residual_exits_1_without_invalid_json(tmp_path, m2_graph_file, capsys):
    # Finite input whose products overflow: the report cannot be strict JSON.
    big = 1e200 * np.eye(2)
    sdoc = {
        "n": 2,
        "c": 4,
        "ancilla": {"block_dims": [1], "trace_weights": [1.0]},
        "projections": [matrix_to_json(big)] * 4,
    }
    spath = write(tmp_path, "big.json", sdoc)
    args = ["verify-hom", "--graph", m2_graph_file, "--complete", "4", "--strategy", spath,
            "--mode", "structural"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


# Every verb that plays the game, on S = span{E_00} over D_3 (not an operator system) with
# the diagonal 3-colouring; COLOURING and MAP are files the test writes.
NOT_A_GRAPH_CASES = [
    *(["verify-hom", "--graph", "not_a_graph.json", "--complete", "3", "--strategy", "COLOURING", "--mode", mode]
      for mode in ("structural", "operational", "algebra", "both")),
    ["extract-channel", "--graph", "not_a_graph.json", "--complete", "3", "--strategy", "COLOURING"],
    ["bounds", "not_a_graph.json"],
    ["compose", "--strategy", "COLOURING", "--map", "MAP", "--graph", "not_a_graph.json"],
]


@pytest.mark.parametrize("argv", NOT_A_GRAPH_CASES, ids=" ".join)
def test_every_game_verb_refuses_a_graph_that_fails_validate(tmp_path, capsys, argv):
    assert main(["color", "--method", "abelian-loc", "--algebra", str(EXAMPLES / "abelian_algebra.json"),
                 "--out", str(tmp_path / "colour.json")]) == 0
    files = {
        "COLOURING": write(tmp_path, "colouring.json", read(tmp_path / "colour.json")["strategy"]),
        # The identity representation of Hom(K_3, K_3) over a trivial ancilla.
        "MAP": write(tmp_path, "map.json", {
            "c": 3, "r": 3, "ancilla": {"block_dims": [1], "trace_weights": [1.0]},
            "f": [[matrix_to_json(np.eye(1) * (a == v)) for v in range(3)] for a in range(3)],
        }),
    }
    assert main([files.get(a, a) for a in _example_args(argv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("quantum graph fails validation")


NUMBER = r"-?\d+(\.\d+)?(e-?\d+)?"


@pytest.mark.parametrize(
    "argv, example, key", [(["check-sync"], "correlation.json", "X"), (["bisync"], "classical_correlation.json", "p")]
)
@pytest.mark.parametrize("leaf", ["string", "all-boolean", "mixed boolean"])
def test_array_loaders_reject_non_numbers(tmp_path, capsys, argv, example, key, leaf):
    doc = json.loads((EXAMPLES / example).read_text())
    numbers = _numeric_leaves(doc[key], "/" + key)
    text = json.dumps(doc[key])
    if leaf == "string":  # the first number becomes "0.5", say
        text = re.sub(NUMBER, lambda m: json.dumps(m.group()), text, count=1)
    elif leaf == "all-boolean":
        text = re.sub(NUMBER, "true", text)
    doc[key] = json.loads(text)
    # Each fault is named at its number: the first in C order, or the one true among the numbers.
    replaced = numbers[-1 if leaf == "mixed boolean" else 0]
    if leaf == "mixed boolean":
        _set_field(doc, replaced, True)
    assert main(argv + [write(tmp_path, example, doc)]) == 2
    assert json.loads(capsys.readouterr().err)["pointer"] == replaced


# Every verb that writes a report, run on the example files (each ".json" names
# one); every case exits 0, so the example strategy and map compose.
EMIT_CASES = [
    ["validate", "quantum_graph.json"],
    ["validate", "quantum_graph.json", "quantum_graph.json"],
    ["edge-basis", "quantum_graph.json"],
    ["dilate", "povm.json"],
    ["round-pvm", "almost_pvm.json"],
    ["color", "--method", "teleport", "--d", "1", "--k", "2"],
    ["color", "--method", "shift-multiply", "--algebra", "algebra.json"],
    ["verify-hom", "--graph", "quantum_graph.json", "--complete", "4", "--strategy", "strategy.json"],
    ["verify-hom", "--graph", "quantum_graph.json", "--complete", "4", "--strategy", "strategy.json",
     "--mode", "algebra"],
    ["correlation", "--strategy", "strategy.json"],
    ["correlation", "--from", "tensor", "--strategy", "strategy.json"],
    ["check-sync", "correlation.json"],
    ["identities", "correlation.json"],
    ["compress", "correlation.json"],
    ["embed", "families.json"],
    ["bisync", "classical_correlation.json"],
    ["extract-channel", "--graph", "quantum_graph.json", "--complete", "4", "--strategy", "strategy.json"],
    ["compose", "--strategy", "strategy.json", "--map", "hom_map.json", "--graph", "quantum_graph.json"],
    ["bounds", "quantum_graph.json"],
    ["rigidity", "--algebra", "algebra.json", "--strategy", "strategy.json"],
    ["color", "--method", "abelian-loc", "--algebra", "abelian_algebra.json"],
    ["classical-chromatic", "classical_graph.json"],
]


def _example_args(argv):
    return [str(EXAMPLES / a) if a.endswith(".json") else a for a in argv]


def _layout_reference(report) -> str:
    """The report as the stdlib's indented encoder writes it, each array that
    holds no object put back on one line with no spaces."""
    arrays = []

    def mark(v):
        if isinstance(v, dict):
            return {k: mark(x) for k, x in v.items()}
        if isinstance(v, list) and any(isinstance(x, dict) for x in v):
            return [mark(x) for x in v]
        if isinstance(v, list):
            arrays.append(json.dumps(v, separators=(",", ":")))
            return f"@array{len(arrays) - 1}@"
        return v

    text = json.dumps(mark(report), indent=2, sort_keys=True)
    return re.sub(r'"@array(\d+)@"', lambda m: arrays[int(m.group(1))], text)


@pytest.mark.parametrize("argv", EMIT_CASES, ids=" ".join)
def test_emitter_matches_the_indented_encoder(monkeypatch, capsys, argv):
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, out: emitted.append(report) or emit(report, out))
    assert main(_example_args(argv)) == 0
    out = capsys.readouterr().out
    (report,) = emitted
    # The same JSON value as the indented encoder it replaces ...
    assert json.loads(out) == json.loads(json.dumps(report, indent=2, sort_keys=True))
    # ... in its layout: sorted keys and one object entry per line, with
    # numeric arrays on a single line.
    assert out == _layout_reference(report) + "\n"


@pytest.mark.parametrize("argv", EMIT_CASES, ids=" ".join)
def test_every_verb_refuses_a_malformed_tolerance(tmp_path, monkeypatch, capsys, argv):
    # main resolves the tolerance for every verb, even one that reads none.
    monkeypatch.delenv("QGRAPH_TOL", raising=False)
    args = _example_args(argv)
    for extra, env, pointer in ((["--tol", "1e300"], None, "--tol"), ([], "nan", "QGRAPH_TOL")):
        with monkeypatch.context() as m:
            if env is not None:
                m.setenv("QGRAPH_TOL", env)
            assert main(args + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["pointer"] == pointer
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


# Each example input of EMIT_CASES, with the first case that reads it (FILE).
INPUT_CASES = {}
for _argv in EMIT_CASES:
    for _i, _arg in enumerate(_argv):
        if _arg.endswith(".json"):
            INPUT_CASES.setdefault(_arg, _argv[:_i] + ["FILE"] + _argv[_i + 1 :])


def _numeric_leaves(node, path=""):
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _numeric_leaves(v, f"{path}/{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _numeric_leaves(v, f"{path}/{i}")]
    return [] if isinstance(node, bool) or not isinstance(node, (int, float)) else [path]


@pytest.mark.parametrize("example", sorted(INPUT_CASES))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_non_finite_leaf_anywhere_exits_2_with_a_pointer_above_it(tmp_path, capsys, example, data):
    doc = json.loads((EXAMPLES / example).read_text())
    leaf = data.draw(st.sampled_from(_numeric_leaves(doc)), label="leaf")
    literal = data.draw(
        st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "true", "false", "null", '"0.5"']), label="literal"
    )
    sentinel = 123456.5
    _set_field(doc, leaf, sentinel)
    path = tmp_path / example
    path.write_text(json.dumps(doc).replace(json.dumps(sentinel), literal))
    assert main([str(path) if a == "FILE" else a for a in _example_args(INPUT_CASES[example])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    pointer = json.loads(captured.err)["pointer"]
    assert leaf == pointer or leaf.startswith(pointer + "/")


def test_emitter_layout_by_hand():
    report = {"b": [[1.0, 2.5], [3, 4]], "a": [{"y": 1, "x": None}], "c": {}, "d": [], "e": "s"}
    assert cli._dumps(report) == (
        '{\n  "a": [\n    {\n      "x": null,\n      "y": 1\n    }\n  ],\n'
        '  "b": [[1.0,2.5],[3,4]],\n  "c": {},\n  "d": [],\n  "e": "s"\n}'
    )


@pytest.mark.parametrize("source", ["trace", "tensor"])
def test_non_finite_entry_of_a_numeric_array_exits_1_without_output(tmp_path, capsys, source):
    # Finite input whose correlation overflows: X cannot be strict JSON.
    sdoc = {
        "n": 2,
        "c": 4,
        "ancilla": {"block_dims": [1], "trace_weights": [1.0]},
        "projections": [matrix_to_json(1e200 * np.eye(2))] * 4,
    }
    spath = write(tmp_path, "big.json", sdoc)
    out_path = tmp_path / "x.json"
    for extra in ([], ["--out", str(out_path)]):
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["correlation", "--from", source, "--strategy", spath] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in json.loads(captured.err)
    assert not out_path.exists()
