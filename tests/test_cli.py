import json
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import random_block_strategy, random_povm
from qgraph import ClassicalGraph, VnAlgebra, graph_operator_system
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
    assert doc["pvm"] and doc["colors"] == 4

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


def test_dilate_command(tmp_path, capsys):
    rng = np.random.default_rng(90)
    povm = random_povm(rng, 4, 2)
    path = write(tmp_path, "povm.json", {"n": 2, "h": 2, "ops": [matrix_to_json(q) for q in povm]})
    assert main(["dilate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pvm"] and out["corner_residual"] < 1e-10


def test_round_pvm_command(tmp_path, capsys):
    path = write(
        tmp_path,
        "ops.json",
        {"ops": [matrix_to_json(np.eye(2) / 2), matrix_to_json(np.eye(2) / 2)]},
    )
    assert main(["round-pvm", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["projections"]) == 2


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
    assert json.loads(capsys.readouterr().out)["bisynchronous"]


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
    assert out["completeness_residual"] < 1e-10


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


NUMBER = r"-?\d+(\.\d+)?(e-?\d+)?"


@pytest.mark.parametrize(
    "argv, example, key", [(["check-sync"], "correlation.json", "X"), (["bisync"], "classical_correlation.json", "p")]
)
@pytest.mark.parametrize("leaf", ["string", "all-boolean"])
def test_array_loaders_reject_non_numbers(tmp_path, capsys, argv, example, key, leaf):
    doc = json.loads((EXAMPLES / example).read_text())
    text = json.dumps(doc[key])
    if leaf == "string":  # the first number becomes "0.5", say
        text = re.sub(NUMBER, lambda m: json.dumps(m.group()), text, count=1)
    else:
        text = re.sub(NUMBER, "true", text)
    doc[key] = json.loads(text)
    assert main(argv + [write(tmp_path, example, doc)]) == 2
    assert json.loads(capsys.readouterr().err)["pointer"] == "/" + key
