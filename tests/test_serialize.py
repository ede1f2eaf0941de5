import json

import numpy as np
import pytest

from helpers import random_block_strategy
from qgraph import ClassicalGraph, VnAlgebra, correlation_from_trace, graph_operator_system
from qgraph.correlations import compress_to_classical
from qgraph.serialize import (
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    classical_correlation_from_json,
    classical_correlation_to_json,
    classical_graph_from_json,
    classical_graph_to_json,
    correlation_from_json,
    correlation_to_json,
    graph_from_json,
    graph_to_json,
    matrix_from_json,
    matrix_to_json,
    strategy_from_json,
    strategy_to_json,
)


def test_matrix_roundtrip():
    rng = np.random.default_rng(80)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m), ""), m)


def test_matrix_schema_errors():
    with pytest.raises(SchemaError) as exc:
        matrix_from_json([[[1.0]]], "/m")
    assert exc.value.pointer == "/m/0/0"
    with pytest.raises(SchemaError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "/m")
    with pytest.raises(SchemaError):
        matrix_from_json([], "/m")


def test_algebra_roundtrip():
    alg = VnAlgebra(n=4, blocks=((1, 2), (2, 1)))
    back = algebra_from_json(algebra_to_json(alg))
    assert back.blocks == alg.blocks and back.n == 4 and back.unitary is None


def test_algebra_rejects_degenerate():
    with pytest.raises(SchemaError):
        algebra_from_json({"n": 3, "blocks": [{"mult": 1, "dim": 2}], "unitary": None})


def test_graph_roundtrip():
    g = graph_operator_system(ClassicalGraph.cycle(4))
    back = graph_from_json(graph_to_json(g))
    assert back.n == g.n and len(back.s_basis) == len(g.s_basis)
    for a, b in zip(back.s_basis, g.s_basis):
        np.testing.assert_array_equal(a, b)


def test_classical_graph_roundtrip():
    g = ClassicalGraph.cycle(5)
    assert classical_graph_from_json(classical_graph_to_json(g)) == g
    with pytest.raises(SchemaError) as exc:
        classical_graph_from_json({"vertices": 2, "edges": [[0, 0]]})
    assert "edges" in exc.value.pointer


def test_strategy_roundtrip():
    rng = np.random.default_rng(81)
    s = random_block_strategy(rng, 2, 2, (2, 1))
    back = strategy_from_json(strategy_to_json(s))
    assert back.n == s.n and back.c == s.c
    assert back.ancilla.block_dims == s.ancilla.block_dims
    np.testing.assert_allclose(back.ancilla.trace_weights, s.ancilla.trace_weights)
    for a, b in zip(back.projections, s.projections):
        np.testing.assert_array_equal(a, b)


def test_strategy_bad_projection_count():
    rng = np.random.default_rng(82)
    s = random_block_strategy(rng, 2, 2, (1,))
    doc = strategy_to_json(s)
    doc["projections"] = doc["projections"][:1]
    with pytest.raises(SchemaError) as exc:
        strategy_from_json(doc)
    assert exc.value.pointer == "/projections"


def test_correlation_roundtrip_bitstable():
    rng = np.random.default_rng(83)
    s = random_block_strategy(rng, 2, 2, (2,))
    x = correlation_from_trace(s)
    back = correlation_from_json(correlation_to_json(x))
    np.testing.assert_array_equal(back.tensor, x.tensor)


def test_classical_correlation_roundtrip():
    rng = np.random.default_rng(84)
    s = random_block_strategy(rng, 2, 2, (2,))
    p = compress_to_classical(correlation_from_trace(s))
    back = classical_correlation_from_json(classical_correlation_to_json(p))
    np.testing.assert_array_equal(back.p, p.p)


def test_correlation_shape_checked():
    with pytest.raises(SchemaError) as exc:
        correlation_from_json({"n": 2, "c": 1, "X": [[[0.0, 0.0]]]})
    assert exc.value.pointer == "/X"


def _old_matrix_to_json(m):
    """The per-entry comprehension that matrix_to_json replaced."""
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _old_correlation_to_json(x):
    """The six-deep comprehension that correlation_to_json replaced."""
    t = x.tensor
    data = [
        [
            [
                [
                    [[[float(z.real), float(z.imag)] for z in t[a, b, i, j, k]] for k in range(x.n)]
                    for j in range(x.n)
                ]
                for i in range(x.n)
            ]
            for b in range(x.c)
        ]
        for a in range(x.c)
    ]
    return {"n": x.n, "c": x.c, "X": data}


def test_complex_json_is_byte_identical_to_the_per_entry_comprehension():
    rng = np.random.default_rng(81)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    m[0, 0] = complex(-0.0, 0.0)
    m[0, 1] = complex(0.0, -0.0)
    m[1, 2] = complex(5e-324, -1.7976931348623157e308)
    m[2, 3] = complex(1 / 3, 1e16)
    for mat in (m, np.eye(2), [[1, 2], [3, 4]]):
        assert json.dumps(matrix_to_json(mat), indent=2) == json.dumps(_old_matrix_to_json(mat), indent=2)
    x = correlation_from_trace(random_block_strategy(rng, 2, 3, (1, 2)))
    x = type(x)(n=x.n, c=x.c, tensor=np.where(np.abs(x.tensor) < 1e-3, complex(-0.0, -0.0), x.tensor))
    assert json.dumps(correlation_to_json(x), indent=2) == json.dumps(_old_correlation_to_json(x), indent=2)
