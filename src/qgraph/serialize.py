"""JSON (de)serialization for every file format the CLI consumes or emits.

Complex scalars serialize as two-element real arrays [re, im]; matrices as
row-major nested arrays of those pairs.  Loaders validate shapes and types
and raise SchemaError carrying a JSON pointer to the offending field.
"""

from __future__ import annotations

import numpy as np

from .algebra import VnAlgebra
from .correlations import ClassicalCorrelation, Correlation
from .graphs import ClassicalGraph, QuantumGraph
from .strategies import BlockStrategy, TracialAncilla

__all__ = [
    "SchemaError",
    "matrix_to_json",
    "matrix_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "graph_to_json",
    "graph_from_json",
    "classical_graph_to_json",
    "classical_graph_from_json",
    "strategy_to_json",
    "strategy_from_json",
    "correlation_to_json",
    "correlation_from_json",
    "classical_correlation_to_json",
    "classical_correlation_from_json",
    "povm_from_json",
    "families_from_json",
    "hom_rep_from_json",
]


class SchemaError(ValueError):
    """Input does not match the documented schema; pointer names the field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "missing required field")
    return obj[key]


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"expected >= {minimum}, got {value}")
    return value


def _finite(arr: np.ndarray, path: str) -> np.ndarray:
    """Reject NaN and infinite entries; the pointer names the first in C order."""
    bad = ~np.isfinite(arr)
    if bad.any():
        index = np.unravel_index(int(np.argmax(bad)), np.shape(arr))
        raise SchemaError(path + "".join(f"/{i}" for i in index), "expected a finite number")
    return arr


def _as_real(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a real number, got {value!r}")
    try:
        return float(_finite(np.float64(value), path))
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(path, "expected a finite number") from None


def _number_array(data, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """A rectangular array of JSON numbers of the given shape, as floats.

    Strings, booleans and nulls are refused by the dtype numpy infers; a
    boolean among numbers is coerced to 0 or 1, because checking each leaf
    would cost more than the parse.
    """
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise SchemaError(path, f"not a rectangular numeric array: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise SchemaError(path, f"not a rectangular numeric array: entries of type {arr.dtype}")
    if arr.shape != shape:
        raise SchemaError(path, f"expected shape {shape}, got {arr.shape}")
    return _finite(arr.astype(np.float64), path)


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(obj, path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(path, "expected a non-empty array of rows")
    rows = len(obj)
    out = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{path}/{i}", "expected a non-empty array of entries")
        if out is None:
            out = np.zeros((rows, len(row)), dtype=np.complex128)
        elif len(row) != out.shape[1]:
            raise SchemaError(f"{path}/{i}", f"ragged row of length {len(row)}")
        for j, z in enumerate(row):
            if (
                not isinstance(z, list)
                or len(z) != 2
                or any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in z)
            ):
                raise SchemaError(f"{path}/{i}/{j}", f"expected [re, im], got {z!r}")
            try:
                out[i, j] = complex(z[0], z[1])
            except OverflowError:
                raise SchemaError(f"{path}/{i}/{j}", "expected a finite number") from None
    if shape is not None and out.shape != shape:
        raise SchemaError(path, f"expected shape {shape}, got {out.shape}")
    return _finite(out, path)


def algebra_to_json(alg: VnAlgebra) -> dict:
    return {
        "n": alg.n,
        "blocks": [{"mult": m, "dim": k} for m, k in alg.blocks],
        "unitary": None if alg.unitary is None else matrix_to_json(alg.unitary),
    }


def algebra_from_json(obj, path: str = "") -> VnAlgebra:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    blocks_raw = _require(obj, "blocks", path)
    if not isinstance(blocks_raw, list) or not blocks_raw:
        raise SchemaError(f"{path}/blocks", "expected a non-empty array")
    blocks = []
    for i, b in enumerate(blocks_raw):
        mult = _as_int(_require(b, "mult", f"{path}/blocks/{i}"), f"{path}/blocks/{i}/mult", 1)
        dim = _as_int(_require(b, "dim", f"{path}/blocks/{i}"), f"{path}/blocks/{i}/dim", 1)
        blocks.append((mult, dim))
    unitary = obj.get("unitary")
    u = None if unitary is None else matrix_from_json(unitary, f"{path}/unitary", (n, n))
    try:
        return VnAlgebra(n=n, blocks=tuple(blocks), unitary=u)
    except ValueError as exc:
        raise SchemaError(path or "/", str(exc)) from exc


def graph_to_json(g: QuantumGraph) -> dict:
    return {
        "n": g.n,
        "algebra": algebra_to_json(g.algebra),
        "s_basis": [matrix_to_json(m) for m in g.s_basis],
        "traceless": g.traceless,
    }


def graph_from_json(obj, path: str = "") -> QuantumGraph:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    alg = algebra_from_json(_require(obj, "algebra", path), f"{path}/algebra")
    basis_raw = _require(obj, "s_basis", path)
    if not isinstance(basis_raw, list) or not basis_raw:
        raise SchemaError(f"{path}/s_basis", "expected a non-empty array of matrices")
    basis = tuple(
        matrix_from_json(m, f"{path}/s_basis/{i}", (n, n)) for i, m in enumerate(basis_raw)
    )
    traceless = obj.get("traceless", False)
    if not isinstance(traceless, bool):
        raise SchemaError(f"{path}/traceless", f"expected a boolean, got {traceless!r}")
    try:
        return QuantumGraph(n=n, algebra=alg, s_basis=basis, traceless=traceless)
    except ValueError as exc:
        raise SchemaError(path or "/", str(exc)) from exc


def classical_graph_to_json(g: ClassicalGraph) -> dict:
    return {"vertices": g.vertices, "edges": [list(e) for e in g.edges]}


def classical_graph_from_json(obj, path: str = "") -> ClassicalGraph:
    vertices = _as_int(_require(obj, "vertices", path), f"{path}/vertices", minimum=0)
    edges_raw = _require(obj, "edges", path)
    if not isinstance(edges_raw, list):
        raise SchemaError(f"{path}/edges", "expected an array of pairs")
    edges = []
    for i, e in enumerate(edges_raw):
        if not isinstance(e, list) or len(e) != 2:
            raise SchemaError(f"{path}/edges/{i}", f"expected a pair, got {e!r}")
        edges.append(
            (
                _as_int(e[0], f"{path}/edges/{i}/0", 0),
                _as_int(e[1], f"{path}/edges/{i}/1", 0),
            )
        )
    try:
        return ClassicalGraph(vertices=vertices, edges=tuple(edges))
    except ValueError as exc:
        raise SchemaError(f"{path}/edges", str(exc)) from exc


def _ancilla_to_json(a: TracialAncilla) -> dict:
    return {"block_dims": list(a.block_dims), "trace_weights": list(a.trace_weights)}


def _ancilla_from_json(obj, path: str) -> TracialAncilla:
    dims_raw = _require(obj, "block_dims", path)
    if not isinstance(dims_raw, list) or not dims_raw:
        raise SchemaError(f"{path}/block_dims", "expected a non-empty array")
    dims = tuple(
        _as_int(d, f"{path}/block_dims/{i}", minimum=1) for i, d in enumerate(dims_raw)
    )
    weights_raw = obj.get("trace_weights")
    weights = None
    if weights_raw is not None:
        if not isinstance(weights_raw, list) or len(weights_raw) != len(dims):
            raise SchemaError(f"{path}/trace_weights", "expected one weight per block")
        weights = tuple(
            _as_real(w, f"{path}/trace_weights/{i}") for i, w in enumerate(weights_raw)
        )
    try:
        return TracialAncilla(block_dims=dims, trace_weights=weights)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def strategy_to_json(s: BlockStrategy) -> dict:
    return {
        "n": s.n,
        "c": s.c,
        "ancilla": _ancilla_to_json(s.ancilla),
        "projections": [matrix_to_json(p) for p in s.projections],
    }


def strategy_from_json(obj, path: str = "") -> BlockStrategy:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    ancilla = _ancilla_from_json(_require(obj, "ancilla", path), f"{path}/ancilla")
    projections_raw = _require(obj, "projections", path)
    if not isinstance(projections_raw, list) or len(projections_raw) != c:
        raise SchemaError(f"{path}/projections", f"expected an array of {c} matrices")
    size = n * ancilla.dim
    projections = tuple(
        matrix_from_json(p, f"{path}/projections/{i}", (size, size))
        for i, p in enumerate(projections_raw)
    )
    return BlockStrategy(n=n, c=c, ancilla=ancilla, projections=projections)


def correlation_to_json(x: Correlation) -> dict:
    t = x.tensor
    data = [
        [
            [
                [
                    [
                        [[float(z.real), float(z.imag)] for z in t[a, b, i, j, k]]
                        for k in range(x.n)
                    ]
                    for j in range(x.n)
                ]
                for i in range(x.n)
            ]
            for b in range(x.c)
        ]
        for a in range(x.c)
    ]
    return {"n": x.n, "c": x.c, "X": data}


def correlation_from_json(obj, path: str = "") -> Correlation:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    arr = _number_array(_require(obj, "X", path), f"{path}/X", (c, c, n, n, n, n, 2))
    return Correlation(n=n, c=c, tensor=arr[..., 0] + 1j * arr[..., 1])


def classical_correlation_to_json(p: ClassicalCorrelation) -> dict:
    return {"n": p.n, "c": p.c, "p": p.p.tolist()}


def classical_correlation_from_json(obj, path: str = "") -> ClassicalCorrelation:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    arr = _number_array(_require(obj, "p", path), f"{path}/p", (c, c, n, n))
    return ClassicalCorrelation(n=n, c=c, p=arr)


def povm_from_json(obj, path: str = "") -> tuple[list[np.ndarray], int, int]:
    """POVM input for the dilate command: {"n", "h", "ops"}; returns (ops, n, h)."""
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    h = _as_int(_require(obj, "h", path), f"{path}/h", minimum=1)
    ops_raw = _require(obj, "ops", path)
    if not isinstance(ops_raw, list) or not ops_raw:
        raise SchemaError(f"{path}/ops", "expected a non-empty array of matrices")
    ops = [
        matrix_from_json(m, f"{path}/ops/{i}", (n * h, n * h)) for i, m in enumerate(ops_raw)
    ]
    return ops, n, h


def families_from_json(obj, path: str = "") -> tuple[list, TracialAncilla | None]:
    """POVM families for the embed command: {"n", "c", "h", "families", "ancilla"?}."""
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    h = _as_int(_require(obj, "h", path), f"{path}/h", minimum=1)
    fams_raw = _require(obj, "families", path)
    if not isinstance(fams_raw, list) or len(fams_raw) != n:
        raise SchemaError(f"{path}/families", f"expected {n} families")
    families = []
    for x, fam in enumerate(fams_raw):
        if not isinstance(fam, list) or len(fam) != c:
            raise SchemaError(f"{path}/families/{x}", f"expected {c} operators")
        families.append(
            [
                matrix_from_json(m, f"{path}/families/{x}/{a}", (h, h))
                for a, m in enumerate(fam)
            ]
        )
    ancilla = None
    if obj.get("ancilla") is not None:
        ancilla = _ancilla_from_json(obj["ancilla"], f"{path}/ancilla")
    return families, ancilla


def hom_rep_from_json(obj, path: str = "") -> tuple[list, TracialAncilla]:
    """Representation of Hom(K_c, K_r): {"c", "r", "ancilla", "f"} with f[a][v]."""
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    r = _as_int(_require(obj, "r", path), f"{path}/r", minimum=1)
    ancilla = _ancilla_from_json(_require(obj, "ancilla", path), f"{path}/ancilla")
    f_raw = _require(obj, "f", path)
    if not isinstance(f_raw, list) or len(f_raw) != c:
        raise SchemaError(f"{path}/f", f"expected {c} rows")
    e = ancilla.dim
    f = []
    for a, row in enumerate(f_raw):
        if not isinstance(row, list) or len(row) != r:
            raise SchemaError(f"{path}/f/{a}", f"expected {r} operators")
        f.append(
            [matrix_from_json(m, f"{path}/f/{a}/{v}", (e, e)) for v, m in enumerate(row)]
        )
    return f, ancilla
