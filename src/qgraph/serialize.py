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
    "ops_from_json",
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


def _as_float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        return np.inf if value > 0 else -np.inf


def _numbers(data, path: str, shape: tuple, pairs: bool = False) -> np.ndarray:
    """A JSON array of numbers of the given shape as float64; a None in shape is any length >= 1.

    Every leaf must be a JSON int or float, not a boolean, a string, null or an array; its type
    is read once, and located again only when some leaf fails.  An integer literal beyond the
    float range reads as inf, and every entry must be finite.  The first bad leaf in C order is
    named, at its [re, im] pair when pairs (the last three axes are then a matrix of pairs); a
    shape fault is named where _shape_fault finds it.
    """
    try:
        leaves = np.array(data, dtype=object)
    except ValueError:  # nesting that numpy cannot hold as one object array
        leaves = None
    if leaves is None or leaves.ndim != len(shape) or any(
        k != s if s is not None else k < 1 for k, s in zip(leaves.shape, shape)
    ):
        _shape_fault(data, path, shape, pairs)
    if not set(map(type, leaves.ravel().tolist())) <= {int, float}:
        kinds = np.frompyfunc(type, 1, 1)(leaves)
        pointer, at = _first(path, (kinds != float) & (kinds != int), pairs)
        expected = "[re, im]" if pairs else "a number"
        raise SchemaError(pointer, f"expected {expected}, got {leaves[(*at, ...)].tolist()!r}")
    try:
        values = leaves.astype(np.float64)
    except OverflowError:
        values = np.frompyfunc(_as_float, 1, 1)(leaves).astype(np.float64)
    bad = ~np.isfinite(values)
    if bad.any():
        raise SchemaError(_first(path, bad, pairs)[0], "expected a finite number")
    return values


def _first(path: str, bad: np.ndarray, pairs: bool) -> tuple[str, tuple]:
    """Pointer and index of the first true entry of bad in C order, cut to its pair when pairs."""
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))[: bad.ndim - pairs]
    return path + "".join(f"/{i}" for i in index), index


def _shape_fault(data, path: str, shape: tuple, pairs: bool):
    """Raise the SchemaError of the first node of data, in C order, that breaks shape.

    Without pairs it names the array.  With pairs it names the array with a wrong count of
    matrices, the matrix with a wrong shape (at a faulty row too), or the pair that is not a pair.
    """
    lengths, rows = list(shape), len(shape) - 2 if pairs else None

    def walk(node, depth, pointer, named):
        named = pointer if pairs and depth != rows else named
        last = depth == len(shape) - 1
        if (  # a free length is the first length met at its depth, and never 0
            not isinstance(node, list)
            or len(node) != (lengths[depth] or len(node) or 1)
            or last and any(isinstance(leaf, list) for leaf in node)
        ):
            if not pairs:
                raise SchemaError(path, f"expected an array of shape {shape}")
            if last:
                raise SchemaError(named, f"expected [re, im], got {node!r}")
            if depth >= rows - 1:
                dims = tuple(lengths[rows - 1 : rows + 1])
                raise SchemaError(named, "expected a non-empty matrix" if None in dims else f"expected a matrix of shape {dims}")
            count = "a non-empty array of" if lengths[depth] is None else f"an array of {lengths[depth]}"
            raise SchemaError(named, f"expected {count} {'matrices' if depth == rows - 2 else 'arrays'}")
        lengths[depth] = len(node)
        for i, child in enumerate(node if not last else ()):
            walk(child, depth + 1, f"{pointer}/{i}", named)

    walk(data, 0, path, path)
    raise SchemaError(path, f"expected an array of shape {shape}")


def matrix_to_json(m) -> list:
    """Nested lists of the array's shape with each complex entry as [re, im]."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(obj, path: str, shape: tuple | None = None) -> np.ndarray:
    """The complex array of the given shape, by default one matrix of any size, from nested
    arrays of [re, im] pairs; a bad entry is named at its pair."""
    return _numbers(obj, path, (*(shape or (None, None)), 2), pairs=True).view(np.complex128)[..., 0]


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
        "s_basis": matrix_to_json(g.s_basis),
        "traceless": g.traceless,
    }


def graph_from_json(obj, path: str = "") -> QuantumGraph:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    alg = algebra_from_json(_require(obj, "algebra", path), f"{path}/algebra")
    basis = matrix_from_json(_require(obj, "s_basis", path), f"{path}/s_basis", (None, n, n))
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
        weights = _numbers(weights_raw, f"{path}/trace_weights", (len(dims),))
    try:
        return TracialAncilla(block_dims=dims, trace_weights=weights)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def strategy_to_json(s: BlockStrategy) -> dict:
    return {
        "n": s.n,
        "c": s.c,
        "ancilla": _ancilla_to_json(s.ancilla),
        "projections": matrix_to_json(s.projections),
    }


def strategy_from_json(obj, path: str = "") -> BlockStrategy:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    ancilla = _ancilla_from_json(_require(obj, "ancilla", path), f"{path}/ancilla")
    size = n * ancilla.dim
    projections = matrix_from_json(_require(obj, "projections", path), f"{path}/projections", (c, size, size))
    return BlockStrategy(n=n, c=c, ancilla=ancilla, projections=projections)


def correlation_to_json(x: Correlation) -> dict:
    return {"n": x.n, "c": x.c, "X": matrix_to_json(x.tensor)}


def correlation_from_json(obj, path: str = "") -> Correlation:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    arr = _numbers(_require(obj, "X", path), f"{path}/X", (c, c, n, n, n, n, 2))
    return Correlation(n=n, c=c, tensor=arr.view(np.complex128)[..., 0])


def classical_correlation_to_json(p: ClassicalCorrelation) -> dict:
    return {"n": p.n, "c": p.c, "p": p.p.tolist()}


def classical_correlation_from_json(obj, path: str = "") -> ClassicalCorrelation:
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    arr = _numbers(_require(obj, "p", path), f"{path}/p", (c, c, n, n))
    return ClassicalCorrelation(n=n, c=c, p=arr)


def povm_from_json(obj, path: str = "") -> tuple[np.ndarray, int, int]:
    """POVM input for the dilate command: {"n", "h", "ops"}; returns the (c, nh, nh) ops, n and h."""
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    h = _as_int(_require(obj, "h", path), f"{path}/h", minimum=1)
    return ops_from_json(obj, path, n * h), n, h


def ops_from_json(obj, path: str = "", size: int | None = None) -> np.ndarray:
    """The non-empty array "ops" of size x size matrices; the round-pvm input.

    Without a size, every op must be square with the first op's row count.
    """
    ops = _require(obj, "ops", path)
    if size is None and isinstance(ops, list) and ops and isinstance(ops[0], list):
        size = len(ops[0])
    return matrix_from_json(ops, f"{path}/ops", (None, size, size))


def families_from_json(obj, path: str = "") -> tuple[np.ndarray, TracialAncilla | None]:
    """POVM families for the embed command: {"n", "c", "h", "families", "ancilla"?}."""
    n = _as_int(_require(obj, "n", path), f"{path}/n", minimum=1)
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    h = _as_int(_require(obj, "h", path), f"{path}/h", minimum=1)
    families = matrix_from_json(_require(obj, "families", path), f"{path}/families", (n, c, h, h))
    ancilla = None
    if obj.get("ancilla") is not None:
        ancilla = _ancilla_from_json(obj["ancilla"], f"{path}/ancilla")
        if ancilla.dim != h:
            raise SchemaError(f"{path}/ancilla", f"ancilla dim {ancilla.dim} does not match operators on C^{h}")
    return families, ancilla


def hom_rep_from_json(obj, path: str = "") -> tuple[np.ndarray, TracialAncilla]:
    """Representation of Hom(K_c, K_r): {"c", "r", "ancilla", "f"} with f[a][v]."""
    c = _as_int(_require(obj, "c", path), f"{path}/c", minimum=1)
    r = _as_int(_require(obj, "r", path), f"{path}/r", minimum=1)
    ancilla = _ancilla_from_json(_require(obj, "ancilla", path), f"{path}/ancilla")
    e = ancilla.dim
    return matrix_from_json(_require(obj, "f", path), f"{path}/f", (c, r, e, e)), ancilla
