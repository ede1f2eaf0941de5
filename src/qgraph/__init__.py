"""Quantum graphs, quantum-to-classical homomorphism games, and colorings."""

__version__ = "0.1.0"

from .algebra import VnAlgebra, commutant, normal_form
from .colorings import (
    BoundsReport,
    ColoringReport,
    abelian_loc_coloring,
    chromatic_bounds,
    complete_quantum_graph,
    diagonal_strategy,
    rigidity_check,
    shift_multiply_coloring,
    teleport_coloring,
)
from .correlations import (
    ClassicalCorrelation,
    Correlation,
    check_bisynchronous,
    check_synchronous,
    compress_to_classical,
    correlation_from_tensor,
    correlation_from_trace,
    embed_classical,
    outcome_probability,
    synchronous_identities,
)
from .graphs import (
    ClassicalGraph,
    EdgeBasis,
    QuantumGraph,
    chromatic_number,
    edge_basis,
    graph_operator_system,
    homomorphism_exists,
    proper_coloring,
    validate,
)
from .homgame import (
    ChannelRep,
    GameInstance,
    check_game_algebra_rep,
    compose_reps,
    extract_channel,
    verify_operational,
    verify_structural,
)
from .linalg import (
    DEFAULT_TOL,
    CheckReport,
    Tolerance,
    canonical_shuffle,
    check_measurement,
)
from .strategies import (
    BlockStrategy,
    TensorStrategy,
    TracialAncilla,
    bob_from_alice,
    corner_compress,
    dilate_block_povm,
    dilate_povm,
    round_almost_pvm,
)
