"""Desk-scale simulator for quantum measurement, entangled-pair
correlations, lattice field commutators, emergent causal cones, commutant
topologies, and strengthened causal orderings."""

from .quantum import (
    MeasurementRecord,
    Pvm,
    StateVector,
    UnitaryOp,
    amplitude,
    apply_unitary,
    basis_state,
    collapse,
    embed_pvm,
    measure_probabilities,
    sample_outcome,
    spin_pvm,
    tensor,
)
from .entanglement import (
    ChshSettings,
    CorrelationSetting,
    EraserConfig,
    LhvStrategy,
    bell_phi_plus,
    chsh,
    correlation,
    enumerate_lhv_strategies,
    epr_consistency,
    eraser_visibility,
    ghz,
    joint_spin_probabilities,
    lhv_max_chsh,
    maximize_chsh,
    xz_axis,
)
from .lattice import (
    CommutatorField,
    ConeProfile,
    LatticeSpec,
    canonical_check,
    commutation_graph,
    commutator_table,
    cone_profile,
    dispersion,
    pauli_jordan,
)
from .topology import (
    PER_OBSERVABLE,
    SUBFAMILY,
    CommutationGraph,
    FiniteTopology,
    PointSet,
    ResourceLimitError,
    TopologyReport,
    commutant_neighborhood,
    complete_graph,
    disjoint_clique_graph,
    generate_topology,
    maximal_cliques,
    parse_edge_list,
    point_commutation,
    points_of_m,
    topology_report,
)
from .causal import (
    THREE_PARTY_EVENTS,
    CausalOrder,
    CycleError,
    Event,
    ExtensionVerdict,
    Orientation,
    OrientationSummary,
    boost,
    classical_order,
    enforcement_edges,
    enumerate_admissible_orientations,
    quantum_order,
    strict_extension_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
