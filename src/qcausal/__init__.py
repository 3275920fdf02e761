"""Desk-scale simulator for quantum measurement, entangled-pair
correlations, lattice field commutators, emergent causal cones, commutant
topologies, and strengthened causal orderings.

``import qcausal`` loads no layer, and so not numpy. Each public name below
loads its layer on first use through a module ``__getattr__`` (PEP 562);
the names are the same as when every layer was imported eagerly, and
``from qcausal import *`` loads all five. A name's value is looked up in
its layer on every access and never cached here, so a layer attribute
patched and restored later (a monkeypatch, a tracer) is seen through the
package and leaves nothing behind in it.
"""

import importlib

_NAMES = {
    "quantum": "StateVector collapse measure_probabilities",
    "entanglement": """ChshSettings bell_phi_plus chsh correlations
        epr_consistency eraser_visibility ghz joint_spin_probabilities
        lhv_strategies maximize_chsh xz_axis""",
    "lattice": """CommutatorField ConeProfile LatticeSpec canonical_check
        commutation_graph commutator_table cone_profile pauli_jordan""",
    "topology": """PER_OBSERVABLE SUBFAMILY CommutationGraph FiniteTopology PointSet
        ResourceLimitError TopologyReport complete_graph
        disjoint_clique_graph generate_topology maximal_cliques parse_edge_list
        point_commutation points_of_m topology_report""",
    "causal": """THREE_PARTY_EVENTS CausalOrder Event OrientationSummary boost
        classical_order enumerate_admissible_orientations extension_masks
        quantum_order""",
}
_HOME = {name: layer for layer, names in _NAMES.items() for name in names.split()}

__all__ = sorted([*_NAMES, *_HOME])


def __getattr__(name):
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
