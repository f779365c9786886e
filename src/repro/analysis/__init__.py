"""Static analyses over elaborated designs.

* :mod:`repro.analysis.assignments` — assignments + path constraints;
* :mod:`repro.analysis.depgraph` — k-cycle register dependency chains
  over :class:`repro.flow.SignalGraph` (§4.3);
* :mod:`repro.analysis.fsm_detect` — FSM detection heuristics (§4.2);
* :mod:`repro.analysis.propagation` — data-propagation relations (§4.5.1);
* :mod:`repro.analysis.ip_models` — declarative blackbox IP models (§5)
  and their registry, ``DEFAULT_IP_MODELS``.
"""

from .assignments import (
    AssignmentRecord,
    DisplayRecord,
    StaticView,
    analyze_module,
    collect_assignments,
    collect_displays,
    condition_and,
    condition_not,
    condition_or,
    expression_identifiers,
)
from .depgraph import DependencyChain, build_dependency_graph, dependency_chain
from .fsm_detect import DetectedFSM, FSMTransition, detect_fsms
from .ip_models import (
    DEFAULT_IP_MODELS,
    IPAnalysisModel,
    IPFlow,
    IPLossRule,
)
from .propagation import (
    IPLossPoint,
    PropagationRelation,
    PropagationTable,
    build_propagation_table,
    instantiate_condition,
)

__all__ = [
    "AssignmentRecord",
    "DisplayRecord",
    "StaticView",
    "analyze_module",
    "collect_assignments",
    "collect_displays",
    "condition_and",
    "condition_or",
    "condition_not",
    "expression_identifiers",
    "DependencyChain",
    "build_dependency_graph",
    "dependency_chain",
    "DetectedFSM",
    "FSMTransition",
    "detect_fsms",
    "IPAnalysisModel",
    "IPFlow",
    "IPLossRule",
    "DEFAULT_IP_MODELS",
    "PropagationRelation",
    "PropagationTable",
    "IPLossPoint",
    "build_propagation_table",
    "instantiate_condition",
]
