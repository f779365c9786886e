"""repro.flow: a bit-aware dataflow engine over elaborated designs.

The static lever the paper's efficiency story asks for: decide *which
signals matter* before paying for instrumentation or simulation. The
engine provides

* :mod:`repro.flow.solver` — a generic monotone worklist fixpoint
  solver with deterministic iteration order, plus reachability and the
  minimum-latency relaxation;
* :mod:`repro.flow.defuse` — def-use chains, reaching definitions, the
  combinational-collapsing register walk, and the bit-aware *payload*
  slice (value-carrying positions only) that LossCheck's ``prune=True``
  mode monitors;
* :mod:`repro.flow.graph` — the blackbox resolver and the design-level
  signal graph: per-module assignments plus port connections (already
  flattened by elaboration) plus blackbox edges from
  :class:`~repro.analysis.ip_models.IPAnalysisModel`;
* :mod:`repro.flow.clockdomain` — per-signal clock-domain inference;
* :mod:`repro.flow.absint` — abstract interpretation (value ranges +
  known bits + X taint) exporting a deterministic :class:`FactTable`;
* :mod:`repro.flow.checkers` — the L0401–L0407 semantic rules and the
  L0501–L0507 value rules surfaced through ``python -m repro check``.
"""

from .solver import FixpointResult, reachable, solve
from .domains import AbsValue
from .absint import FactTable, analyze_values, compute_facts
from .defuse import (
    DefUseChains,
    build_def_use,
    payload_identifiers,
    payload_register_graph,
    payload_slice,
    reaching_definitions,
)
from .graph import FlowEdge, SignalGraph, build_signal_graph
from .clockdomain import DomainInference, infer_domains
from .checkers import FlowReport, analyze_flow, run_flow_checks

__all__ = [
    "FixpointResult",
    "solve",
    "reachable",
    "DefUseChains",
    "build_def_use",
    "payload_identifiers",
    "payload_register_graph",
    "payload_slice",
    "reaching_definitions",
    "FlowEdge",
    "SignalGraph",
    "build_signal_graph",
    "DomainInference",
    "infer_domains",
    "AbsValue",
    "FactTable",
    "analyze_values",
    "compute_facts",
    "FlowReport",
    "analyze_flow",
    "run_flow_checks",
]
