"""Decentralized safety for coupled networked systems.

Second-order control barrier chains whose cross terms couple neighbor
controls, a negotiation protocol that turns capability deficits into
neighbor control regions, and a minimally invasive safety filter, packaged
with a networked SIS epidemic instance and a scenario CLI.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .barrier import (
    BarrierArrays,
    BarrierSpec,
    Psi2Arrays,
    Psi2Decomposition,
    QuadraticForm,
    barrier_arrays,
    decompose_psi2,
    decompose_psi2_all,
    max_capability,
    psi0,
    psi1,
)
from .collab import (
    CollabLedger,
    CollabMessage,
    ProtocolOutcome,
    collaborate,
    collaborative_safety,
    collaborative_safety_arrays,
    coordinate,
    message_rows,
    partition,
)
from .config import ScenarioConfig, normalize_config, parse_config
from .dynamics import (
    LieArrays,
    LieTable,
    NeighborhoodState,
    SisModel,
    SisParams,
    neighborhood,
    rk4_step,
)
from .errors import (
    CcbfError,
    ConfigError,
    DegenerateWeightsError,
    DimensionError,
    EmptyRegionError,
    GeometryConvergenceError,
    NumericsError,
    ProtocolStallError,
    ProtocolStateError,
    TerminallyInfeasibleError,
)
from .geometry import (
    ControlRegion,
    Halfspace,
    IntervalRegions,
    closest_point,
    is_empty,
    weakly_non_interfering,
)
from .graph import NetworkGraph, edge_layout, in_neighbors, out_neighbors
from .simulate import (
    ScenarioResult,
    run_scenario,
    run_uncontrolled,
    safety_filter,
    safety_filter_arrays,
    write_messages_csv,
    write_result_csv,
)

__all__ = [
    "CcbfError",
    "ConfigError",
    "DegenerateWeightsError",
    "DimensionError",
    "EmptyRegionError",
    "GeometryConvergenceError",
    "NumericsError",
    "ProtocolStallError",
    "ProtocolStateError",
    "TerminallyInfeasibleError",
    "NetworkGraph",
    "in_neighbors",
    "out_neighbors",
    "edge_layout",
    "NeighborhoodState",
    "LieTable",
    "LieArrays",
    "SisParams",
    "SisModel",
    "neighborhood",
    "rk4_step",
    "BarrierSpec",
    "BarrierArrays",
    "QuadraticForm",
    "Psi2Decomposition",
    "Psi2Arrays",
    "psi0",
    "psi1",
    "decompose_psi2",
    "barrier_arrays",
    "decompose_psi2_all",
    "max_capability",
    "Halfspace",
    "ControlRegion",
    "IntervalRegions",
    "closest_point",
    "is_empty",
    "weakly_non_interfering",
    "CollabMessage",
    "CollabLedger",
    "ProtocolOutcome",
    "partition",
    "coordinate",
    "collaborate",
    "collaborative_safety",
    "collaborative_safety_arrays",
    "message_rows",
    "ScenarioResult",
    "safety_filter",
    "safety_filter_arrays",
    "run_scenario",
    "run_uncontrolled",
    "write_result_csv",
    "write_messages_csv",
    "ScenarioConfig",
    "parse_config",
    "normalize_config",
    "__version__",
]
