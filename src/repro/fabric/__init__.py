"""NG-ULTRA fabric model and NXmap-equivalent backend flow (paper Fig. 3)."""

from .bitstream import Bitstream, Frame, generate_bitstream
from .device import (
    DEVICE_FAMILY,
    LEGACY_RADHARD,
    NG_LARGE,
    NG_MEDIUM,
    NG_ULTRA,
    Device,
    get_device,
    scaled_device,
)
from .eco import (
    AddCell,
    DeltaError,
    DeltaImpact,
    EcoFlow,
    EcoReport,
    NetlistDelta,
    ReconnectInput,
    RemoveCell,
    ResizeCell,
    RetargetOutput,
    SetConstraint,
    eco_place,
    random_delta,
)
from .netlist import BRAM, CARRY, DFF, DSP, IOB, LUT4, Cell, Net, Netlist
from .nxmap import (
    ECO_KERNEL_VERSION,
    FlowError,
    FlowReport,
    NXmapProject,
    PowerReport,
    generate_backend_script,
)
from .placement import PLACE_KERNEL_VERSION, PlacementResult, place
from .routing import ROUTE_KERNEL_VERSION, RoutingResult, route
from .synthesis import (
    SynthesisError,
    supported_components,
    synthesize_component,
    synthesize_design,
    synthesize_random,
)
from .timing import (
    STA_KERNEL_VERSION,
    StaState,
    TimingReport,
    analyze_timing,
    analyze_timing_cone,
    analyze_timing_state,
)

__all__ = [
    "Bitstream", "Frame", "generate_bitstream",
    "DEVICE_FAMILY", "LEGACY_RADHARD", "NG_LARGE", "NG_MEDIUM", "NG_ULTRA",
    "Device", "get_device", "scaled_device",
    "ECO_KERNEL_VERSION", "AddCell", "DeltaError", "DeltaImpact",
    "EcoFlow", "EcoReport", "NetlistDelta", "ReconnectInput", "RemoveCell",
    "ResizeCell", "RetargetOutput", "SetConstraint", "eco_place",
    "random_delta",
    "BRAM", "CARRY", "DFF", "DSP", "IOB", "LUT4", "Cell", "Net", "Netlist",
    "FlowError", "FlowReport", "NXmapProject", "PowerReport",
    "generate_backend_script",
    "PLACE_KERNEL_VERSION", "PlacementResult", "place",
    "ROUTE_KERNEL_VERSION", "RoutingResult", "route",
    "STA_KERNEL_VERSION", "StaState",
    "SynthesisError", "supported_components", "synthesize_component",
    "synthesize_design", "synthesize_random",
    "TimingReport", "analyze_timing", "analyze_timing_cone",
    "analyze_timing_state",
]
