"""Compilation of arbitrary phase rotations into a fixed fault-tolerant
gate set, with exact small-scale verification and resource estimation for
first- and second-quantized chemistry simulation circuits."""

from .core import (
    Circuit,
    CircuitBuilder,
    Gate,
    ResourceProfile,
    circuit_from_text,
    circuit_to_text,
    dist,
    rz_matrix,
)
from .sim import StateVector, SimResult, run, to_unitary, channel_equal

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "Gate",
    "ResourceProfile",
    "SimResult",
    "StateVector",
    "channel_equal",
    "circuit_from_text",
    "circuit_to_text",
    "dist",
    "run",
    "rz_matrix",
    "to_unitary",
    "__version__",
]
