"""Simulated MPI-style communication with exact byte accounting."""

from repro.comm.channel import SimComm, payload_nbytes, to_wire
from repro.comm.cost import CostModel, format_bytes
from repro.comm.compression import NoCompression, QuantizationCompressor, TopKCompressor
from repro.comm.privacy import (
    GaussianMechanism,
    SecureAggregationSimulator,
    clip_state,
    state_l2_norm,
)

__all__ = [
    "SimComm",
    "payload_nbytes",
    "to_wire",
    "CostModel",
    "format_bytes",
    "NoCompression",
    "QuantizationCompressor",
    "TopKCompressor",
    "GaussianMechanism",
    "SecureAggregationSimulator",
    "clip_state",
    "state_l2_norm",
]
