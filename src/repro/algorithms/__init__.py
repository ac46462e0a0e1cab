"""Baseline federated algorithms compared against FedClassAvg."""

from repro.algorithms.local_only import LocalOnly
from repro.algorithms.averaging import FedAvg, FedBN, FedPer, FedProx, FedRep
from repro.algorithms.fedproto import FedProto
from repro.algorithms.ktpfl import KTpFL
from repro.algorithms.async_fedclassavg import AsyncFedClassAvg

__all__ = [
    "LocalOnly",
    "FedAvg",
    "FedProx",
    "FedProto",
    "KTpFL",
    "FedBN",
    "FedPer",
    "FedRep",
    "AsyncFedClassAvg",
]
