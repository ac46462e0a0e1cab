"""Federated-learning machinery: clients, server loop, aggregation."""

from repro.federated.aggregation import (
    AggregationError,
    drop_nonfinite_states,
    ensure_finite_states,
    interpolate_state,
    weighted_average_state,
)
from repro.federated.base import FederatedAlgorithm
from repro.federated.client import FederatedClient
from repro.federated.cohort import Cohort, InProcessCohort
from repro.federated.executor import SerialExecutor, ThreadExecutor, make_executor
from repro.federated.faults import FaultInjector
from repro.federated.firewall import (
    CosineOutlierValidator,
    FiniteValidator,
    NormBoundValidator,
    SchemaValidator,
    UpdateFirewall,
    UpdateValidator,
    default_firewall,
    update_norm,
)
from repro.federated.quorum import QuorumError, QuorumPolicy
from repro.federated.robust import (
    AGGREGATOR_NAMES,
    AggregationOutcome,
    Aggregator,
    admit_and_aggregate,
    make_aggregator,
    screen_updates,
)
from repro.federated.evaluation import (
    confusion_matrix,
    macro_f1,
    per_class_accuracy,
    predict,
    scarce_class_gain,
)
from repro.federated.checkpoint import load_checkpoint, save_checkpoint
from repro.federated.history import RoundMetrics, RunHistory
from repro.federated.sampler import ClientSampler
from repro.federated.setup import FederationSpec, build_federation, client_costs
from repro.federated.trainer import LocalUpdateConfig, client_round, local_update

__all__ = [
    "FederatedAlgorithm",
    "FederatedClient",
    "ClientSampler",
    "RoundMetrics",
    "RunHistory",
    "weighted_average_state",
    "interpolate_state",
    "AggregationError",
    "drop_nonfinite_states",
    "ensure_finite_states",
    "AGGREGATOR_NAMES",
    "Aggregator",
    "AggregationOutcome",
    "make_aggregator",
    "screen_updates",
    "admit_and_aggregate",
    "UpdateValidator",
    "SchemaValidator",
    "FiniteValidator",
    "NormBoundValidator",
    "CosineOutlierValidator",
    "UpdateFirewall",
    "default_firewall",
    "update_norm",
    "LocalUpdateConfig",
    "local_update",
    "client_round",
    "Cohort",
    "InProcessCohort",
    "QuorumPolicy",
    "QuorumError",
    "FederationSpec",
    "build_federation",
    "client_costs",
    "SerialExecutor",
    "ThreadExecutor",
    "make_executor",
    "FaultInjector",
    "predict",
    "confusion_matrix",
    "per_class_accuracy",
    "macro_f1",
    "scarce_class_gain",
    "save_checkpoint",
    "load_checkpoint",
]
