"""The S2 distributed verification framework (the paper's contribution)."""

from .controller import (  # noqa: F401
    S2Controller,
    S2Options,
    WorkerSupervisor,
    options_fingerprint,
)
from .cpo import ControlPlaneOrchestrator, ControlPlaneStats  # noqa: F401
from .dpo import DataPlaneOrchestrator, DataPlaneStats  # noqa: F401
from .faults import (  # noqa: F401
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
    RespawnError,
    RetryPolicy,
    TransientRpcError,
    WorkerDiedError,
    WorkerFailure,
    WorkerTimeoutError,
)
from .message import PacketBatch, PacketEnvelope, RouteBatch, measured_size  # noqa: F401
from .partition import SCHEMES, PartitionResult, estimate_loads, partition  # noqa: F401
from .resources import (  # noqa: F401
    DEFAULT_WORKER_CAPACITY,
    UNLIMITED_CAPACITY,
    ClusterReport,
    SimulatedOOM,
    WorkerResources,
)
from .sharding import (  # noqa: F401
    Dpdg,
    PrefixShard,
    build_dpdg,
    make_shards,
    pack_components,
    validate_shards,
)
from .sidecar import Sidecar  # noqa: F401
from .storage import CorruptShardError, RouteStore, RunManifest  # noqa: F401
from .worker import ShadowNode, Worker  # noqa: F401
