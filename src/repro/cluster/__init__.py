"""repro.cluster — sharded multi-process execution behind the serve protocol.

A cluster is N worker processes (``python -m repro serve --worker``) sharing
one cache backend, fronted by a coordinator (``python -m repro cluster``)
that speaks the *unchanged* public serve protocol to clients.  The
coordinator plans each request with the runtime's existing job graph, routes
every planned job to a worker by rendezvous hash of its content key,
coalesces identical in-flight jobs cluster-wide, merges per-worker
``RunStats``, streams progress and forwards
cancellation end to end, and requeues a dead worker's jobs onto survivors.

Layering::

    hashing       rendezvous (highest-random-weight) shard routing
    plan          wire codec for planned jobs + internal sim_job/stat_job ops
    worker        WorkerService: registration handshake + internal-op executor
    coordinator   ClusterService: flights, routing, failover, stat merging
    cli           python -m repro cluster (incl. batch mode)

``docs/cluster.md`` documents the topology, the shard-routing rules and the
failure semantics.
"""

from repro.cluster.coordinator import ClusterError, ClusterService, WorkerDied, WorkerLink
from repro.cluster.hashing import rendezvous_owner, rendezvous_rank
from repro.cluster.plan import (
    INTERNAL_JOB_OPS,
    SimulationJobRequest,
    StatisticsJobRequest,
    parse_internal_request,
)
from repro.cluster.worker import WorkerService, execute_worker_request

__all__ = [
    "ClusterError",
    "ClusterService",
    "INTERNAL_JOB_OPS",
    "SimulationJobRequest",
    "StatisticsJobRequest",
    "WorkerDied",
    "WorkerLink",
    "WorkerService",
    "execute_worker_request",
    "parse_internal_request",
    "rendezvous_owner",
    "rendezvous_rank",
]
