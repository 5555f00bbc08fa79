"""Online streaming discovery: sharded ingestion, watermarks, checkpoints.

The batch pipeline answers "what did we know at hour H" by replaying
the whole trace from zero; this subsystem answers it *live*.  Records
flow through a sharded pipeline partitioned by campus server address
(:mod:`.shard`), a bounded-queue ingestor keeps memory flat regardless
of trace length (:mod:`.ingest`), periodic watermarks expose windowed
completeness mid-stream (:mod:`.watermark`), and versioned atomic
checkpoints make a killed run resumable (:mod:`.checkpoint`).  The
engine (:mod:`.engine`) ties the pieces together and merges shard
states into the ordinary report structures -- byte-identical to the
batch path on the same (seed, scale, faults) configuration.

With ``StreamConfig.probe_policy`` set, the engine (and the process
fabric) also run the active side online: a
:class:`repro.probe.ProbeScheduler` dispatches seeded probes inside
the event loop, and watermarks, checkpoints, snapshots and the final
report read its live evidence instead of build-time scan reports.

Entry point: ``python -m repro stream DATASET --shards N``
(``--probe-policy periodic|heartbeat --probe-rate R`` for online
probing).
"""

from repro.stream.checkpoint import (
    STREAM_CHECKPOINT_VERSION,
    CheckpointCorrupt,
    CheckpointError,
    RestorePlan,
    ShardCheckpointStore,
    ShardRestore,
    checkpoint_config,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.engine import (
    StreamConfig,
    StreamEngine,
    StreamResult,
    batch_survey_report,
    finalize_result,
)
from repro.stream.fabric import (
    FabricConfig,
    FabricDegradedError,
    FabricError,
    FabricSupervisor,
)
from repro.stream.ingest import (
    DEFAULT_MAX_QUEUE_CHUNKS,
    IngestStallError,
    ShardWorkerError,
    StreamIngestor,
)
from repro.stream.membership import Member, Membership
from repro.stream.shard import (
    ShardState,
    merge_shards,
    merged_last_seen,
    owning_address,
    shard_of,
)
from repro.stream.watermark import (
    ActiveTimeline,
    Watermark,
    emit_schedule,
    windowed_summary,
)

__all__ = [
    "ActiveTimeline",
    "CheckpointCorrupt",
    "CheckpointError",
    "DEFAULT_MAX_QUEUE_CHUNKS",
    "FabricConfig",
    "FabricDegradedError",
    "FabricError",
    "FabricSupervisor",
    "IngestStallError",
    "Member",
    "Membership",
    "RestorePlan",
    "STREAM_CHECKPOINT_VERSION",
    "ShardCheckpointStore",
    "ShardRestore",
    "ShardState",
    "ShardWorkerError",
    "StreamConfig",
    "StreamEngine",
    "StreamIngestor",
    "StreamResult",
    "Watermark",
    "batch_survey_report",
    "checkpoint_config",
    "emit_schedule",
    "finalize_result",
    "load_checkpoint",
    "merge_shards",
    "merged_last_seen",
    "owning_address",
    "save_checkpoint",
    "shard_of",
    "windowed_summary",
]
