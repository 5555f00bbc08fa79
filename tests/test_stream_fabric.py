"""Distributed shard fabric: membership, chaos identity, checkpoint store.

The fabric's contract is that supervision is *invisible in the output*:
whatever combination of worker crashes, stalls, and falsely-dropped
heartbeats occurs, the merged report must stay byte-identical to the
single-process batch path.  The chaos tests here inject every fault
kind deterministically (seeded :class:`WorkerFaultPlan`) and assert
exactly that.  The checkpoint tests cover the new durability layers:
CRC-trailer corruption detection and per-shard generation fallback.
SIGKILL-based failure injection (worker and supervisor) lives in
``test_fabric_recovery.py``.
"""

from __future__ import annotations

import tempfile
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.worker import WorkerFaultPlan
from repro.stream import (
    CheckpointCorrupt,
    CheckpointError,
    FabricConfig,
    FabricDegradedError,
    FabricSupervisor,
    IngestStallError,
    Membership,
    ShardCheckpointStore,
    StreamConfig,
    StreamIngestor,
    batch_survey_report,
    checkpoint_config,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.shard import ShardState

SMALL = dict(dataset="DTCP1-18d", seed=7, scale=0.04)

#: Supervision tuned for tests: fast heartbeats so injected stalls and
#: dropped heartbeats are detected in fractions of a second.
FAST = dict(
    heartbeat_interval=0.05,
    miss_budget=4,
    restart_backoff=0.01,
    restart_backoff_max=0.05,
)


# ---- membership -------------------------------------------------------


def test_membership_join_heartbeat_lifecycle():
    ms = Membership(shards=2, heartbeat_interval=0.1, miss_budget=3,
                    join_timeout=5.0)
    assert not ms.overdue(0, now=100.0)  # never launched

    inc = ms.launch(0, now=0.0)
    assert inc == 0
    assert not ms.members[0].joined
    assert ms.join(0, inc, now=0.2, pid=42)
    assert ms.members[0].pid == 42
    assert ms.heartbeat(0, inc, now=0.5)
    assert ms.heartbeat_age(0, now=0.7) == pytest.approx(0.2)
    assert not ms.overdue(0, now=0.5 + 0.3)
    assert ms.overdue(0, now=0.5 + 0.31)


def test_membership_unjoined_worker_times_out():
    ms = Membership(shards=1, heartbeat_interval=0.1, miss_budget=3,
                    join_timeout=2.0)
    ms.launch(0, now=10.0)
    assert not ms.overdue(0, now=11.9)
    assert ms.overdue(0, now=12.1)


def test_membership_rejects_stale_incarnations():
    ms = Membership(shards=1, heartbeat_interval=0.1, miss_budget=3,
                    join_timeout=5.0)
    old = ms.launch(0, now=0.0)
    ms.join(0, old, now=0.1)
    new = ms.launch(0, now=1.0)
    assert new == old + 1
    assert not ms.join(0, old, now=1.1)
    assert not ms.heartbeat(0, old, now=1.1)
    assert not ms.is_current(0, old)
    assert ms.is_current(0, new)
    # The relaunch reset liveness evidence: the new worker must join.
    assert not ms.members[0].joined


def test_membership_restart_counter():
    ms = Membership(shards=2, heartbeat_interval=0.1, miss_budget=3,
                    join_timeout=5.0)
    assert ms.restarts(1) == 0
    assert ms.note_restart(1) == 1
    assert ms.note_restart(1) == 2
    assert ms.restarts(0) == 0


# ---- worker fault plans ----------------------------------------------


def test_worker_fault_plan_is_deterministic():
    plan = WorkerFaultPlan(seed=3, crash_rate=1.0, stall_rate=0.5,
                           heartbeat_drop_rate=0.5)
    again = WorkerFaultPlan(seed=3, crash_rate=1.0, stall_rate=0.5,
                            heartbeat_drop_rate=0.5)
    for shard in range(4):
        assert plan.events_for(shard, 0) == again.events_for(shard, 0)
    other = WorkerFaultPlan(seed=4, crash_rate=1.0, stall_rate=0.5,
                            heartbeat_drop_rate=0.5)
    assert any(
        plan.events_for(shard, 0) != other.events_for(shard, 0)
        for shard in range(8)
    )


def test_worker_fault_plan_caps_per_shard():
    plan = WorkerFaultPlan(seed=1, crash_rate=1.0, crashes_per_shard=1)
    assert plan.events_for(0, 0).crash_at is not None
    # The replacement incarnation rolls no dice: runs converge.
    assert plan.events_for(0, 1).is_null
    deep = WorkerFaultPlan(seed=1, crash_rate=1.0, crashes_per_shard=3)
    assert deep.events_for(0, 2).crash_at is not None
    assert deep.events_for(0, 3).is_null


def test_worker_fault_plan_null():
    assert WorkerFaultPlan().is_null
    assert WorkerFaultPlan(seed=9).events_for(0, 0).is_null
    assert not WorkerFaultPlan(crash_rate=0.1).is_null


# ---- checkpoint integrity (CRC trailer satellite) ---------------------


def _identity():
    return checkpoint_config("DTCP1-18d", 7, 0.04, 2, None)


def _payload():
    return {
        "config": _identity(),
        "records_read": 1000,
        "records_delivered": 990,
        "now": 3600.0,
        "emitted_index": 1,
        "watermarks": [],
        "faults": None,
        "shards": [],
    }


def test_checkpoint_roundtrip_with_trailer(tmp_path):
    path = tmp_path / "stream.ckpt"
    save_checkpoint(path, _payload())
    loaded = load_checkpoint(path, _identity())
    assert loaded["records_read"] == 1000


def test_truncated_checkpoint_is_corrupt_and_names_file(tmp_path):
    path = tmp_path / "stream.ckpt"
    save_checkpoint(path, _payload())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointCorrupt) as excinfo:
        load_checkpoint(path, _identity())
    assert str(path) in str(excinfo.value)
    assert excinfo.value.path == path


def test_bit_flipped_checkpoint_is_corrupt(tmp_path):
    path = tmp_path / "stream.ckpt"
    save_checkpoint(path, _payload())
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorrupt, match="CRC32 mismatch"):
        load_checkpoint(path, _identity())


def test_valid_crc_but_garbage_payload_is_corrupt(tmp_path):
    path = tmp_path / "stream.ckpt"
    data = b"not a pickle at all"
    import struct

    path.write_bytes(data + struct.pack("<II", len(data), zlib.crc32(data)))
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path, _identity())


def test_checkpoint_identity_mismatch_still_loud(tmp_path):
    path = tmp_path / "stream.ckpt"
    save_checkpoint(path, _payload())
    with pytest.raises(CheckpointError, match="different run identity"):
        load_checkpoint(
            path, checkpoint_config("DTCP1-18d", 8, 0.04, 2, None)
        )


# ---- the per-shard store ---------------------------------------------


def _shard_state(shard: int) -> dict:
    return {
        "index": shard,
        "first_seen": {(10 + shard, 80, "tcp"): 60.0},
        "flow_counts": {},
        "clients": {},
        "pending_handshake": {},
        "udp_requests": {},
        "last_seen": {},
        "records": 100 + shard,
    }


def _progress(records: int = 500) -> dict:
    return {
        "records_read": records,
        "records_delivered": records - 5,
        "now": 7200.0,
        "emitted_index": 0,
        "watermarks": [],
        "faults": None,
    }


def test_store_commit_and_restore(tmp_path):
    store = ShardCheckpointStore(tmp_path / "store")
    identity = _identity()
    for shard in range(2):
        store.save_shard(shard, 1, identity, _shard_state(shard))
    store.save_manifest(1, identity, _progress())
    assert store.generations() == [1]

    plan = store.plan_restore(identity)
    assert plan is not None
    assert plan.generation == 1
    assert plan.manifest["records_read"] == 500
    assert [r.shard for r in plan.shards] == [0, 1]
    assert all(not r.fresh for r in plan.shards)
    assert plan.shards[1].state["records"] == 101
    assert plan.shards[1].records_read == 500


def test_store_uncommitted_generation_is_invisible(tmp_path):
    """Shard files without a manifest never influence a restore."""
    store = ShardCheckpointStore(tmp_path / "store")
    identity = _identity()
    store.save_shard(0, 1, identity, _shard_state(0))
    store.save_shard(1, 1, identity, _shard_state(1))
    # Crash before the manifest: generation 1 was never committed.
    assert store.generations() == []
    assert store.plan_restore(identity) is None
    restore = store.restore_shard(0, identity, upto_generation=99)
    assert restore.fresh and restore.records_read == 0


def test_store_corrupt_shard_falls_back_a_generation(tmp_path):
    store = ShardCheckpointStore(tmp_path / "store")
    identity = _identity()
    for generation in (1, 2):
        for shard in range(2):
            store.save_shard(shard, generation, identity, _shard_state(shard))
        store.save_manifest(generation, identity,
                            _progress(records=100 * generation))
    # Flip a bit in shard 1's newest file; shard 0's stays good.
    victim = store.shard_path(1, 2)
    raw = bytearray(victim.read_bytes())
    raw[10] ^= 0x01
    victim.write_bytes(bytes(raw))

    plan = store.plan_restore(identity)
    assert plan.generation == 2
    assert plan.shards[0].records_read == 200  # newest generation
    assert plan.shards[1].records_read == 100  # fell back to generation 1
    assert not plan.shards[1].fresh


def test_store_corrupt_manifest_falls_back_whole_generation(tmp_path):
    store = ShardCheckpointStore(tmp_path / "store")
    identity = _identity()
    for generation in (1, 2):
        for shard in range(2):
            store.save_shard(shard, generation, identity, _shard_state(shard))
        store.save_manifest(generation, identity,
                            _progress(records=100 * generation))
    manifest = store.manifest_path(2)
    manifest.write_bytes(manifest.read_bytes()[:-3])
    plan = store.plan_restore(identity)
    assert plan.generation == 1
    assert all(r.records_read == 100 for r in plan.shards)


def test_store_prunes_old_generations_and_clears(tmp_path):
    store = ShardCheckpointStore(tmp_path / "store", keep_generations=2)
    identity = _identity()
    for generation in (1, 2, 3):
        store.save_shard(0, generation, identity, _shard_state(0))
        store.save_manifest(generation, identity, _progress())
    assert store.generations() == [3, 2]
    assert not store.shard_path(0, 1).exists()
    store.clear()
    assert store.generations() == []
    assert not store.root.exists()


@settings(max_examples=25, deadline=None)
@given(
    records=st.integers(min_value=0, max_value=2**48),
    delivered=st.integers(min_value=0, max_value=2**48),
    now=st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
    emitted=st.integers(min_value=0, max_value=10_000),
    generation=st.integers(min_value=1, max_value=999_999),
    faults=st.none() | st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.integers() | st.floats(allow_nan=False) | st.binary(max_size=16),
        max_size=4,
    ),
)
def test_manifest_roundtrip_property(records, delivered, now, emitted,
                                     generation, faults):
    """Per-shard checkpoint manifests round-trip exactly."""
    identity = _identity()
    payload = {
        "records_read": records,
        "records_delivered": delivered,
        "now": now,
        "emitted_index": emitted,
        "watermarks": [],
        "faults": faults,
    }
    with tempfile.TemporaryDirectory() as tmp:
        store = ShardCheckpointStore(Path(tmp) / "store")
        store.save_manifest(generation, identity, payload)
        loaded = store.load_manifest(generation, identity)
        for key, value in payload.items():
            assert loaded[key] == value
        assert loaded["generation"] == generation
        assert loaded["config"] == identity


# ---- ingest backpressure (satellite) ----------------------------------


class _BlockedState(ShardState):
    """A shard whose folds block until released -- a wedged consumer."""

    def __init__(self):
        self.release = threading.Event()
        self.index = 0
        self.records = 0
        self.last_seen = {}

    def observe_columns(self, cols):  # pragma: no cover - timing-dependent
        self.release.wait()


def test_ingest_put_raises_stall_error_instead_of_deadlocking():
    state = _BlockedState()
    ingestor = StreamIngestor(
        [state], max_queue_chunks=1, put_timeout=0.01, stall_timeout=0.1
    )
    try:
        with pytest.raises(IngestStallError) as excinfo:
            for _ in range(50):
                ingestor.dispatch([[object()]])
        assert excinfo.value.index == 0
        assert ingestor.put_timeouts >= excinfo.value.timeouts > 0
    finally:
        state.release.set()
        ingestor.close()


def test_ingest_stall_counter_reaches_telemetry():
    from repro.telemetry.metrics import MetricRegistry

    state = _BlockedState()
    ingestor = StreamIngestor(
        [state], max_queue_chunks=1, put_timeout=0.01, stall_timeout=0.05
    )
    try:
        with pytest.raises(IngestStallError):
            for _ in range(50):
                ingestor.dispatch([[object()]])
    finally:
        state.release.set()
        ingestor.close()
    reg = MetricRegistry()
    ingestor.flush_telemetry(reg)
    counter = reg.counter(
        "repro_stream_backpressure_timeouts_total",
        "Bounded-put timeouts while shard queues were full.",
    )
    assert counter.value > 0


# ---- fabric equivalence and chaos -------------------------------------


def _config(**overrides) -> StreamConfig:
    base = dict(SMALL, emit_every=24 * 3600.0)
    base.update(overrides)
    return StreamConfig(**base)


#: Trigger records must stay below the smallest per-shard record count
#: (~38k at 4 shards for the small build) or a drawn fault never fires.
HORIZON = 20_000


@pytest.fixture(scope="module")
def batch_reference(small_dtcp18):
    config = _config(shards=1)
    return batch_survey_report(config, dataset=small_dtcp18)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fabric_report_matches_batch(workers, small_dtcp18, batch_reference):
    config = _config(shards=workers)
    result = FabricSupervisor(
        config, FabricConfig(**FAST), dataset=small_dtcp18
    ).run()
    assert result.finished
    assert result.report == batch_reference


def test_fabric_crash_chaos_is_byte_identical(small_dtcp18, batch_reference):
    """Every worker crashes once mid-ingest; failover must be invisible."""
    config = _config(shards=4)
    faults = WorkerFaultPlan(seed=13, crash_rate=1.0, horizon_records=HORIZON)
    events = []
    result = FabricSupervisor(
        config, FabricConfig(worker_faults=faults, max_restarts=25, **FAST),
        dataset=small_dtcp18,
    ).run(on_event=events.append)
    assert result.report == batch_reference
    # The injected crashes account for one death per shard; on a loaded
    # machine the tight FAST miss budget can also declare a *healthy*
    # worker dead (late heartbeat), which the fabric must absorb the
    # same way -- so the floor is exact but the ceiling is not.
    assert sum(1 for line in events if line.startswith("fabric: dead")) >= 4


def test_fabric_stall_chaos_is_byte_identical(small_dtcp18, batch_reference):
    """A stalled worker is declared dead by the miss budget and replaced."""
    config = _config(shards=2)
    faults = WorkerFaultPlan(seed=5, stall_rate=1.0, horizon_records=HORIZON)
    events = []
    result = FabricSupervisor(
        config, FabricConfig(worker_faults=faults, **FAST),
        dataset=small_dtcp18,
    ).run(on_event=events.append)
    assert result.report == batch_reference
    assert any("heartbeat overdue" in line for line in events)


def test_fabric_heartbeat_drop_false_positive_is_byte_identical(
    small_dtcp18, batch_reference
):
    """Killing a *healthy* worker (dropped beats) must also be invisible."""
    config = _config(shards=2)
    # Early trigger, long suppression, and a very tight miss budget so
    # the silent-but-working phase is reliably declared dead; spurious
    # kills of the genuinely healthy shard are themselves false
    # positives the fabric must absorb, hence the roomy restart budget.
    faults = WorkerFaultPlan(seed=8, heartbeat_drop_rate=1.0,
                             heartbeat_drop_beats=500,
                             horizon_records=1_000)
    events = []
    result = FabricSupervisor(
        config,
        FabricConfig(worker_faults=faults, heartbeat_interval=0.02,
                     miss_budget=2, max_restarts=25,
                     restart_backoff=0.01, restart_backoff_max=0.05),
        dataset=small_dtcp18,
    ).run(on_event=events.append)
    assert result.report == batch_reference
    assert any(line.startswith("fabric: dead") for line in events)


def test_fabric_with_capture_faults_matches_batch(small_dtcp18):
    """Measurement faults and process chaos compose deterministically."""
    from repro.faults.plan import FaultPlan

    plan = FaultPlan(seed=5, capture_loss_rate=0.02, outage_fraction=0.02)
    config = _config(shards=4, faults=plan)
    reference = batch_survey_report(config, dataset=small_dtcp18)
    result = FabricSupervisor(
        config,
        FabricConfig(
            worker_faults=WorkerFaultPlan(seed=2, crash_rate=1.0,
                                          horizon_records=HORIZON),
            **FAST,
        ),
        dataset=small_dtcp18,
    ).run()
    assert result.report == reference


def test_fabric_periodic_manifests_and_clean_clear(small_dtcp18,
                                                   batch_reference, tmp_path):
    store_dir = tmp_path / "fabric-ckpt"
    config = _config(
        shards=2,
        checkpoint_every=48 * 3600.0,
        checkpoint_path=str(store_dir),
    )
    result = FabricSupervisor(
        config, FabricConfig(**FAST), dataset=small_dtcp18
    ).run()
    assert result.report == batch_reference
    assert result.checkpoints_written > 0
    # Clean finish: the store is cleared so it cannot hijack a later run.
    assert not store_dir.exists() or not list(store_dir.iterdir())


def test_fabric_restart_budget_degrades_structurally(small_dtcp18):
    """Crash-looping past max_restarts fails loudly, never hangs."""
    config = _config(shards=2, emit_every=None)
    faults = WorkerFaultPlan(seed=21, crash_rate=1.0, crashes_per_shard=99,
                             horizon_records=5_000)
    with pytest.raises(FabricDegradedError, match=r"degraded: shard \d+ "
                                                  r"restarted \d+ times"):
        FabricSupervisor(
            config,
            FabricConfig(max_restarts=1, worker_faults=faults, **FAST),
            dataset=small_dtcp18,
        ).run()


def test_fabric_resume_requires_checkpoint_path(small_dtcp18):
    supervisor = FabricSupervisor(
        _config(shards=2), FabricConfig(**FAST), dataset=small_dtcp18
    )
    with pytest.raises(ValueError, match="checkpoint_path"):
        supervisor.run(resume=True)
