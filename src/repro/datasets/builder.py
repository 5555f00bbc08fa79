"""Materialising datasets.

:func:`build_dataset` runs the whole production pipeline for one
registry entry: synthesise the population, realise the external scan
plan, take the active scans on the paper's 11:00/23:00 schedule, and
wrap the border traffic in a replayable stream.

Active scanning happens at build time (its results are part of the
dataset, as the paper's Nmap logs were); passive analysis happens at
replay time so any number of observers can share one pass.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator

from repro.active.prober import HalfOpenScanner, ScannerConfig
from repro.active.results import ScanReport, UdpScanReport
from repro.active.schedule import scan_start_times
from repro.active.udp_scan import GenericUdpProber
from repro.campus.population import (
    CampusPopulation,
    attach_udp_population,
    synthesize_allports_population,
    synthesize_population,
)
from repro.campus.profiles import (
    allports_profile,
    break_profile,
    dudp_profile,
    semester_profile,
)
from repro.datasets.registry import DatasetSpec, get_spec
from repro.net.addr import AddressClass
from repro.net.packet import PacketRecord
from repro.net.ports import SELECTED_TCP_PORTS, SELECTED_UDP_PORTS
from repro.simkernel.clock import Calendar, hours
from repro.simkernel.rng import RngStreams, derive_seed
from repro.telemetry.metrics import registry as _telemetry_registry
from repro.trace.cache import default_trace_cache
from repro.trace.columnar import (
    DEFAULT_CHUNK_RECORDS,
    ColumnarTraceWriter,
    RecordColumns,
    read_trace_columns,
)
from repro.trace.format import DEFAULT_BATCH_RECORDS
from repro.traffic.generator import (
    GENERATOR_VERSION,
    TrafficMix,
    border_packet_stream,
    default_diurnal,
)
from repro.traffic.scans import build_scan_plan

#: Sweep length of one full active scan; the paper reports 90-120
#: minutes for the large datasets.
SCAN_SWEEP_SECONDS = hours(1.75)


@dataclass
class BuiltDataset:
    """A fully materialised dataset.

    Attributes
    ----------
    spec:
        The registry entry this build realises.
    population:
        The synthesised campus (ground truth; analyses must not peek).
    calendar:
        Maps dataset seconds to wall-clock time.
    mix:
        Border-traffic composition (scan plan, diurnal, noise).
    traffic_seed:
        Seed of the replayable packet stream.
    scan_reports:
        Active TCP scans, in schedule order.
    udp_report:
        The generic UDP sweep (DUDP only).
    scale:
        Population scale the build used (1.0 = the paper's counts).
    """

    spec: DatasetSpec
    population: CampusPopulation
    calendar: Calendar
    mix: TrafficMix
    traffic_seed: int
    scan_reports: list[ScanReport] = field(default_factory=list)
    udp_report: UdpScanReport | None = None
    scale: float = 1.0
    #: Master seed the build derived everything from (trace-cache key).
    seed: int = 0
    #: Fault plan the build was taken under (None = perfect observer).
    #: Active scans degrade at build time; passive capture loss is
    #: applied per replay via the ``faults=`` parameter.  The border
    #: *traffic* is never faulted -- faults model the measurement, not
    #: the network -- so the trace cache always stores ground truth.
    faults: "object | None" = None

    @property
    def duration(self) -> float:
        return self.spec.passive_seconds

    @property
    def tcp_ports(self) -> frozenset[int] | None:
        """Watched TCP ports; None means all (the DTCPall study)."""
        if self.spec.ports == "tcp-selected":
            return frozenset(SELECTED_TCP_PORTS)
        if self.spec.ports == "tcp-all":
            return None
        return frozenset()

    @property
    def udp_ports(self) -> frozenset[int]:
        if self.spec.ports == "udp-selected":
            return frozenset(SELECTED_UDP_PORTS)
        return frozenset()

    @cached_property
    def is_campus(self) -> Callable[[int], bool]:
        """Campus-membership predicate (``dataset.is_campus(addr)``).

        A cached closure rather than a bound method: observers call it
        up to three times per captured record, so the prefix match is
        bound into locals once instead of walking
        ``population.topology`` per call.
        """
        return self.population.topology.campus_predicate()

    @property
    def trace_cache_key(self) -> tuple[str, int, str, int]:
        """Content address of this build's border trace.

        ``(name, seed, scale, generator version)`` -- everything the
        generated stream is a pure function of.  The scale is keyed by
        ``repr`` so 0.1 and 0.10 alias but distinct floats never do.
        """
        return (self.spec.name, self.seed, repr(self.scale), GENERATOR_VERSION)

    def _generate_stream(self, end: float | None = None) -> Iterator[PacketRecord]:
        """Regenerate the border capture from the traffic model."""
        return border_packet_stream(
            self.population,
            self.mix,
            seed=self.traffic_seed,
            start=0.0,
            end=self.duration if end is None else end,
        )

    def _full_pass(self, end: float | None) -> bool:
        return end is None or end >= self.duration

    def record_batches(
        self,
        end: float | None = None,
        skip: int = 0,
        batch_records: int = DEFAULT_BATCH_RECORDS,
    ) -> Iterator[RecordColumns]:
        """One pass over the border capture as column batches.

        Batches hold at most *batch_records* rows and start *skip*
        records into the pass.  Full-duration passes are served from
        the record-once trace cache when a recording exists (zero-copy
        slices of the mapped file); partial passes and cache misses
        regenerate the traffic and columnise it batch by batch.  The
        records are identical either way, so a resumed run continues
        the exact stream the killed run was consuming.
        """
        return self._open_pass(end, skip, batch_records, record=False)[1]

    def _open_pass(
        self, end: float | None, skip: int, batch_records: int, record: bool
    ) -> tuple[str, Iterator[RecordColumns]]:
        """The origin (``"cached"``, ``"recorded"`` or ``"generated"``)
        and the batches of one pass; see :meth:`record_batches`.

        With *record*, a full pass that misses the cache records the
        generated trace into it as the batches flow.
        """
        cache = default_trace_cache()
        if cache.enabled and self._full_pass(end):
            cached = cache.lookup(self.trace_cache_key)
            if cached is not None:
                return "cached", read_trace_columns(cached, batch_records, skip)
            if record:
                return "recorded", self._recorded_batches(cache)
        return "generated", self._generated_batches(end, skip, batch_records)

    def _generated_batches(
        self, end: float | None, skip: int, batch_records: int
    ) -> Iterator[RecordColumns]:
        """Regenerate the pass and columnise it *batch_records* at a time.

        Skipped records feed no observer, so skipping them is cheap.
        """
        stream = self._generate_stream(end)
        if skip:
            next(islice(stream, skip - 1, skip), None)
        while True:
            batch = RecordColumns.from_records(islice(stream, batch_records))
            if not len(batch):
                return
            yield batch

    def _recorded_batches(self, cache) -> Iterator[RecordColumns]:
        """The generated batches, written into the cache as they flow.

        Each batch is written before it is yielded, so the recording
        sits *before* any fault filter: the cache holds ground truth,
        the observers see the lossy capture.  A batch is one writer
        chunk, which lays out the same bytes as writing the records
        one by one.  A pass abandoned before the end (an observer
        raises, or the consumer closes the generator) discards the
        partial file, so no cache entry appears.  When the build's
        fault plan injects storage faults, the freshly committed entry
        may be truncated in place -- the next lookup then detects the
        damage, evicts, and regenerates, exercising the recovery path
        end to end.
        """
        batches = self._generated_batches(None, 0, DEFAULT_CHUNK_RECORDS)
        try:
            pending = cache.begin_write(self.trace_cache_key)
        except OSError:
            # Unwritable cache directory: serve the pass without recording.
            yield from batches
            return
        try:
            with ColumnarTraceWriter.open(pending.tmp_path) as writer:
                for batch in batches:
                    writer.write_columns(batch)
                    yield batch
            final = pending.commit()
        except BaseException:
            pending.abort()
            raise
        if self.faults is not None:
            self.faults.maybe_corrupt_trace(final, self.trace_cache_key)

    def replay(self, *observers, end: float | None = None, faults=None) -> int:
        """Feed one pass into *observers*; return the record count.

        Record-once/analyze-many: the first full-duration replay
        generates the traffic, writing it into the trace cache while
        the observers consume it; every later full-duration replay
        reads the stored trace back as zero-copy column batches.
        Partial replays (``end`` before the dataset end) always
        regenerate -- truncated generation is not a prefix of the full
        stream.  Every origin feeds the one pass loop,
        :func:`repro.passive.monitor.replay`, so observer results are
        identical on every path.

        *faults* (a fresh :class:`repro.faults.capture.CaptureFilter`,
        usually ``plan.capture_filter(dataset.duration)``) drops
        records between the stored/generated stream and the observers
        -- lossy capture over ground-truth traffic.  The cache always
        records the unfaulted stream, so one recording serves every
        loss rate, and the returned count is what the observers saw.
        """
        from repro.passive.monitor import replay as _replay
        from time import perf_counter

        cache = default_trace_cache()
        reg = _telemetry_registry()
        tap = None
        if reg.enabled:
            # Appended after the caller's observers, the tap sees the
            # records they see (including fault drops) without changing
            # what any of them receives.
            from repro.telemetry.tap import ReplayTap

            tap = ReplayTap()
            observers = tuple(observers) + (tap,)
        started = perf_counter()
        source, batches = self._open_pass(
            end, 0, DEFAULT_CHUNK_RECORDS, record=True
        )
        with closing(batches):
            count = _replay(batches, *observers, faults=faults)
        elapsed = perf_counter() - started
        cache.stats.note_replay(count, elapsed)
        if tap is not None:
            tap.flush_into(reg)
            if faults is not None:
                drops = faults.stats
                reg.counter(
                    "repro_passive_dropped_total",
                    "Records the monitors failed to capture, by cause.",
                    cause="loss",
                ).inc(drops.dropped_loss)
                reg.counter(
                    "repro_passive_dropped_total",
                    "Records the monitors failed to capture, by cause.",
                    cause="outage",
                ).inc(drops.dropped_outage)
            reg.counter(
                "repro_replay_records_total",
                "Records delivered per replay pass, summed.",
            ).inc(count)
            reg.counter(
                "repro_replay_seconds_total",
                "Wall time spent inside replay passes.",
            ).inc(elapsed)
            reg.counter(
                "repro_replay_passes_total",
                "Replay passes by stream source.",
                source=source,
            ).inc()
            reg.histogram(
                "repro_replay_pass_seconds",
                "Distribution of whole-pass replay durations.",
            ).observe(elapsed)
            if elapsed > 0:
                reg.gauge(
                    "repro_replay_records_per_sec",
                    "Throughput of the most recent replay pass.",
                ).set(count / elapsed)
        return count

    def scan_windows(self) -> list[tuple[float, float]]:
        """(start, end) of every active scan, in order."""
        return [(report.start, report.end) for report in self.scan_reports]

    def probe_targets(self) -> list[int]:
        """The addresses the campus scanner probes.

        The paper "was not able to actively probe the wireless address
        range"; the target list reproduces that exclusion.
        """
        space = self.population.topology.space
        return [
            address
            for address in space.addresses()
            if space.class_of(address) is not AddressClass.WIRELESS
        ]

    def transient_addresses(self) -> set[int]:
        """Addresses in transient blocks (the DTCP1-18d-trans subset)."""
        space = self.population.topology.space
        return {
            address
            for block in space.blocks
            if block.is_transient
            for address in block.addresses()
        }


def _make_profile(spec: DatasetSpec, scale: float):
    factories = {
        "semester": semester_profile,
        "break": break_profile,
        "dudp": dudp_profile,
        "allports": lambda _scale: allports_profile(),
    }
    if spec.profile not in factories:
        raise ValueError(f"unknown profile {spec.profile!r} in spec {spec.name}")
    return factories[spec.profile](scale)


def build_dataset(
    name: str, seed: int = 0, scale: float = 1.0, faults=None
) -> BuiltDataset:
    """Build the named dataset.

    Parameters
    ----------
    name:
        Registry name (e.g. ``"DTCP1-18d"``).  Subset rows
        (DTCP1-12h, DTCP1-18d-trans) build their parent dataset; the
        experiments take the subset view.
    seed:
        Master seed; population, scan plan and traffic derive
        independent streams from it.
    scale:
        Population scale (1.0 reproduces the paper's counts).
    faults:
        Optional :class:`repro.faults.plan.FaultPlan`.  Degrades the
        *measurement* only: active scans taken at build time see probe
        loss and prober downtime, and committed trace-cache entries
        may be corrupted.  The population and border traffic are
        untouched, so a faulted build shares its trace-cache entry
        with the pristine build.  ``FaultPlan.none()`` (or ``None``)
        is byte-identical to an unfaulted build.
    """
    spec = get_spec(name)
    if faults is not None and faults.is_null:
        faults = None
    if spec.subset_of is not None:
        parent = get_spec(spec.subset_of)
        return build_dataset(parent.name, seed=seed, scale=scale, faults=faults)

    profile = _make_profile(spec, scale)
    duration = spec.passive_seconds
    population_seed = derive_seed(seed, f"population.{spec.name}")
    if spec.profile == "allports":
        population = synthesize_allports_population(population_seed, duration)
    else:
        population = synthesize_population(profile, population_seed, duration)
    if spec.ports == "udp-selected":
        attach_udp_population(
            population, derive_seed(seed, f"udp.{spec.name}"), scale=scale
        )

    calendar = Calendar(spec.start_date)
    plan_streams = RngStreams(derive_seed(seed, f"scanplan.{spec.name}"))
    scan_plan = build_scan_plan(profile.scan_climate, plan_streams, duration)
    mix = TrafficMix(
        scan_plan=scan_plan,
        diurnal=default_diurnal(calendar),
        academic_fraction=spec.academic_fraction,
        outbound_noise_flows_per_day=profile.outbound_noise_flows_per_day,
    )
    dataset = BuiltDataset(
        spec=spec,
        population=population,
        calendar=calendar,
        mix=mix,
        traffic_seed=derive_seed(seed, f"traffic.{spec.name}"),
        scale=scale,
        seed=seed,
        faults=faults,
    )
    _run_active_scans(dataset)
    return dataset


def _run_active_scans(dataset: BuiltDataset) -> None:
    """Take the dataset's active scans per its Table 1 schedule."""
    spec = dataset.spec
    if spec.ports == "udp-selected":
        prober = GenericUdpProber(dataset.population)
        dataset.udp_report = prober.scan(
            targets=dataset.probe_targets(),
            ports=list(dataset.udp_ports),
            start=hours(1),
            duration=SCAN_SWEEP_SECONDS,
        )
        return
    if spec.scan_interval_hours == 0:
        return  # passive-only dataset (DTCP1-90d)
    scanner = HalfOpenScanner(
        dataset.population, ScannerConfig(parallelism=2), faults=dataset.faults
    )
    if spec.ports == "tcp-all":
        # DTCPall: one sweep of every port, taking nearly 24 hours.
        report = scanner.scan_open_ports_of_population(
            start=hours(0.5), duration=hours(23), scan_id=0
        )
        dataset.scan_reports = [report]
        return
    scan_window = (
        spec.scan_window_seconds
        if spec.scan_window_seconds is not None
        else dataset.duration
    )
    starts = scan_start_times(dataset.calendar, 0.0, min(scan_window, dataset.duration))
    if spec.scan_interval_hours is None:
        starts = starts[:1]
    targets = dataset.probe_targets()
    ports = sorted(dataset.tcp_ports or ())
    for scan_id, start in enumerate(starts):
        dataset.scan_reports.append(
            scanner.scan(
                targets,
                ports,
                start=start,
                duration=SCAN_SWEEP_SECONDS,
                scan_id=scan_id,
            )
        )
