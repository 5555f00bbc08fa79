"""End-to-end benchmark of the commands people run: ``python -m repro ...``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

``survey-usc``   ``survey usc`` -- cold run, then warm runs on its cache.
``fabric-90d``   ``stream DTCP1-90d`` through the process fabric, with
                 capture loss.
``serve-live``   ``serve usc`` with heartbeat probing under open-loop
                 Poisson queries, a fresh server per stage.

Every command runs as its own process from the checkout's ``src``
tree, with the record-once trace cache pointed at an empty directory
under ``.bench_build/``.  Every run's output is checked against the
batch path (:func:`repro.stream.engine.batch_survey_report`), computed
once per seed in this process, outside the timing, and stored.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
untraced passes, then runs the command again under
``perfbench/traced_cli.py`` and prints the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFS = WORK / "refs"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import load  # noqa: E402

#: Scale of the DTCP1-90d workload (see README: run budget).
SCALE_90D = "0.02"
#: Fewest set-ups (runs from an empty trace cache) a run's setup_s is
#: the median of.
SETUPS = 2
#: Query rate of serve-live's untraced stages.
STAGE_RATE = 100
#: Query rates of the serve-live ladder (traced run), one fresh server each.
RATES = (STAGE_RATE, 200, 300, 400)
#: Fewest fresh servers an untraced serve-live run loads at STAGE_RATE.
MIN_STAGES = 3
#: A ladder rate is sustained when its p99 is within this limit...
P99_LIMIT_MS = 100.0
#: ...and fewer than this many seconds of arrivals are left queued.
BACKLOG_LIMIT_S = 0.1
#: Keep-alive connections of the load generator: nproc, at most 2.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Heartbeat probes over DTCP1-18d at 2 probes/s: 18 days x 86400 s x 2.
EXPECTED_PROBES = 3_110_400
#: The /16 of the usc campus, for queries about unknown hosts.
CAMPUS_PREFIX = "128.125"
#: Longest a serve-live stage may run before it is cut off.
STAGE_LIMIT_S = 120.0

SURVEY = ["survey", "usc"]
FABRIC = ["stream", "DTCP1-90d", "--scale", SCALE_90D, "--workers", "2",
          "--loss-rate", "0.01", "--emit-every", "24", "--checkpoint-every", "24"]
SERVE = ["serve", "usc", "--port", "0", "--shards", "2",
         "--probe-policy", "heartbeat", "--probe-rate", "2",
         "--checkpoint-every", "24", "--checkpoint", "usc.checkpoint"]

HEADERS = re.compile(r"\): ([\d,]+) headers")

@dataclass
class Run:
    """One finished command: wall time, exit code and output."""

    wall: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list[str], attempted: int = 1,
               failed: int | None = None) -> None:
        """Count *attempted* operations; *failed* default: all if any problem."""
        self.attempted += attempted
        if failed is None:
            failed = attempted if problems else 0
        self.failed += failed
        self.problems.extend(f"{what}: {problem}" for problem in problems)


def child_env(cache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_CACHE"] = str(cache)
    return env


def command(argv: list[str], trace_dir: Path | None) -> list[str]:
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir), *argv]


def run_cli(argv, cache: Path, cwd: Path, trace_dir: Path | None = None) -> Run:
    """Run one command to completion and time it."""
    cwd.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    proc = subprocess.run(
        command(argv, trace_dir), cwd=cwd, env=child_env(cache),
        capture_output=True, text=True,
    )
    return Run(time.perf_counter() - started, proc.returncode,
               proc.stdout, proc.stderr)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Largest resident set among every waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---- references (outside the timing) ----------------------------------


def _import_repro() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Digest of the ``repro`` sources: a reference is valid for one tree."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stored_reference(config: str, compute):
    """*compute()*'s JSON result for *config*, once per source tree.

    *config* names everything the result depends on besides the
    sources, the seed included, so a later run of the same checkout at
    a seed seen before reads the stored value instead of rebuilding it.
    """
    key = hashlib.sha256(f"{source_digest()}\0{config}".encode()).hexdigest()
    path = REFS / f"{key[:32]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    value = compute()
    REFS.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(value))
    partial.replace(path)
    return value


def recorded_traces(cache: Path) -> list:
    """The traces a command has recorded into the trace cache *cache*."""
    _import_repro()
    from repro.trace.cache import TraceCache

    return TraceCache(root=cache).entries()


def reference_report(name: str, seed: int, cache: Path | None = None) -> str:
    """``batch_survey_report`` for the config a workload's command runs.

    With *cache* the batch path replays the trace recorded there.
    """
    _import_repro()
    from repro.faults.plan import FaultPlan
    from repro.stream import StreamConfig

    if name == "survey-usc":
        config = StreamConfig(dataset="usc", seed=seed, scale=0.1)
    else:
        config = StreamConfig(
            dataset="DTCP1-90d", seed=seed, scale=float(SCALE_90D),
            faults=FaultPlan(seed=0, capture_loss_rate=0.01),
        )
    return stored_reference(repr(config), lambda: _batch_report(config, cache))


def _batch_report(config, cache: Path | None) -> str:
    from repro.stream.engine import batch_survey_report
    from repro.trace.cache import default_trace_cache

    os.environ["REPRO_TRACE_CACHE"] = str(cache) if cache else "off"
    report = batch_survey_report(config)
    # Fold the cache counters now: flushed at exit, they would recreate
    # the run's scratch directory after it is removed.
    default_trace_cache().flush_persistent_stats()
    return report


def reference_serve(seed: int) -> dict:
    """Records, endpoints and known server addresses of ``usc`` at *seed*.

    The same replay :func:`batch_survey_report` performs, keeping the
    passive table so its endpoint count and server list are visible.
    """
    return stored_reference(
        f"serve usc seed={seed} scale=0.1", lambda: _serve_reference(seed)
    )


def _serve_reference(seed: int) -> dict:
    _import_repro()
    from repro.datasets import build_dataset
    from repro.net.addr import format_ipv4
    from repro.passive.monitor import PassiveServiceTable

    os.environ["REPRO_TRACE_CACHE"] = "off"
    dataset = build_dataset("usc", seed=seed, scale=0.1)
    table = PassiveServiceTable(
        is_campus=dataset.is_campus,
        tcp_ports=dataset.tcp_ports,
        udp_ports=dataset.udp_ports,
    )
    records = dataset.replay(table)
    return {
        "records": records,
        "endpoints": len(table.first_seen),
        "known": sorted(format_ipv4(a) for a in table.server_addresses()),
    }


# ---- finishing commands: survey-usc, fabric-90d ----------------------


def check_run(run: Run, reference: str, tally: Tally, what: str) -> int:
    """Check one run's output; returns the records its report covers."""
    problems = []
    if run.code != 0:
        problems.append(f"exit code {run.code}")
    if not run.stdout.endswith(reference + "\n"):
        problems.append("report differs from the batch reference")
    restarts = run.stderr.count("fabric: reassign ")
    if restarts:
        problems.append(f"{restarts} fabric restart(s)")
    tally.record(what, problems)
    found = HEADERS.search(reference)
    return int(found.group(1).replace(",", "")) if found else 0


def finishing(name: str, argv: list[str], seed: int, seconds: float,
              trace: bool, out: Path, tally: Tally) -> dict:
    """Run the command from an empty cache, then again on what it left.

    The first run is set-up.  Later runs are timed until *seconds* of
    them have passed.  ``setup_s`` is the median of every run that began
    with an empty trace cache: every run of a command that records
    nothing into the cache (today ``stream``); for one that does, the
    first run and more set-ups from an emptied cache, SETUPS in all.
    """
    argv = [*argv, "--seed", str(seed)]
    cache = out / "cache"
    reference = None
    if name != "survey-usc":
        reference = reference_report(name, seed)
    colds: list[float] = []
    walls: list[float] = []
    records = 0
    measure_start = None
    while measure_start is None or not walls or (
        time.perf_counter() - measure_start < seconds
    ):
        cold = not recorded_traces(cache)
        run = run_cli(argv, cache, out / "cwd")
        if reference is None:
            # Built from the recording the cold run left; the cold run's
            # own report, from freshly generated traffic, is checked
            # against it.
            reference = reference_report(name, seed, cache)
        if cold:
            colds.append(run.wall)
        if measure_start is None:
            records = check_run(run, reference, tally, "cold run")
            measure_start = time.perf_counter()
        else:
            check_run(run, reference, tally, f"pass {len(walls) + 1}")
            walls.append(run.wall)
    while len(colds) < SETUPS:
        shutil.rmtree(cache, ignore_errors=True)
        run = run_cli(argv, cache, out / "cwd")
        check_run(run, reference, tally, f"set-up {len(colds) + 1}")
        colds.append(run.wall)
    setup = statistics.median(colds)
    wall = statistics.median(walls)
    report_rows = {"passes": len(walls), "cold passes": len(colds),
                   "records": records}
    if not trace:
        return {
            "setup_s": setup,
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb(),
            "_notes": report_rows,
            # Printed, not gated: see README, "End-to-end metrics".
            "_shown": {"records_per_s": records / wall},
        }
    # Traced: a fresh cache, so the cold pass's layers show too.
    traced_cache = out / "traced-cache"
    traced_wall = 0.0
    restarts = 0
    for index in range(2):
        run = run_cli(argv, traced_cache, out / "cwd", out / "spans")
        check_run(run, reference, tally, f"traced pass {index + 1}")
        traced_wall += run.wall
        restarts += run.stderr.count("fabric: reassign ")
    metrics = layer_metrics(out / "spans", traced_wall, colds[0] + wall)
    metrics["fabric.restarts"] = restarts
    return metrics


def layer_metrics(spans: Path, traced_wall: float, untraced_wall: float) -> dict:
    metrics = layers.summarize(spans)
    metrics["unattributed_s"] = traced_wall - metrics.pop("covered_s")
    metrics["tracing.overhead_pct"] = (traced_wall / untraced_wall - 1) * 100
    for rate in RATES:
        for key in ("query_p50_ms", "query_p99_ms", "load.send_lag_p99_ms",
                    "load.backlog"):
            metrics.setdefault(f"{key}.r{rate}", 0.0)
    metrics.setdefault("query_max_qps", 0.0)
    metrics.setdefault("fabric.restarts", 0)
    return metrics


# ---- serve-live -------------------------------------------------------


@dataclass
class Stage:
    rate: int
    setup_s: float
    wall_s: float
    result: load.StageResult


def serve_stage(argv, rate: int, index: int, seed: int, ref: dict, out: Path,
                tally: Tally, trace_dir: Path | None = None) -> Stage:
    """Launch a fresh ``serve``, load it until ingest ends, stop it.

    Stage *index* gets its own working directory (for the checkpoint),
    its own empty trace cache, and its own arrivals, seeded from *seed*,
    *rate* and *index*.
    """
    cwd = out / f"stage-{index}"
    cwd.mkdir(parents=True, exist_ok=True)
    launched = time.perf_counter()
    proc = subprocess.Popen(
        command(argv, trace_dir), cwd=cwd, env=child_env(cwd / "cache"),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    address = None
    for line in proc.stderr:
        if "serving on http://" in line:
            address = line.rsplit("//", 1)[1].strip()
            break
    setup = time.perf_counter() - launched
    drain = threading.Thread(target=proc.stderr.read)  # never block serve
    drain.start()
    result = None
    try:
        if address is not None:
            host, port = address.rsplit(":", 1)
            result = asyncio.run(load.run_stage(
                host, int(port), float(rate), f"{seed}/{rate}/{index}", ref["known"],
                CAMPUS_PREFIX, CONNECTIONS, STAGE_LIMIT_S,
            ))
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        drain.join()
    what = f"serve r{rate} #{index}"
    problems = [] if code == 0 else [f"exit code {code} after SIGTERM"]
    if result is None:
        problems.append("never announced 'serving on'")
        tally.record(what, problems)
        result = load.StageResult(rate=rate, duration_s=STAGE_LIMIT_S)
        return Stage(rate, setup, STAGE_LIMIT_S, result)
    health = result.last_health or {}
    issued = (health.get("probes") or {}).get("issued")
    expected = {
        "ingest": (health.get("ingest"), "finished"),
        "records": (health.get("records"), ref["records"]),
        "endpoints": (health.get("endpoints"), ref["endpoints"]),
        "probes issued": (issued, EXPECTED_PROBES),
    }
    problems += [
        f"{key} {got!r} != {want!r}"
        for key, (got, want) in expected.items() if got != want
    ]
    tally.record(what, problems)
    tally.record(
        what, [f"{result.failed} failed requests"] if result.failed else [],
        attempted=result.attempted, failed=result.failed,
    )
    return Stage(rate, setup, result.duration_s, result)


def pooled_rows(rate: int, stages: list[Stage]) -> dict:
    """Load metrics of the stages at *rate*, their requests pooled."""
    latencies = [ms for stage in stages for ms in stage.result.latencies_ms]
    lags = [ms for stage in stages for ms in stage.result.send_lag_ms]
    return {
        f"query_p50_ms.r{rate}": quantile(latencies or [0.0], 0.5),
        f"query_p99_ms.r{rate}": quantile(latencies or [0.0], 0.99),
        f"load.send_lag_p99_ms.r{rate}": quantile(lags or [0.0], 0.99),
        f"load.backlog.r{rate}": max(stage.result.backlog for stage in stages),
    }


def sustained(stage: Stage) -> bool:
    result = stage.result
    return (
        bool(result.latencies_ms)
        and quantile(result.latencies_ms, 0.99) <= P99_LIMIT_MS
        and result.backlog < stage.rate * BACKLOG_LIMIT_S
        and result.failed == 0
    )


def serve_live(seed: int, seconds: float, trace: bool, out: Path,
               tally: Tally) -> dict:
    """Fresh servers at STAGE_RATE until *seconds* of stages have run.

    The traced run adds one fresh server per other ladder rate, for the
    knee, and one traced server at STAGE_RATE, for the layers.
    """
    argv = [*SERVE, "--seed", str(seed)]
    ref = reference_serve(seed)
    stages: list[Stage] = []
    measured = 0.0
    while len(stages) < MIN_STAGES or measured < seconds:
        stage = serve_stage(argv, STAGE_RATE, len(stages), seed, ref, out, tally)
        stages.append(stage)
        measured += stage.setup_s + stage.wall_s
    if trace:
        stages += [
            serve_stage(argv, rate, len(stages) + index, seed, ref, out, tally)
            for index, rate in enumerate(RATES) if rate != STAGE_RATE
        ]
    for index, stage in enumerate(stages):
        print(
            f"# stage {index} r{stage.rate}: setup {stage.setup_s:.2f} s, "
            f"ingest {stage.wall_s:.2f} s, {len(stage.result.latencies_ms)} "
            f"requests, p50 {quantile(stage.result.latencies_ms or [0.0], 0.5):.1f} ms, "
            f"backlog {stage.result.backlog}"
        )
    base = [stage for stage in stages if stage.rate == STAGE_RATE]
    setup = statistics.median(stage.setup_s for stage in base)
    wall = statistics.median(stage.wall_s for stage in base)
    if not trace:
        return {
            "setup_s": setup,
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb(),
            "_notes": {"stages": len(base)},
            # Printed, not gated: see README, "End-to-end metrics".
            "_shown": {"records_per_s": ref["records"] / wall,
                       **pooled_rows(STAGE_RATE, base)},
        }
    rows: dict = {}
    for rate in RATES:
        rows.update(pooled_rows(rate, [s for s in stages if s.rate == rate]))
    rows["query_max_qps"] = max(
        (stage.rate for stage in stages
         if all(sustained(s) for s in stages if s.rate == stage.rate)),
        default=0,
    )
    traced = serve_stage(argv, STAGE_RATE, len(stages), seed, ref, out, tally,
                         out / "spans")
    metrics = layer_metrics(
        out / "spans", traced.setup_s + traced.wall_s, setup + wall
    )
    metrics.update(rows)
    return metrics


# ---- entry point ------------------------------------------------------


WORKLOADS = {
    "survey-usc": functools.partial(finishing, "survey-usc", SURVEY),
    "fabric-90d": functools.partial(finishing, "fabric-90d", FABRIC),
    "serve-live": serve_live,
}

UNITS = {
    "peak_rss_mb": "MB", "records_per_s": "rec/s",
    "active.sweeps": "count", "active.probes": "count",
    "traffic.records": "count", "trace.bytes_read": "B",
    "trace.cache_hits": "count", "trace.cache_misses": "count",
    "faults.records": "count", "passive.records": "count",
    "stream.checkpoint_bytes": "B", "stream.checkpoints": "count",
    "fabric.checkpoint_bytes": "B", "fabric.restarts": "count",
    "probe.issued": "count", "query.publishes": "count",
    "query_max_qps": "q/s", "tracing.overhead_pct": "%",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or ".handle_s." in name:
        return "s"
    if "_ms." in name:
        return "ms"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    out = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally = Tally()
    try:
        metrics = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), out, tally
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    notes = metrics.pop("_notes", {})
    shown = metrics.pop("_shown", {})
    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in notes.items():
        print(f"# {key} = {value}")
    for name, value in [*sorted(metrics.items()), *shown.items()]:
        print(f"{name:32s} {value:14.4f} {unit_of(name)}")
    print(f"{'failed_frac':32s} {failed_frac:14.4f} ratio")
    for problem in tally.problems:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
