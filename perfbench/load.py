"""Open-loop query load for the ``serve-live`` workload.

One asyncio event loop in the benchmark process drives a running
``python -m repro serve`` over at most ``connections`` keep-alive
HTTP/1.1 connections.  Arrivals are a seeded Poisson process: the
schedule is fixed before the stage starts and does not wait for
replies, so a slow server faces a growing queue instead of a lighter
load.  Each request is timed from the moment it was *due*, so a stall
is charged to every request queued behind it.

The generator measures itself too: ``send_lag`` is how late a request
left the scheduler relative to its due time (generator lateness), and
``backlog`` is how many due requests had not been sent when the stage
ended.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field

#: A request that takes longer than this counts as failed.
REQUEST_TIMEOUT_S = 10.0


@dataclass
class StageResult:
    rate: float
    duration_s: float
    latencies_ms: list[float] = field(default_factory=list)
    send_lag_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    backlog: int = 0
    last_health: dict | None = None


def query_mix(rng: random.Random, known: list[str], campus_prefix: str):
    """Return a function drawing one request target per call.

    Half the address lookups name a host with a discovered service;
    the other half name a random campus address, most of which answer
    404 (a correct answer for an unknown host).
    """
    ports = (22, 25, 53, 80, 443, 3306)

    def address() -> str:
        if known and rng.random() < 0.5:
            return rng.choice(known)
        return f"{campus_prefix}.{rng.randrange(256)}.{rng.randrange(1, 255)}"

    def draw() -> tuple[str, str]:
        pick = rng.random()
        if pick < 0.30:
            return "host", f"/host/{address()}"
        if pick < 0.55:
            return "liveness", f"/liveness/{address()}"
        if pick < 0.70:
            return "services", f"/services?proto=tcp&port={rng.choice(ports)}"
        if pick < 0.80:
            return "services", "/services?limit=100"
        if pick < 0.90:
            return "watermarks", "/watermarks"
        return "healthz", "/healthz"

    return draw


class _Connection:
    """One keep-alive HTTP/1.1 connection; one request at a time."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def get(self, target: str) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
        self.writer.write(
            f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode()
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None


async def run_stage(
    host: str,
    port: int,
    rate: float,
    seed: "int | str",
    known: list[str],
    campus_prefix: str,
    connections: int,
    max_duration_s: float,
) -> StageResult:
    """Drive one stage until ``/healthz`` reports ingest ``finished``.

    The stage ends at the first ``/healthz`` answer in the mix that
    reports ingest finished or failed, or after *max_duration_s*.
    Requests already due by then are still sent and timed; the number
    of them not yet sent at the end is the stage's backlog.
    """
    rng = random.Random(seed)
    draw = query_mix(random.Random(rng.getrandbits(64)), known, campus_prefix)
    queue: asyncio.Queue = asyncio.Queue()
    done = asyncio.Event()
    result = StageResult(rate=rate, duration_s=0.0)
    started = time.perf_counter()

    def note_health(body: bytes) -> None:
        health = json.loads(body)
        result.last_health = health
        if health.get("ingest") in ("finished", "failed") and not done.is_set():
            result.duration_s = time.perf_counter() - started
            result.backlog = queue.qsize()
            done.set()

    async def schedule() -> None:
        due = started
        while not done.is_set():
            due += rng.expovariate(rate)
            delay = due - time.perf_counter()
            if delay > 0:
                try:
                    await asyncio.wait_for(done.wait(), delay)
                    return
                except asyncio.TimeoutError:
                    pass
            if done.is_set():
                return
            if due - started > max_duration_s:
                result.duration_s = time.perf_counter() - started
                result.backlog = queue.qsize()
                done.set()
                return
            result.send_lag_ms.append((time.perf_counter() - due) * 1e3)
            queue.put_nowait((due, *draw()))

    async def worker(conn: _Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due, endpoint, target = item
            result.attempted += 1
            try:
                status, body = await asyncio.wait_for(
                    conn.get(target), REQUEST_TIMEOUT_S
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError, IndexError):
                conn.close()
                status, body = 599, b""
            latency_ms = (time.perf_counter() - due) * 1e3
            ok = status == 200 or (status == 404 and endpoint == "host")
            if not ok:
                result.failed += 1
                latency_ms = max(latency_ms, REQUEST_TIMEOUT_S * 1e3)
            result.latencies_ms.append(latency_ms)
            if endpoint == "healthz" and status == 200:
                note_health(body)

    conns = [_Connection(host, port) for _ in range(connections)]
    workers = [asyncio.create_task(worker(c)) for c in conns]
    await schedule()
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    for conn in conns:
        conn.close()
    return result
