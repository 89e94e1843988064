"""Timing bookkeeping shared by every workload.

A :class:`Phase` collects one measured phase: per-operation latencies,
attempted and failed operation counts, the satisfied-query count of
every checked solve, and the time the benchmark spends on its own work
(generating inputs, updating its mirrors, checking answers).  That
benchmark time is excluded from the phase clock, so goodput is answers
per second of the program's work only.

The host's speed drifts, so a fixed probe (:class:`LoopProbe`, or
:class:`EchoProbe` for the served workload) runs between rounds and the
phase's timings are scaled by the probe's reference time over its median
time: the metrics report figures at the reference host speed and print
the raw ones beside them.  Goodput is the median over ``BLOCKS`` equal
runs of whole rounds, each scaled by its own probes, so that a burst of
host noise (a neighbour's disk or CPU) shorter than half the phase does
not move it.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import resource
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext


class CheckFailure(Exception):
    """An answer the independent checks refuse."""


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_ms() -> float:
    """One pass of a fixed pure-Python loop (about 1 ms on a 2-CPU host)."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    elapsed = (time.perf_counter() - start) * 1000.0
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


class LoopProbe:
    """The host-speed probe of the in-process workloads: the fixed loop.

    ``times()`` returns the probe's operation times (one pass here);
    ``reference(q)`` says which quantile of all of a phase's probe
    operation times scales a latency quantile ``q``, and that quantile's
    time at the reference host speed.
    """

    #: one pass on the reference host at its usual speed
    ref_ms = 1.2

    def times(self) -> list[float]:
        return [probe_ms()]

    def reference(self, q: float) -> tuple[float, float]:
        # every latency quantile is scaled by the median pass
        return 0.5, self.ref_ms

    def close(self) -> None:
        pass


class EchoProbe:
    """The host-speed probe of the served workload: 16 loopback HTTP
    round trips, over one keep-alive connection, to an asyncio echo server
    of the benchmark's own that decodes and re-encodes the JSON body on a
    one-thread executor.

    It makes the same kinds of hand-off as a served request (client
    thread, event loop thread, executor thread, loopback socket) with
    none of the program's code.  On a 2-CPU host those hand-offs slow by
    more than pure computation when the host is busy: across ten runs of
    ``http_small`` its goodput moved as the loop probe's time to the power
    1.3, and as this probe's to the power 1.1.  A busy host also widens
    the spread of round-trip times, so a latency quantile is scaled by
    the same quantile of the probe's round trips.
    """

    #: the 16 round trips on the reference host at its usual speed
    ref_ms = 8.0
    #: quantiles of one round trip on the reference host (the calmest of
    #: eight runs, its median set to ref_ms / 16)
    REF_TRIP_MS = {0.5: 0.5, 0.75: 0.57, 0.8: 0.59, 0.85: 0.62, 0.9: 0.67}
    ROUND_TRIPS = 16

    def __init__(self) -> None:
        self._pool = ThreadPoolExecutor(1)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, args=(started,), name="perfbench-echo", daemon=True
        )
        self._thread.start()
        started.wait()
        self._conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=30)
        self._body = json.dumps({"tenant": "t00", "new_tuple": 1234, "budget": 3}).encode()

    def _serve(self, started: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0)
        )
        self._port = self._server.sockets[0].getsockname()[1]
        started.set()
        self._loop.run_forever()

    async def _handle(self, reader, writer) -> None:
        try:
            while await reader.readline():  # the request line
                length = 0
                while (header := await reader.readline()) not in (b"\r\n", b""):
                    name, _, value = header.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                body = await reader.readexactly(length)
                answer = await self._loop.run_in_executor(
                    self._pool, lambda: json.dumps(json.loads(body)).encode()
                )
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(answer), answer)
                )
                await writer.drain()
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            pass  # close() ended the server, or the client hung up
        finally:
            writer.close()

    def times(self) -> list[float]:
        trips = []
        for _ in range(self.ROUND_TRIPS):
            start = time.perf_counter()
            self._conn.request(
                "POST", "/echo", body=self._body, headers={"Content-Type": "application/json"}
            )
            json.loads(self._conn.getresponse().read())
            trips.append((time.perf_counter() - start) * 1000.0)
        return trips

    def reference(self, q: float) -> tuple[float, float]:
        return q, self.REF_TRIP_MS[q]

    async def _stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        others = [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]
        for task in others:
            task.cancel()
        await asyncio.gather(*others, return_exceptions=True)

    def close(self) -> None:
        self._conn.close()
        asyncio.run_coroutine_threadsafe(self._stop(), self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
        self._pool.shutdown(wait=True)


def scaled_setup_s(setup, probe) -> tuple[float, float]:
    """``setup()``'s seconds (it returns them), raw and scaled to the
    reference host speed by probes just before and after it."""
    before = sum(probe.times())
    raw = setup()
    return raw * probe.ref_ms / ((before + sum(probe.times())) / 2), raw


def calibration_ms() -> float:
    """Median of 25 probe passes: printed before and after each run as
    information, so that a noisy host can be told from a slow program."""
    times = sorted(probe_ms() for _ in range(25))
    return times[len(times) // 2]


#: percentiles ``solve_tail_ms`` may report, lowest first; p95 and above
#: are left out because across runs of one commit they spread by up to
#: 0.40 of their median on a 2-CPU host, whose hiccups they measure more
#: than the program
TAIL_LADDER = (0.5, 0.75, 0.8, 0.85, 0.9)

#: goodput is the median over this many blocks of whole rounds
BLOCKS = 9


def tail_quantile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    fitting = [q for q in TAIL_LADDER if samples - math.ceil(q * samples) >= 10]
    return fitting[-1] if fitting else TAIL_LADDER[0]


class Phase:
    """Counters and latencies of one measured phase.

    ``tracer`` (traced runs only) receives one request span per
    operation and is paused while the benchmark does its own work.
    """

    def __init__(self, probe, tracer=None) -> None:
        self.host_probe = probe
        self.tracer = tracer
        self.solve_ms: list[float] = []
        self.ingest_ms: list[float] = []
        self.satisfied: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.good = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.round_s: list[float] = []
        self.round_good: list[int] = []
        #: total time of each probe call, and every probe operation's time
        self.probes_ms: list[float] = []
        self.probe_ops_ms: list[float] = []
        self._untimed_s = 0.0
        self._start = 0.0
        self.elapsed_s = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def measured_s(self) -> float:
        """Phase time so far, minus the benchmark's own work."""
        return time.perf_counter() - self._start - self._untimed_s

    def stop(self) -> None:
        self.elapsed_s = self.measured_s()

    def probe(self) -> None:
        """Time the probe loop (off the clock) between two rounds."""
        with self.untimed():
            times = self.host_probe.times()
            self.probes_ms.append(sum(times))
            self.probe_ops_ms.extend(times)

    def measure_round(self, workload, number: int) -> None:
        """Run one round, note its time and checked answers, then probe."""
        start, good = self.measured_s(), self.good
        workload.round(number, self)
        self.round_s.append(self.measured_s() - start)
        self.round_good.append(self.good - good)
        self.probe()

    def host_scale(self, q: float = 0.5) -> float:
        """Factor that turns this phase's latency quantile ``q`` into a
        reference-speed time."""
        probe_q, ref_ms = self.host_probe.reference(q)
        return ref_ms / quantile(self.probe_ops_ms, probe_q)

    def block_goodputs(self) -> tuple[list[float], list[float]]:
        """Raw and scaled goodput of each block of whole rounds; a block's
        scale comes from the probes just before, between and after its
        rounds."""
        rounds = len(self.round_s)
        count = min(BLOCKS, rounds)
        raw, scaled = [], []
        for block in range(count):
            low, high = rounds * block // count, rounds * (block + 1) // count
            goodput = sum(self.round_good[low:high]) / sum(self.round_s[low:high])
            raw.append(goodput)
            scaled.append(goodput * statistics.median(self.probes_ms[low:high + 1])
                          / self.host_probe.ref_ms)
        return raw, scaled

    @contextmanager
    def untimed(self):
        """Benchmark work (inputs, mirrors, checks) off the phase clock."""
        if self.tracer is not None:
            self.tracer.paused = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self._untimed_s += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.paused = False

    def request(self, name: str):
        """Context of one operation: a request span when traced."""
        return self.tracer.request(name) if self.tracer is not None else _NO_SPAN

    def timed(self, name: str, call, *args):
        """``(call(*args), seconds)`` of one operation; the answer is
        ``None`` when the call raises (noted as an error)."""
        with self.request(name):
            start = time.perf_counter()
            try:
                answer = call(*args)
            except Exception as error:  # any failure of the program counts as failed
                answer = None
                self.errors.append(f"{type(error).__name__}: {error}")
            elapsed = time.perf_counter() - start
        return answer, elapsed

    def ingest_done(self, elapsed_s: float, ok: bool, answer) -> None:
        self.attempted += 1
        if ok:
            self.ingest_ms.append(elapsed_s * 1000.0)
            self.good += 1
        else:
            self.failed += 1
            if answer is not None:
                self.errors.append(f"ingest answered {answer!r}"[:300])

    def solve_done(self, elapsed_s: float, ok: bool, answer) -> bool:
        """Count one solve; ``ok`` means the program answered it."""
        self.attempted += 1
        if ok:
            self.solve_ms.append(elapsed_s * 1000.0)
            return True
        self.failed += 1
        if answer is not None:
            self.errors.append(f"solve answered {answer!r}"[:300])
        return False

    def checked(self, check) -> None:
        """Run ``check()`` off the clock; it returns the satisfied count
        of a correct answer or raises :class:`CheckFailure`."""
        with self.untimed():
            try:
                satisfied = check()
            except CheckFailure as error:
                self.wrong.append(str(error))
                return
        self.satisfied.append(satisfied)
        self.good += 1

    def metrics(self, setup_s: float, setup_raw_s: float) -> dict[str, tuple]:
        """End-to-end metrics: name -> (value, unit, raw value, note).

        Latency quantiles are scaled to the reference host speed by
        :meth:`host_scale`, goodput by :meth:`block_goodputs`; the raw
        value is the wall-clock figure.
        """
        scale = self.host_scale()
        solve, ingest = self.solve_ms or [0.0], self.ingest_ms or [0.0]
        n = len(self.solve_ms)
        tail_q = tail_quantile(n)
        beyond = n - math.ceil(tail_q * n)
        raw_blocks, scaled_blocks = self.block_goodputs()
        solve_p50, solve_tail = quantile(solve, 0.5), quantile(solve, tail_q)
        ingest_p50 = quantile(ingest, 0.5)
        visibility = sum(self.satisfied) / max(1, len(self.satisfied))
        rss = peak_rss_mb()
        return {
            "goodput_rps": (
                statistics.median(scaled_blocks), "req/s", statistics.median(raw_blocks),
                f"median of {len(scaled_blocks)} blocks; {self.good} checked answers"
                f" in {self.elapsed_s:.3f} s; host scale {scale:.4f}",
            ),
            "solve_p50_ms": (solve_p50 * scale, "ms", solve_p50, f"n={n}"),
            "solve_tail_ms": (
                solve_tail * self.host_scale(tail_q), "ms", solve_tail,
                f"p{tail_q * 100:g}, n={n}, {beyond} beyond;"
                f" host scale {self.host_scale(tail_q):.4f}",
            ),
            "ingest_p50_ms": (
                ingest_p50 * scale, "ms", ingest_p50, f"n={len(self.ingest_ms)}",
            ),
            "setup_s": (setup_s, "s", setup_raw_s, "median of the set-ups"),
            "rss_mb": (rss, "MiB", rss, "peak of the process"),
            "visibility": (
                visibility, "queries", visibility,
                f"mean over {len(self.satisfied)} answered solves",
            ),
        }


_NO_SPAN = nullcontext()
