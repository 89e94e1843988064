"""The four workloads: seeded inputs, set-up, rounds and answer checks.

Each workload drives the program through its public entry points only:
``repro.serve.ServerThread`` over loopback, or ``TenantManager`` /
``Tenant`` in-process.  Inputs come from ``(workload, seed, round)``, so
the same seed gives the same operations, and every round of a run is the
same fixed sequence of operations on fresh inputs.  No request carries a
deadline and admission bounds are wide, so the work done never depends
on how fast the host happens to be.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.booldata.schema import Schema
from repro.booldata.table import BooleanTable
from repro.core.problem import VisibilityProblem
from repro.core.registry import make_solver
from repro.data.cars import generate_cars
from repro.data.workload import PAPER_SIZE_DISTRIBUTION, synthetic_workload
from repro.serve import protocol
from repro.serve.app import ServeConfig, ServerThread
from repro.serve.protocol import IngestRequest, SolveRequest
from repro.serve.tenants import Tenant, TenantConfig, TenantManager
from repro.store import StoreConfig

from answers import check_answer, check_window, optimum, recount
from measure import CheckFailure

SIZES = list(PAPER_SIZE_DISTRIBUTION)
SIZE_WEIGHTS = [PAPER_SIZE_DISTRIBUTION[size] for size in SIZES]
GREEDY = ("ConsumeAttrCumul",)


def draw_queries(rng: random.Random, width: int, count: int) -> list[int]:
    """``count`` queries in the paper's 1-5 attribute mix, uniform attributes."""
    queries = []
    for size in rng.choices(SIZES, SIZE_WEIGHTS, k=count):
        mask = 0
        for attribute in rng.sample(range(width), size):
            mask |= 1 << attribute
        queries.append(mask)
    return queries


def draw_tuple(rng: random.Random, width: int, size: int) -> int:
    mask = 0
    for attribute in rng.sample(range(width), size):
        mask |= 1 << attribute
    return mask


def draw_queries_np(gen: np.random.Generator, width: int, count: int) -> np.ndarray:
    """Vectorised ``draw_queries`` for million-row windows (``uint64``).

    Attributes are drawn with replacement, so a repeated draw makes the
    query one attribute smaller.
    """
    sizes = gen.choice(SIZES, size=count, p=SIZE_WEIGHTS)
    attributes = gen.integers(0, width, size=(count, max(SIZES)), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), attributes)
    bits[np.arange(max(SIZES)) >= sizes[:, None]] = 0
    return np.bitwise_or.reduce(bits, axis=1)


class Workload:
    """Base: ``setup`` builds fresh program state and returns its timed
    seconds; ``round`` runs one fixed round of operations into a Phase."""

    name = ""
    #: rounds per ``--seconds``: measured on a 2-CPU host so that a run
    #: takes about that long there; the count never depends on the clock
    rounds_per_second = 1.0
    setup_repeats = 5
    http = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: failures found by checks made during set-up
        self.wrong: list[str] = []

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(part) for part in (self.name, self.seed, *parts)))

    def teardown(self) -> None:
        pass


class HttpSmall(Workload):
    """64 tenants behind the HTTP front end, one keep-alive connection."""

    name = "http_small"
    http = True
    rounds_per_second = 4.0
    setup_repeats = 9
    WIDTH, BUDGET, TUPLE_SIZE, BATCH, SOLVES = 12, 3, 8, 16, 3

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        self.window = 32 if tiny else 256
        self.tenants = [f"t{i:02d}" for i in range(4 if tiny else 64)]
        rng = self.rng("prefill")
        self.initial = {
            name: draw_queries(rng, self.WIDTH, self.window) for name in self.tenants
        }
        self.thread = None
        self.conn = None

    def post(self, path: str, body: bytes) -> tuple[int | None, dict | None]:
        """One request on the keep-alive connection: (status, decoded body)."""
        try:
            self.conn.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as error:
            return None, {"error": f"{type(error).__name__}: {error}"}

    def setup(self) -> float:
        self.teardown()
        bodies = [
            json.dumps({"tenant": name, "queries": queries}).encode()
            for name, queries in self.initial.items()
        ]
        config = ServeConfig(
            width=self.WIDTH,
            window_size=self.window,
            chain=GREEDY,
            deadline_ms=None,
            max_tenants=len(self.tenants),
            workers=min(2, os.cpu_count() or 1),
        )
        start = time.perf_counter()
        self.thread = ServerThread(config)
        server = self.thread.start()
        self.conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        for body in bodies:
            status, answer = self.post("/ingest", body)
            if status != 200:
                raise RuntimeError(f"set-up ingest refused: {status} {answer}")
        elapsed = time.perf_counter() - start
        self.mirror = {
            name: deque(queries, maxlen=self.window)
            for name, queries in self.initial.items()
        }
        return elapsed

    def round(self, number: int, phase) -> None:
        with phase.untimed():
            rng = self.rng("round", number)
            plan = []
            for name in self.tenants:
                queries = draw_queries(rng, self.WIDTH, self.BATCH)
                new_tuple = draw_tuple(rng, self.WIDTH, self.TUPLE_SIZE)
                plan.append((
                    name, queries, new_tuple,
                    json.dumps({"tenant": name, "queries": queries}).encode(),
                    json.dumps({
                        "tenant": name, "new_tuple": new_tuple, "budget": self.BUDGET,
                    }).encode(),
                ))
        for name, queries, new_tuple, ingest_body, solve_body in plan:
            (status, answer), elapsed = phase.timed(
                "client.ingest", self.post, "/ingest", ingest_body
            )
            phase.ingest_done(elapsed, status == 200, answer)
            if status == 200:
                with phase.untimed():
                    self.mirror[name].extend(queries)
            # the first solve misses the cache, the others hit it
            for _ in range(self.SOLVES):
                (status, answer), elapsed = phase.timed(
                    "client.solve", self.post, "/solve", solve_body
                )
                if phase.solve_done(elapsed, status == 200, answer):
                    phase.checked(lambda: check_answer(
                        answer, new_tuple, self.BUDGET, self.mirror[name]
                    ))

    def kernel(self) -> str:
        return self.thread.server.tenants.get(self.tenants[0]).stream.kernel

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.thread is not None:
            self.thread.stop()
            self.thread = None


class DurableSmall(Workload):
    """16 durable tenants in-process: ingest-heavy, every solve a miss."""

    name = "durable_small"
    rounds_per_second = 64.0
    setup_repeats = 9
    WIDTH, BUDGET, TUPLE_SIZE, BATCH, INGESTS = 12, 3, 8, 8, 3

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        self.window = 32 if tiny else 256
        self.tenants = [f"d{i:02d}" for i in range(3 if tiny else 16)]
        # snapshot_every epochs between automatic checkpoints; the prefill
        # stops most of the way to the second, so recovery loads a
        # snapshot and replays a WAL tail of 448 appends per tenant
        self.store_config = StoreConfig(snapshot_every=64 if tiny else 512)
        prefill = 120 if tiny else 960
        rng = self.rng("prefill")
        self.initial = {
            name: draw_queries(rng, self.WIDTH, prefill) for name in self.tenants
        }
        self.manager = None
        self.runs = 0
        self.prefill_dir = workdir / "durable-prefill"
        self._prefill()

    def _config(self, store_dir: Path) -> TenantConfig:
        return TenantConfig(
            schema=Schema.anonymous(self.WIDTH),
            window_size=self.window,
            chain=GREEDY,
            deadline_ms=None,
            store_dir=store_dir,
            store_config=self.store_config,
        )

    def _prefill(self) -> None:
        """Untimed: leave each tenant store as a crash would (no final
        checkpoint, only the WAL sealed)."""
        manager = TenantManager(self._config(self.prefill_dir), len(self.tenants))
        for name, queries in self.initial.items():
            manager.get_or_create(name).ingest(IngestRequest(name, tuple(queries)))
        for name in self.tenants:
            manager.get(name).stream.close()

    def setup(self) -> float:
        self.teardown()
        self.runs += 1
        self.run_dir = self.workdir / f"durable-run-{self.runs}"
        shutil.copytree(self.prefill_dir, self.run_dir)
        start = time.perf_counter()
        self.manager = TenantManager(self._config(self.run_dir), len(self.tenants))
        for name in self.tenants:
            self.manager.get_or_create(name)
        elapsed = time.perf_counter() - start
        self.mirror = {
            name: deque(queries[-self.window:], maxlen=self.window)
            for name, queries in self.initial.items()
        }
        for name in self.tenants:
            try:
                check_window(
                    self.manager.get(name).stream.rows, list(self.mirror[name]), name
                )
            except CheckFailure as error:
                self.wrong.append(str(error))
        return elapsed

    def _call(self, handler, parse, body: bytes) -> dict:
        """The in-process request path: bytes in, JSON bytes out, decoded."""
        request = parse(body, self.WIDTH)
        tenant = self.manager.get_or_create(request.tenant)
        return json.loads(json.dumps(getattr(tenant, handler)(request)).encode())

    def round(self, number: int, phase) -> None:
        with phase.untimed():
            rng = self.rng("round", number)
            plan = []
            for name in self.tenants:
                batches = [
                    draw_queries(rng, self.WIDTH, self.BATCH) for _ in range(self.INGESTS)
                ]
                new_tuple = draw_tuple(rng, self.WIDTH, self.TUPLE_SIZE)
                plan.append((
                    name, new_tuple,
                    [(batch, json.dumps({"tenant": name, "queries": batch}).encode())
                     for batch in batches],
                    json.dumps({
                        "tenant": name, "new_tuple": new_tuple, "budget": self.BUDGET,
                    }).encode(),
                ))
        for name, new_tuple, ingests, solve_body in plan:
            for batch, body in ingests:
                answer, elapsed = phase.timed(
                    "client.ingest", self._call, "ingest", protocol.parse_ingest, body
                )
                ok = answer is not None and answer.get("accepted") == len(batch)
                phase.ingest_done(elapsed, ok, answer)
                if ok:
                    with phase.untimed():
                        self.mirror[name].extend(batch)
            answer, elapsed = phase.timed(
                "client.solve", self._call, "solve", protocol.parse_solve, solve_body
            )
            if phase.solve_done(elapsed, answer is not None, answer):
                phase.checked(lambda: check_answer(
                    answer, new_tuple, self.BUDGET, self.mirror[name]
                ))

    def kernel(self) -> str:
        return self.manager.get(self.tenants[0]).stream.kernel

    def teardown(self) -> None:
        if self.manager is not None:
            self.manager.close_all()
            self.manager = None
            shutil.rmtree(self.run_dir, ignore_errors=True)


class Window1M(Workload):
    """One tenant over a million-row window: kernel-bound solves."""

    name = "window_1m"
    rounds_per_second = 4.5
    setup_repeats = 3
    WIDTH, BUDGET, TUPLE_SIZE = 64, 10, 56
    #: a compaction every ten ingest batches, so a run sees several
    COMPACT_THRESHOLD = 0.01

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        self.window = 20_000 if tiny else 1_000_000
        self.batch = 200 if tiny else 1_000
        self.initial = draw_queries_np(
            np.random.default_rng([seed, 0]), self.WIDTH, self.window
        )
        rows = self.initial.tolist()
        step = protocol.MAX_INGEST_BATCH
        self.fill = [
            IngestRequest("big", tuple(rows[i:i + step]))
            for i in range(0, len(rows), step)
        ]
        self.tenant = None

    def setup(self) -> float:
        self.teardown()
        config = TenantConfig(
            schema=Schema.anonymous(self.WIDTH),
            window_size=self.window,
            compact_threshold=self.COMPACT_THRESHOLD,
            chain=GREEDY,
            deadline_ms=None,
        )
        start = time.perf_counter()
        self.tenant = Tenant("big", config)
        for request in self.fill:
            self.tenant.ingest(request)
        elapsed = time.perf_counter() - start
        self.mirror = self.initial.copy()
        self.oldest = 0
        return elapsed

    def round(self, number: int, phase) -> None:
        with phase.untimed():
            batch = draw_queries_np(
                np.random.default_rng([self.seed, 1, number]), self.WIDTH, self.batch
            )
            request = IngestRequest("big", tuple(batch.tolist()))
            new_tuple = draw_tuple(self.rng("round", number), self.WIDTH, self.TUPLE_SIZE)
            solve = SolveRequest("big", new_tuple, self.BUDGET, None, None)
        answer, elapsed = phase.timed("client.ingest", self.tenant.ingest, request)
        ok = answer is not None and answer.get("accepted") == len(batch)
        phase.ingest_done(elapsed, ok, answer)
        if ok:
            with phase.untimed():
                # the window evicts its oldest rows: overwrite them in the mirror
                slots = (self.oldest + np.arange(len(batch))) % self.window
                self.mirror[slots] = batch
                self.oldest = (self.oldest + len(batch)) % self.window
        answer, elapsed = phase.timed("client.solve", self.tenant.solve, solve)
        if phase.solve_done(elapsed, answer is not None, answer):
            phase.checked(lambda: check_answer(
                answer, new_tuple, self.BUDGET, self.mirror
            ))

    def kernel(self) -> str:
        return self.tenant.stream.kernel

    def teardown(self) -> None:
        self.tenant = None


class PaperExact(Workload):
    """The paper's car instances, answered by ILP and by MaxFreqItemSets."""

    name = "paper_exact"
    rounds_per_second = 21.0
    setup_repeats = 9
    BUDGETS = (3, 5, 7)
    #: tuples are cars with this many attributes (the dataset's cars
    #: range from 3 to 28; exact solves on 20+ take seconds each, and one
    #: such draw would decide a whole run's goodput)
    TUPLE_SIZE = 14
    CHAINS = ((None, "ILP"), (("MaxFreqItemSets",) + GREEDY, "MaxFreqItemSets"))

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, workdir)
        self.cars = 2_000 if tiny else 15_211
        self.window = 60 if tiny else 200
        self.slide = 10 if tiny else 20
        self.tenant = None

    def setup(self) -> float:
        self.teardown()
        start = time.perf_counter()
        dataset = generate_cars(count=self.cars)
        first = synthetic_workload(dataset.schema, self.window, seed=self.rng("window"))
        self.tenant = Tenant("cars", TenantConfig(
            schema=dataset.schema, window_size=self.window, deadline_ms=None,
        ))
        self.tenant.ingest(IngestRequest("cars", tuple(first.rows)))
        elapsed = time.perf_counter() - start
        self.schema = dataset.schema
        self.candidates = [
            row for row in dataset.table.rows if bin(row).count("1") == self.TUPLE_SIZE
        ]
        self.mirror = deque(first.rows, maxlen=self.window)
        return elapsed

    def round(self, number: int, phase) -> None:
        # one instance per round, m cycling through BUDGETS: the window
        # turns over every ten rounds, so a run sees many distinct windows
        budget = self.BUDGETS[number % len(self.BUDGETS)]
        with phase.untimed():
            rng = self.rng("round", number)
            batch = synthetic_workload(self.schema, self.slide, seed=rng).rows
            new_tuple = rng.choice(self.candidates)
        answer, elapsed = phase.timed(
            "client.ingest", self.tenant.ingest, IngestRequest("cars", tuple(batch))
        )
        ok = answer is not None and answer.get("accepted") == len(batch)
        phase.ingest_done(elapsed, ok, answer)
        if ok:
            with phase.untimed():
                self.mirror.extend(batch)
        for chain, algorithm in self.CHAINS:
            request = SolveRequest("cars", new_tuple, budget, None, chain)
            answer, elapsed = phase.timed("client.solve", self.tenant.solve, request)
            if phase.solve_done(elapsed, answer is not None, answer):
                phase.checked(lambda: self.check_exact(answer, algorithm, new_tuple, budget))

    def check_exact(self, answer, algorithm, new_tuple, budget) -> int:
        """Recount, then compare with an optimum enumerated here; the
        greedy's answer to the same instance must not beat it."""
        satisfied = check_answer(answer, new_tuple, budget, self.mirror)
        if answer.get("status") != "exact" or answer.get("algorithm") != algorithm:
            raise CheckFailure(
                f"expected an exact {algorithm} answer, got {answer.get('status')}"
                f" from {answer.get('algorithm')}"
            )
        best = optimum(self.mirror, new_tuple, budget)
        if satisfied != best:
            raise CheckFailure(
                f"{algorithm} satisfies {satisfied}, the enumerated optimum is {best}"
            )
        problem = VisibilityProblem(
            BooleanTable(self.schema, list(self.mirror)), new_tuple, budget
        )
        greedy = make_solver(GREEDY[0]).solve(problem)
        if recount(self.mirror, greedy.keep_mask) > best:
            raise CheckFailure("the greedy beats the enumerated optimum")
        return satisfied

    def kernel(self) -> str:
        return self.tenant.stream.kernel

    def teardown(self) -> None:
        self.tenant = None


WORKLOADS = {
    workload.name: workload
    for workload in (HttpSmall, DurableSmall, Window1M, PaperExact)
}
