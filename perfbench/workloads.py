"""One benchmark workload: set-up, closed-loop run, window accounting, checks.

Everything here drives the program through its public API — a
``TreatyCluster`` built from a ``ClusterConfig``, ``cluster.session()``
and ``ClientTxn.get/put/scan/commit``, with ``YcsbWorkload`` generating
each transaction's operations.  All simulated clients are fibers of the
one single-threaded simulator in this process.

Two clocks are measured.  Simulated metrics (throughput, latency,
counts) come from one fixed simulated window and are bit-identical for
the same seed.  Host cost (process CPU per committed transaction) is
measured over the same window, split into chunks, and reported as the
median chunk normalized by a calibration loop timed at every chunk
boundary, because the host's speed drifts from run to run.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import hmac
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro import NATIVE_TREATY, TREATY_FULL, ClusterConfig, TreatyCluster
from repro.bench.harness import bulk_load_null, cluster_nic_tx_frames
from repro.errors import ReproError, TransactionAborted
from repro.sim.rng import SeededRng
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload, bulk_load

#: attempts per client transaction (first try plus retries) before it
#: counts as failed.  Latency spans all attempts.
MAX_ATTEMPTS = 4

#: host-time chunks per measured window (median reported).
HOST_CHUNKS = 20

#: set-up is repeated until it has run this many times and for at
#: least ``SETUP_MIN_WALL_S`` seconds (capped at ``SETUP_MAX_REPEATS``),
#: and the median is reported; the last cluster built is the one run.
SETUP_MIN_REPEATS = 3
SETUP_MIN_WALL_S = 0.5
SETUP_MAX_REPEATS = 15

#: simulated seconds the read-back waits after the clients drain, so
#: background commit application and counter rounds settle first.
SETTLE_S = 0.05

#: keys per read-back scan (a whole keyspace in one reply would
#: overflow the transport's largest message buffer).
READ_BACK_PAGE = 2_000

#: CPU seconds the calibration loop takes on the reference host (a
#: 2-core x86-64 container, CPython 3.11).  Host costs are reported in
#: reference-host milliseconds: measured CPU scaled by this over the
#: calibration time measured next to it.
CALIBRATION_REF_S = 0.030


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: cluster shape, YCSB mix, clients, window."""

    name: str
    why: str
    profile: Any
    config: Dict[str, Any]
    ycsb: YcsbConfig
    clients: int
    warmup_s: float
    window_s: float
    null_engine: bool = False

    def cluster_config(self, seed: int, monitor: bool) -> ClusterConfig:
        return ClusterConfig(seed=seed, monitor=monitor, **self.config)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ycsb-a",
            why=(
                "YCSB-A 50/50 through encrypted, stabilized 2PC: the full "
                "secure write path (exec RPCs, PREPARE, decision "
                "replication, group commit, counter rounds, AEAD, SCONE)"
            ),
            profile=TREATY_FULL,
            config=dict(rollback_backend="counter-async", counter_shards=4),
            ycsb=YcsbConfig.variant("a", num_keys=10_000),
            clients=24,
            warmup_s=0.05,
            window_s=0.55,
        ),
        Workload(
            name="ycsb-c",
            why=(
                "YCSB-C on the snapshot read-only path, two thirds of reads "
                "from SSTables: storage and AEAD host cost with zero "
                "coordinator and counter rounds (the 2PC/counter bypass)"
            ),
            profile=TREATY_FULL,
            config=dict(memtable_limit_bytes=1_000_000),
            ycsb=YcsbConfig.variant("c", num_keys=4_500),
            clients=24,
            warmup_s=0.01,
            window_s=0.16,
        ),
        Workload(
            name="twopc-native",
            why=(
                "Figure 4 substrate: native 2PC over eRPC, null engine, no "
                "crypto/TEE/storage/stabilization; kernel-bound host cost "
                "(the crypto/tee/storage bypass)"
            ),
            profile=NATIVE_TREATY,
            config=dict(storage_engine="null", cores_per_node=2),
            ycsb=YcsbConfig(read_proportion=0.5, num_keys=50_000),
            clients=80,
            warmup_s=0.01,
            window_s=0.04,
            null_engine=True,
        ),
    )
}


# --- host clock -----------------------------------------------------------


def calibration_seconds() -> float:
    """CPU seconds of a fixed loop shaped like the simulator's host work.

    Generator resumption through a heap (the kernel) plus HMAC-SHA256
    over short blocks (the AEAD keystream) — the two costs that dominate
    every workload's profile — so host-speed drift moves it the way it
    moves the workloads.
    """
    key = b"k" * 32

    def fiber(steps):
        for step in range(steps):
            yield step

    # A collection triggered here would traverse the program's heap and
    # charge its size to the calibration.
    gc.disable()
    try:
        started = time.process_time()
        heap: List[Tuple[int, int, Any]] = []
        for index in range(200):
            heapq.heappush(heap, (index % 7, index, fiber(20)))
        seq = 200
        while heap:
            when, _, gen = heapq.heappop(heap)
            try:
                next(gen)
            except StopIteration:
                continue
            seq += 1
            heapq.heappush(heap, (when + 1, seq, gen))
        digest = b""
        for index in range(12_000):
            digest = hmac.new(key, digest + index.to_bytes(4, "little"),
                              hashlib.sha256).digest()
        return time.process_time() - started
    finally:
        gc.enable()


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- counter snapshots ----------------------------------------------------


def _add(totals: Dict[str, Any], name: str, value: Any) -> None:
    if isinstance(value, dict):  # histogram
        hist = totals.setdefault(
            name,
            {"edges": value["edges"], "counts": [0] * len(value["counts"]),
             "total": 0, "sum": 0.0},
        )
        for index, count in enumerate(value["counts"]):
            hist["counts"][index] += count
        hist["total"] += value["total"]
        hist["sum"] += value["sum"]
    elif isinstance(value, (int, float)):
        totals[name] = totals.get(name, 0) + value


def counter_snapshot(cluster: TreatyCluster) -> Dict[str, Any]:
    """Cluster-wide totals of every public counter, probe and histogram.

    Sums each name over the hub's registries (nodes, fabric, CAS) and
    the client machines' runtimes, plus the fabric's frame and byte
    totals, the inter-node NIC frames and the simulator's executed heap
    entries.
    """
    totals: Dict[str, Any] = {}
    registries = list(cluster.obs.snapshot().values())
    registries += [machine.runtime.metrics.snapshot()
                   for machine in cluster.client_machines]
    for registry in registries:
        for name, value in registry.items():
            _add(totals, name, value)
    totals["fabric.delivered_frames"] = cluster.fabric.delivered_frames
    totals["fabric.tx_bytes_total"] = cluster.fabric.tx_bytes_total
    totals["fabric.node_tx_frames"] = cluster_nic_tx_frames(cluster)
    totals["sim.entries_executed"] = executed_entries(cluster.sim)
    return totals


def delta(after: Dict[str, Any], before: Dict[str, Any], name: str) -> float:
    """Window delta of a scalar counter (0 when the program lacks it)."""
    return after.get(name, 0) - before.get(name, 0)


def hist_delta(after, before, name) -> Dict[str, Any]:
    """Window delta of a merged histogram."""
    a = after.get(name)
    if a is None:
        return {"edges": [], "counts": [], "total": 0, "sum": 0.0}
    b = before.get(name) or {"counts": [0] * len(a["counts"]),
                             "total": 0, "sum": 0.0}
    return {
        "edges": a["edges"],
        "counts": [x - y for x, y in zip(a["counts"], b["counts"])],
        "total": a["total"] - b["total"],
        "sum": a["sum"] - b["sum"],
    }


def executed_entries(sim) -> int:
    """Heap entries the simulator has executed so far.

    Entries are numbered from one counter as they are pushed and each
    step pops one, so executed = pushed - still queued.  Reading the
    counter's repr does not advance it.
    """
    pushed = int(repr(sim._seq)[len("count("):-1])
    return pushed - len(sim._heap)


def percentile(samples: List[float], q: float) -> float:
    """Linearly interpolated quantile ``q`` in [0, 1]; 0 when empty."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# --- the run --------------------------------------------------------------


@dataclass
class TxnRecord:
    start: float
    end: float
    committed: bool
    attempts: int
    exec_s: float = 0.0
    commit_s: float = 0.0


@dataclass
class RunResult:
    """Everything one run measured; ``end_to_end()`` turns it into
    the end-to-end metrics."""

    committed: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    retries: int = 0
    first_try: List[TxnRecord] = field(default_factory=list)
    before: Dict[str, Any] = field(default_factory=dict)
    after: Dict[str, Any] = field(default_factory=dict)
    host_chunks_ms: List[float] = field(default_factory=list)
    raw_host_ms_per_txn: float = 0.0
    window_cpu_s: float = 0.0
    setup_s: float = 0.0
    setup_runs: List[float] = field(default_factory=list)
    #: wall seconds of the run (warm-up to drain) and of the checks.
    run_wall_s: float = 0.0
    checks_wall_s: float = 0.0
    check_failures: List[str] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)

    @property
    def attempted(self) -> int:
        return self.committed + self.failed

    def simulated(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics on the simulated clock."""
        start, end = self.window
        return {
            "throughput_tps": (self.committed / (end - start), "1/s"),
            "p50_ms": (percentile(self.latencies, 0.50) * 1e3, "ms"),
            "p99_ms": (percentile(self.latencies, 0.99) * 1e3, "ms"),
        }

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        return {
            **self.simulated(),
            "host_ms_per_txn": (
                statistics.median(self.host_chunks_ms), "ms"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }


def build(workload: Workload, seed: int, monitor: bool) -> TreatyCluster:
    """Cluster start (CAS attestation bootstrap) plus the bulk load."""
    cluster = TreatyCluster(
        profile=workload.profile,
        config=workload.cluster_config(seed, monitor),
    ).start()
    load = bulk_load_null if workload.null_engine else bulk_load
    cluster.run(load(cluster, workload.ycsb), name="load")
    return cluster


def timed_setup(workload: Workload, seed: int, monitor: bool,
                repeat: bool) -> Tuple[TreatyCluster, List[float]]:
    """Build the cluster (repeatedly when ``repeat``); wall seconds each."""
    walls: List[float] = []
    while True:
        cluster = None  # let the previous build go before timing the next
        gc.collect()
        started = time.perf_counter()
        cluster = build(workload, seed, monitor)
        walls.append(time.perf_counter() - started)
        if not repeat or len(walls) >= SETUP_MAX_REPEATS:
            break
        if len(walls) >= SETUP_MIN_REPEATS and sum(walls) >= SETUP_MIN_WALL_S:
            break
    return cluster, walls


def run_workload(
    workload: Workload,
    seed: int,
    host_seconds: float,
    trace=None,
    repeat_setup: bool = True,
    read_back_writes: bool = True,
) -> RunResult:
    """Set up, run the closed loop, account the window, check outputs.

    ``trace`` is a :class:`layers.LayerTrace` whose wrappers are already
    installed, for the traced run (which also turns the invariant
    monitor on), or None for the untraced run.  ``host_seconds`` extends
    the run past the simulated window, for the host-cost chunks only,
    until the measured phase has used that much CPU.  Without
    ``read_back_writes`` the written keys are not read back (the traced
    run that follows the untraced one in traced mode does it).
    """
    cluster, walls = timed_setup(workload, seed, monitor=trace is not None,
                                 repeat=repeat_setup)
    result = RunResult()
    result.setup_runs = walls
    result.setup_s = statistics.median(walls)
    sim = cluster.sim
    ycsb = workload.ycsb
    if trace is not None:
        trace.bind(sim)
        # Collect violations instead of raising inside a fiber, so the
        # run ends and reports every one of them.
        cluster.obs.monitor.strict = False
    chunk_s = workload.window_s / HOST_CHUNKS
    #: ``stop`` is set by the accountant once the host measurement is
    #: complete; clients then finish their transaction and exit.
    state = {"stop": False, "committed": 0}
    records: List[TxnRecord] = []
    written: Dict[bytes, set] = {}
    problems: List[str] = []
    expected_reads = ycsb.read_proportion >= 1.0
    prefix_len = len(ycsb.key_prefix) + len(b"user")
    machines = [cluster.client_machine() for _ in range(3)]

    def client(index: int):
        machine = machines[index % len(machines)]
        session = cluster.session(
            machine, coordinator=index % cluster.num_nodes)
        rng = SeededRng(cluster.config.seed, "ycsb-client", str(index))
        generator = YcsbWorkload(ycsb, rng)
        while not state["stop"]:
            ops = generator.next_transaction()
            read_only = (ycsb.read_only and session.snapshot_reads
                         and YcsbWorkload.is_read_only(ops))
            started = sim.now
            committed = False
            broken = False
            attempts = 0
            txn = None
            while attempts < MAX_ATTEMPTS and not committed:
                attempts += 1
                txn = session.begin(read_only=read_only)
                try:
                    for kind, key, value in ops:
                        if kind == "read":
                            got = yield from txn.get(key)
                            if expected_reads and got != ycsb.value(
                                    int(key[prefix_len:]), 0):
                                broken = True
                                problems.append(
                                    "read of %s did not return its "
                                    "bulk-loaded value" % key.decode())
                        else:  # "update": no workload here scans
                            yield from txn.put(key, value)
                    yield from txn.commit()
                    committed = True
                except TransactionAborted:
                    continue
                except ReproError as error:
                    broken = True
                    problems.append("%s: %s" % (type(error).__name__, error))
                    break
            record = TxnRecord(started, sim.now, committed and not broken,
                               attempts)
            if trace is not None and committed:
                record.exec_s, record.commit_s = trace.txn_split(txn)
            records.append(record)
            if committed:
                state["committed"] += 1
                for kind, key, value in ops:
                    if kind == "update":
                        written.setdefault(key, set()).add(
                            hashlib.sha1(value).digest())

    def accountant():
        """Snapshot counters at warm-up end and window end; mark chunks.

        Runs as a simulator process, so the snapshots land at exact
        simulated instants; it only yields timeouts, the same ones in
        traced and untraced runs.  Past the window it keeps the clients
        going, in whole chunks, until the measured phase has used
        ``host_seconds`` of CPU; only the host cost uses those chunks.
        """
        yield sim.timeout(workload.warmup_s)
        result.before = counter_snapshot(cluster)
        result.window = (sim.now, sim.now)
        if trace is not None:
            trace.window_opened(result.window[0])
        marks.append(_host_mark(state, calibrate=trace is None))
        while True:
            yield sim.timeout(chunk_s)
            if len(marks) == HOST_CHUNKS:
                result.after = counter_snapshot(cluster)
                result.window = (result.window[0], sim.now)
                if trace is not None:
                    trace.window_closed(sim.now)
            marks.append(_host_mark(state, calibrate=trace is None))
            if len(marks) > HOST_CHUNKS and (
                    trace is not None
                    or marks[-1].cpu_before - marks[0].cpu_after
                    >= host_seconds):
                state["stop"] = True
                return

    marks: List[HostMark] = []
    workers = [sim.process(client(i), name="bench-client-%d" % i)
               for i in range(workload.clients)]
    sim.process(accountant(), name="bench-accountant")
    started = time.perf_counter()
    cluster.run(_join(sim, workers), name="bench-run")
    result.run_wall_s = time.perf_counter() - started
    if trace is None:
        result.host_chunks_ms = [
            (b.cpu_before - a.cpu_after) * 1e3
            / max(1, b.committed - a.committed)
            * CALIBRATION_REF_S / ((a.calibration + b.calibration) / 2)
            for a, b in zip(marks, marks[1:])
        ]
    window_marks = marks[:HOST_CHUNKS + 1]
    result.window_cpu_s = sum(
        b.cpu_before - a.cpu_after
        for a, b in zip(window_marks, window_marks[1:]))
    result.raw_host_ms_per_txn = result.window_cpu_s * 1e3 / max(
        1, window_marks[-1].committed - window_marks[0].committed)

    warm_end, window_end = result.window
    for record in records:
        if not warm_end <= record.end <= window_end:
            continue
        if record.committed:
            result.committed += 1
            result.latencies.append(record.end - record.start)
            result.retries += record.attempts - 1
            if record.attempts == 1:
                result.first_try.append(record)
        else:
            result.failed += 1
    result.check_failures.extend(problems[:5])
    started = time.perf_counter()
    if written and read_back_writes:
        result.check_failures.extend(
            read_back(cluster, ycsb, written)[:5])
    if trace is not None:
        result.check_failures.extend(trace.finish(cluster, result))
    result.checks_wall_s = time.perf_counter() - started
    return result


@dataclass
class HostMark:
    cpu_before: float
    calibration: float
    cpu_after: float
    committed: int


def _host_mark(state, calibrate: bool) -> HostMark:
    """Process CPU around a calibration run, and commits so far."""
    before = time.process_time()
    calibration = calibration_seconds() if calibrate else 0.0
    return HostMark(before, calibration, time.process_time(),
                    state["committed"])


def _join(sim, workers):
    yield sim.all_of(workers)


def read_back(cluster: TreatyCluster, ycsb: YcsbConfig,
              written: Dict[bytes, set]) -> List[str]:
    """Scan the whole keyspace, page by page, through a fresh session.

    Every written key must hold a value some committed transaction
    wrote (a value from an aborted transaction, a lost update or a torn
    write fails), and every other key its bulk-loaded value.  Runs after
    the clients have drained and background commit work has settled.
    """
    session = cluster.session(cluster.client_machine(), coordinator=0)
    failures: List[str] = []
    prefix_len = len(ycsb.key_prefix) + len(b"user")

    def reader():
        yield cluster.sim.timeout(SETTLE_S)
        rows = []
        for first in range(0, ycsb.num_keys, READ_BACK_PAGE):
            txn = session.begin(read_only=session.snapshot_reads)
            page = yield from txn.scan(ycsb.key(first),
                                       ycsb.key(first + READ_BACK_PAGE))
            yield from txn.commit()
            rows.extend(page)
        if len(rows) != ycsb.num_keys:
            failures.append("read-back scan returned %d keys, expected %d"
                            % (len(rows), ycsb.num_keys))
        for key, value in rows:
            if key in written:
                ok = hashlib.sha1(value).digest() in written[key]
            else:
                ok = value == ycsb.value(int(key[prefix_len:]), 0)
            if not ok:
                failures.append(
                    "key %s holds a value no committed transaction wrote"
                    % key.decode())

    cluster.run(reader(), name="bench-read-back")
    return failures
