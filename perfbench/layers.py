"""The traced run: per-layer simulated time, counts and host self time.

Nothing in the program changes.  Simulated time per layer comes from
wrapper generators installed around named public functions; each does
``yield from`` on the original, so the simulator sees exactly the same
events and the traced run's simulated metrics equal the untraced run's.
Host self time per layer comes from a sampling profiler: a thread that
reads the main thread's stack every millisecond and charges the sample
to the innermost frame whose file lies under ``src/repro/<layer>/``, so
standard-library and builtin work (HMAC, heapq) counts toward the layer
that called it.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.core.client import ClientTxn
from repro.core.pipeline import DurabilityPipeline
from repro.core.rollback import (
    CounterAsyncBackend,
    CounterSyncBackend,
    RollbackProtection,
)
from repro.crypto.aead import Aead
from repro.net.secure_rpc import SecureRpc
from repro.obs.registry import bucket_quantile
from repro.storage.engine import LSMEngine
from repro.storage.nullengine import NullStorageEngine
from repro.tee.runtime import NodeRuntime
from repro.txn.group_commit import GroupCommitter

from workloads import delta, hist_delta, percentile

#: the program's layers: the ``src/repro/`` packages the metrics name.
LAYERS = ("sim", "crypto", "net", "tee", "storage", "txn", "core")

#: NodeRuntime methods that charge simulated cost (all generators).
COST_CALLS = (
    "compute", "touch_enclave", "syscall", "world_switch", "msgbuf_shield",
    "seal_cost", "hash_cost", "ssd_write", "ssd_read", "op_overhead", "copy",
)

#: (class, method, span family) timed in simulated seconds; nested
#: calls of one family in one fiber count once, at the outermost.
SPANS = (
    (SecureRpc, "call", "net.rpc"),
    (LSMEngine, "log_commit", "storage.log"),
    (LSMEngine, "log_prepare", "storage.log"),
    (NullStorageEngine, "log_commit", "storage.log"),
    (NullStorageEngine, "log_prepare", "storage.log"),
    (LSMEngine, "get_with_seq", "storage.read"),
    (NullStorageEngine, "get_with_seq", "storage.read"),
    (GroupCommitter, "submit", "txn.group_commit"),
    (RollbackProtection, "stabilize", "core.stabilize"),
    (CounterSyncBackend, "stabilize", "core.stabilize"),
    (CounterSyncBackend, "stabilize_many", "core.stabilize"),
    (CounterAsyncBackend, "stabilize_many", "core.stabilize"),
    (DurabilityPipeline, "stabilize_group", "core.stabilize"),
) + tuple((NodeRuntime, name, "tee.charged") for name in COST_CALLS)

#: ClientTxn methods whose simulated time splits a transaction into
#: execution and commit.
TXN_PHASES = (("get", 0), ("put", 0), ("scan", 0), ("commit", 1))


class Sampler:
    """Counts main-thread stack samples per program layer."""

    def __init__(self, src_root: str, bench_root: str, interval_s=0.001):
        self.repro_prefix = os.path.join(src_root, "repro") + os.sep
        self.bench_prefix = bench_root + os.sep
        self.interval_s = interval_s
        self.samples: Dict[str, int] = defaultdict(int)
        self._stop = threading.Event()
        self._thread = None
        self._main = threading.main_thread().ident

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="layer-sampler")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def layer_of(self, frame) -> str:
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename.startswith(self.repro_prefix):
                package = filename[len(self.repro_prefix):].split(os.sep)
                return package[0] if len(package) > 1 else "repro"
            if filename.startswith(self.bench_prefix):
                return "bench"
            frame = frame.f_back
        return "other"

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._main)
            self.samples[self.layer_of(frame)] += 1


class LayerTrace:
    """Wrappers, counts and the sampler for one traced run."""

    def __init__(self, src_root: str, bench_root: str):
        self.sim = None
        self.window = (0.0, 0.0)
        self.spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self.counts_before: Dict[str, int] = {}
        self.counts_after: Dict[str, int] = {}
        self._depth: Dict[Any, int] = {}
        self._split: Dict[Any, List[float]] = {}
        self._originals: List[Tuple[type, str, Any]] = []
        self.sampler = Sampler(src_root, bench_root)

    # -- patching ------------------------------------------------------------
    def patch(self) -> None:
        """Install every wrapper (before the cluster is built, so bound
        methods cached at construction are wrapped too)."""
        for cls, name, family in SPANS:
            self._replace(cls, name, self._span(cls.__dict__[name], family))
        for name, phase in TXN_PHASES:
            self._replace(ClientTxn, name,
                          self._txn_phase(ClientTxn.__dict__[name], phase))
        self._replace(Aead, "seal", self._aead(Aead.__dict__["seal"], 2))
        self._replace(Aead, "open", self._aead(Aead.__dict__["open"], 1))

    def unpatch(self) -> None:
        for cls, name, original in reversed(self._originals):
            setattr(cls, name, original)
        self._originals.clear()

    def _replace(self, cls: type, name: str, wrapper: Callable) -> None:
        self._originals.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def _span(self, fn: Callable, family: str) -> Callable:
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sim = trace.sim
            if sim is None:
                return (yield from fn(*args, **kwargs))
            key = (family, sim.current_process)
            depth = trace._depth.get(key, 0)
            trace._depth[key] = depth + 1
            start = sim.now
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                if depth:
                    trace._depth[key] = depth
                else:
                    del trace._depth[key]
                    trace.spans[family].append((start, sim.now - start))
                    trace.counts[family] += 1

        return wrapper

    def _txn_phase(self, fn: Callable, phase: int) -> Callable:
        trace = self

        @functools.wraps(fn)
        def wrapper(txn, *args, **kwargs):
            sim = trace.sim
            if sim is None:
                return (yield from fn(txn, *args, **kwargs))
            start = sim.now
            try:
                return (yield from fn(txn, *args, **kwargs))
            finally:
                split = trace._split.setdefault(txn, [0.0, 0.0])
                split[phase] += sim.now - start

        return wrapper

    def _aead(self, fn: Callable, payload_arg: int) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["crypto.aead_calls"] += 1
            counts["crypto.aead_bytes"] += len(args[payload_arg])
            return fn(*args, **kwargs)

        return wrapper

    # -- the run ------------------------------------------------------------
    def bind(self, sim) -> None:
        """Start timing spans on ``sim`` (wrappers pass through before)."""
        self.sim = sim

    def window_opened(self, now: float) -> None:
        self.window = (now, now)
        self.counts_before = dict(self.counts)
        self.sampler.start()

    def window_closed(self, now: float) -> None:
        self.sampler.stop()
        self.window = (self.window[0], now)
        self.counts_after = dict(self.counts)

    def txn_split(self, txn) -> Tuple[float, float]:
        """(execution, commit) simulated seconds of one ClientTxn."""
        exec_s, commit_s = self._split.pop(txn, (0.0, 0.0))
        return exec_s, commit_s

    def window_spans(self, family: str) -> List[float]:
        start, end = self.window
        return [d for t, d in self.spans.get(family, ())
                if t >= start and t + d <= end]

    def count(self, name: str) -> int:
        return self.counts_after.get(name, 0) - self.counts_before.get(name, 0)

    def host_shares(self) -> Dict[str, float]:
        """Share of sampled host time per layer (all sampled names)."""
        total = max(1, sum(self.sampler.samples.values()))
        return {layer: n / total for layer, n in self.sampler.samples.items()}

    def finish(self, cluster, result) -> List[str]:
        """End-of-run checks of the traced run; returns failures."""
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=cluster.sim.now)
        failures = ["monitor: %s" % v for v in monitor.violations[:5]]
        for record in result.first_try:
            latency = record.end - record.start
            if abs(record.exec_s + record.commit_s - latency) > 1e-9 * max(
                    1.0, latency):
                failures.append(
                    "exec %.9f s + commit %.9f s != client latency %.9f s"
                    % (record.exec_s, record.commit_s, latency))
                break
        return failures


def _mean(hist: Dict[str, Any]) -> float:
    return hist["sum"] / hist["total"] if hist["total"] else 0.0


def counter_metrics(result) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics read from the window's counter snapshots.

    Needs no tracing, so untraced runs use them for the bypass checks.
    Each count is differenced over the measured window and divided by
    the window's commits.
    """
    before, after = result.before, result.after
    commits = max(1, result.committed)

    def per_txn(name: str, scale: float = 1.0) -> float:
        return delta(after, before, name) * scale / commits

    waits = hist_delta(after, before, "locks.wait_s")
    return {
        "sim.events_per_txn": (per_txn("sim.entries_executed"), "1/txn"),
        "net.frames_per_txn": (per_txn("fabric.delivered_frames"), "1/txn"),
        "net.node_frames_per_txn": (
            per_txn("fabric.node_tx_frames"), "1/txn"),
        "net.kb_per_txn": (
            per_txn("fabric.tx_bytes_total", 1 / 1024), "KiB/txn"),
        "net.batch_occupancy_mean": (
            _mean(hist_delta(after, before, "net.batch_occupancy")), "msgs"),
        "tee.transitions_per_txn": (per_txn("tee.transitions"), "1/txn"),
        "storage.kb_written_per_txn": (
            per_txn("runtime.io_bytes_written", 1 / 1024), "KiB/txn"),
        "storage.flushes": (delta(after, before, "storage.flush_count"),
                            "count"),
        "txn.group_commit_batch_mean": (
            _mean(hist_delta(after, before, "group_commit.batch_size")),
            "txns"),
        "txn.lock_waits_per_txn": (
            waits["total"] / commits, "1/txn"),
        "txn.lock_wait_ms_p99": (
            bucket_quantile(waits["edges"], waits["counts"], 0.99) * 1e3
            if waits["total"] else 0.0, "ms"),
        "txn.readonly_upgraded_per_txn": (
            per_txn("txn.readonly.upgraded"), "1/txn"),
        "core.counter_rounds_per_txn": (
            per_txn("counter.rounds_executed"), "1/txn"),
        "core.retries_per_txn": (
            result.retries / commits, "1/txn"),
    }


def per_layer(result, trace: LayerTrace,
              untraced) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced run, with its unit.

    Besides :func:`counter_metrics`: latencies are simulated
    milliseconds of calls that started and ended inside the window, and
    a layer's host milliseconds are its sampled share of the traced
    window's process CPU.  Tracing overhead compares the raw host cost
    of this run with that of the untraced run of the same seed.
    """
    commits = max(1, result.committed)
    shares = trace.host_shares()
    window_ms = result.window_cpu_s * 1e3
    metrics = counter_metrics(result)
    for layer in LAYERS:
        metrics["%s.host_ms_per_txn" % layer] = (
            shares.get(layer, 0.0) * window_ms / commits, "ms")
    for name, family in (
            ("net.rpc_ms_p50", "net.rpc"),
            ("storage.log_ms_p50", "storage.log"),
            ("storage.read_ms_p50", "storage.read"),
            ("txn.group_commit_ms_p50", "txn.group_commit"),
            ("core.stabilize_ms_p50", "core.stabilize")):
        metrics[name] = (
            percentile(trace.window_spans(family), 0.5) * 1e3, "ms")
    overhead = result.raw_host_ms_per_txn - untraced.raw_host_ms_per_txn
    metrics.update({
        "crypto.aead_calls_per_txn": (
            trace.count("crypto.aead_calls") / commits, "1/txn"),
        "crypto.kb_per_txn": (
            trace.count("crypto.aead_bytes") / 1024 / commits, "KiB/txn"),
        "net.rpc_calls_per_txn": (trace.count("net.rpc") / commits, "1/txn"),
        "tee.charged_ms_per_txn": (
            sum(trace.window_spans("tee.charged")) * 1e3 / commits, "ms"),
        "core.exec_ms_p50": (percentile(
            [r.exec_s for r in result.first_try], 0.5) * 1e3, "ms"),
        "core.commit_ms_p50": (percentile(
            [r.commit_s for r in result.first_try], 0.5) * 1e3, "ms"),
        "trace.overhead_ms_per_txn": (overhead, "ms"),
        "trace.overhead_pct": (
            100.0 * overhead / untraced.raw_host_ms_per_txn, "%"),
    })
    order = LAYERS + ("trace",)
    return dict(sorted(metrics.items(),
                       key=lambda kv: (order.index(kv[0].split(".")[0]),
                                       kv[0])))
