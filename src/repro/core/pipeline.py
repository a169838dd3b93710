"""The per-node durability pipeline (group commit + stabilization + counters).

The stabilization protocol (§VI) has three legs — collective
attestation (:mod:`repro.core.cas`), crash-consistent logs
(:mod:`repro.storage.log`), and distributed rollback protection
(:mod:`repro.core.trusted_counter`).  :class:`DurabilityPipeline` is the
one object a node owns and hands to its engine, transaction manager and
2PC roles to make a log entry rollback-protected.  It schedules group
commit, stabilization and counter rounds as one pipeline:

1. the counter protocol is *vectored* — one echo-broadcast round carries
   ``(log, value)`` targets for every pending log, so WAL batches and
   2PC decision entries stabilize together;
2. the group-commit leader stabilizes its batch with a *single* request
   covering the batch's highest WAL counter; followers share one wait
   (one event) instead of N gate waits;
3. the group-commit window is adaptive: the leader waits a bounded
   multiple of the observed submit arrival gap before draining, instead
   of the fixed ``timeout(0)`` (``group_commit_window``).

How an entry becomes stable is the rollback-protection backend's
decision (:mod:`repro.core.rollback`: presets of one round engine that
differ in the round's CONFIRM leg — sync round, coverage promise or LCM
echo); the pipeline adds the profile gate, the ``stabilize/wait`` spans
and the wait statistics.

The invariants: a transaction is acknowledged only after its WAL
entry's counter is stable, 2PC decision entries are stabilized before
participants act, and the monitor's I1–I4 checks learn stability
exclusively from counter-advance events.

The pipeline composes with the transport's doorbell batching
(``docs/NETWORK.md``): each vectored echo round is a same-instant
fan-out of UPDATE/CONFIRM messages to every counter peer, issued via
:meth:`SecureRpc.broadcast`, so the eRPC layer coalesces a round's
messages per destination into one sealed frame.  Group commit amortizes
*rounds per transaction*; transport batching amortizes *frames and seal
operations per round* — the two multiply.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Sequence, Tuple

from ..config import ClusterConfig
from ..sim.core import Event
from ..tee.runtime import NodeRuntime
from ..txn.group_commit import GroupCommitter
from .rollback import RollbackProtection, make_backend
from .trusted_counter import CounterClient

__all__ = ["DurabilityPipeline", "FreshnessWitness"]

Gen = Generator[Event, Any, Any]


class DurabilityPipeline:
    """One node's unified durability scheduler.

    Construction order mirrors the dependency chain: the pipeline builds
    the rollback-protection backend over an existing
    :class:`CounterClient`, and :meth:`attach_engine` later binds the
    node's storage engine with a pipeline-aware :class:`GroupCommitter`.
    Without a counter client (no backend) the pipeline is disabled and
    every stabilization request is a no-op.
    """

    def __init__(
        self,
        runtime: NodeRuntime,
        counter_client: Optional[CounterClient],
        config: ClusterConfig,
    ):
        self.runtime = runtime
        self.config = config
        #: the rollback-protection backend (sync round / coverage
        #: promises / LCM echo) every stabilization request routes
        #: through — see :mod:`repro.core.rollback`.
        self.rollback: Optional[RollbackProtection] = make_backend(
            runtime, counter_client, config
        )
        self.waits = 0
        self.total_wait_time = 0.0
        #: stable-sequence frontier for coordinator-free snapshot reads
        #: (``read_only_snapshot``) — fed by the group committer's WAL
        #: watermarks, queried by read-only transaction commits.
        self.witness = FreshnessWitness(runtime, self)

    @property
    def enabled(self) -> bool:
        """Whether stabilization actually runs under this profile."""
        return self.runtime.profile.stabilization and self.rollback is not None

    def attach_engine(self, engine) -> GroupCommitter:
        """Build the engine's group committer, bound to this pipeline."""
        return GroupCommitter(
            self.runtime,
            engine,
            self,
            max_group=self.config.group_commit_max,
            window=self.config.group_commit_window,
            window_cap=self.config.group_commit_window_cap,
        )

    # -- stabilization entry points ------------------------------------------
    def _timed_wait(self, body: Gen, log: str, counter: int) -> Gen:
        """Run ``body`` inside a ``stabilize/wait`` span and record it."""
        start = self.runtime.now
        span = self.runtime.tracer.span(
            "stabilize", "wait", node=self.runtime.name or None,
            log=log, counter=counter,
        )
        try:
            yield from body
        finally:
            # A NetworkError out of a detached NIC (zombie fiber after a
            # crash) must not leak the span.
            span.close()
        wait = self.runtime.now - start
        self.waits += 1
        self.total_wait_time += wait
        self.runtime.metrics.histogram("stabilize.wait_s").observe(wait)

    def stabilize(self, log_name: str, counter: int) -> Gen:
        """Block until ``(log, counter)`` is stable (Figure 2, steps 5–8)."""
        if not self.enabled or counter <= 0:
            return
        yield from self._timed_wait(
            self.rollback.stabilize(log_name, counter), log_name, counter
        )

    def stabilize_many(self, targets: Sequence[Tuple[str, int]]) -> Gen:
        """Block until every ``(log, counter)`` target is stable.

        The targets are registered together, so the counter service's
        round driver covers them with a single echo-broadcast execution;
        the caller pays one wait for the whole set.
        """
        if not self.enabled:
            return
        targets = [(log, counter) for log, counter in targets if counter > 0]
        if not targets:
            return
        yield from self._timed_wait(
            self.rollback.stabilize_many(targets),
            ",".join(log for log, _ in targets),
            max(counter for _, counter in targets),
        )

    def stabilize_group(
        self,
        targets: Sequence[Tuple[str, int]],
        txn: Optional[str] = None,
        phase: str = "decision",
    ) -> Gen:
        """Stabilize a *group-wide* target set in one request.

        The cross-node half of the pipeline: a coordinator calls this
        with the prepare targets its participants piggybacked on their
        PREPARE-ACKs plus its own Clog decision target, so one vectored
        echo-broadcast round covers the whole distributed transaction.
        Log names are globally unique, so any node's counter client can
        stabilize any node's log; the targets merge with whatever local
        group-commit batch is already pending a round.

        ``phase`` labels round provenance in traces ("decision" for the
        pre-COMMIT round, "complete" for the background apply/COMPLETE
        round).
        """
        if not self.enabled:
            return
        targets = [(log, counter) for log, counter in targets if counter > 0]
        if not targets:
            return
        self.runtime.tracer.event(
            "stabilize", "group_begin", node=self.runtime.name or None,
            txn=txn, phase=phase, targets=len(targets),
            logs=sorted(log for log, _ in targets),
        )
        span = self.runtime.tracer.span(
            "stabilize", "group_round", node=self.runtime.name or None,
            txn=txn, phase=phase, targets=len(targets),
        )
        try:
            yield from self.stabilize_many(targets)
        finally:
            span.close()
        metrics = self.runtime.metrics
        metrics.counter("stabilize.group_rounds").inc()
        metrics.histogram(
            "stabilize.group_size", edges=(1, 2, 4, 8, 16, 32)
        ).observe(len(targets))

    def background(self, log_name: str, counter: int) -> None:
        """Fire-and-forget stabilization (commit records, GC edits)."""
        if not self.enabled or counter <= 0:
            return
        self.runtime.sim.process(
            self.stabilize(log_name, counter),
            name="stabilize-bg/%s" % log_name,
        )

    def mean_wait(self) -> float:
        if self.waits == 0:
            return 0.0
        return self.total_wait_time / self.waits


class FreshnessWitness:
    """Maps the stabilized counter frontier to a storage sequence frontier.

    Coordinator-free snapshot reads (``read_only_snapshot``) need a local
    proof that everything a read observed is *rollback-protected*: a seq
    the snapshot exposed must never disappear in a rollback attack, or a
    committed read-only transaction could have returned state that the
    cluster later denies.  The group committer assigns storage sequence
    numbers in batch order inside its leader critical section, *before*
    writing the batch's WAL record — so ``(log, counter, max_seq)``
    watermarks recorded at ``log_commits`` time are monotone in both
    coordinates.  The stabilized counter frontier (the per-log echo
    ``Gate`` value) then induces a **stable sequence frontier**: every
    seq ≤ :meth:`stable_seq` sits under a WAL counter the quorum has
    echoed.

    A read-only commit with ``max(read seqs) ≤ stable_seq()`` is fresh —
    it proves itself without any coordinator round.  A stale one calls
    :meth:`wait_cover`, which *joins* the covering stabilization round
    (the same vectored round in-flight commits already pay for) rather
    than starting a dedicated one.
    """

    def __init__(self, runtime: NodeRuntime, pipeline: DurabilityPipeline):
        self.runtime = runtime
        self.pipeline = pipeline
        #: pending watermarks, monotone in (counter, max_seq) per log.
        self._marks: Deque[Tuple[str, int, int]] = deque()
        #: seqs ≤ floor need no witness: recovery replays only the
        #: stable WAL prefix, and bulk loads bypass the WAL entirely.
        self._floor = 0
        self._new_mark: Optional[Event] = None

    @property
    def enabled(self) -> bool:
        return self.pipeline.enabled

    # -- producer side (group committer) -------------------------------------
    def record(self, log_name: str, counter: int, max_seq: int) -> None:
        """Watermark: seqs ≤ ``max_seq`` are covered once ``(log_name,
        counter)`` stabilizes.  Called by the group-commit leader right
        after ``log_commits``."""
        if not self.enabled:
            self._floor = max(self._floor, max_seq)
            return
        self._marks.append((log_name, counter, max_seq))
        if self._new_mark is not None:
            event, self._new_mark = self._new_mark, None
            event.succeed(None)

    def advance_floor(self, seq: int) -> None:
        """Declare seqs ≤ ``seq`` stable without a witness (recovery
        replays only the stable prefix; bulk loads bypass the WAL)."""
        self._floor = max(self._floor, seq)

    # -- consumer side (read-only snapshot commits) --------------------------
    def stable_seq(self) -> int:
        """The stable sequence frontier: highest seq proven covered."""
        while self._marks:
            log_name, counter, max_seq = self._marks[0]
            if self.pipeline.rollback.stable_value(log_name) < counter:
                break
            self._floor = max(self._floor, max_seq)
            self._marks.popleft()
        return self._floor

    def covers(self, seq: int) -> bool:
        """True iff ``seq`` is inside the proven-fresh window."""
        if not self.enabled:
            return True
        return seq <= self.stable_seq()

    def wait_cover(self, seq: int) -> Gen:
        """Block until the frontier covers ``seq``.

        Joins the stabilization round of the first watermark at or above
        ``seq``; if the covering batch has applied but not yet logged its
        WAL record, waits for its watermark to appear first.
        """
        while not self.covers(seq):
            target = None
            for log_name, counter, max_seq in self._marks:
                if max_seq >= seq:
                    target = (log_name, counter)
                    break
            if target is not None:
                yield from self.pipeline.stabilize(*target)
                continue
            # The covering commit applied its writes but has not reached
            # log_commits yet — wait for the next watermark and re-check.
            if self._new_mark is None:
                self._new_mark = self.runtime.sim.event()
            yield self._new_mark
