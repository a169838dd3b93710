"""Canonical digests of cluster protocol state.

The explorer's visited-state cache needs to recognise that two choice
traces led the world to the *same* protocol state, so one of the two
subtrees can be skipped.  "Same" is defined by this module: a canonical
per-node summary of everything the protocol can branch on —

* durable bytes (WAL / Clog / SSTables, via a per-file CRC),
* lock tables,
* in-doubt participant transactions and coordinator decisions,
* stable-counter gate values and replica confirmed views,
* the LSM memtable shape and prepared-txn set,
* plus the multiset of frames still in flight on the fabric.

Fields that never influence protocol behaviour (wall-clock-ish metrics,
trace buffers, byte counters) are deliberately excluded; including them
would make every state unique and the cache useless.

Each disk file (a ``bytearray`` in :class:`repro.storage.disk.Disk`)
is CRC'd in full on every digest; ``zlib.crc32`` reads the buffer in
place, without a copy.  The digest depends on the bytes alone, never on
buffer identity, so no state leaks from one run of an exploration into
the next.

Digests are combined with Python's ``hash`` on nested tuples, which is
stable within one process — all the cache ever needs.  For stable
digests *across* processes (CI reruns), run with ``PYTHONHASHSEED=0``;
bytes/str hashing is the only randomized component.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Tuple

__all__ = ["cluster_digest", "node_digest"]


def node_digest(node) -> Tuple[Any, ...]:
    """Canonical summary of one node's protocol state."""
    disk_part = tuple(
        (filename, len(data), zlib.crc32(data))
        for filename, data in sorted(node.disk._files.items())
    )
    if not node.is_up:
        return ("down", node.boot_count, disk_part)

    locks = node.manager.locks
    locks_part = tuple(
        (txn_id, tuple(held.items()))
        for txn_id, held in sorted(locks._held.items())
    )
    active_part = tuple(
        (gid, txn.status)
        for gid, txn in sorted(node.participant.active.items())
    )
    decisions_part = tuple(sorted(node.coordinator.decisions.items()))
    gates_part = tuple(
        (log_name, gate.value)
        for log_name, gate in sorted(node.counter_client._gates.items())
    )
    replica_part = tuple(sorted(node.replica.confirmed.items()))
    clog_part = getattr(node.clog, "next_counter", None)
    engine = node.engine
    prepared_part = tuple(sorted(getattr(engine, "prepared_txns", ())))
    memtable = getattr(engine, "memtable", None)
    memtable_part = (
        (len(memtable), memtable.approximate_bytes)
        if memtable is not None else None
    )
    return (
        "up",
        node.boot_count,
        disk_part,
        locks_part,
        active_part,
        decisions_part,
        gates_part,
        replica_part,
        clog_part,
        prepared_part,
        memtable_part,
    )


def cluster_digest(cluster, in_flight: Dict[Tuple, int]) -> int:
    """One hashable digest for the whole cluster + frames in flight."""
    nodes_part = tuple(node_digest(node) for node in cluster.nodes)
    flight_part = tuple(sorted(in_flight.items()))
    return hash((nodes_part, flight_part))
