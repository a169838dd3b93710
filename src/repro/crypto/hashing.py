"""Hashing utilities: digests, authenticated log chains, block footers.

Treaty's persistent logs (MANIFEST, WAL, Clog) and SSTable blocks carry
cryptographic hashes that recovery re-verifies (§V-A, §VI).  We model the
log authentication as an HMAC chain: each entry's tag covers the entry
body, its trusted-counter value, and the previous tag, so deletion,
reordering or in-place modification of any entry breaks the chain.
"""

from __future__ import annotations

import hmac
from hashlib import sha256
from typing import Optional

from ..errors import IntegrityError

__all__ = ["DIGEST_BYTES", "digest", "ChainState", "LogChain"]

DIGEST_BYTES = 32


def digest(data: bytes) -> bytes:
    """Plain SHA-256 digest (SSTable block footers, measurements)."""
    return sha256(data).digest()


class ChainState:
    """Immutable-ish cursor into a log chain (last tag + entry count)."""

    __slots__ = ("tag", "count")

    def __init__(self, tag: bytes = b"\x00" * DIGEST_BYTES, count: int = 0):
        self.tag = tag
        self.count = count

    def copy(self) -> "ChainState":
        return ChainState(self.tag, self.count)


class LogChain:
    """HMAC chain over log entries, keyed with the log's authentication key.

    ``tag_i = HMAC(key, tag_{i-1} || counter_i || body_i)``.
    """

    def __init__(self, key: bytes, state: Optional[ChainState] = None):
        # Keyed once; each tag resumes a copy instead of re-keying.
        self._mac = hmac.new(key, digestmod=sha256)
        self.state = state or ChainState()

    def _tag(self, previous: bytes, counter: int, body: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(previous)
        mac.update(counter.to_bytes(8, "little"))
        mac.update(body)
        return mac.digest()

    def append(self, counter: int, body: bytes) -> bytes:
        """Extend the chain with an entry; returns the entry's tag."""
        tag = self._tag(self.state.tag, counter, body)
        self.state = ChainState(tag, self.state.count + 1)
        return tag

    def verify_next(self, counter: int, body: bytes, tag: bytes) -> None:
        """Verify ``tag`` is the correct continuation; advance the cursor.

        Raises :class:`IntegrityError` on mismatch — a modified, dropped
        or reordered log entry.
        """
        expected = self._tag(self.state.tag, counter, body)
        if not hmac.compare_digest(expected, tag):
            raise IntegrityError(
                "log chain broken at entry %d (tamper/reorder/deletion)"
                % self.state.count
            )
        self.state = ChainState(tag, self.state.count + 1)
