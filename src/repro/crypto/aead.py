"""Authenticated encryption with associated data (AEAD).

The paper encrypts messages, log entries, SSTable blocks and host-memory
values with AES-GCM (via OpenSSL) using a 12-byte IV and a 16-byte MAC
(§VII-A).  Hardware AES is not available here, so we build a *real* AEAD
from stdlib primitives — a SHAKE-256 keystream plus an HMAC-SHA256
encrypt-then-MAC tag — with exactly the paper's wire sizes.  Security
properties relevant to the reproduction hold functionally: ciphertext
reveals nothing without the key, and any bit flip in IV, ciphertext or
associated data fails authentication.

The keystream for one seal/open is a single XOF call,
``SHAKE-256(label || enc_key || iv).digest(length)``.  :class:`Aead`
absorbs the ``label || enc_key`` prefix once per key and, per call,
copies that state, absorbs the IV and squeezes ``length`` bytes.  The
tests spell the construction out over a fresh ``hashlib.shake_256`` per
call as the reference implementation.

This module is pure computation; the *time* cost of sealing/opening is
charged by callers through :meth:`repro.config.CostModel.aead_cost`.
"""

from __future__ import annotations

import hmac
import struct
from hashlib import sha256, shake_256
from ..errors import IntegrityError

__all__ = ["IV_BYTES", "MAC_BYTES", "KEY_BYTES", "Aead", "xor_bytes"]

IV_BYTES = 12  # §VII-A: 12 B initialization vector
MAC_BYTES = 16  # §VII-A: 16 B MAC
KEY_BYTES = 32

_KEYSTREAM_LABEL = b"treaty-keystream"  # domain separation for the XOF


def xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR ``data`` with a keystream of at least the same length.

    Raises :class:`ValueError` when the keystream is shorter, rather
    than returning the uncovered tail of ``data`` in the clear.
    """
    length = len(data)
    if len(keystream) < length:
        raise ValueError(
            "keystream of %d bytes cannot cover %d bytes of data"
            % (len(keystream), length)
        )
    if length == 0:
        return b""
    left = int.from_bytes(data, "little")
    right = int.from_bytes(keystream[:length], "little")
    return (left ^ right).to_bytes(length, "little")


class Aead:
    """An AEAD cipher bound to one 32-byte key.

    Layout produced by :meth:`seal`: ``IV (12 B) || ciphertext || MAC (16 B)``
    — the same on-the-wire framing as Treaty's secure message format.
    """

    def __init__(self, key: bytes):
        if len(key) != KEY_BYTES:
            raise ValueError("AEAD key must be %d bytes" % KEY_BYTES)
        # Independent subkeys for the keystream and the MAC, derived the
        # usual KDF way so a single 32-byte master key is enough.
        enc_key = hmac.new(key, b"treaty-enc", sha256).digest()
        mac_key = hmac.new(key, b"treaty-mac", sha256).digest()
        # The keystream XOF absorbs label || enc_key once here; each call
        # resumes a copy of that state.
        self._enc = shake_256(_KEYSTREAM_LABEL + enc_key)
        self._mac = hmac.new(mac_key, digestmod=sha256)

    # -- internals -----------------------------------------------------------
    def _keystream(self, iv: bytes, length: int) -> bytes:
        xof = self._enc.copy()
        xof.update(iv)
        return xof.digest(length)

    def _tag(self, iv: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(struct.pack("<II", len(aad), len(ciphertext)))
        mac.update(iv)
        mac.update(aad)
        mac.update(ciphertext)
        return mac.digest()[:MAC_BYTES]

    # -- public API -----------------------------------------------------------
    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``IV || ciphertext || MAC``."""
        if len(iv) != IV_BYTES:
            raise ValueError("IV must be %d bytes" % IV_BYTES)
        ciphertext = xor_bytes(plaintext, self._keystream(iv, len(plaintext)))
        return iv + ciphertext + self._tag(iv, aad, ciphertext)

    def open(self, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on any tamper."""
        if len(sealed) < IV_BYTES + MAC_BYTES:
            raise IntegrityError("sealed blob too short to be authentic")
        iv = sealed[:IV_BYTES]
        ciphertext = sealed[IV_BYTES : len(sealed) - MAC_BYTES]
        tag = sealed[len(sealed) - MAC_BYTES :]
        expected = self._tag(iv, aad, ciphertext)
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("AEAD authentication failed")
        return xor_bytes(ciphertext, self._keystream(iv, len(ciphertext)))

    @staticmethod
    def sealed_size(plaintext_len: int) -> int:
        """Total bytes :meth:`seal` produces for a plaintext of this size."""
        return IV_BYTES + plaintext_len + MAC_BYTES
