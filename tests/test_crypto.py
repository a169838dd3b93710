"""Tests for the crypto layer: AEAD, log chains, key ring, signatures."""

import hmac
import struct
from hashlib import sha256, shake_256

import pytest

from repro.crypto import (
    Aead,
    KeyRing,
    LogChain,
    SigningKey,
    derive_key,
    digest,
    generate_keypair,
    xor_bytes,
)
from repro.crypto.aead import IV_BYTES, KEY_BYTES, MAC_BYTES
from repro.errors import AuthenticationError, IntegrityError

KEY = bytes(range(32))
IV = b"\x01" * IV_BYTES


def reference_seal(key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """The AEAD construction spelled out with fresh hash objects per call.

    Known-answer reference for :meth:`Aead.seal`: the keystream is one
    SHAKE-256 XOF over ``"treaty-keystream" || enc_key || iv`` squeezed to
    the plaintext length, and the tag a fresh encrypt-then-MAC
    HMAC-SHA256, exactly as the construction is specified.
    """
    enc_key = hmac.new(key, b"treaty-enc", sha256).digest()
    mac_key = hmac.new(key, b"treaty-mac", sha256).digest()
    keystream = shake_256(b"treaty-keystream" + enc_key + iv).digest(len(plaintext))
    ciphertext = bytes(p ^ k for p, k in zip(plaintext, keystream))
    mac = hmac.new(mac_key, digestmod=sha256)
    mac.update(struct.pack("<II", len(aad), len(ciphertext)))
    mac.update(iv)
    mac.update(aad)
    mac.update(ciphertext)
    return iv + ciphertext + mac.digest()[:MAC_BYTES]


class TestAead:
    def test_roundtrip(self):
        aead = Aead(KEY)
        sealed = aead.seal(IV, b"hello world", aad=b"hdr")
        assert aead.open(sealed, aad=b"hdr") == b"hello world"

    def test_empty_plaintext(self):
        aead = Aead(KEY)
        assert aead.open(aead.seal(IV, b"")) == b""

    def test_wire_layout_sizes(self):
        aead = Aead(KEY)
        sealed = aead.seal(IV, b"x" * 100)
        assert len(sealed) == IV_BYTES + 100 + MAC_BYTES
        assert Aead.sealed_size(100) == len(sealed)
        assert sealed[:IV_BYTES] == IV

    def test_ciphertext_hides_plaintext(self):
        aead = Aead(KEY)
        plaintext = b"secret-value" * 10
        sealed = aead.seal(IV, plaintext)
        assert plaintext not in sealed

    @pytest.mark.parametrize("position", [0, IV_BYTES, IV_BYTES + 5, -1])
    def test_any_bit_flip_detected(self, position):
        aead = Aead(KEY)
        sealed = bytearray(aead.seal(IV, b"payload-bytes", aad=b"a"))
        sealed[position] ^= 0x01
        with pytest.raises(IntegrityError):
            aead.open(bytes(sealed), aad=b"a")

    def test_aad_mismatch_detected(self):
        aead = Aead(KEY)
        sealed = aead.seal(IV, b"data", aad=b"txn=1")
        with pytest.raises(IntegrityError):
            aead.open(sealed, aad=b"txn=2")

    def test_wrong_key_detected(self):
        sealed = Aead(KEY).seal(IV, b"data")
        with pytest.raises(IntegrityError):
            Aead(bytes(32)).open(sealed)

    def test_truncated_blob_detected(self):
        with pytest.raises(IntegrityError):
            Aead(KEY).open(b"short")

    def test_distinct_ivs_give_distinct_ciphertexts(self):
        aead = Aead(KEY)
        first = aead.seal(b"\x01" * 12, b"same")
        second = aead.seal(b"\x02" * 12, b"same")
        assert first[IV_BYTES:] != second[IV_BYTES:]

    def test_key_length_validated(self):
        with pytest.raises(ValueError):
            Aead(b"short")
        with pytest.raises(ValueError):
            Aead(KEY).seal(b"shortiv", b"data")

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1000, 4096])
    @pytest.mark.parametrize("aad", [b"", b"txn=42|hdr"])
    def test_seal_matches_reference_construction(self, length, aad):
        plaintext = bytes((7 * i + 3) % 256 for i in range(length))
        aead = Aead(KEY)
        sealed = aead.seal(IV, plaintext, aad=aad)
        assert sealed == reference_seal(KEY, IV, plaintext, aad)
        assert aead.open(sealed, aad=aad) == plaintext
        # The cached XOF and HMAC states are copied per call, never advanced.
        assert aead.seal(IV, plaintext, aad=aad) == sealed

    def test_pinned_ciphertexts(self):
        # Stored and wire bytes must never change for the same key and IV.
        aead = Aead(KEY)
        assert aead.seal(IV, b"treaty").hex() == (
            "0101010101010101010101015e0e87f625104cf4fd26a64d59fcc038eca1e33b4f18"
        )
        assert digest(aead.seal(IV, bytes(range(256)) * 4, aad=b"aad")).hex() == (
            "6519792aace1ec9e199547be2d162f6a5d2e5f5b4c4feee60e09921df72fc969"
        )


class TestXorBytes:
    def test_xor_with_exact_and_longer_keystream(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
        assert xor_bytes(b"\x0f", b"\xff\x00\x00") == b"\xf0"
        assert xor_bytes(b"", b"") == b""

    @pytest.mark.parametrize("keystream", [b"", b"k", b"12345"])
    def test_short_keystream_rejected(self, keystream):
        # A short keystream must not leak the uncovered tail in the clear.
        with pytest.raises(ValueError):
            xor_bytes(b"secret", keystream)


class TestLogChain:
    def test_tags_match_reference_hmac(self):
        chain = LogChain(KEY)
        previous = b"\x00" * 32
        for counter, body in [(1, b""), (2, b"entry"), (2**40, b"z" * 5000)]:
            expected = hmac.new(
                KEY, previous + counter.to_bytes(8, "little") + body, sha256
            ).digest()
            assert chain.append(counter, body) == expected
            previous = expected

    def test_append_then_verify_replay(self):
        writer = LogChain(KEY)
        entries = [(i, b"entry-%d" % i) for i in range(10)]
        tags = [writer.append(counter, body) for counter, body in entries]

        reader = LogChain(KEY)
        for (counter, body), tag in zip(entries, tags):
            reader.verify_next(counter, body, tag)
        assert reader.state.count == 10

    def test_modified_entry_detected(self):
        writer = LogChain(KEY)
        tag = writer.append(1, b"original")
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            reader.verify_next(1, b"tampered", tag)

    def test_dropped_entry_detected(self):
        writer = LogChain(KEY)
        writer.append(1, b"first")
        tag2 = writer.append(2, b"second")
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            reader.verify_next(2, b"second", tag2)  # skipped entry 1

    def test_reordered_entries_detected(self):
        writer = LogChain(KEY)
        tag1 = writer.append(1, b"first")
        tag2 = writer.append(2, b"second")
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            reader.verify_next(2, b"second", tag2)
        reader2 = LogChain(KEY)
        reader2.verify_next(1, b"first", tag1)  # correct order still fine

    def test_counter_value_is_authenticated(self):
        writer = LogChain(KEY)
        tag = writer.append(5, b"body")
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            reader.verify_next(6, b"body", tag)


class TestKeys:
    def test_derivation_is_deterministic_and_labelled(self):
        root = KEY
        assert derive_key(root, "a") == derive_key(root, "a")
        assert derive_key(root, "a") != derive_key(root, "b")
        assert derive_key(root, "a", "b") != derive_key(root, "b", "a")
        assert len(derive_key(root, "x")) == KEY_BYTES

    def test_keyring_separates_purposes(self):
        ring = KeyRing(KEY)
        assert ring.subkey("network") != ring.subkey("storage")
        assert ring.log_auth_key("WAL") != ring.log_auth_key("Clog")

    def test_keyring_aead_cached_and_functional(self):
        ring = KeyRing(KEY)
        assert ring.network_aead() is ring.network_aead()
        sealed = ring.storage_aead().seal(IV, b"v")
        assert ring.storage_aead().open(sealed) == b"v"

    def test_same_root_same_keys_across_nodes(self):
        assert KeyRing(KEY).subkey("network") == KeyRing(KEY).subkey("network")

    def test_root_length_validated(self):
        with pytest.raises(ValueError):
            KeyRing(b"short")


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        signing, verify = generate_keypair(b"seed-material-01", "node1")
        signature = signing.sign(b"message")
        verify.verify(b"message", signature)  # no exception

    def test_tampered_message_rejected(self):
        signing, verify = generate_keypair(b"seed-material-01", "node1")
        signature = signing.sign(b"message")
        with pytest.raises(AuthenticationError):
            verify.verify(b"other", signature)

    def test_cross_key_rejected(self):
        signing1, _ = generate_keypair(b"seed-material-01", "node1")
        _, verify2 = generate_keypair(b"seed-material-01", "node2")
        with pytest.raises(AuthenticationError):
            verify2.verify(b"m", signing1.sign(b"m"))

    def test_deterministic_keypairs(self):
        s1, _ = generate_keypair(b"seed", "id")
        s2, _ = generate_keypair(b"seed", "id")
        assert s1.sign(b"m") == s2.sign(b"m")

    def test_short_secret_rejected(self):
        with pytest.raises(ValueError):
            SigningKey(b"tiny", "x")


def test_digest_is_sha256_sized():
    assert len(digest(b"data")) == 32
    assert digest(b"a") != digest(b"b")
