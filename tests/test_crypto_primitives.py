"""Hashing, key handling, authenticated encryption and multisig — the
non-ECDSA crypto substrate."""

import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    KeyPair,
    MultisigSpec,
    decrypt,
    derive_channel_keys,
    ecdh_shared_secret,
    encrypt,
    hash160,
    merkle_root,
    sha256,
    sha256d,
)
from repro.crypto.authenticated import SecureChannelKeys, nonce_from_counter
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import DecryptionError, InvalidKey, ThresholdError


class TestHashing:
    def test_sha256_known_vector(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_sha256d_is_double(self):
        assert sha256d(b"x") == sha256(sha256(b"x"))

    def test_hash160_length(self):
        assert len(hash160(b"payload")) == 20

    def test_merkle_empty(self):
        assert merkle_root([]) == b"\x00" * 32

    def test_merkle_single_leaf_is_leaf(self):
        leaf = sha256(b"leaf")
        assert merkle_root([leaf]) == leaf

    def test_merkle_odd_duplicates_last(self):
        a, b, c = sha256(b"a"), sha256(b"b"), sha256(b"c")
        assert merkle_root([a, b, c]) == merkle_root([a, b, c, c])

    def test_merkle_order_sensitive(self):
        a, b = sha256(b"a"), sha256(b"b")
        assert merkle_root([a, b]) != merkle_root([b, a])


class TestKeys:
    def test_seeded_keys_deterministic(self):
        assert KeyPair.from_seed(b"s").public == KeyPair.from_seed(b"s").public

    def test_generated_keys_distinct(self):
        assert KeyPair.generate().public != KeyPair.generate().public

    def test_public_key_roundtrip(self):
        public = KeyPair.from_seed(b"k").public
        assert PublicKey.from_bytes(public.to_bytes()) == public

    def test_private_key_roundtrip(self):
        private = KeyPair.from_seed(b"k").private
        assert PrivateKey.from_bytes(private.to_bytes()).secret == private.secret

    def test_address_prefix_and_stability(self):
        keys = KeyPair.from_seed(b"addr")
        assert keys.address().startswith("btc")
        assert keys.address() == keys.public.address()

    def test_sign_message_verifies(self):
        keys = KeyPair.from_seed(b"m")
        signature = keys.private.sign_message(b"hello")
        assert keys.public.verify_message(b"hello", signature)
        assert not keys.public.verify_message(b"tampered", signature)

    def test_bad_compressed_key_rejected(self):
        with pytest.raises(InvalidKey):
            PublicKey.from_bytes(b"\x05" + b"\x00" * 32)

    def test_private_repr_hides_secret(self):
        private = KeyPair.from_seed(b"secret").private
        assert hex(private.secret)[2:] not in repr(private)


class TestAuthenticatedEncryption:
    def _keys(self):
        a = KeyPair.from_seed(b"chan-a")
        b = KeyPair.from_seed(b"chan-b")
        return derive_channel_keys(a.private, b.public), a, b

    def test_both_sides_derive_same_keys(self):
        a = KeyPair.from_seed(b"chan-a")
        b = KeyPair.from_seed(b"chan-b")
        assert derive_channel_keys(a.private, b.public) == derive_channel_keys(
            b.private, a.public
        )

    def test_ecdh_symmetry(self):
        a = KeyPair.from_seed(b"e1")
        b = KeyPair.from_seed(b"e2")
        assert ecdh_shared_secret(a.private, b.public) == ecdh_shared_secret(
            b.private, a.public
        )

    def test_roundtrip(self):
        keys, _, _ = self._keys()
        envelope = encrypt(keys, nonce_from_counter(1), b"payload")
        assert decrypt(keys, envelope) == b"payload"

    def test_tampered_ciphertext_rejected(self):
        keys, _, _ = self._keys()
        envelope = bytearray(encrypt(keys, nonce_from_counter(1), b"payload"))
        envelope[14] ^= 0x01
        with pytest.raises(DecryptionError):
            decrypt(keys, bytes(envelope))

    def test_tampered_tag_rejected(self):
        keys, _, _ = self._keys()
        envelope = bytearray(encrypt(keys, nonce_from_counter(1), b"payload"))
        envelope[-1] ^= 0x01
        with pytest.raises(DecryptionError):
            decrypt(keys, bytes(envelope))

    def test_wrong_channel_keys_rejected(self):
        keys, _, _ = self._keys()
        other = derive_channel_keys(KeyPair.from_seed(b"x").private,
                                    KeyPair.from_seed(b"y").public)
        envelope = encrypt(keys, nonce_from_counter(1), b"payload")
        with pytest.raises(DecryptionError):
            decrypt(other, envelope)

    def test_short_envelope_rejected(self):
        keys, _, _ = self._keys()
        with pytest.raises(DecryptionError):
            decrypt(keys, b"tiny")

    def test_bad_nonce_length_rejected(self):
        keys, _, _ = self._keys()
        with pytest.raises(DecryptionError):
            encrypt(keys, b"short", b"payload")

    def test_empty_plaintext(self):
        keys, _, _ = self._keys()
        assert decrypt(keys, encrypt(keys, nonce_from_counter(2), b"")) == b""

    # Envelopes produced by the byte-at-a-time XOR this module shipped
    # with: (nonce counter, plaintext, nonce || ciphertext || tag).  They
    # pin the construction, not any stored data: channel keys live for one
    # session and nothing persisted is sealed with ``encrypt``.
    VECTOR_KEYS = SecureChannelKeys(sha256(b"vector-enc"), sha256(b"vector-mac"))
    VECTORS = [
        (7, bytes(range(33)),
         "0000000000000000000000075692afa57ae032f96eaba9cdb014c15956a24492"
         "65c4bf3652bc4e1707f73b6a4d116e759f6470f198a897cdde36a94d2162b062"
         "60741e84b019d531454b893afd"),
        (1 << 40, b"teechain" * 9 + b"!",
         "0000000000000100000000009b1ff9a3ef5d558c0deeefe9790bc95d4b0ddc4a"
         "1aa5a5950d411e74385ee4f1afa6e238281aa32c9c207c216ad4ae15c89961ba"
         "db29ba4de5edd715cd71d6a7a5c8772b97459b870797588102be3b87ff620d1b"
         "aa2324380aba5f1b569ef6324bcfcb395b22729d37"),
    ]

    @pytest.mark.parametrize("counter,plaintext,envelope", VECTORS)
    def test_wire_format_matches_recorded_envelopes(
            self, counter, plaintext, envelope):
        sealed = encrypt(self.VECTOR_KEYS, nonce_from_counter(counter), plaintext)
        assert sealed.hex() == envelope
        assert decrypt(self.VECTOR_KEYS, bytes.fromhex(envelope)) == plaintext

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 200, 65_536])
    def test_matches_bytewise_reference(self, length):
        # The construction spelled out a byte at a time: SHA-256 in
        # counter mode XOR the plaintext, then HMAC over nonce||ciphertext.
        keys, nonce = self.VECTOR_KEYS, nonce_from_counter(length + 1)
        plaintext = (sha256(b"pattern") * (length // 32 + 1))[:length]
        stream = b"".join(
            sha256(keys.encrypt_key + nonce + block.to_bytes(8, "big"))
            for block in range((length + 31) // 32))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        tag = hmac.new(keys.mac_key, nonce + ciphertext, "sha256").digest()
        envelope = encrypt(keys, nonce, plaintext)
        assert envelope == nonce + ciphertext + tag
        assert decrypt(keys, envelope) == plaintext

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=512), st.integers(min_value=1, max_value=2**40))
    def test_property_roundtrip(self, plaintext, counter):
        keys = derive_channel_keys(KeyPair.from_seed(b"p1").private,
                                   KeyPair.from_seed(b"p2").public)
        envelope = encrypt(keys, nonce_from_counter(counter), plaintext)
        assert decrypt(keys, envelope) == plaintext


class TestMultisig:
    def _spec(self, m, n):
        keys = [KeyPair.from_seed(f"ms{i}".encode()) for i in range(n)]
        return MultisigSpec(m, tuple(k.public for k in keys)), keys

    def test_threshold_met(self):
        spec, keys = self._spec(2, 3)
        digest = sha256(b"spend")
        signatures = [keys[0].private.sign(digest), keys[2].private.sign(digest)]
        assert spec.verify(digest, signatures)

    def test_threshold_not_met(self):
        spec, keys = self._spec(2, 3)
        digest = sha256(b"spend")
        assert not spec.verify(digest, [keys[0].private.sign(digest)])

    def test_same_key_twice_not_counted(self):
        spec, keys = self._spec(2, 3)
        digest = sha256(b"spend")
        signature = keys[0].private.sign(digest)
        assert not spec.verify(digest, [signature, signature])

    def test_foreign_signature_ignored(self):
        spec, keys = self._spec(2, 3)
        digest = sha256(b"spend")
        outsider = KeyPair.from_seed(b"outsider")
        assert not spec.verify(digest, [
            keys[0].private.sign(digest), outsider.private.sign(digest)
        ])

    def test_order_insensitive(self):
        spec, keys = self._spec(2, 3)
        digest = sha256(b"spend")
        signatures = [keys[2].private.sign(digest), keys[0].private.sign(digest)]
        assert spec.verify(digest, signatures)

    def test_invalid_spec_rejected(self):
        keys = [KeyPair.from_seed(b"a").public]
        with pytest.raises(ThresholdError):
            MultisigSpec(2, tuple(keys))

    def test_duplicate_keys_rejected(self):
        key = KeyPair.from_seed(b"dup").public
        with pytest.raises(ThresholdError):
            MultisigSpec(1, (key, key))

    def test_address_deterministic_and_prefixed(self):
        spec, _ = self._spec(2, 3)
        assert spec.address().startswith("msig")
        spec2, _ = self._spec(2, 3)
        assert spec.address() == spec2.address()
