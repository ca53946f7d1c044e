"""Cryptographic substrate.

Real primitives throughout (the TEE and blockchain are simulated; the
cryptography is not):

* :mod:`~repro.crypto.hashing` — SHA-256, double SHA-256, HASH160 (SHA-256
  then RIPEMD-160 when available, with a documented fallback), Merkle roots.
* :mod:`~repro.crypto.ecdsa` — secp256k1 ECDSA with RFC 6979 deterministic
  nonces and low-s normalisation, in pure Python.
* :mod:`~repro.crypto.keys` — key pairs, serialisation, Bitcoin-style
  addresses.
* :mod:`~repro.crypto.authenticated` — encrypt-then-MAC authenticated
  encryption (SHA-256-CTR + HMAC-SHA256) and ECDH key agreement, standing in
  for the paper's AES-GCM/ECDH secure channels.
* :mod:`~repro.crypto.multisig` — m-of-n multisignature helpers matching
  Bitcoin's CHECKMULTISIG semantics.
"""

from repro.crypto.authenticated import (
    SecureChannelKeys,
    decrypt,
    derive_channel_keys,
    ecdh_shared_secret,
    encrypt,
)
from repro.crypto.ecdsa import Signature, sign, verify
from repro.crypto.hashing import hash160, merkle_root, sha256, sha256d
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.crypto.multisig import MultisigSpec

__all__ = [
    "KeyPair",
    "MultisigSpec",
    "PrivateKey",
    "PublicKey",
    "SecureChannelKeys",
    "Signature",
    "decrypt",
    "derive_channel_keys",
    "ecdh_shared_secret",
    "encrypt",
    "hash160",
    "merkle_root",
    "sha256",
    "sha256d",
    "sign",
    "verify",
]
