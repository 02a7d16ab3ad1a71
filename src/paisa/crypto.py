"""Cryptographic primitives: ECDSA over prime256v1 and chunked SHA-256.

All signatures are raw 64-byte ``r || s`` (big-endian, fixed width), never DER.
Signing uses deterministic nonces (RFC 6979) so identical inputs produce
identical signatures. Verification never raises on malformed input: adversarial
bytes yield ``False``.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from typing import Optional

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    decode_dss_signature,
    encode_dss_signature,
)

CURVE = ec.SECP256R1()
# Order of the prime256v1 base point.
CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

PRIVATE_KEY_LEN = 32
PUBLIC_KEY_LEN = 64
SIGNATURE_LEN = 64
DIGEST_LEN = 32

_SIGN_ALGO = ec.ECDSA(Prehashed(hashes.SHA256()), deterministic_signing=True)
_VERIFY_ALGO = ec.ECDSA(Prehashed(hashes.SHA256()))

# Loaded key objects are kept per key bytes, so every signer and verifier
# builds each key once. A failed load raises and is not cached.
KEY_CACHE_SIZE = 1024


class CryptoError(ValueError):
    """Invalid key material or malformed crypto-layer input."""


@dataclass(frozen=True)
class KeyPair:
    """A prime256v1 keypair: 32-byte private scalar, 64-byte X||Y public point."""

    private_key: bytes
    public_key: bytes

    def __post_init__(self) -> None:
        if len(self.private_key) != PRIVATE_KEY_LEN:
            raise CryptoError("private key must be 32 bytes")
        if not 0 < int.from_bytes(self.private_key, "big") < CURVE_ORDER:
            raise CryptoError("private scalar out of range")
        if len(self.public_key) != PUBLIC_KEY_LEN:
            raise CryptoError("public key must be 64 bytes")


def _scalar_to_keypair(scalar: int) -> KeyPair:
    priv = ec.derive_private_key(scalar, CURVE)
    nums = priv.public_key().public_numbers()
    pub = nums.x.to_bytes(32, "big") + nums.y.to_bytes(32, "big")
    return KeyPair(private_key=scalar.to_bytes(32, "big"), public_key=pub)


def generate_keypair(seed: Optional[bytes] = None) -> KeyPair:
    """Generate a keypair; a 32-byte seed makes generation deterministic."""
    if seed is not None:
        if len(seed) != 32:
            raise CryptoError("seed must be exactly 32 bytes")
        scalar = int.from_bytes(hashlib.sha256(seed).digest(), "big")
        scalar = scalar % (CURVE_ORDER - 1) + 1
    else:
        while True:
            scalar = int.from_bytes(os.urandom(32), "big")
            if 0 < scalar < CURVE_ORDER:
                break
    return _scalar_to_keypair(scalar)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _load_private(sk: bytes) -> ec.EllipticCurvePrivateKey:
    if len(sk) != PRIVATE_KEY_LEN:
        raise CryptoError("private key must be 32 bytes")
    scalar = int.from_bytes(sk, "big")
    if not 0 < scalar < CURVE_ORDER:
        raise CryptoError("private scalar out of range")
    return ec.derive_private_key(scalar, CURVE)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _load_public(pk: bytes) -> ec.EllipticCurvePublicKey:
    if len(pk) != PUBLIC_KEY_LEN:
        raise CryptoError("public key must be 64 bytes")
    x = int.from_bytes(pk[:32], "big")
    y = int.from_bytes(pk[32:], "big")
    return ec.EllipticCurvePublicNumbers(x, y, CURVE).public_key()


def hash_chunked(data: bytes, chunk_size: int) -> bytes:
    """SHA-256 of ``data`` computed by incremental ``chunk_size``-byte updates.

    The result is independent of ``chunk_size``; chunking mirrors how a
    constrained device walks its program memory.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    h = hashlib.sha256()
    view = memoryview(data)
    for off in range(0, len(view), chunk_size):
        h.update(view[off : off + chunk_size])
    return h.digest()


def sign(sk: bytes, message_digest: bytes) -> bytes:
    """Sign a 32-byte digest, returning a fixed-width 64-byte r||s signature."""
    if len(message_digest) != DIGEST_LEN:
        raise CryptoError("digest must be 32 bytes")
    der = _load_private(sk).sign(message_digest, _SIGN_ALGO)
    r, s = decode_dss_signature(der)
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def verify(pk: bytes, message_digest: bytes, sig: bytes) -> bool:
    """True iff ``sig`` is a valid signature of ``message_digest`` under ``pk``.

    Malformed points, digests, or signature encodings return False rather than
    raising, so a verifier survives arbitrary adversarial bytes.
    """
    try:
        if len(sig) != SIGNATURE_LEN or len(message_digest) != DIGEST_LEN:
            return False
        r = int.from_bytes(sig[:32], "big")
        s = int.from_bytes(sig[32:], "big")
        if not (0 < r < CURVE_ORDER and 0 < s < CURVE_ORDER):
            return False
        _load_public(pk).verify(
            encode_dss_signature(r, s), message_digest, _VERIFY_ALGO
        )
        return True
    except Exception:
        return False


def save_keypair(path: str, keys: KeyPair) -> None:
    """Write a keypair as hex, one value per line (private scalar, public point)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(keys.private_key.hex() + "\n")
        f.write(keys.public_key.hex() + "\n")


def load_keypair(path: str) -> KeyPair:
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if len(lines) != 2:
        raise CryptoError(f"key file {path!r} must hold two hex lines")
    return KeyPair(
        private_key=bytes.fromhex(lines[0]), public_key=bytes.fromhex(lines[1])
    )
