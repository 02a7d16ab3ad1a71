"""Cryptographic primitives: ECDSA over prime256v1 and chunked SHA-256; and
the key and record files, with ``record_from_json``, the one typed reader of
every JSON document the program loads (its rule is in the README).
``record_keys`` is the one field table of a record class: the reader, the
writer and the manifest's byte layout all read it.

All signatures are raw 64-byte ``r || s`` (big-endian, fixed width), never DER.
Signing uses deterministic nonces (RFC 6979) so identical inputs produce
identical signatures. Verification never raises on malformed input: adversarial
bytes yield ``False``.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, Optional, Union, get_args, get_origin, get_type_hints

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


def matched_keypair(keys: KeyPair) -> KeyPair:
    """``keys`` as stored, checked: ``CryptoError`` unless the public point
    is the private scalar's (costs one key derivation)."""
    if _scalar_to_keypair(int.from_bytes(keys.private_key, "big")) != keys:
        raise CryptoError("the public key is not the private key's")
    return keys


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
    constrained device walks its program memory. In this model each chunk is
    one interpreter step that costs time and measures nothing, so the device
    walks 1 MiB per update (``device.ATTEST_CHUNK_SIZE``).
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


def write_owner_only(path: str, text: str) -> None:
    """Replace ``path`` with ``text``, readable by its owner only: written to
    a ``.tmp`` file beside it, created with mode 0600, then renamed into place."""
    tmp = path + ".tmp"
    try:
        os.unlink(tmp)  # O_CREAT would keep a leftover file's mode
    except FileNotFoundError:
        pass
    with open(tmp, "x", encoding="utf-8", opener=lambda p, flags: os.open(p, flags, 0o600)) as f:
        f.write(text)
    os.replace(tmp, path)


class RecordError(ValueError):
    """A document that does not fit its record class, at a path such as ``snapshot.records[1].latest_ts``."""


def rule(default=MISSING, *, minimum: Optional[int] = None, key: Optional[str] = None):
    """A record field with a lower bound, or read from a JSON key other than its name."""
    return field(default=default, metadata={"minimum": minimum, "key": key})


# The JSON values each scalar kind takes, and its name in errors. Types match
# exactly, so a bool (an int to Python) is only ever a bool.
_SCALARS = {
    str: ((str,), "a string"), int: ((int,), "an integer"), float: ((int, float), "a number"),
    bool: ((bool,), "true or false"), bytes: ((str,), "a hex string"),
}


@functools.lru_cache(maxsize=None)
def record_keys(cls) -> Dict[str, tuple]:
    """The fields of the record class ``cls`` by JSON key, resolved once: (key,
    field name, kind, many, required, declared byte ``width`` or None, the JSON type
    read in line or None, its converter or None, the reader of any other value). A
    kind is a scalar type, a record class or ``dict`` (a ``Dict[str, str]``);
    ``Optional[X]`` is X, and ``many`` a ``Tuple[X, ...]``. Only a single scalar
    with no minimum is read in line."""
    hints, table = get_type_hints(cls), {}
    for f in fields(cls):
        kind = hints[f.name]
        kind = get_args(kind)[0] if get_origin(kind) is Union else kind  # Optional[X]
        kind = dict if get_origin(kind) is dict else kind
        many, minimum = get_origin(kind) is tuple, f.metadata.get("minimum")
        key, kind = f.metadata.get("key") or f.name, get_args(kind)[0] if many else kind
        plain = _SCALARS[kind][0][0] if kind in _SCALARS and not many and minimum is None else None
        table[key] = (key, f.name, kind, many, f.default is MISSING, f.metadata.get("width"),
                      plain, bytes.fromhex if kind is bytes else None, _reader(kind, many, minimum))
    return table


def _reader(kind, many: bool, minimum: Optional[int]):
    """The reader ``(raw, where) -> value`` of a field at path ``where``: a record, a
    list read as a tuple, an object of strings as it is, or a scalar of exactly ``kind``
    (a float may be an integer, bytes are a hex string) not below ``minimum``."""
    if many:
        one, plain = _reader(kind, False, minimum), {kind} if minimum is None else set()

        def read_list(raw, where):
            if not isinstance(raw, list):
                raise RecordError(f"{where} must be a list")
            if set(map(type, raw)) <= plain:  # scalars of the kind, as they are
                return tuple(raw)
            return tuple([one(item, f"{where}[{i}]") for i, item in enumerate(raw)])
        return read_list
    if kind is dict:  # JSON keys are strings, so only the values are checked
        def read_strings(raw, where):
            if type(raw) is not dict or not all(type(v) is str for v in raw.values()):
                raise RecordError(f"{where} must be an object of strings")
            return raw
        return read_strings
    if kind not in _SCALARS:
        return functools.partial(record_from_json, kind)
    types, name = _SCALARS[kind]

    def read(raw, where):
        if type(raw) not in types:
            raise RecordError(f"{where} must be {name}, got {raw!r}")
        if minimum is not None and raw < minimum:
            raise RecordError(f"{where} must be at least {minimum}, got {raw}")
        return bytes.fromhex(raw) if kind is bytes else raw
    return read


def record_to_json(record) -> dict:
    """The dataclass ``record`` as the JSON object ``record_from_json`` reads back: each
    field under its key, in order, ``bytes`` as lowercase hex, records as objects."""
    return {key: v.hex() if isinstance(v := getattr(record, name), bytes)
            else v if v is None or kind in _SCALARS or kind is dict
            else [record_to_json(r) for r in v] if many else record_to_json(v)
            for key, name, kind, many, _, _, _, _, _ in record_keys(type(record)).values()}


def record_from_json(cls, doc, where: str = "record"):
    """The ``cls`` record of the JSON object ``doc`` at path ``where``: each
    field is one key, and an absent or null key takes the field's default.
    Anything else that does not fit, or a ``ValueError`` of ``cls``, raises
    ``RecordError``."""
    if not isinstance(doc, dict):
        raise RecordError(f"{where} must be an object")
    table, values, missing = record_keys(cls), {}, None
    for key, name, _, _, required, _, plain, convert, read in table.values():
        raw = doc.get(key)
        if type(raw) is plain:
            try:
                values[name] = raw if convert is None else convert(raw)
            except ValueError:  # bytes.fromhex of a string that is not hex
                raise RecordError(f"{where}.{key} must be a hex string, got {raw!r}") from None
        elif raw is not None:
            values[name] = read(raw, f"{where}.{key}")
        elif required and missing is None:
            missing = key
    # Each value read is one key, so only a document with more keys can hold
    # an unknown one; a misspelt key is reported as that, not as a missing one.
    if len(values) < len(doc) and not doc.keys() <= table.keys():
        raise RecordError(f"unknown key(s) {sorted(doc.keys() - table.keys())} in {where}")
    if missing is not None:
        raise RecordError(f"{where}: {missing} is required")
    try:
        return cls(**values)
    except ValueError as exc:  # a rule of the class's own __post_init__
        raise RecordError(f"{where}: {exc}") from exc


def save_keypair(path: str, keys: KeyPair) -> None:
    """Write a keypair as hex, one value per line (private scalar, public point)."""
    write_owner_only(path, keys.private_key.hex() + "\n" + keys.public_key.hex() + "\n")


def load_keypair(path: str) -> KeyPair:
    """Read a ``save_keypair`` file; the public point must be the private
    scalar's, or ``CryptoError``."""
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if len(lines) != 2:
        raise CryptoError(f"key file {path!r} must hold two hex lines")
    try:
        return matched_keypair(KeyPair(bytes.fromhex(lines[0]), bytes.fromhex(lines[1])))
    except CryptoError as exc:
        raise CryptoError(f"key file {path!r}: {exc}") from None
