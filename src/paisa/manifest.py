"""The manufacturer-signed device description document and the local
short-URL registry that stands in for an external URL-shortening service.

The ``Manifest`` dataclass is the manifest's one declaration. The signed
bytes walk its payload fields in order, one rule per kind, and a ``bytes``
field has its declared width. The fields and widths come from
``crypto.record_keys``, the table by which ``crypto.record_from_json`` reads
the JSON document. The signature covers the canonical bytes, not
the JSON text, so whitespace or key order never breaks verification, and a
member that is no field can never be signed: it is refused.

The JSON document is written from a template built once from the fields:
each member's key and separator are fixed, and only the values are encoded
per manifest. The bytes are identical to ``json.dumps(doc, indent=2,
sort_keys=True)``, whose indented output CPython writes with its pure-Python
encoder.
"""

from __future__ import annotations

import hashlib
import json
import string
import struct
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Dict, Optional, Tuple

from . import crypto
from .wire import DEVICE_ID_LEN, SHORT_URL_LEN

STATUS_ACTIVE = "active"
STATUS_REVOKED = "revoked"

_B62_ALPHABET = string.digits + string.ascii_uppercase + string.ascii_lowercase


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class Manifest:
    device_id: bytes = field(metadata={"width": DEVICE_ID_LEN})
    device_type_model: str
    manufacturer: str
    manufacture_date_location: str
    sensors: Tuple[str, ...]
    actuators: Tuple[str, ...]
    deployment_purpose: str
    network_interfaces: Tuple[str, ...]
    owner_id: str
    deployment_location: str
    sw_hash: bytes = field(metadata={"width": crypto.DIGEST_LEN})
    device_public_key: bytes = field(metadata={"width": crypto.PUBLIC_KEY_LEN})
    full_url: str
    status: str
    # Attached by sign_manifest; not part of the signed payload.
    manufacturer_public_key: Optional[bytes] = None
    manifest_signature: Optional[bytes] = None


_U32 = struct.Struct(">I").pack


def _hex_to_json(value: bytes) -> str:
    return '"' + value.hex() + '"'


def _list_to_json(items: Tuple[str, ...]) -> str:
    """A list member as ``json.dumps(..., indent=2)`` writes it one level down."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(map(encode_basestring_ascii, items)) + "\n  ]"


_KEYS = crypto.record_keys(Manifest)
# (name, kind, many, width or None) of each signed field: a field with no default.
_PAYLOAD = tuple((name, kind, many, width)
                 for _, name, kind, many, required, width, *_ in _KEYS.values() if required)
# The JSON template: per member, in key order, its fixed '"key": ' text, its
# field and its value encoder. An attached field is a member only when set.
_MEMBERS = tuple(
    sorted(
        (encode_basestring_ascii(key) + ": ", name,
         _list_to_json if many else _hex_to_json if kind is bytes else encode_basestring_ascii)
        for key, name, kind, many, *_ in _KEYS.values()
    )
)


def canonicalize(manifest: Manifest) -> bytes:
    """Deterministic byte serialization of the signed payload: each payload
    field in declared order, encoded by its kind. A bytes field is itself, a
    string its 4-byte big-endian UTF-8 length and UTF-8 bytes, a list its
    4-byte item count and then each item as a string."""
    if manifest.status not in (STATUS_ACTIVE, STATUS_REVOKED):
        raise ManifestError(f"unknown status {manifest.status!r}")
    values = vars(manifest)
    parts = []
    try:
        for name, kind, many, width in _PAYLOAD:
            value = values[name]
            if kind is bytes:
                if len(value) != width:
                    raise ManifestError(f"{name} must be {width} bytes")
                parts.append(value)
            elif not many:
                raw = value.encode("utf-8")
                parts += (_U32(len(raw)), raw)
            else:
                parts.append(_U32(len(value)))
                for item in value:
                    raw = item.encode("utf-8")
                    parts += (_U32(len(raw)), raw)
    except UnicodeEncodeError as exc:
        raise ManifestError(f"{name} is not encodable as UTF-8: {exc}") from exc
    return b"".join(parts)


def sign_manifest(manifest: Manifest, mfr_keys: crypto.KeyPair) -> Manifest:
    """Return the manifest with the manufacturer key and signature attached.

    The signed manifest is a copy of the unsigned one's fields plus the two
    attached ones: the fields are already built, so the frozen dataclass's
    ``__init__`` does not run a second time.
    """
    digest = hashlib.sha256(canonicalize(manifest)).digest()
    signed = object.__new__(type(manifest))
    signed.__dict__.update(
        vars(manifest),
        manufacturer_public_key=mfr_keys.public_key,
        manifest_signature=crypto.sign(mfr_keys.private_key, digest),
    )
    return signed


def verify_manifest(manifest: Manifest) -> bool:
    """True iff the embedded signature verifies under the embedded key; key
    pinning is the receiver's (``ReceiverConfig.pinned_mfr_keys``)."""
    try:
        digest = hashlib.sha256(canonicalize(manifest)).digest()
    except ManifestError:
        return False
    return crypto.verify(
        manifest.manufacturer_public_key, digest, manifest.manifest_signature
    )


def manifest_to_json(manifest: Manifest) -> bytes:
    """The manifest's JSON document: ASCII, sorted keys, two-space indent."""
    values = vars(manifest)
    members = [key + to_json(values[name]) for key, name, to_json in _MEMBERS if values[name] is not None]
    return ("{\n  " + ",\n  ".join(members) + "\n}").encode("ascii")


def manifest_from_json(data: bytes) -> Manifest:
    """The manifest of a JSON document, or ``ManifestError``."""
    try:
        return crypto.record_from_json(Manifest, json.loads(data), "manifest")
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"malformed manifest document: {exc}") from exc


def hosted_path(full_url: str) -> str:
    """The path a manifest is served under: its full URL without scheme and host."""
    without_scheme = full_url.split("://", 1)[-1]
    slash = without_scheme.find("/")
    return without_scheme[slash:] if slash >= 0 else "/" + without_scheme


class ShortUrlRegistry:
    """Maps 11-byte ASCII keys to full URLs; the hermetic URL shortener."""

    def __init__(self) -> None:
        self._by_key: Dict[str, str] = {}
        self._by_url: Dict[str, str] = {}

    @staticmethod
    def _candidate(full_url: str, attempt: int) -> str:
        material = full_url.encode("utf-8") + struct.pack(">I", attempt)
        digest = int.from_bytes(hashlib.sha256(material).digest(), "big")
        chars = []
        for _ in range(SHORT_URL_LEN):
            digest, rem = divmod(digest, 62)
            chars.append(_B62_ALPHABET[rem])
        return "".join(chars)

    def key_for(self, full_url: str) -> str:
        """The key of ``full_url``: its registered one, else the first
        candidate that is not taken. Registers nothing."""
        existing = self._by_url.get(full_url)
        if existing is not None:
            return existing
        attempt = 0
        key = self._candidate(full_url, attempt)
        while key in self._by_key:
            attempt += 1
            key = self._candidate(full_url, attempt)
        return key

    def add(self, key: str, full_url: str) -> None:
        """Register ``key`` for ``full_url``; both must be unused strings."""
        if not isinstance(key, str) or len(key) != SHORT_URL_LEN or not key.isascii():
            raise ManifestError(f"registry key {key!r} is not {SHORT_URL_LEN} ASCII chars")
        if not isinstance(full_url, str):
            raise ManifestError(f"registry URL {full_url!r} is not a string")
        if key in self._by_key or full_url in self._by_url:
            raise ManifestError(f"registry key {key!r} or URL {full_url!r} is already in use")
        self._by_key[key] = full_url
        self._by_url[full_url] = key

    def resolve(self, key: str) -> Optional[str]:
        """The mapped full URL, or None when the key is unregistered."""
        if len(key) != SHORT_URL_LEN:
            raise ValueError(f"short URL key must be {SHORT_URL_LEN} ASCII chars")
        return self._by_key.get(key)

    def to_dict(self) -> Dict[str, str]:
        return dict(self._by_key)
