"""The manufacturer-signed device description document and the local
short-URL registry that stands in for an external URL-shortening service.

The ``Manifest`` dataclass is the manifest's one declaration: the signed
bytes and the JSON codec walk its payload fields in order, one rule per kind.
A ``bytes`` field has its declared width and is JSON hex, a ``str`` a JSON
string, a ``Tuple[str, ...]`` a JSON list of strings; any other JSON type is
malformed. The signature covers the canonical bytes, not the JSON text, so
whitespace or key order never breaks verification.
"""

from __future__ import annotations

import hashlib
import json
import string
import struct
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from . import crypto
from .wire import DEVICE_ID_LEN, SHORT_URL_LEN

STATUS_ACTIVE = "active"
STATUS_REVOKED = "revoked"

_B62_ALPHABET = string.digits + string.ascii_uppercase + string.ascii_lowercase


class ManifestError(ValueError):
    pass


def _width(n: int) -> Any:
    return field(metadata={"width": n})


@dataclass(frozen=True)
class Manifest:
    device_id: bytes = _width(DEVICE_ID_LEN)
    device_type_model: str
    manufacturer: str
    manufacture_date_location: str
    sensors: Tuple[str, ...]
    actuators: Tuple[str, ...]
    deployment_purpose: str
    network_interfaces: Tuple[str, ...]
    owner_id: str
    deployment_location: str
    sw_hash: bytes = _width(crypto.DIGEST_LEN)
    device_public_key: bytes = _width(crypto.PUBLIC_KEY_LEN)
    full_url: str
    status: str
    # Attached by sign_manifest; not part of the signed payload.
    manufacturer_public_key: Optional[bytes] = None
    manifest_signature: Optional[bytes] = None


def _lp_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _lp_list(items: Tuple[str, ...]) -> bytes:
    return struct.pack(">I", len(items)) + b"".join([_lp_str(item) for item in items])


def _json_str(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _json_strs(value: Any) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"expected a list of strings, got {type(value).__name__}")
    return tuple(value)


# Per annotated kind: the canonical encoder, the JSON encoder and the JSON
# decoder (TypeError or ValueError on a value of the wrong JSON type).
_KINDS = {
    "bytes": (bytes, bytes.hex, bytes.fromhex),
    "str": (_lp_str, str, _json_str),
    "Tuple[str, ...]": (_lp_list, list, _json_strs),
}
# (name, width or None, *kind) of each payload field, in signed order.
_PAYLOAD = tuple(
    (f.name, f.metadata.get("width"), *_KINDS[f.type])
    for f in fields(Manifest)
    if f.default is MISSING
)
_ATTACHED = tuple(f.name for f in fields(Manifest) if f.default is not MISSING)


def canonicalize(manifest: Manifest) -> bytes:
    """Deterministic byte serialization of the signed payload: each payload
    field in declared order, encoded by its kind."""
    if manifest.status not in (STATUS_ACTIVE, STATUS_REVOKED):
        raise ManifestError(f"unknown status {manifest.status!r}")
    parts = []
    for name, width, canonical, _, _ in _PAYLOAD:
        value = getattr(manifest, name)
        if width is not None and len(value) != width:
            raise ManifestError(f"{name} must be {width} bytes")
        try:
            parts.append(canonical(value))
        except UnicodeEncodeError as exc:
            raise ManifestError(f"{name} is not encodable as UTF-8: {exc}") from exc
    return b"".join(parts)


def sign_manifest(manifest: Manifest, mfr_keys: crypto.KeyPair) -> Manifest:
    """Return the manifest with the manufacturer key and signature attached."""
    digest = hashlib.sha256(canonicalize(manifest)).digest()
    sig = crypto.sign(mfr_keys.private_key, digest)
    return replace(
        manifest, manufacturer_public_key=mfr_keys.public_key, manifest_signature=sig
    )


def verify_manifest(manifest: Manifest) -> bool:
    """True iff the embedded signature verifies under the embedded key; key
    pinning is the receiver's (``ReceiverConfig.pinned_mfr_keys``)."""
    if manifest.manufacturer_public_key is None or manifest.manifest_signature is None:
        return False
    try:
        digest = hashlib.sha256(canonicalize(manifest)).digest()
    except ManifestError:
        return False
    return crypto.verify(
        manifest.manufacturer_public_key, digest, manifest.manifest_signature
    )


def manifest_to_json(manifest: Manifest) -> bytes:
    doc = {name: to_json(getattr(manifest, name)) for name, _, _, to_json, _ in _PAYLOAD}
    for name in _ATTACHED:
        value = getattr(manifest, name)
        if value is not None:
            doc[name] = value.hex()
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


def manifest_from_json(data: bytes) -> Manifest:
    try:
        doc = json.loads(data)
        values = {name: from_json(doc[name]) for name, _, _, _, from_json in _PAYLOAD}
        for name in _ATTACHED:
            if name in doc:
                values[name] = bytes.fromhex(doc[name])
        return Manifest(**values)
    except (KeyError, TypeError, ValueError) as exc:
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

    def shorten(self, full_url: str) -> str:
        """Return the 11-char key for ``full_url``; idempotent per URL."""
        key = self.key_for(full_url)
        if key not in self._by_key:
            self.add(key, full_url)
        return key

    def resolve(self, key: str) -> Optional[str]:
        """The mapped full URL, or None when the key is unregistered."""
        if len(key) != SHORT_URL_LEN:
            raise ValueError(f"short URL key must be {SHORT_URL_LEN} ASCII chars")
        return self._by_key.get(key)

    def to_dict(self) -> Dict[str, str]:
        return dict(self._by_key)

    @classmethod
    def from_dict(cls, mapping: Dict[str, str]) -> "ShortUrlRegistry":
        reg = cls()
        for key, url in mapping.items():
            reg.add(key, url)
        return reg
