"""The manufacturer-signed device description document and the local
short-URL registry that stands in for an external URL-shortening service.

Manifests travel as JSON with hex-encoded binary fields. The manufacturer
signature covers a canonical binary serialization of the payload fields, not
the JSON text, so whitespace or key ordering can never break verification.
"""

from __future__ import annotations

import hashlib
import json
import string
import struct
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from . import crypto
from .wire import SHORT_URL_LEN

STATUS_ACTIVE = "active"
STATUS_REVOKED = "revoked"

_B62_ALPHABET = string.digits + string.ascii_uppercase + string.ascii_lowercase


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class Manifest:
    device_id: bytes                 # 16 bytes
    device_type_model: str
    manufacturer: str
    manufacture_date_location: str
    sensors: Tuple[str, ...]
    actuators: Tuple[str, ...]
    deployment_purpose: str
    network_interfaces: Tuple[str, ...]
    owner_id: str
    deployment_location: str
    sw_hash: bytes                   # 32 bytes
    device_public_key: bytes         # 64 bytes
    full_url: str
    status: str
    manufacturer_public_key: Optional[bytes] = None
    manifest_signature: Optional[bytes] = None


def _lp_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _lp_list(items: Tuple[str, ...]) -> bytes:
    out = struct.pack(">I", len(items))
    for item in items:
        out += _lp_str(item)
    return out


def canonicalize(manifest: Manifest) -> bytes:
    """Deterministic byte serialization of the signed payload.

    Fields appear in declared order; strings are UTF-8 with a 4-byte length
    prefix, lists carry a 4-byte count. The embedded manufacturer key and the
    signature itself are excluded.
    """
    if len(manifest.device_id) != 16:
        raise ManifestError("device_id must be 16 bytes")
    if len(manifest.sw_hash) != 32:
        raise ManifestError("sw_hash must be 32 bytes")
    if len(manifest.device_public_key) != 64:
        raise ManifestError("device_public_key must be 64 bytes")
    if manifest.status not in (STATUS_ACTIVE, STATUS_REVOKED):
        raise ManifestError(f"unknown status {manifest.status!r}")
    return b"".join(
        [
            manifest.device_id,
            _lp_str(manifest.device_type_model),
            _lp_str(manifest.manufacturer),
            _lp_str(manifest.manufacture_date_location),
            _lp_list(manifest.sensors),
            _lp_list(manifest.actuators),
            _lp_str(manifest.deployment_purpose),
            _lp_list(manifest.network_interfaces),
            _lp_str(manifest.owner_id),
            _lp_str(manifest.deployment_location),
            manifest.sw_hash,
            manifest.device_public_key,
            _lp_str(manifest.full_url),
            _lp_str(manifest.status),
        ]
    )


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
    doc = {
        "device_id": manifest.device_id.hex(),
        "device_type_model": manifest.device_type_model,
        "manufacturer": manifest.manufacturer,
        "manufacture_date_location": manifest.manufacture_date_location,
        "sensors": list(manifest.sensors),
        "actuators": list(manifest.actuators),
        "deployment_purpose": manifest.deployment_purpose,
        "network_interfaces": list(manifest.network_interfaces),
        "owner_id": manifest.owner_id,
        "deployment_location": manifest.deployment_location,
        "sw_hash": manifest.sw_hash.hex(),
        "device_public_key": manifest.device_public_key.hex(),
        "full_url": manifest.full_url,
        "status": manifest.status,
    }
    if manifest.manufacturer_public_key is not None:
        doc["manufacturer_public_key"] = manifest.manufacturer_public_key.hex()
    if manifest.manifest_signature is not None:
        doc["manifest_signature"] = manifest.manifest_signature.hex()
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


def manifest_from_json(data: bytes) -> Manifest:
    try:
        doc = json.loads(data)
        return Manifest(
            device_id=bytes.fromhex(doc["device_id"]),
            device_type_model=doc["device_type_model"],
            manufacturer=doc["manufacturer"],
            manufacture_date_location=doc["manufacture_date_location"],
            sensors=tuple(doc["sensors"]),
            actuators=tuple(doc["actuators"]),
            deployment_purpose=doc["deployment_purpose"],
            network_interfaces=tuple(doc["network_interfaces"]),
            owner_id=doc["owner_id"],
            deployment_location=doc["deployment_location"],
            sw_hash=bytes.fromhex(doc["sw_hash"]),
            device_public_key=bytes.fromhex(doc["device_public_key"]),
            full_url=doc["full_url"],
            status=doc["status"],
            manufacturer_public_key=(
                bytes.fromhex(doc["manufacturer_public_key"])
                if "manufacturer_public_key" in doc
                else None
            ),
            manifest_signature=(
                bytes.fromhex(doc["manifest_signature"])
                if "manifest_signature" in doc
                else None
            ),
        )
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

    def shorten(self, full_url: str) -> str:
        """Return the 11-char key for ``full_url``; idempotent per URL."""
        existing = self._by_url.get(full_url)
        if existing is not None:
            return existing
        attempt = 0
        key = self._candidate(full_url, attempt)
        while key in self._by_key:
            attempt += 1
            key = self._candidate(full_url, attempt)
        self._by_key[key] = full_url
        self._by_url[full_url] = key
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
            if len(key) != SHORT_URL_LEN:
                raise ManifestError(f"registry key {key!r} is not {SHORT_URL_LEN} chars")
            reg._by_key[key] = url
            reg._by_url[url] = key
        return reg
