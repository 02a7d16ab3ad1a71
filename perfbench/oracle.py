"""Announcement check that shares no code with the package: it parses the
beacon by its fixed layout and verifies with ``cryptography`` directly."""

from __future__ import annotations

import hashlib
import json

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed, encode_dss_signature

BEACON_LEN = 240
PAYLOAD_LEN = 116
# Vendor element header: tag 0xdd, length 3 + 116, OUI 00:14:6C.
VENDOR_HEADER = bytes((0xDD, 3 + PAYLOAD_LEN, 0x00, 0x14, 0x6C))
_ALGO = ec.ECDSA(Prehashed(hashes.SHA256()))


class AnnouncementOracle:
    """Checks beacons against the device keys published in manifests."""

    def __init__(self, server):
        self._server = server
        self._keys = {}

    def _device(self, manifest_path):
        if manifest_path not in self._keys:
            doc = json.loads(self._server.serve_manifest(manifest_path))
            pk = bytes.fromhex(doc["device_public_key"])
            numbers = ec.EllipticCurvePublicNumbers(
                int.from_bytes(pk[:32], "big"), int.from_bytes(pk[32:], "big"), ec.SECP256R1()
            )
            self._keys[manifest_path] = (bytes.fromhex(doc["device_id"]), numbers.public_key())
        return self._keys[manifest_path]

    def verifies(self, frame: bytes, manifest_path: str) -> bool:
        """True iff ``frame`` carries an announcement signed by the device whose
        manifest is at ``manifest_path``, with a passing attestation result."""
        if len(frame) != BEACON_LEN or frame[-PAYLOAD_LEN - 5 : -PAYLOAD_LEN] != VENDOR_HEADER:
            return False
        payload = frame[-PAYLOAD_LEN:]
        if payload[47] != 1:
            return False
        device_id, key = self._device(manifest_path)
        digest = hashlib.sha256(device_id + payload[:52]).digest()
        r, s = int.from_bytes(payload[52:84], "big"), int.from_bytes(payload[84:], "big")
        try:
            key.verify(encode_dss_signature(r, s), digest, _ALGO)
        except InvalidSignature:
            return False
        return True
