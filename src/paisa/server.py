"""The manufacturer server: provisioning driver, time-sync responder with the
per-device timestamp map, and manifest hosting.

Rejections are state-free: a rejected request leaves every device record
byte-identical. Committed timestamps persist on write so a restart never
loses one.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from . import crypto, wire
from .device import ATTEST_CHUNK_SIZE, Device, SystemNonceSource, TimerConfig
from .manifest import (
    Manifest,
    ShortUrlRegistry,
    manifest_to_json,
    sign_manifest,
)

DEFAULT_SESSION_TTL = 60  # seconds of (virtual) time before a pending sync expires


class ServerError(RuntimeError):
    pass


@dataclass
class DeviceRecord:
    device_id: bytes
    device_public_key: bytes
    latest_ts: int
    manifest_path: str


@dataclass
class SyncRejection:
    reason: str


@dataclass
class AckOutcome:
    committed: bool
    reason: str = ""


@dataclass
class _PendingSession:
    device_id: bytes
    ts_cur: int
    issued_at: int


@dataclass
class DeviceDescription:
    """Human-facing manifest fields chosen by the manufacturer."""

    device_type_model: str = "generic-iot"
    manufacturer: str = "Example Manufacturer"
    manufacture_date_location: str = "2024-01-01 / Factory 1"
    sensors: Tuple[str, ...] = ()
    actuators: Tuple[str, ...] = ()
    deployment_purpose: str = "unspecified"
    network_interfaces: Tuple[str, ...] = ("wifi",)
    owner_id: str = "owner-0"
    deployment_location: str = "unspecified"


class ManufacturerServer:
    """Holds the signing key, the device map, the registry, and hosted manifests."""

    def __init__(
        self,
        keys: crypto.KeyPair,
        store_path: Optional[str] = None,
        session_ttl: int = DEFAULT_SESSION_TTL,
        nonce_source=None,
    ) -> None:
        self.keys = keys
        self.store_path = store_path
        self.session_ttl = session_ttl
        self._nonces = nonce_source if nonce_source is not None else SystemNonceSource()
        self.records: Dict[bytes, DeviceRecord] = {}
        self.manifests: Dict[str, bytes] = {}
        self.registry = ShortUrlRegistry()
        self._sessions: Dict[bytes, _PendingSession] = {}
        self._lock = threading.Lock()

    # -- registration -------------------------------------------------------

    def register_device(
        self,
        device: Device,
        device_id: bytes,
        sw_dev: bytes,
        full_url: str,
        ts_cur: int,
        timer_config: TimerConfig,
        description: Optional[DeviceDescription] = None,
        key_seed: Optional[bytes] = None,
    ) -> Tuple[Manifest, DeviceRecord]:
        """Provision a device and publish its signed manifest.

        Runs the full registration flow: hash the software image, register the
        short URL, provision the device (which returns its public key), build
        and sign the manifest, and store the device record.
        """
        with self._lock:
            if device_id in self.records:
                raise ServerError(f"duplicate device_id {device_id.hex()}")
            desc = description if description is not None else DeviceDescription()
            short_url = self.registry.shorten(full_url)
            device_pk = device.provision(
                device_id=device_id,
                sw_dev=sw_dev,
                mfr_public_key=self.keys.public_key,
                short_url=short_url,
                full_url=full_url,
                ts_cur=ts_cur,
                timer_config=timer_config,
                key_seed=key_seed,
            )
            man = Manifest(
                device_id=device_id,
                device_type_model=desc.device_type_model,
                manufacturer=desc.manufacturer,
                manufacture_date_location=desc.manufacture_date_location,
                sensors=tuple(desc.sensors),
                actuators=tuple(desc.actuators),
                deployment_purpose=desc.deployment_purpose,
                network_interfaces=tuple(desc.network_interfaces),
                owner_id=desc.owner_id,
                deployment_location=desc.deployment_location,
                sw_hash=crypto.hash_chunked(sw_dev, ATTEST_CHUNK_SIZE),
                device_public_key=device_pk,
                full_url=full_url,
                status="active",
            )
            man = sign_manifest(man, self.keys)
            path = self._path_for(full_url)
            self.manifests[path] = manifest_to_json(man)
            record = DeviceRecord(
                device_id=device_id,
                device_public_key=device_pk,
                latest_ts=ts_cur,
                manifest_path=path,
            )
            self.records[device_id] = record
            self._persist()
            return man, record

    @staticmethod
    def _path_for(full_url: str) -> str:
        # Strip scheme and host; manifests are served by path.
        without_scheme = full_url.split("://", 1)[-1]
        slash = without_scheme.find("/")
        return without_scheme[slash:] if slash >= 0 else "/" + without_scheme

    def serve_manifest(self, path: str) -> Optional[bytes]:
        """The stored manifest document, byte-identical to the signed artifact."""
        return self.manifests.get(path)

    # -- time sync ----------------------------------------------------------

    def _expire_sessions(self, now: int) -> None:
        dead = [n for n, s in self._sessions.items() if now - s.issued_at > self.session_ttl]
        for nonce in dead:
            del self._sessions[nonce]

    def handle_sync_req(
        self, req: wire.SyncReq, now: int
    ) -> Union[wire.SyncResp, SyncRejection]:
        """Answer a sync request, or reject it without touching any record."""
        with self._lock:
            self._expire_sessions(now)
            record = self.records.get(req.device_id)
            if record is None:
                return SyncRejection("unknown_device")
            if req.ts_prev != record.latest_ts:
                return SyncRejection("timestamp_mismatch")
            preimage = wire.sync_req_preimage(req.device_id, req.n_dev1, req.ts_prev)
            if not crypto.verify(
                record.device_public_key,
                hashlib.sha256(preimage).digest(),
                req.signature,
            ):
                return SyncRejection("bad_signature")
            n_svr1 = self._nonces.randbytes(wire.NONCE_LEN)
            ts_cur = now
            self._sessions[n_svr1] = _PendingSession(
                device_id=req.device_id, ts_cur=ts_cur, issued_at=now
            )
            resp_preimage = wire.sync_resp_preimage(
                req.device_id, req.n_dev1, n_svr1, ts_cur
            )
            sig = crypto.sign(
                self.keys.private_key, hashlib.sha256(resp_preimage).digest()
            )
            return wire.SyncResp(
                device_id=req.device_id,
                n_dev1=req.n_dev1,
                n_svr1=n_svr1,
                ts_cur=ts_cur,
                signature=sig,
            )

    def handle_sync_ack(self, ack: wire.SyncAck, now: int) -> AckOutcome:
        """Commit the synced timestamp iff the ack closes a pending session."""
        with self._lock:
            self._expire_sessions(now)
            session = self._sessions.get(ack.n_svr1)
            if session is None:
                return AckOutcome(False, "unknown_session")
            if ack.device_id != session.device_id:
                return AckOutcome(False, "device_mismatch")
            if ack.ts_prev != session.ts_cur:
                return AckOutcome(False, "timestamp_mismatch")
            record = self.records[session.device_id]
            preimage = wire.sync_ack_preimage(
                ack.device_id, ack.n_dev2, ack.n_svr1, ack.ts_prev
            )
            if not crypto.verify(
                record.device_public_key, hashlib.sha256(preimage).digest(), ack.signature
            ):
                return AckOutcome(False, "bad_signature")
            # Commit: the session is one-shot.
            del self._sessions[ack.n_svr1]
            record.latest_ts = max(record.latest_ts, ack.ts_prev)
            self._persist()
            return AckOutcome(True)

    # -- persistence --------------------------------------------------------

    def _persist(self) -> None:
        if self.store_path is None:
            return
        doc = {
            "keys": {
                "private_key": self.keys.private_key.hex(),
                "public_key": self.keys.public_key.hex(),
            },
            "records": [
                {
                    "device_id": r.device_id.hex(),
                    "device_public_key": r.device_public_key.hex(),
                    "latest_ts": r.latest_ts,
                    "manifest_path": r.manifest_path,
                }
                for r in self.records.values()
            ],
            "manifests": {p: data.decode("utf-8") for p, data in self.manifests.items()},
            "registry": self.registry.to_dict(),
        }
        tmp = self.store_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
        os.replace(tmp, self.store_path)

    @classmethod
    def load(cls, store_path: str, session_ttl: int = DEFAULT_SESSION_TTL, nonce_source=None) -> "ManufacturerServer":
        with open(store_path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        keys = crypto.KeyPair(
            private_key=bytes.fromhex(doc["keys"]["private_key"]),
            public_key=bytes.fromhex(doc["keys"]["public_key"]),
        )
        srv = cls(keys, store_path=store_path, session_ttl=session_ttl, nonce_source=nonce_source)
        for rec in doc["records"]:
            record = DeviceRecord(
                device_id=bytes.fromhex(rec["device_id"]),
                device_public_key=bytes.fromhex(rec["device_public_key"]),
                latest_ts=rec["latest_ts"],
                manifest_path=rec["manifest_path"],
            )
            srv.records[record.device_id] = record
        srv.manifests = {p: data.encode("utf-8") for p, data in doc["manifests"].items()}
        srv.registry = ShortUrlRegistry.from_dict(doc["registry"])
        return srv
