"""The manufacturer server: provisioning driver, time-sync responder with the
per-device timestamp map, and manifest hosting.

Rejections are state-free: a rejected request leaves every device record, and
the store file, byte-identical. Committed timestamps persist on write so a
restart never loses one.

The store file is a snapshot followed by a commit journal. Line 1 is the
whole state (``keys``, ``records``, ``manifests``, ``registry``) as compact
JSON; it is written to a temporary file and renamed into place, by
registration and by compaction. Each committed SyncAck then appends one line,
``{"device_id": hex, "latest_ts": n}``, so a commit costs one small write
instead of a rewrite of every record. Once the journal holds as many lines as
there are records, the next commit rewrites the snapshot instead, which keeps
the file under the snapshot plus one line per record. A server appends only
to a store it wrote or loaded itself; its first write is a snapshot.
``load`` replays the journal with ``max``, drops an unterminated last line (a
torn write), and rejects any other line that does not parse or names an
unknown device.
"""

from __future__ import annotations

import json
import os
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from . import crypto, wire
from .device import ATTEST_CHUNK_SIZE, Device, TimerConfig
from .manifest import (
    STATUS_ACTIVE,
    Manifest,
    ShortUrlRegistry,
    hosted_path,
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


@dataclass(frozen=True)
class DatagramOutcome:
    """One datagram's encoded reply (or None) and the event that records it,
    named as in the simulator log; ``latest_ts`` is the named device's record
    after handling."""

    reply: Optional[bytes]
    event: str
    reason: Optional[str] = None
    latest_ts: Optional[int] = None

    def fields(self) -> dict:
        """The event's fields: a success has no reason, a discard no record."""
        out = {} if self.reason is None else {"reason": self.reason}
        if self.event != "server_discard":
            out["latest_ts"] = self.latest_ts
        return out


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
        self._nonces = nonce_source if nonce_source is not None else random.SystemRandom()
        self.records: Dict[bytes, DeviceRecord] = {}
        self.manifests: Dict[str, bytes] = {}
        self.registry = ShortUrlRegistry()
        # Pending sessions in issue order, so the expired ones lead.
        self._sessions: "OrderedDict[bytes, _PendingSession]" = OrderedDict()
        self._lock = threading.Lock()
        # The store path whose snapshot this server wrote or loaded, and the
        # journal lines after that snapshot. Commits append only there.
        self._snapshot_path: Optional[str] = None
        self._journal_lines = 0

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
                **vars(desc),
                device_id=device_id,
                sw_hash=crypto.hash_chunked(sw_dev, ATTEST_CHUNK_SIZE),
                device_public_key=device_pk,
                full_url=full_url,
                status=STATUS_ACTIVE,
            )
            man = sign_manifest(man, self.keys)
            path = hosted_path(full_url)
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

    def serve_manifest(self, path: str) -> Optional[bytes]:
        """The stored manifest document, byte-identical to the signed artifact."""
        return self.manifests.get(path)

    # -- time sync ----------------------------------------------------------

    def _expired(self, session: _PendingSession, now: int) -> bool:
        return now - session.issued_at > self.session_ttl

    def _expire_sessions(self, now: int) -> None:
        # Amortised O(1): purge from the oldest end while it has expired. A
        # session issued after a backward clock step can sit behind a live
        # one and outlive this, so handle_sync_ack checks the age of the
        # session it closes as well.
        sessions = self._sessions
        while sessions and self._expired(next(iter(sessions.values())), now):
            sessions.popitem(last=False)

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
            if not wire.verifies(req, record.device_public_key):
                return SyncRejection("bad_signature")
            n_svr1 = self._nonces.randbytes(wire.NONCE_LEN)
            self._sessions[n_svr1] = _PendingSession(
                device_id=req.device_id, ts_cur=now, issued_at=now
            )
            return wire.signed(
                wire.SyncResp, self.keys.private_key, req.device_id, req.n_dev1, n_svr1, now
            )

    def handle_sync_ack(self, ack: wire.SyncAck, now: int) -> AckOutcome:
        """Commit the synced timestamp iff the ack closes a pending session."""
        with self._lock:
            self._expire_sessions(now)
            session = self._sessions.get(ack.n_svr1)
            if session is not None and self._expired(session, now):
                del self._sessions[ack.n_svr1]
                session = None
            if session is None:
                return AckOutcome(False, "unknown_session")
            if ack.device_id != session.device_id:
                return AckOutcome(False, "device_mismatch")
            if ack.ts_prev != session.ts_cur:
                return AckOutcome(False, "timestamp_mismatch")
            record = self.records[session.device_id]
            if not wire.verifies(ack, record.device_public_key):
                return AckOutcome(False, "bad_signature")
            # Commit: the session is one-shot.
            del self._sessions[ack.n_svr1]
            record.latest_ts = max(record.latest_ts, ack.ts_prev)
            self._commit(record)
            return AckOutcome(True)

    def handle_datagram(self, data: bytes, now: int) -> DatagramOutcome:
        """Decode one sync datagram, answer it, and encode the reply. Events:
        server_discard, sync_reject, sync_resp, sync_commit, sync_ack_reject."""
        try:
            msg = wire.decode_sync_message(data)
        except wire.SyncParseError as exc:
            return DatagramOutcome(None, "server_discard", str(exc))
        if isinstance(msg, wire.SyncReq):
            outcome = self.handle_sync_req(msg, now)
        elif isinstance(msg, wire.SyncAck):
            outcome = self.handle_sync_ack(msg, now)
        else:
            return DatagramOutcome(None, "server_discard", "unexpected_message")
        record = self.records.get(msg.device_id)
        latest_ts = record.latest_ts if record else None
        if isinstance(outcome, wire.SyncResp):
            reply = wire.encode_sync_message(outcome)
            return DatagramOutcome(reply, "sync_resp", latest_ts=latest_ts)
        if isinstance(outcome, SyncRejection):
            return DatagramOutcome(None, "sync_reject", outcome.reason, latest_ts)
        if outcome.committed:
            return DatagramOutcome(None, "sync_commit", latest_ts=latest_ts)
        return DatagramOutcome(None, "sync_ack_reject", outcome.reason, latest_ts)

    # -- persistence --------------------------------------------------------

    def _commit(self, record: DeviceRecord) -> None:
        """Append one record's timestamp to the journal, or compact."""
        if self.store_path is None:
            return
        if self._snapshot_path != self.store_path or self._journal_lines >= len(self.records):
            self._persist()
            return
        line = json.dumps(
            {"device_id": record.device_id.hex(), "latest_ts": record.latest_ts},
            separators=(",", ":"),
        )
        with open(self.store_path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        self._journal_lines += 1

    def _persist(self) -> None:
        """Write the snapshot, which empties the journal."""
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
            f.write(json.dumps(doc, separators=(",", ":")) + "\n")
        os.replace(tmp, self.store_path)
        self._snapshot_path = self.store_path
        self._journal_lines = 0

    @classmethod
    def load(cls, store_path: str, session_ttl: int = DEFAULT_SESSION_TTL, nonce_source=None) -> "ManufacturerServer":
        """Read a store file; an unreadable or malformed one raises ``ServerError``."""
        try:
            with open(store_path, "r", encoding="utf-8") as f:
                text = f.read()
            # The snapshot is the first JSON document; a store written as one
            # indented document (an older format) is a snapshot with no journal.
            doc, end = json.JSONDecoder().raw_decode(text)
            keys = crypto.KeyPair(
                private_key=bytes.fromhex(doc["keys"]["private_key"]),
                public_key=bytes.fromhex(doc["keys"]["public_key"]),
            )
            srv = cls(keys, store_path=store_path, session_ttl=session_ttl, nonce_source=nonce_source)
            for rec in doc["records"]:
                device_id = bytes.fromhex(rec["device_id"])
                srv.records[device_id] = DeviceRecord(
                    device_id, bytes.fromhex(rec["device_public_key"]), rec["latest_ts"], rec["manifest_path"]
                )
            srv.manifests = {p: data.encode("utf-8") for p, data in doc["manifests"].items()}
            srv.registry = ShortUrlRegistry.from_dict(doc["registry"])
        except (OSError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ServerError(f"{store_path}: unreadable or malformed snapshot: {exc!r}") from exc

        lines = text[end:].lstrip().split("\n")
        lines.pop()  # "" unless the last write was cut short (a torn line)
        for n, line in enumerate(lines, start=2):
            try:
                entry = json.loads(line)
                record = srv.records.get(bytes.fromhex(entry["device_id"]))
                latest_ts = entry["latest_ts"]
            except (ValueError, TypeError, KeyError) as exc:
                raise ServerError(f"{store_path}: journal line {n} is corrupt: {exc}") from exc
            if record is None:
                raise ServerError(f"{store_path}: journal line {n} names an unknown device")
            if type(latest_ts) is not int:
                raise ServerError(f"{store_path}: journal line {n} has no integer latest_ts")
            record.latest_ts = max(record.latest_ts, latest_ts)
        # Append only after a complete last line. A torn one, or an older
        # store with no final newline, is rewritten by the first commit.
        if text.endswith("\n"):
            srv._snapshot_path = store_path
            srv._journal_lines = len(lines)
        return srv
