"""The manufacturer server: provisioning driver, time-sync responder with the
per-device timestamp map, and manifest hosting.

Each sync message ends in a ``wire.SyncOutcome`` (an answered SyncReq in its
``wire.SyncResp``). Rejections are state-free: a rejected request leaves every
device record, and the store file, byte-identical. Committed timestamps
persist on write so a restart never loses one.

The store file is a snapshot followed by a journal. Line 1 is the whole
state (``keys``, ``records``, ``manifests``, ``registry``) as compact JSON; it
is written to a temporary file and renamed into place. Each record, and the
``keys`` object, holds the fields of ``DeviceRecord`` (of ``crypto.KeyPair``),
written and read by ``crypto.record_to_json`` and ``record_from_json``.
After the snapshot, each write appends one line, so it costs one small write
instead of a rewrite of every record:

- a registration line, ``{"record": {...}, "manifest": text, "short_url":
  key, "full_url": url}``, adds a device record, its manifest document and its
  short-URL registry entry;
- a commit line, ``{"device_id": hex, "latest_ts": n}``, records a committed
  SyncAck.

One compaction rule covers both: once the journal holds as many lines as there
are records, the next write rewrites the snapshot instead. A registration adds
a record with its line, so only a commit meets that rule, and the file stays
under the snapshot plus one line per record. A server appends only to a
store it wrote or loaded itself; its first write is a snapshot. ``load``
replays the journal in order and drops an unterminated last line (a torn
write). It rejects any other line that does not parse, a registration of a
known device or of a manifest path, short URL or full URL already in use, and
a commit that names an unknown device.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from . import crypto, wire
from .device import Device, TimerConfig
from .manifest import (
    STATUS_ACTIVE,
    Manifest,
    ManifestError,
    ShortUrlRegistry,
    hosted_path,
    manifest_to_json,
    sign_manifest,
)

SESSION_TTL = 60  # seconds of (virtual) time before a pending sync expires


class ServerError(RuntimeError):
    pass


@dataclass
class DeviceRecord:
    device_id: bytes
    device_public_key: bytes
    latest_ts: int
    manifest_path: str

    def __post_init__(self) -> None:
        if len(self.device_id) != wire.DEVICE_ID_LEN:
            raise ValueError(f"device_id must be {wire.DEVICE_ID_LEN} bytes")
        if len(self.device_public_key) != crypto.PUBLIC_KEY_LEN:
            raise ValueError(f"device_public_key must be {crypto.PUBLIC_KEY_LEN} bytes")


@dataclass
class _PendingSession:
    device_id: bytes
    ts_cur: int  # also when the session was issued


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
    """Holds the signing key, the device map, the registry, and hosted manifests.

    Not thread-safe: one caller drives it, as ``paisa server``'s loop does.
    """

    def __init__(
        self,
        keys: crypto.KeyPair,
        store_path: Optional[str] = None,
        nonce_source=None,
    ) -> None:
        self.keys = keys
        self.store_path = store_path
        self._nonces = nonce_source if nonce_source is not None else random.SystemRandom()
        self.records: Dict[bytes, DeviceRecord] = {}
        self.manifests: Dict[str, bytes] = {}
        self.registry = ShortUrlRegistry()
        # Pending sessions in issue order, so the expired ones lead.
        self._sessions: "OrderedDict[bytes, _PendingSession]" = OrderedDict()
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

        Runs the full registration flow: choose the short URL, check that the
        manifest can encode the description, provision the device (which
        returns its public key and the image's hash), build and sign the
        manifest, then store the device record, the manifest and the registry
        entry. A refused registration changes none of them, and a description
        the manifest cannot encode leaves the device unprovisioned too.
        """
        if device_id in self.records:
            raise ServerError(f"duplicate device_id {device_id.hex()}")
        path = hosted_path(full_url)
        if path in self.manifests:
            raise ServerError(f"full_url {full_url!r} is in use: {path} already holds a manifest")
        desc = description if description is not None else DeviceDescription()
        short_url = self.registry.key_for(full_url)
        # A string with no UTF-8 form cannot be signed: refuse it before provisioning.
        texts = [t for v in vars(desc).values() for t in ((v,) if isinstance(v, str) else v)]
        try:
            "".join([full_url, *texts]).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ManifestError(f"description is not encodable as UTF-8: {exc}") from None
        device_pk, sw_hash = device.provision(
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
            sw_hash=sw_hash,
            device_public_key=device_pk,
            full_url=full_url,
            status=STATUS_ACTIVE,
        )
        man = sign_manifest(man, self.keys)
        document = manifest_to_json(man)
        record = DeviceRecord(
            device_id=device_id,
            device_public_key=device_pk,
            latest_ts=ts_cur,
            manifest_path=path,
        )
        self.registry.add(short_url, full_url)
        self.records[device_id] = record
        self.manifests[path] = document
        if self.store_path is not None:
            self._append(
                {
                    "record": crypto.record_to_json(record),
                    "manifest": document.decode("utf-8"),
                    "short_url": short_url,
                    "full_url": full_url,
                }
            )
        return man, record

    def serve_manifest(self, path: str) -> Optional[bytes]:
        """The stored manifest document, byte-identical to the signed artifact."""
        return self.manifests.get(path)

    # -- time sync ----------------------------------------------------------

    def _expired(self, session: _PendingSession, now: int) -> bool:
        return now - session.ts_cur > SESSION_TTL

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
    ) -> Union[wire.SyncResp, wire.SyncOutcome]:
        """Answer a sync request, or return a ``sync_reject`` outcome without
        touching any record."""
        self._expire_sessions(now)
        record = self.records.get(req.device_id)
        if record is None:
            return wire.SyncOutcome("sync_reject", "unknown_device")
        if req.ts_prev != record.latest_ts:
            return wire.SyncOutcome("sync_reject", "timestamp_mismatch", latest_ts=record.latest_ts)
        if not wire.verifies(req, record.device_public_key):
            return wire.SyncOutcome("sync_reject", "bad_signature", latest_ts=record.latest_ts)
        n_svr1 = self._nonces.randbytes(wire.NONCE_LEN)
        self._sessions[n_svr1] = _PendingSession(device_id=req.device_id, ts_cur=now)
        return wire.signed(
            wire.SyncResp, self.keys.private_key, req.device_id, req.n_dev1, n_svr1, now
        )

    def handle_sync_ack(self, ack: wire.SyncAck, now: int) -> wire.SyncOutcome:
        """Commit the synced timestamp iff the ack closes a pending session:
        ``sync_commit``, else ``sync_ack_reject``."""
        self._expire_sessions(now)
        session = self._sessions.get(ack.n_svr1)
        if session is not None and self._expired(session, now):
            del self._sessions[ack.n_svr1]
            session = None
        record = self.records.get(ack.device_id)
        if session is None:
            reason = "unknown_session"
        elif ack.device_id != session.device_id:
            reason = "device_mismatch"
        elif ack.ts_prev != session.ts_cur:
            reason = "timestamp_mismatch"
        elif not wire.verifies(ack, record.device_public_key):
            reason = "bad_signature"
        else:
            # Commit: the session is one-shot.
            del self._sessions[ack.n_svr1]
            record.latest_ts = max(record.latest_ts, ack.ts_prev)
            self._append({"device_id": record.device_id.hex(), "latest_ts": record.latest_ts})
            return wire.SyncOutcome("sync_commit", latest_ts=record.latest_ts)
        latest_ts = None if record is None else record.latest_ts
        return wire.SyncOutcome("sync_ack_reject", reason, latest_ts=latest_ts)

    def handle_datagram(self, data: bytes, now: int) -> wire.SyncOutcome:
        """Decode one sync datagram, answer it, and encode the reply: a
        ``sync_resp`` carries the SyncResp, every other event no reply."""
        try:
            msg = wire.decode_sync_message(data)
        except wire.SyncParseError as exc:
            return wire.SyncOutcome("server_discard", str(exc))
        if isinstance(msg, wire.SyncAck):
            return self.handle_sync_ack(msg, now)
        if not isinstance(msg, wire.SyncReq):
            return wire.SyncOutcome("server_discard", "unexpected_message")
        resp = self.handle_sync_req(msg, now)
        if isinstance(resp, wire.SyncOutcome):
            return resp
        latest_ts = self.records[msg.device_id].latest_ts
        return wire.SyncOutcome("sync_resp", reply=wire.encode_sync_message(resp), latest_ts=latest_ts)

    # -- persistence --------------------------------------------------------

    def _append(self, entry: dict) -> None:
        """Append one journal line for a change already made in memory, or
        compact."""
        if self.store_path is None:
            return
        if self._snapshot_path != self.store_path or self._journal_lines >= len(self.records):
            self._persist()
            return
        line = json.dumps(entry, separators=(",", ":"))
        with open(self.store_path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        self._journal_lines += 1

    def _persist(self) -> None:
        """Write the snapshot, which empties the journal."""
        doc = {
            "keys": crypto.record_to_json(self.keys),
            "records": [crypto.record_to_json(r) for r in self.records.values()],
            "manifests": {p: data.decode("utf-8") for p, data in self.manifests.items()},
            "registry": self.registry.to_dict(),
        }
        crypto.write_owner_only(self.store_path, json.dumps(doc, separators=(",", ":")) + "\n")
        self._snapshot_path = self.store_path
        self._journal_lines = 0

    def _replay(self, entry: dict) -> None:
        """Apply one journal line; ``ValueError`` or ``TypeError`` if it is
        malformed or does not fit the state before it."""
        if not isinstance(entry, dict):
            raise TypeError("a journal line must be a JSON object")
        if "record" not in entry:
            record = self.records.get(bytes.fromhex(entry["device_id"]))
            if record is None:
                raise ValueError("it commits for an unknown device")
            latest_ts = entry["latest_ts"]
            if type(latest_ts) is not int:
                raise TypeError("it has no integer latest_ts")
            record.latest_ts = max(record.latest_ts, latest_ts)
            return
        record = crypto.record_from_json(DeviceRecord, entry["record"], "record")
        document = entry["manifest"]
        if type(document) is not str:
            raise TypeError("its manifest is not a string")
        if record.device_id in self.records:
            raise ValueError(f"it registers known device {record.device_id.hex()}")
        if record.manifest_path in self.manifests:
            raise ValueError(f"it registers used manifest path {record.manifest_path}")
        self.registry.add(entry["short_url"], entry["full_url"])
        self.records[record.device_id] = record
        self.manifests[record.manifest_path] = document.encode("utf-8")

    @classmethod
    def load(cls, store_path: str, nonce_source=None) -> "ManufacturerServer":
        """Read a store file; an unreadable or malformed one raises ``ServerError``."""
        try:
            with open(store_path, "r", encoding="utf-8") as f:
                text = f.read()
            # The snapshot is the first JSON document; a store written as one
            # indented document (an older format) is a snapshot with no journal.
            doc, end = json.JSONDecoder().raw_decode(text)
            keys = crypto.matched_keypair(crypto.record_from_json(crypto.KeyPair, doc["keys"], "keys"))
            srv = cls(keys, store_path=store_path, nonce_source=nonce_source)
            for i, rec in enumerate(doc["records"]):
                record = crypto.record_from_json(DeviceRecord, rec, f"records[{i}]")
                srv.records[record.device_id] = record
            srv.manifests = {p: data.encode("utf-8") for p, data in doc["manifests"].items()}
            srv.registry = ShortUrlRegistry.from_dict(doc["registry"])
        except (OSError, KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
            raise ServerError(f"{store_path}: unreadable or malformed snapshot: {exc!r}") from exc

        lines = text[end:].lstrip().split("\n")
        lines.pop()  # "" unless the last write was cut short (a torn line)
        for n, line in enumerate(lines, start=2):
            try:
                srv._replay(json.loads(line))
            except (ValueError, TypeError, KeyError, RecursionError) as exc:
                raise ServerError(f"{store_path}: journal line {n} is corrupt: {exc}") from exc
        # Append only after a complete last line. A torn one, or an older
        # store with no final newline, is rewritten by the next write.
        if text.endswith("\n"):
            srv._snapshot_path = store_path
            srv._journal_lines = len(lines)
        return srv
