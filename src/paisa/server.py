"""The manufacturer server: provisioning driver, time-sync responder with the
per-device timestamp map, and manifest hosting.

Each sync message ends in a ``wire.SyncOutcome`` (an answered SyncReq in its
``wire.SyncResp``). Rejections are state-free: a rejected request leaves every
device record, and the store file, byte-identical. Committed timestamps
persist on write so a restart never loses one.

The store file is a snapshot followed by a journal, each line one record
written and read by ``crypto.record_to_json`` and ``record_from_json``. Line
1 is a ``Snapshot``, the whole state as compact JSON; it is written to a
temporary file and renamed into place. After the snapshot, each write appends
one line, so it costs one small write instead of a rewrite of every record: a
``RegistrationLine`` adds a device record, its manifest document and its
short-URL registry entry, and a ``CommitLine`` records a committed SyncAck.

One compaction rule covers both: once the journal holds as many lines as there
are records, the next write rewrites the snapshot instead. A registration adds
a record with its line, so only a commit meets that rule, and the file stays
under the snapshot plus one line per record. A server appends only to a
store it wrote or loaded itself; its first write is a snapshot.

Only ``_apply`` changes the state, one line at a time, for registration,
commit and ``load`` alike. ``load`` reads the snapshot as one registration per
record, of the manifest at its ``manifest_path`` and the registry entry whose
full URL has that path, then replays the journal in order and drops an
unterminated last line (a torn write). A line with a ``record`` member is a
registration, any other a commit. It refuses a line that does not fit its
record, a registration of a device, manifest path, short URL or full URL in
use, a commit for an unknown device, a snapshot record with no manifest or
registry entry at its path, and a manifest or registry entry no record names.
It parses each loaded registration's manifest once and refuses one that names
another device id, device key or full URL than its record and registry entry,
or a record whose manifest path is not that full URL's.
``register_device`` builds its manifest from those values, so it parses none.
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
    manifest_from_json,
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
class Snapshot:
    keys: crypto.KeyPair
    records: Tuple[DeviceRecord, ...]
    manifests: Dict[str, str]
    registry: Dict[str, str]


@dataclass
class RegistrationLine:
    record: DeviceRecord
    manifest: str
    short_url: str
    full_url: str


def _named_by_its_manifest(line: RegistrationLine) -> RegistrationLine:
    """``line``, read from a store, if its manifest names its record's device and
    key and its registry entry's full URL, whose path is the record's manifest
    path; else ``ServerError``."""
    man = manifest_from_json(line.manifest.encode("utf-8"))
    record = line.record
    if (man.device_id, man.device_public_key, man.full_url, hosted_path(man.full_url)) != (
        record.device_id, record.device_public_key, line.full_url, record.manifest_path
    ):
        raise ServerError(f"the manifest at {record.manifest_path} names another device, key or URL")
    return line


@dataclass
class CommitLine:
    device_id: bytes
    latest_ts: int


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
        path = hosted_path(full_url)
        self._check_unused(device_id, path)
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
        record = DeviceRecord(
            device_id=device_id,
            device_public_key=device_pk,
            latest_ts=ts_cur,
            manifest_path=path,
        )
        line = RegistrationLine(record, manifest_to_json(man).decode("utf-8"), short_url, full_url)
        self._apply(line)
        self._append(line)
        return man, record

    def _check_unused(self, device_id: bytes, path: str) -> None:
        """Refuse a registration of a known device or of a manifest path in use."""
        if device_id in self.records:
            raise ServerError(f"duplicate device_id {device_id.hex()}")
        if path in self.manifests:
            raise ServerError(f"manifest path {path} is in use: it already holds a manifest")

    def _apply(self, line: Union[RegistrationLine, CommitLine]) -> None:
        """Apply one store line; one that does not fit the state raises and changes nothing."""
        if isinstance(line, RegistrationLine):
            self._check_unused(line.record.device_id, line.record.manifest_path)
            self.registry.add(line.short_url, line.full_url)
            self.records[line.record.device_id] = line.record
            self.manifests[line.record.manifest_path] = line.manifest.encode("utf-8")
            return
        record = self.records.get(line.device_id)
        if record is None:
            raise ServerError("it commits for an unknown device")
        record.latest_ts = max(record.latest_ts, line.latest_ts)

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
            line = CommitLine(record.device_id, max(record.latest_ts, ack.ts_prev))
            self._apply(line)
            self._append(line)
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

    def _append(self, line: Union[RegistrationLine, CommitLine]) -> None:
        """Append one journal line for a change already made in memory, or
        compact."""
        if self.store_path is None:
            return
        if self._snapshot_path != self.store_path or self._journal_lines >= len(self.records):
            self._persist()
            return
        with open(self.store_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(crypto.record_to_json(line), separators=(",", ":")) + "\n")
        self._journal_lines += 1

    def _persist(self) -> None:
        """Write the snapshot, which empties the journal."""
        manifests = {p: data.decode("utf-8") for p, data in self.manifests.items()}
        snapshot = Snapshot(self.keys, tuple(self.records.values()), manifests, self.registry.to_dict())
        text = json.dumps(crypto.record_to_json(snapshot), separators=(",", ":"))
        crypto.write_owner_only(self.store_path, text + "\n")
        self._snapshot_path = self.store_path
        self._journal_lines = 0

    @classmethod
    def load(cls, store_path: str, nonce_source=None) -> "ManufacturerServer":
        """Read a store file; an unreadable or malformed one raises ``ServerError``."""
        try:
            with open(store_path, "r", encoding="utf-8") as f:
                text = f.read()
            # The snapshot is the first JSON document; a store written as one
            # indented document (an older format) is a snapshot with no journal.
            doc, end = json.JSONDecoder().raw_decode(text)
            snapshot = crypto.record_from_json(Snapshot, doc, "snapshot")
            srv = cls(crypto.matched_keypair(snapshot.keys), store_path=store_path, nonce_source=nonce_source)
            entries = {hosted_path(url): (key, url) for key, url in snapshot.registry.items()}
            for record in snapshot.records:
                path = record.manifest_path
                if path not in snapshot.manifests or path not in entries:
                    raise ServerError(f"no manifest or registry entry at {path}")
                registration = RegistrationLine(record, snapshot.manifests[path], *entries[path])
                srv._apply(_named_by_its_manifest(registration))
            if srv.manifests.keys() != snapshot.manifests.keys() or srv.registry.to_dict() != snapshot.registry:
                raise ServerError("a manifest or registry entry that no record names")
        except (OSError, ValueError, RecursionError, ServerError) as exc:
            raise ServerError(f"{store_path}: unreadable or malformed snapshot: {exc!r}") from exc

        lines = text[end:].lstrip().split("\n")
        lines.pop()  # "" unless the last write was cut short (a torn line)
        for n, line in enumerate(lines, start=2):
            try:
                doc = json.loads(line)
                if isinstance(doc, dict) and "record" in doc:
                    registration = crypto.record_from_json(RegistrationLine, doc, "registration")
                    srv._apply(_named_by_its_manifest(registration))
                else:
                    srv._apply(crypto.record_from_json(CommitLine, doc, "commit"))
            except (ServerError, ValueError, RecursionError) as exc:
                raise ServerError(f"{store_path}: journal line {n} is corrupt: {exc}") from exc
        # Append only after a complete last line. A torn one, or an older
        # store with no final newline, is rewritten by the next write.
        if text.endswith("\n"):
            srv._snapshot_path = store_path
            srv._journal_lines = len(lines)
        return srv
