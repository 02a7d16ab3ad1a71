"""The reception pipeline: frame filtering, freshness check, manifest
retrieval, signature verification, and structured presence reports.

Stages run in a fixed order and the first failure decides the verdict; later
stages are skipped, so e.g. a stale frame never triggers a manifest fetch.

Each distinct manifest is parsed, its manufacturer signature verified and its
report summary and that summary's JSON built once per receiver; a change of
the manifest bytes (a re-sign or a revocation) is seen within one fetch TTL.
Pinning, the URL binding, the revocation status and the announcement
signature are still checked on every frame.

Each distinct frame is decoded, and its announcement signature verified under
a given device key, once per memo: a bounded ``OrderedDict`` that a receiver
owns, or that a simulation shares among its receivers. Both are pure
functions keyed by their full input, so a forged or tampered frame is a
different key.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from . import wire
from .manifest import (
    Manifest,
    ManifestError,
    STATUS_REVOKED,
    ShortUrlRegistry,
    hosted_path,
    manifest_from_json,
    verify_manifest,
)


class Freshness(Enum):
    FRESH = "fresh"
    STALE = "stale"
    FUTURE = "future"


class Verdict(str, Enum):
    VERIFIED = "verified"
    STALE = "stale"
    FUTURE = "future"
    FETCH_ERROR = "fetch_error"
    BAD_MANIFEST_SIGNATURE = "bad_manifest_signature"
    REDIRECT_MISMATCH = "redirect_mismatch"
    REVOKED = "revoked"
    BAD_ANNOUNCEMENT_SIGNATURE = "bad_announcement_signature"
    COMPROMISED = "compromised"


class FetchError(Exception):
    """Manifest retrieval failed; the caller may retry on the next sighting."""


class FetchResult(NamedTuple):
    resolved_url: str
    manifest_bytes: bytes


class RegistryFetcher:
    """Fetcher over an in-process registry plus manifest host; counts calls."""

    def __init__(self, registry: ShortUrlRegistry, serve: Callable[[str], Optional[bytes]]):
        self.registry = registry
        self.serve = serve
        self.call_count = 0

    def fetch(self, short_url: str) -> FetchResult:
        self.call_count += 1
        try:
            full_url = self.registry.resolve(short_url)
        except ValueError as exc:
            raise FetchError(str(exc)) from exc
        if full_url is None:
            raise FetchError(f"short URL {short_url!r} is not registered")
        doc = self.serve(hosted_path(full_url))
        if doc is None:
            raise FetchError(f"no manifest hosted at {full_url!r}")
        return FetchResult(resolved_url=full_url, manifest_bytes=doc)


@dataclass
class ReceiverConfig:
    epsilon: int = 10
    future_skew: int = 2
    manifest_fetcher: Optional[object] = None
    pinned_mfr_keys: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.epsilon < 0 or self.future_skew < 0:
            raise ValueError("tolerance windows must be non-negative")


def check_freshness(ts_dev: int, ts_udev: int, cfg: ReceiverConfig) -> Freshness:
    """Accept ts_dev iff it lies strictly inside the tolerance window.

    Stale when ``(ts_udev - epsilon) < ts_dev`` fails (strict inequality, so a
    frame exactly epsilon old is already stale). Future-dated frames beyond a
    small skew are rejected symmetrically so pre-dated replays cannot hide.
    """
    if ts_dev > ts_udev + cfg.future_skew:
        return Freshness.FUTURE
    if not (ts_udev - cfg.epsilon < ts_dev):
        return Freshness.STALE
    return Freshness.FRESH


@dataclass(frozen=True)
class ManifestSummary:
    device_type_model: str
    manufacturer: str
    sensors: Tuple[str, ...]
    actuators: Tuple[str, ...]
    deployment_purpose: str
    deployment_location: str
    status: str
    # The summary as the JSON object a report embeds, made once per summary.
    json_text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # vars() holds exactly the seven fields above until json_text is set.
        object.__setattr__(self, "json_text", json.dumps(vars(self), sort_keys=True))


class _CachedManifest(NamedTuple):
    """One fetch of a short URL plus, once per distinct bytes, the parse, the
    signature outcome and the report's hex device id and summary."""

    fetched_at: int
    fetched: FetchResult
    manifest: Optional[Manifest]
    signature_ok: bool = False
    device_id: Optional[str] = None
    summary: Optional[ManifestSummary] = None


def _parse_manifest(fetched_at: int, fetched: FetchResult) -> _CachedManifest:
    try:
        man = manifest_from_json(fetched.manifest_bytes)
    except ManifestError:
        return _CachedManifest(fetched_at, fetched, None)
    summary = ManifestSummary(*(getattr(man, f.name) for f in fields(ManifestSummary) if f.init))
    return _CachedManifest(
        fetched_at, fetched, man, verify_manifest(man), man.device_id.hex(), summary
    )


class PresenceReport(NamedTuple):
    verdict: Verdict
    received_at: int
    announcement_timestamp: int
    att_result: int
    att_timestamp: int
    device_id: Optional[str] = None  # hex; known only once the manifest is in hand
    manifest: Optional[ManifestSummary] = None
    duplicate: bool = False

    def to_json(self) -> str:
        """What ``json.dumps`` of the fields with sorted keys writes, from a template."""
        device_id = "null" if self.device_id is None else encode_basestring_ascii(self.device_id)
        manifest = "" if self.manifest is None else f', "manifest": {self.manifest.json_text}'
        return (
            f'{{"announcement_timestamp": {self.announcement_timestamp}, '
            f'"att_result": {self.att_result}, "att_timestamp": {self.att_timestamp}, '
            f'"device_id": {device_id}, "duplicate": {"true" if self.duplicate else "false"}'
            f'{manifest}, "received_at": {self.received_at}, "verdict": "{self.verdict.value}"}}'
        )


MEMO_SIZE = 4096  # entries; a frame takes one for its decode, one per verify
_MISS = object()


def _memoised(memo: OrderedDict, key, fn, *args):
    """``fn(*args)``, computed once per ``key`` while the key stays in ``memo``.

    The memo holds at most ``MEMO_SIZE`` entries and evicts the oldest first.
    ``key`` must determine ``fn(*args)``, and the value must be immutable.
    An ``OrderedDict`` drops its oldest key in O(1); a plain dict rescans the
    slots deleted before it, about ten times slower per evicting insert.
    """
    value = memo.get(key, _MISS)
    if value is _MISS:
        value = fn(*args)
        if len(memo) >= MEMO_SIZE:
            memo.popitem(last=False)
        memo[key] = value
    return value


class Receiver:
    """Verifies frames against manifests, one process_frame call at a time.

    ``memo`` caches frame decodes and announcement verifies; receivers may
    share one, but not across threads. Without one the receiver makes its own.
    """

    def __init__(self, cfg: ReceiverConfig, clock: Callable[[], int], memo: Optional[OrderedDict] = None):
        if cfg.manifest_fetcher is None:
            raise ValueError("receiver needs a manifest fetcher")
        self.cfg = cfg
        self.clock = clock
        self._memo = OrderedDict() if memo is None else memo
        self._manifest_cache: Dict[str, _CachedManifest] = {}
        self._recent_sigs: Dict[bytes, int] = {}

    # -- manifest retrieval with a short-lived cache ------------------------

    def _fetch_manifest(self, short_url: str, now: int) -> _CachedManifest:
        """The manifest for ``short_url``, refetched once ``epsilon`` old.

        A refetch that returns the same bytes keeps the earlier parse,
        signature outcome and summary; new bytes are parsed and verified again.
        """
        cached = self._manifest_cache.get(short_url)
        if cached is not None and now - cached.fetched_at <= self.cfg.epsilon:
            return cached
        fetched = self.cfg.manifest_fetcher.fetch(short_url)
        if cached is not None and cached.fetched.manifest_bytes == fetched.manifest_bytes:
            entry = cached._replace(fetched_at=now, fetched=fetched)
        else:
            entry = _parse_manifest(now, fetched)
        self._manifest_cache[short_url] = entry
        return entry

    def _is_duplicate(self, signature: bytes, now: int) -> bool:
        last = self._recent_sigs.get(signature)
        self._recent_sigs[signature] = now
        if len(self._recent_sigs) > 10000:
            cutoff = now - self.cfg.epsilon
            self._recent_sigs = {
                s: t for s, t in self._recent_sigs.items() if t >= cutoff
            }
        return last is not None and now - last <= self.cfg.epsilon

    # -- pipeline -----------------------------------------------------------

    def process_frame(self, frame: bytes) -> Union[PresenceReport, wire.BeaconDecode]:
        """Run the verification pipeline on one raw frame.

        Returns a PresenceReport for announcement-carrying frames, or the
        BeaconDecode verdict for everything else.
        """
        frame = bytes(frame)  # a memo key; the same object when already bytes
        # wire.decode_beacon is looked up per call, so a tracer that wraps it
        # still sees every miss; the same holds for wire.verifies below.
        decoded = _memoised(self._memo, frame, wire.decode_beacon, frame)
        if decoded.verdict is not wire.BeaconVerdict.OK:
            return decoded
        msg = decoded.msg
        now = self.clock()
        duplicate = self._is_duplicate(msg.signature, now)
        device_id = summary = None
        freshness = check_freshness(msg.timestamp, now, self.cfg)
        if freshness is not Freshness.FRESH:
            verdict = Verdict(freshness.value)
        else:
            try:
                cached = self._fetch_manifest(msg.short_url, now)
            except FetchError:
                verdict = Verdict.FETCH_ERROR
            else:
                verdict = self._verdict(cached, msg, frame)
                device_id, summary = cached.device_id, cached.summary
        return PresenceReport(
            verdict, now, msg.timestamp, msg.att_result, msg.att_timestamp,
            device_id, summary, duplicate,
        )

    def _verdict(self, cached: _CachedManifest, msg: wire.AnnouncementMsg, frame: bytes) -> Verdict:
        """The manifest stages, then the announcement signature under the device
        key the manifest vouches for; pinning per frame, as the pinned set may change."""
        man = cached.manifest
        pinned = self.cfg.pinned_mfr_keys
        if (
            man is None
            or not cached.signature_ok
            or (pinned is not None and man.manufacturer_public_key not in pinned)
        ):
            return Verdict.BAD_MANIFEST_SIGNATURE
        if cached.fetched.resolved_url != man.full_url:
            return Verdict.REDIRECT_MISMATCH
        if man.status == STATUS_REVOKED:
            return Verdict.REVOKED
        pk, device_id = man.device_public_key, man.device_id
        if not _memoised(self._memo, (frame, pk, device_id), wire.verifies, msg, pk, device_id):
            return Verdict.BAD_ANNOUNCEMENT_SIGNATURE
        if msg.att_result == 0:
            return Verdict.COMPROMISED
        return Verdict.VERIFIED


@dataclass
class DedupeEntry:
    device_id: Optional[str]
    verdict: Verdict
    first_seen: int
    last_seen: int
    count: int = 1


def dedupe(reports: Iterable[PresenceReport], window: int) -> List[DedupeEntry]:
    """Collapse repeated same-verdict reports per device inside a sliding window.

    Byte-identical duplicates (flagged upstream) are dropped outright. A
    verdict change for a device always surfaces as a new entry.
    """
    entries: List[DedupeEntry] = []
    current: Dict[Optional[str], DedupeEntry] = {}
    for rep in reports:
        if rep.duplicate:
            continue
        entry = current.get(rep.device_id)
        if (
            entry is not None
            and entry.verdict == rep.verdict
            and rep.received_at - entry.last_seen <= window
        ):
            entry.last_seen = rep.received_at
            entry.count += 1
            continue
        entry = DedupeEntry(
            device_id=rep.device_id,
            verdict=rep.verdict,
            first_seen=rep.received_at,
            last_seen=rep.received_at,
        )
        current[rep.device_id] = entry
        entries.append(entry)
    return entries
