"""Bit-exact codecs for the announcement payload, the 802.11 beacon frame that
carries it, and the three time-sync datagrams, with the ``SyncOutcome`` that
both ends return for each sync datagram they handle.

Each signed record is declared once, as the ``struct`` format of its signed
fields built from the width table: the message layout is those fields plus the
signature, and the signature preimage is the same fields with the device
identifier in front where the message does not carry it. Every pack rejects a
field that does not fit its width with ``ValueError``, so each preimage is
injective and no message encodes to the wrong length; an announcement's
``validate`` holds the two rules the layout does not fix.

Signatures are made and checked only here: ``signed`` builds a signed
message from its fields and ``verifies`` checks one, so what each signature
covers is decided in one place.

An announcement and a beacon decode are immutable tuples (``NamedTuple``),
as receivers share decodes through their memo. The sync messages stay frozen
dataclasses, so messages of two types never compare equal.

All multi-byte integers inside signed payloads are big-endian (network order).
802.11 header fields follow the standard's little-endian layout but sit outside
every signed region, so their values are protocol-neutral constants.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

from . import crypto

# Field widths (bytes) for every fixed-width value on the wire. These tables
# are the single source of truth for the signed layouts below.
DEVICE_ID_LEN = 16
NONCE_LEN = 32
TS_LEN = 4
SHORT_URL_LEN = 11
ATT_RESULT_LEN = 1
ATT_TS_LEN = 4
SIG_LEN = crypto.SIGNATURE_LEN
MAC_LEN = 6

ANNOUNCEMENT_LEN = NONCE_LEN + TS_LEN + SHORT_URL_LEN + ATT_RESULT_LEN + ATT_TS_LEN + SIG_LEN
assert ANNOUNCEMENT_LEN == 116

# Big-endian struct codes for the integer widths: layouts come from the widths.
_UINT = {1: "B", 4: "I"}
_ID, _NONCE, _TS, _SIG = f"{DEVICE_ID_LEN}s", f"{NONCE_LEN}s", _UINT[TS_LEN], f"{SIG_LEN}s"

# The signed fields of each record, in wire order.
_ANNOUNCEMENT_SIGNED = (
    f"{_NONCE}{_TS}{SHORT_URL_LEN}s{_UINT[ATT_RESULT_LEN]}{_UINT[ATT_TS_LEN]}"
)
_SYNC_REQ_SIGNED = f"{_ID}{_NONCE}{_TS}"
# SyncResp and SyncAck share one layout: id, two nonces, timestamp.
_SYNC_REPLY_SIGNED = f"{_ID}{_NONCE}{_NONCE}{_TS}"

_ANNOUNCEMENT = struct.Struct(f">{_ANNOUNCEMENT_SIGNED}{_SIG}")
_SYNC_REQ = struct.Struct(f">{_SYNC_REQ_SIGNED}{_SIG}")
_SYNC_REPLY = struct.Struct(f">{_SYNC_REPLY_SIGNED}{_SIG}")
assert _ANNOUNCEMENT.size == ANNOUNCEMENT_LEN


def _pack(layout: struct.Struct, *fields) -> bytes:
    """Pack ``fields``; ``ValueError`` for one that does not fit its width."""
    try:
        out = layout.pack(*fields)
    except struct.error as exc:
        raise ValueError(f"a field does not fit {layout.format!r}: {exc}") from None
    if layout.unpack(out) != fields:
        raise ValueError(f"a field does not match its declared width in {layout.format!r}")
    return out


BEACON_FRAME_LEN = 240

TS_MAX = 2**32 - 1

VENDOR_OUI = bytes((0x00, 0x14, 0x6C))
PAISA_SSID = b"PAISA"

_ELEM_SSID = 0x00
_ELEM_RATES = 0x01
_ELEM_VENDOR = 0xDD

# Fixed beacon parameters, mimicking a typical b/g/n access point. None of
# these bytes are signed, so the constants only affect frame size.
_BEACON_INTERVAL_TU = 100
_CAPABILITY = 0x0431
_RATES = bytes((0x82, 0x84, 0x8B, 0x96, 0x0C, 0x12, 0x18, 0x24))
_DS_PARAM = bytes((0x03, 0x01, 0x06))
_TIM = bytes((0x05, 0x04, 0x00, 0x01, 0x00, 0x00))
_HT_CAPABILITIES = bytes((0x2D, 0x1A, 0x2C, 0x01, 0x1B)) + bytes(23)
_EXT_RATES = bytes((0x32, 0x03, 0x30, 0x48, 0x60))
_HT_INFORMATION = bytes((0x3D, 0x16, 0x06, 0x07)) + bytes(20)

BROADCAST_MAC = b"\xff" * 6


class AnnouncementParseError(ValueError):
    """Announcement payload rejected; ``reason`` names the failing rule."""

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        super().__init__(f"{reason}: {detail}")


class AnnouncementMsg(NamedTuple):
    """The 116-byte announcement payload broadcast by a device."""

    nonce: bytes
    timestamp: int
    short_url: str
    att_result: int
    att_timestamp: int
    signature: bytes

    def validate(self) -> None:
        """The two rules the layout does not fix; ``_pack`` enforces every width."""
        if self.att_result not in (0, 1):
            raise AnnouncementParseError("att_result", "attestation result must be 0 or 1")
        if self.att_timestamp > self.timestamp:
            raise AnnouncementParseError(
                "att_timestamp", "attestation timestamp after announcement timestamp"
            )


def encode_announcement(msg: AnnouncementMsg) -> bytes:
    """Serialize to exactly 116 bytes in declared field order."""
    msg.validate()
    return _pack(
        _ANNOUNCEMENT, msg.nonce, msg.timestamp, msg.short_url.encode("ascii"),
        msg.att_result, msg.att_timestamp, msg.signature,
    )


def decode_announcement(data: bytes) -> AnnouncementMsg:
    """Parse 116 bytes of adversarial input; the layout fixes every rule but ``validate``'s."""
    if len(data) != ANNOUNCEMENT_LEN:
        raise AnnouncementParseError(
            "length", f"expected {ANNOUNCEMENT_LEN} bytes, got {len(data)}"
        )
    nonce, timestamp, url_bytes, att_result, att_timestamp, signature = (
        _ANNOUNCEMENT.unpack(data)
    )
    try:
        short_url = url_bytes.decode("ascii")
    except UnicodeDecodeError:
        raise AnnouncementParseError("short_url", "short URL is not ASCII") from None
    msg = AnnouncementMsg(nonce, timestamp, short_url, att_result, att_timestamp, signature)
    msg.validate()
    return msg


# ---------------------------------------------------------------------------
# Time-sync datagrams
# ---------------------------------------------------------------------------

SYNC_REQ_TAG = 0x01
SYNC_RESP_TAG = 0x02
SYNC_ACK_TAG = 0x03


@dataclass(frozen=True)
class SyncReq:
    device_id: bytes
    n_dev1: bytes
    ts_prev: int
    signature: bytes


@dataclass(frozen=True)
class SyncResp:
    device_id: bytes
    n_dev1: bytes
    n_svr1: bytes
    ts_cur: int
    signature: bytes


@dataclass(frozen=True)
class SyncAck:
    device_id: bytes
    n_dev2: bytes
    n_svr1: bytes
    ts_prev: int
    signature: bytes


SyncMessage = Union[SyncReq, SyncResp, SyncAck]


class SyncParseError(ValueError):
    pass


@dataclass(frozen=True)
class SyncOutcome:
    """What one sync message did at either end, as its simulator log event;
    ``reply`` is the datagram to send back, ``latest_ts`` the server record of
    the device the message names, after handling."""

    event: str
    reason: Optional[str] = None
    reply: Optional[bytes] = None
    latest_ts: Optional[int] = None

    @property
    def committed(self) -> bool:
        return self.event == "sync_commit"

    def fields(self) -> dict:
        """The log fields: a success has no reason, and only ``sync_*`` names a record."""
        out = {} if self.reason is None else {"reason": self.reason}
        if self.event.startswith("sync_"):
            out["latest_ts"] = self.latest_ts
        return out


# Each message's fields, in declaration order, are its layout's fields.
_SYNC_LAYOUTS = {
    SyncReq: (SYNC_REQ_TAG, _SYNC_REQ),
    SyncResp: (SYNC_RESP_TAG, _SYNC_REPLY),
    SyncAck: (SYNC_ACK_TAG, _SYNC_REPLY),
}
_SYNC_BY_TAG = {tag: (cls, layout) for cls, (tag, layout) in _SYNC_LAYOUTS.items()}


def encode_sync_message(msg: SyncMessage) -> bytes:
    """Frame a sync message as a 1-byte type tag plus fixed-width body."""
    try:
        tag, layout = _SYNC_LAYOUTS[type(msg)]
    except KeyError:
        raise TypeError(f"not a sync message: {type(msg)!r}") from None
    return bytes((tag,)) + _pack(layout, *vars(msg).values())


def decode_sync_message(data: bytes) -> SyncMessage:
    if not data:
        raise SyncParseError("empty datagram")
    try:
        cls, layout = _SYNC_BY_TAG[data[0]]
    except KeyError:
        raise SyncParseError(f"unknown sync message tag 0x{data[0]:02x}") from None
    if len(data) - 1 != layout.size:
        body = "sync request body" if cls is SyncReq else "sync body"
        raise SyncParseError(f"{body} must be {layout.size} bytes")
    return cls(*layout.unpack_from(data, 1))


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

# The preimage layout of each signed message: its signed fields, with the
# device identifier in front of the announcement's.
_PREIMAGES = {
    AnnouncementMsg: struct.Struct(f">{_ID}{_ANNOUNCEMENT_SIGNED}"),
    SyncReq: struct.Struct(f">{_SYNC_REQ_SIGNED}"),
}
_PREIMAGES[SyncResp] = _PREIMAGES[SyncAck] = struct.Struct(f">{_SYNC_REPLY_SIGNED}")


def _digest(cls, fields: tuple, device_id: Optional[bytes]) -> bytes:
    """SHA-256 of the bytes a ``cls`` signature covers, given every field but
    the signature.

    The announcement signs the device identifier it never transmits (receivers
    recover it from the manifest) in front of its fields. The SyncReq signs
    ``ts_prev + 1`` while it transmits ``ts_prev``, so a replayed request never
    matches a later epoch.
    """
    if cls is AnnouncementMsg:
        nonce, timestamp, short_url, att_result, att_timestamp = fields
        fields = (device_id, nonce, timestamp, short_url.encode("ascii"), att_result, att_timestamp)
    elif cls is SyncReq:  # device_id, n_dev1, ts_prev
        fields = (fields[0], fields[1], (fields[2] + 1) & TS_MAX)
    return hashlib.sha256(_pack(_PREIMAGES[cls], *fields)).digest()


def signed(cls, private_key: bytes, *fields, device_id: Optional[bytes] = None):
    """A ``cls`` message of ``fields`` (every field but the signature, in
    declaration order) signed with ``private_key``; an announcement also signs
    ``device_id``. A field of the wrong width raises ``ValueError``."""
    return cls(*fields, crypto.sign(private_key, _digest(cls, fields, device_id)))


def verifies(msg, public_key: bytes, device_id: Optional[bytes] = None) -> bool:
    """Whether ``msg``'s signature is valid under ``public_key``; an
    announcement is checked against the ``device_id`` it claims to come from."""
    *fields, signature = msg if type(msg) is AnnouncementMsg else vars(msg).values()
    return crypto.verify(public_key, _digest(type(msg), tuple(fields), device_id), signature)


# ---------------------------------------------------------------------------
# 802.11 beacon frame
# ---------------------------------------------------------------------------

class BeaconVerdict(str, Enum):
    OK = "ok"
    NON_BEACON = "non_beacon"
    WRONG_SSID = "wrong_ssid"
    NO_VENDOR_ELEMENT = "no_vendor_element"
    MALFORMED_PAYLOAD = "malformed_payload"


class BeaconDecode(NamedTuple):
    """Outcome of decoding a candidate frame; ``msg`` is set only on OK."""

    verdict: BeaconVerdict
    msg: Optional[AnnouncementMsg] = None


# One decode per reject verdict, shared by every frame that gets it.
_NON_BEACON = BeaconDecode(BeaconVerdict.NON_BEACON)
_WRONG_SSID = BeaconDecode(BeaconVerdict.WRONG_SSID)
_NO_VENDOR_ELEMENT = BeaconDecode(BeaconVerdict.NO_VENDOR_ELEMENT)
_MALFORMED_PAYLOAD = BeaconDecode(BeaconVerdict.MALFORMED_PAYLOAD)


# Every element of a beacon, up to the announcement that ends the vendor
# element: the same bytes in every frame.
_ELEMENTS = (
    bytes((_ELEM_SSID, len(PAISA_SSID))) + PAISA_SSID
    + bytes((_ELEM_RATES, len(_RATES))) + _RATES
    + _DS_PARAM
    + _TIM
    + _HT_CAPABILITIES
    + _EXT_RATES
    + _HT_INFORMATION
    + bytes((_ELEM_VENDOR, len(VENDOR_OUI) + ANNOUNCEMENT_LEN)) + VENDOR_OUI
)
assert 36 + len(_ELEMENTS) + ANNOUNCEMENT_LEN == BEACON_FRAME_LEN


def encode_beacon(msg: AnnouncementMsg, device_mac: bytes) -> bytes:
    """Wrap an announcement in a 240-byte 802.11 beacon frame.

    The vendor-specific element (tag 0xdd, OUI 00:14:6C) carries the 116-byte
    payload; the SSID element is the literal "PAISA". The remaining elements
    are the fixed b/g/n set that pads the frame to its measured size.
    """
    if len(device_mac) != MAC_LEN:
        raise ValueError("device MAC must be 6 bytes")
    payload = encode_announcement(msg)

    header = (
        b"\x80\x00"                        # frame control: management / beacon
        + b"\x00\x00"                      # duration
        + BROADCAST_MAC                    # destination
        + device_mac                       # source
        + device_mac                       # BSSID
        + b"\x00\x00"                      # sequence control
    )
    fixed = struct.pack(
        "<QHH", msg.timestamp * 1_000_000, _BEACON_INTERVAL_TU, _CAPABILITY
    )
    return header + fixed + _ELEMENTS + payload


def decode_beacon(frame: bytes) -> BeaconDecode:
    """Total decoder: any byte sequence yields a verdict, never an exception.
    Walks the elements by offset, up to a truncated one, and copies out only the
    first SSID and the first vendor element whose own value starts with the OUI."""
    end = len(frame)
    if end < 36 or frame[0] != 0x80 or frame[1] != 0x00:
        return _NON_BEACON
    ssid: Optional[bytes] = None
    vendor_payload: Optional[bytes] = None
    off = 36
    while off + 2 <= end:
        value_end = off + 2 + frame[off + 1]
        if value_end > end:
            break
        if frame[off] == _ELEM_SSID and ssid is None:
            ssid = frame[off + 2 : value_end]
        elif frame[off] == _ELEM_VENDOR and vendor_payload is None:
            if frame.startswith(VENDOR_OUI, off + 2, value_end):
                vendor_payload = frame[off + 5 : value_end]
        off = value_end

    if ssid != PAISA_SSID:
        return _WRONG_SSID
    if vendor_payload is None:
        # Bytes left over: an element was cut short, or one byte trails.
        if off != end:
            return _MALFORMED_PAYLOAD
        return _NO_VENDOR_ELEMENT
    try:
        msg = decode_announcement(vendor_payload)
    except AnnouncementParseError:
        return _MALFORMED_PAYLOAD
    return BeaconDecode(BeaconVerdict.OK, msg)
