"""Bit-exact codecs for the announcement payload, the 802.11 beacon frame that
carries it, and the three time-sync datagrams.

All multi-byte integers inside signed payloads are big-endian (network order).
802.11 header fields follow the standard's little-endian layout but sit outside
every signed region, so their values are protocol-neutral constants.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from . import crypto

# Field widths (bytes) for every fixed-width value on the wire. These tables
# are the single source of truth for signed-preimage layouts.
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


@dataclass(frozen=True)
class AnnouncementMsg:
    """The 116-byte announcement payload broadcast by a device."""

    nonce: bytes
    timestamp: int
    short_url: str
    att_result: int
    att_timestamp: int
    signature: bytes

    def validate(self) -> None:
        if len(self.nonce) != NONCE_LEN:
            raise AnnouncementParseError("nonce", "nonce must be 32 bytes")
        if not 0 <= self.timestamp <= TS_MAX:
            raise AnnouncementParseError("timestamp", "timestamp out of range")
        try:
            url = self.short_url.encode("ascii")
        except UnicodeEncodeError:
            raise AnnouncementParseError("short_url", "short URL must be ASCII") from None
        if len(url) != SHORT_URL_LEN:
            raise AnnouncementParseError("short_url", "short URL must be 11 ASCII bytes")
        if self.att_result not in (0, 1):
            raise AnnouncementParseError("att_result", "attestation result must be 0 or 1")
        if not 0 <= self.att_timestamp <= TS_MAX:
            raise AnnouncementParseError("att_timestamp", "attestation timestamp out of range")
        if self.att_timestamp > self.timestamp:
            raise AnnouncementParseError(
                "att_timestamp", "attestation timestamp after announcement timestamp"
            )
        if len(self.signature) != SIG_LEN:
            raise AnnouncementParseError("signature", "signature must be 64 bytes")


def encode_announcement(msg: AnnouncementMsg) -> bytes:
    """Serialize to exactly 116 bytes in declared field order."""
    msg.validate()
    out = (
        msg.nonce
        + struct.pack(">I", msg.timestamp)
        + msg.short_url.encode("ascii")
        + struct.pack(">BI", msg.att_result, msg.att_timestamp)
        + msg.signature
    )
    assert len(out) == ANNOUNCEMENT_LEN
    return out


def decode_announcement(data: bytes) -> AnnouncementMsg:
    """Parse 116 bytes back into an announcement; adversarial input allowed."""
    if len(data) != ANNOUNCEMENT_LEN:
        raise AnnouncementParseError(
            "length", f"expected {ANNOUNCEMENT_LEN} bytes, got {len(data)}"
        )
    nonce = data[:32]
    (timestamp,) = struct.unpack(">I", data[32:36])
    url_bytes = data[36:47]
    att_result, att_timestamp = struct.unpack(">BI", data[47:52])
    signature = data[52:116]
    try:
        short_url = url_bytes.decode("ascii")
    except UnicodeDecodeError:
        raise AnnouncementParseError("short_url", "short URL is not ASCII") from None
    msg = AnnouncementMsg(
        nonce=nonce,
        timestamp=timestamp,
        short_url=short_url,
        att_result=att_result,
        att_timestamp=att_timestamp,
        signature=signature,
    )
    msg.validate()
    return msg


# ---------------------------------------------------------------------------
# Signed preimages
# ---------------------------------------------------------------------------

def announcement_preimage(
    device_id: bytes,
    nonce: bytes,
    timestamp: int,
    short_url: str,
    att_result: int,
    att_timestamp: int,
) -> bytes:
    """68-byte preimage for the announcement signature.

    The device identifier is signed but never transmitted in the announcement;
    receivers recover it from the manifest.
    """
    return crypto.canonical_concat(
        [
            (device_id, DEVICE_ID_LEN),
            (nonce, NONCE_LEN),
            (struct.pack(">I", timestamp), TS_LEN),
            (short_url.encode("ascii"), SHORT_URL_LEN),
            (struct.pack(">B", att_result), ATT_RESULT_LEN),
            (struct.pack(">I", att_timestamp), ATT_TS_LEN),
        ]
    )


def sync_req_preimage(device_id: bytes, n_dev1: bytes, ts_prev: int) -> bytes:
    """52-byte preimage of the sync request signature.

    Signs ``ts_prev + 1`` while the request transmits ``ts_prev``; the shift
    keeps a replayed request from ever matching a later epoch.
    """
    bumped = (ts_prev + 1) & TS_MAX
    return crypto.canonical_concat(
        [
            (device_id, DEVICE_ID_LEN),
            (n_dev1, NONCE_LEN),
            (struct.pack(">I", bumped), TS_LEN),
        ]
    )


def sync_resp_preimage(device_id: bytes, n_dev1: bytes, n_svr1: bytes, ts_cur: int) -> bytes:
    return crypto.canonical_concat(
        [
            (device_id, DEVICE_ID_LEN),
            (n_dev1, NONCE_LEN),
            (n_svr1, NONCE_LEN),
            (struct.pack(">I", ts_cur), TS_LEN),
        ]
    )


def sync_ack_preimage(device_id: bytes, n_dev2: bytes, n_svr1: bytes, ts_prev: int) -> bytes:
    return crypto.canonical_concat(
        [
            (device_id, DEVICE_ID_LEN),
            (n_dev2, NONCE_LEN),
            (n_svr1, NONCE_LEN),
            (struct.pack(">I", ts_prev), TS_LEN),
        ]
    )


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


def encode_sync_message(msg: SyncMessage) -> bytes:
    """Frame a sync message as a 1-byte type tag plus fixed-width body."""
    if isinstance(msg, SyncReq):
        return (
            bytes((SYNC_REQ_TAG,))
            + msg.device_id
            + msg.n_dev1
            + struct.pack(">I", msg.ts_prev)
            + msg.signature
        )
    if isinstance(msg, SyncResp):
        return (
            bytes((SYNC_RESP_TAG,))
            + msg.device_id
            + msg.n_dev1
            + msg.n_svr1
            + struct.pack(">I", msg.ts_cur)
            + msg.signature
        )
    if isinstance(msg, SyncAck):
        return (
            bytes((SYNC_ACK_TAG,))
            + msg.device_id
            + msg.n_dev2
            + msg.n_svr1
            + struct.pack(">I", msg.ts_prev)
            + msg.signature
        )
    raise TypeError(f"not a sync message: {type(msg)!r}")


_SYNC_REQ_BODY = DEVICE_ID_LEN + NONCE_LEN + TS_LEN + SIG_LEN
_SYNC_RESP_BODY = DEVICE_ID_LEN + 2 * NONCE_LEN + TS_LEN + SIG_LEN


def decode_sync_message(data: bytes) -> SyncMessage:
    if not data:
        raise SyncParseError("empty datagram")
    tag, body = data[0], data[1:]
    if tag == SYNC_REQ_TAG:
        if len(body) != _SYNC_REQ_BODY:
            raise SyncParseError(f"sync request body must be {_SYNC_REQ_BODY} bytes")
        return SyncReq(
            device_id=body[:16],
            n_dev1=body[16:48],
            ts_prev=struct.unpack(">I", body[48:52])[0],
            signature=body[52:],
        )
    if tag in (SYNC_RESP_TAG, SYNC_ACK_TAG):
        if len(body) != _SYNC_RESP_BODY:
            raise SyncParseError(f"sync body must be {_SYNC_RESP_BODY} bytes")
        device_id = body[:16]
        nonce_a = body[16:48]
        nonce_b = body[48:80]
        ts = struct.unpack(">I", body[80:84])[0]
        sig = body[84:]
        if tag == SYNC_RESP_TAG:
            return SyncResp(device_id, nonce_a, nonce_b, ts, sig)
        return SyncAck(device_id, nonce_a, nonce_b, ts, sig)
    raise SyncParseError(f"unknown sync message tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# 802.11 beacon frame
# ---------------------------------------------------------------------------

class BeaconVerdict(str, Enum):
    OK = "ok"
    NON_BEACON = "non_beacon"
    WRONG_SSID = "wrong_ssid"
    NO_VENDOR_ELEMENT = "no_vendor_element"
    MALFORMED_PAYLOAD = "malformed_payload"


@dataclass(frozen=True)
class BeaconDecode:
    """Outcome of decoding a candidate frame; ``msg`` is set only on OK."""

    verdict: BeaconVerdict
    msg: Optional[AnnouncementMsg] = None
    source_mac: Optional[bytes] = None


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
    vendor_body = VENDOR_OUI + payload
    elements = (
        bytes((_ELEM_SSID, len(PAISA_SSID))) + PAISA_SSID
        + bytes((_ELEM_RATES, len(_RATES))) + _RATES
        + _DS_PARAM
        + _TIM
        + _HT_CAPABILITIES
        + _EXT_RATES
        + _HT_INFORMATION
        + bytes((_ELEM_VENDOR, len(vendor_body))) + vendor_body
    )
    frame = header + fixed + elements
    assert len(frame) == BEACON_FRAME_LEN
    return frame


def decode_beacon(frame: bytes) -> BeaconDecode:
    """Total decoder: any byte sequence yields a verdict, never an exception."""
    if len(frame) < 36 or frame[0] != 0x80 or frame[1] != 0x00:
        return BeaconDecode(BeaconVerdict.NON_BEACON)
    source_mac = frame[10:16]

    ssid: Optional[bytes] = None
    vendor_payload: Optional[bytes] = None
    truncated = False
    off = 36
    while off + 2 <= len(frame):
        tag, length = frame[off], frame[off + 1]
        value = frame[off + 2 : off + 2 + length]
        if len(value) != length:
            truncated = True
            break
        if tag == _ELEM_SSID and ssid is None:
            ssid = value
        elif tag == _ELEM_VENDOR and value[:3] == VENDOR_OUI and vendor_payload is None:
            vendor_payload = value[3:]
        off += 2 + length
    if off != len(frame) and not truncated:
        truncated = True

    if ssid != PAISA_SSID:
        return BeaconDecode(BeaconVerdict.WRONG_SSID)
    if vendor_payload is None:
        if truncated:
            return BeaconDecode(BeaconVerdict.MALFORMED_PAYLOAD)
        return BeaconDecode(BeaconVerdict.NO_VENDOR_ELEMENT)
    try:
        msg = decode_announcement(vendor_payload)
    except AnnouncementParseError:
        return BeaconDecode(BeaconVerdict.MALFORMED_PAYLOAD)
    return BeaconDecode(BeaconVerdict.OK, msg=msg, source_mac=source_mac)


def hexdump(data: bytes, width: int = 16) -> str:
    """Render bytes as an offset/hex/ASCII dump for CLI debugging."""
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off : off + width]
        hexpart = " ".join(f"{b:02x}" for b in chunk)
        asciipart = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
        lines.append(f"{off:04x}  {hexpart:<{width * 3}} {asciipart}")
    return "\n".join(lines)
