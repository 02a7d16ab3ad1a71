"""Minimal classic-pcap reader/writer for raw 802.11 frames (link-type 105)."""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D  # sub-second field in nanoseconds; seconds are the same
LINKTYPE_IEEE802_11 = 105

_GLOBAL_HDR = struct.Struct("<IHHiIII")
_RECORD_HDR = struct.Struct("<IIII")
_SWAPPED = (struct.Struct(">IHHiIII"), struct.Struct(">IIII"))
# The first four bytes read little-endian give the headers' byte order: a
# file written on a big-endian host shows its magic byte-swapped.
_HEADERS = {
    PCAP_MAGIC: (_GLOBAL_HDR, _RECORD_HDR),
    PCAP_MAGIC_NS: (_GLOBAL_HDR, _RECORD_HDR),
    0xD4C3B2A1: _SWAPPED,
    0x4D3CB2A1: _SWAPPED,
}


class PcapError(ValueError):
    pass


def write_pcap(path: str, frames: Iterable[Tuple[int, bytes]]) -> None:
    """Write ``(timestamp_seconds, frame_bytes)`` records."""
    with open(path, "wb") as f:
        f.write(_GLOBAL_HDR.pack(PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_IEEE802_11))
        for ts, frame in frames:
            f.write(_RECORD_HDR.pack(ts, 0, len(frame), len(frame)))
            f.write(frame)


def read_pcap(path: str) -> List[Tuple[int, bytes]]:
    """Read ``(timestamp_seconds, frame_bytes)`` records from a classic pcap
    of either timestamp resolution and either byte order; anything else,
    pcapng included, raises ``PcapError``."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _GLOBAL_HDR.size:
        raise PcapError("truncated pcap global header")
    magic = _GLOBAL_HDR.unpack_from(data, 0)[0]
    if magic not in _HEADERS:
        raise PcapError(f"unsupported pcap magic 0x{magic:08x}")
    global_hdr, record_hdr = _HEADERS[magic]
    linktype = global_hdr.unpack_from(data, 0)[6]
    if linktype != LINKTYPE_IEEE802_11:
        raise PcapError(f"expected 802.11 link-type {LINKTYPE_IEEE802_11}, got {linktype}")
    frames: List[Tuple[int, bytes]] = []
    off = _GLOBAL_HDR.size
    while off < len(data):
        if off + record_hdr.size > len(data):
            raise PcapError("truncated pcap record header")
        ts_sec, _, incl_len, _ = record_hdr.unpack_from(data, off)
        off += record_hdr.size
        if off + incl_len > len(data):
            raise PcapError("truncated pcap record body")
        frames.append((ts_sec, data[off : off + incl_len]))
        off += incl_len
    return frames
