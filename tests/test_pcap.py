import struct

import pytest

from paisa import pcapio


def test_roundtrip(tmp_path):
    path = str(tmp_path / "out.pcap")
    frames = [(100, b"\x01\x02\x03"), (101, b""), (102, b"\xff" * 240)]
    pcapio.write_pcap(path, frames)
    assert pcapio.read_pcap(path) == frames


def test_header_magic_and_linktype(tmp_path):
    path = str(tmp_path / "out.pcap")
    pcapio.write_pcap(path, [(0, b"x")])
    with open(path, "rb") as f:
        header = f.read(24)
    magic, major, minor, _, _, snaplen, linktype = struct.unpack("<IHHiIII", header)
    assert magic == 0xA1B2C3D4
    assert (major, minor) == (2, 4)
    assert linktype == 105  # IEEE 802.11 without radiotap


def test_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00" * 24)
    with pytest.raises(pcapio.PcapError):
        pcapio.read_pcap(str(path))


def test_read_rejects_truncated_record(tmp_path):
    path = str(tmp_path / "trunc.pcap")
    pcapio.write_pcap(path, [(0, b"\xaa" * 50)])
    with open(path, "rb") as f:
        data = f.read()
    trunc = tmp_path / "cut.pcap"
    trunc.write_bytes(data[:-10])
    with pytest.raises(pcapio.PcapError):
        pcapio.read_pcap(str(trunc))


@pytest.mark.parametrize("cut", [10, 24 + 8], ids=["global_header", "record_header"])
def test_read_rejects_a_capture_cut_inside_a_header(tmp_path, cut):
    path = str(tmp_path / "full.pcap")
    pcapio.write_pcap(path, [(0, b"\xaa" * 50)])
    with open(path, "rb") as f:
        data = f.read()
    trunc = tmp_path / "cut.pcap"
    trunc.write_bytes(data[:cut])
    with pytest.raises(pcapio.PcapError, match="header"):
        pcapio.read_pcap(str(trunc))


def test_empty_capture(tmp_path):
    path = str(tmp_path / "empty.pcap")
    pcapio.write_pcap(path, [])
    assert pcapio.read_pcap(path) == []


def _hand_built(order, magic, frames, subsec):
    """A classic pcap written field by field in byte order ``order``."""
    data = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 105)
    for ts, frame in frames:
        data += struct.pack(order + "IIII", ts, subsec, len(frame), len(frame)) + frame
    return data


@pytest.mark.parametrize(
    "order,magic,subsec",
    [
        ("<", 0xA1B2C3D4, 999_999),
        ("<", 0xA1B23C4D, 999_999_999),  # tcpdump --time-stamp-precision=nano
        (">", 0xA1B2C3D4, 999_999),  # written on a big-endian host
        (">", 0xA1B23C4D, 999_999_999),
    ],
    ids=["usec-little-endian", "nsec-little-endian", "usec-big-endian", "nsec-big-endian"],
)
def test_read_accepts_every_classic_pcap_variant(tmp_path, order, magic, subsec):
    frames = [(1_700_000_000, b"\x80\x00" + b"\xaa" * 38), (1_700_000_001, b""), (7, b"\x01")]
    path = tmp_path / "variant.pcap"
    path.write_bytes(_hand_built(order, magic, frames, subsec))
    assert pcapio.read_pcap(str(path)) == frames


@pytest.mark.parametrize("order", ["<", ">"])
def test_read_rejects_a_foreign_link_type_in_either_byte_order(tmp_path, order):
    data = bytearray(_hand_built(order, 0xA1B2C3D4, [(0, b"x")], 0))
    data[20:24] = struct.pack(order + "I", 1)  # Ethernet
    path = tmp_path / "ether.pcap"
    path.write_bytes(bytes(data))
    with pytest.raises(pcapio.PcapError, match="link-type"):
        pcapio.read_pcap(str(path))


def test_read_rejects_pcapng(tmp_path):
    # A pcapng Section Header Block: block type 0x0A0D0D0A, then the
    # byte-order magic 0x1A2B3C4D.
    shb = struct.pack("<III", 0x0A0D0D0A, 28, 0x1A2B3C4D) + struct.pack("<HHq", 1, 0, -1)
    path = tmp_path / "capture.pcapng"
    path.write_bytes(shb + struct.pack("<I", 28))
    with pytest.raises(pcapio.PcapError, match="magic 0x0a0d0d0a"):
        pcapio.read_pcap(str(path))
