"""Field-order and endianness stability: the checked-in vectors (the wire
messages and the manifest's signed bytes and JSON) must never change across
releases."""

import pathlib

from paisa import wire
from paisa.manifest import canonicalize, manifest_from_json, manifest_to_json, sign_manifest

from test_manifest import MFR_KEYS, sample_manifest

GOLDEN = pathlib.Path(__file__).parent / "golden"

MSG = wire.AnnouncementMsg(
    nonce=bytes(range(32)),
    timestamp=1_700_000_000,
    short_url="2Bf91xQwErT",
    att_result=1,
    att_timestamp=1_699_999_970,
    signature=bytes(range(64)),
)


def test_announcement_golden_stable():
    expected = (GOLDEN / "announcement.hex").read_text().strip()
    assert wire.encode_announcement(MSG).hex() == expected


def test_beacon_golden_stable():
    expected = (GOLDEN / "beacon.hex").read_text().strip()
    frame = wire.encode_beacon(MSG, b"\x02\xaa\xbb\xcc\xdd\xee")
    assert frame.hex() == expected


def test_manifest_canonical_golden_stable():
    expected = (GOLDEN / "manifest_canonical.hex").read_text().strip()
    assert canonicalize(sample_manifest()).hex() == expected


def test_manifest_json_golden_stable():
    expected = (GOLDEN / "manifest.json").read_bytes()
    signed = sign_manifest(sample_manifest(), MFR_KEYS)
    assert manifest_to_json(signed) == expected
    assert manifest_from_json(expected) == signed
