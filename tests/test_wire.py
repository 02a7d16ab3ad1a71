import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from paisa import crypto, wire

URL = "AAAAAAAAAAA"
KEYS = crypto.generate_keypair(b"\x07" * 32)


def make_msg(**overrides):
    fields = dict(
        nonce=bytes(range(32)),
        timestamp=1_700_000_000,
        short_url="2Bf91xQwErT",
        att_result=1,
        att_timestamp=1_699_999_970,
        signature=bytes(range(64)),
    )
    fields.update(overrides)
    return wire.AnnouncementMsg(**fields)


def test_encode_announcement_is_116_bytes():
    assert len(wire.encode_announcement(make_msg())) == 116


def test_announcement_roundtrip():
    msg = make_msg()
    assert wire.decode_announcement(wire.encode_announcement(msg)) == msg


def test_announcement_golden_vector_matches_layout_worksheet():
    # Hand-assembled from the field table: nonce, ts, url, att, att_ts, sig.
    msg = make_msg(
        nonce=b"\x00" * 32,
        timestamp=0,
        short_url=URL,
        att_result=0,
        att_timestamp=0,
        signature=b"\x00" * 64,
    )
    expected = "00" * 32 + "00000000" + "41" * 11 + "00" + "00000000" + "00" * 64
    assert wire.encode_announcement(msg).hex() == expected


def test_announcement_wrong_length_rejected():
    with pytest.raises(wire.AnnouncementParseError) as exc:
        wire.decode_announcement(b"\x00" * 115)
    assert exc.value.reason == "length"


def test_announcement_bad_att_result_rejected():
    raw = bytearray(wire.encode_announcement(make_msg(att_result=0)))
    raw[47] = 0x02
    with pytest.raises(wire.AnnouncementParseError) as exc:
        wire.decode_announcement(bytes(raw))
    assert exc.value.reason == "att_result"


def test_announcement_att_timestamp_after_timestamp_rejected():
    with pytest.raises(wire.AnnouncementParseError) as exc:
        wire.encode_announcement(make_msg(timestamp=100, att_timestamp=101))
    assert exc.value.reason == "att_timestamp"


@pytest.mark.parametrize(
    "field, value",
    [
        ("nonce", bytes(31)),
        ("nonce", bytes(33)),
        ("timestamp", -1),
        ("timestamp", wire.TS_MAX + 1),
        ("short_url", "short"),
        ("short_url", "\u00ff" * 11),
        ("att_result", 2),
        ("att_timestamp", -1),
        ("signature", bytes(63)),
    ],
)
def test_encode_announcement_refuses_a_field_its_layout_cannot_hold(field, value):
    with pytest.raises(ValueError):
        wire.encode_announcement(make_msg(**{field: value}))


def test_signing_refuses_a_timestamp_wider_than_its_field():
    with pytest.raises(ValueError):
        wire.signed(
            wire.AnnouncementMsg, KEYS.private_key, bytes(32), wire.TS_MAX + 1, URL, 1, 0,
            device_id=bytes(16),
        )


def test_encode_beacon_refuses_a_five_byte_mac():
    with pytest.raises(ValueError, match="MAC"):
        wire.encode_beacon(make_msg(), b"\x02" * 5)


def test_encode_sync_message_refuses_an_object_that_is_not_a_sync_message():
    with pytest.raises(TypeError, match="not a sync message"):
        wire.encode_sync_message(make_msg())


@given(
    nonce=st.binary(min_size=32, max_size=32),
    ts=st.integers(min_value=0, max_value=wire.TS_MAX),
    att_result=st.integers(min_value=0, max_value=1),
    att_offset=st.integers(min_value=0, max_value=1000),
    sig=st.binary(min_size=64, max_size=64),
    url=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=11,
        max_size=11,
    ),
)
def test_announcement_roundtrip_property(nonce, ts, att_result, att_offset, sig, url):
    msg = wire.AnnouncementMsg(
        nonce=nonce,
        timestamp=ts,
        short_url=url,
        att_result=att_result,
        att_timestamp=max(ts - att_offset, 0),
        signature=sig,
    )
    encoded = wire.encode_announcement(msg)
    assert len(encoded) == 116
    assert wire.decode_announcement(encoded) == msg


def test_beacon_is_240_bytes():
    frame = wire.encode_beacon(make_msg(), b"\x02\x00\x00\x00\x00\x01")
    assert len(frame) == 240


def test_beacon_vendor_element_prefix():
    frame = wire.encode_beacon(make_msg(), b"\x02\x00\x00\x00\x00\x01")
    vendor = frame[-121:]
    assert vendor[0] == 0xDD
    assert vendor[1] == 119  # 3-byte OUI + 116-byte payload
    assert vendor[2:5] == bytes((0x00, 0x14, 0x6C))


def test_beacon_ssid_element_is_paisa():
    frame = wire.encode_beacon(make_msg(), b"\x02\x00\x00\x00\x00\x01")
    assert frame[36] == 0x00 and frame[37] == 5
    assert frame[38:43] == b"PAISA"


def test_beacon_roundtrip():
    mac = b"\x02\xaa\xbb\xcc\xdd\xee"
    msg = make_msg()
    frame = wire.encode_beacon(msg, mac)
    decoded = wire.decode_beacon(frame)
    assert decoded.verdict is wire.BeaconVerdict.OK
    assert decoded.msg == msg
    assert frame[10:16] == mac


def test_decode_beacon_wrong_ssid():
    frame = bytearray(wire.encode_beacon(make_msg(), b"\x02" * 6))
    frame[38:43] = b"HOMEW"
    assert wire.decode_beacon(bytes(frame)).verdict is wire.BeaconVerdict.WRONG_SSID


def test_decode_beacon_non_beacon():
    frame = bytearray(wire.encode_beacon(make_msg(), b"\x02" * 6))
    frame[0] = 0x40  # probe request subtype
    assert wire.decode_beacon(bytes(frame)).verdict is wire.BeaconVerdict.NON_BEACON


def test_decode_beacon_truncated_vendor_payload():
    frame = wire.encode_beacon(make_msg(), b"\x02" * 6)
    assert wire.decode_beacon(frame[:-21]).verdict is wire.BeaconVerdict.MALFORMED_PAYLOAD


def test_decode_beacon_missing_vendor_element():
    frame = wire.encode_beacon(make_msg(), b"\x02" * 6)
    assert wire.decode_beacon(frame[:-121]).verdict is wire.BeaconVerdict.NO_VENDOR_ELEMENT


def test_decode_beacon_fuzz_total():
    rng = random.Random(7)
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(0, 300))
        verdict = wire.decode_beacon(data).verdict
        assert isinstance(verdict, wire.BeaconVerdict)


def test_decode_beacon_mutated_real_frames_total():
    rng = random.Random(8)
    base = wire.encode_beacon(make_msg(), b"\x02" * 6)
    for _ in range(2_000):
        buf = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        assert isinstance(wire.decode_beacon(bytes(buf)).verdict, wire.BeaconVerdict)


def signs(msg, preimage: bytes) -> bool:
    """Whether ``msg``'s signature is over ``preimage``, checked without ``wire``."""
    return crypto.verify(KEYS.public_key, hashlib.sha256(preimage).digest(), msg.signature)


def ts(n: int) -> bytes:
    return n.to_bytes(4, "big")


def test_preimage_widths():
    dev, n1, n2, key = b"\x01" * 16, b"\x02" * 32, b"\x03" * 32, KEYS.private_key
    cases = [
        (
            wire.signed(wire.AnnouncementMsg, key, n1, 5, URL, 1, 4, device_id=dev),
            dev + n1 + ts(5) + URL.encode("ascii") + b"\x01" + ts(4),
            68,
        ),
        (wire.signed(wire.SyncReq, key, dev, n1, 7), dev + n1 + ts(8), 52),
        (wire.signed(wire.SyncResp, key, dev, n1, n2, 7), dev + n1 + n2 + ts(7), 84),
        (wire.signed(wire.SyncAck, key, dev, n1, n2, 7), dev + n1 + n2 + ts(7), 84),
    ]
    for msg, preimage, width in cases:
        assert len(preimage) == width
        assert signs(msg, preimage)
        assert wire.verifies(msg, KEYS.public_key, dev)


def test_sync_req_preimage_signs_bumped_timestamp():
    dev, n1 = b"\x01" * 16, b"\x02" * 32
    for ts_prev, bumped in ((100, 101), (101, 102), (wire.TS_MAX, 0)):
        req = wire.signed(wire.SyncReq, KEYS.private_key, dev, n1, ts_prev)
        assert req.ts_prev == ts_prev
        assert signs(req, dev + n1 + ts(bumped))
        assert not signs(req, dev + n1 + ts(ts_prev))


def test_sync_message_roundtrips():
    req = wire.SyncReq(b"\x01" * 16, b"\x02" * 32, 9, b"\x03" * 64)
    resp = wire.SyncResp(b"\x01" * 16, b"\x02" * 32, b"\x04" * 32, 10, b"\x03" * 64)
    ack = wire.SyncAck(b"\x01" * 16, b"\x05" * 32, b"\x04" * 32, 10, b"\x03" * 64)
    for msg in (req, resp, ack):
        assert wire.decode_sync_message(wire.encode_sync_message(msg)) == msg


def test_sync_message_rejects_garbage():
    with pytest.raises(wire.SyncParseError):
        wire.decode_sync_message(b"")
    with pytest.raises(wire.SyncParseError):
        wire.decode_sync_message(b"\x09" + b"\x00" * 116)
    with pytest.raises(wire.SyncParseError):
        wire.decode_sync_message(b"\x01" + b"\x00" * 10)


ID = st.binary(min_size=16, max_size=16)
NONCE = st.binary(min_size=32, max_size=32)
SIG = st.binary(min_size=64, max_size=64)
TS = st.integers(min_value=0, max_value=wire.TS_MAX)
SHORT_URL = st.text(alphabet="0123456789ABCDEFabcdef", min_size=11, max_size=11)
SYNC_FIELDS = {
    wire.SyncReq: [ID, NONCE, TS, SIG],
    wire.SyncResp: [ID, NONCE, NONCE, TS, SIG],
    wire.SyncAck: [ID, NONCE, NONCE, TS, SIG],
}
# Each signed message and a strategy per signed field; an announcement's
# device_id, which it signs but does not carry, is drawn first.
SIGNATURES = {
    "announcement_preimage": (
        wire.AnnouncementMsg, [ID, NONCE, TS, SHORT_URL, st.integers(0, 1), TS]
    ),
    "sync_req_preimage": (wire.SyncReq, [ID, NONCE, TS]),
    "sync_resp_preimage": (wire.SyncResp, [ID, NONCE, NONCE, TS]),
    "sync_ack_preimage": (wire.SyncAck, [ID, NONCE, NONCE, TS]),
}


def sign(cls, *fields):
    if cls is wire.AnnouncementMsg:
        return wire.signed(cls, KEYS.private_key, *fields[1:], device_id=fields[0])
    return wire.signed(cls, KEYS.private_key, *fields)


def verifies(cls, fields, signature) -> bool:
    if cls is wire.AnnouncementMsg:
        return wire.verifies(cls(*fields[1:], signature), KEYS.public_key, fields[0])
    return wire.verifies(cls(*fields, signature), KEYS.public_key)


# Every signed layout: what packs it, and a strategy per field.
SIGNED_LAYOUTS = {
    **{
        name: (lambda *f, cls=cls: sign(cls, *f), fields)
        for name, (cls, fields) in SIGNATURES.items()
    },
    **{
        cls.__name__: (lambda *f, cls=cls: wire.encode_sync_message(cls(*f)), fields)
        for cls, fields in SYNC_FIELDS.items()
    },
}


@pytest.mark.parametrize("layout", SIGNED_LAYOUTS)
@given(data=st.data())
def test_signed_layout_rejects_a_field_one_byte_off(layout, data):
    pack, strategies = SIGNED_LAYOUTS[layout]
    fields = data.draw(st.tuples(*strategies))
    i = data.draw(st.sampled_from([i for i, v in enumerate(fields) if not isinstance(v, int)]))
    v = fields[i]
    wrong = data.draw(st.sampled_from([v[:-1], v + v[:1]]))
    with pytest.raises(ValueError):
        pack(*fields[:i], wrong, *fields[i + 1 :])


@pytest.mark.parametrize("layout", SIGNED_LAYOUTS)
@given(data=st.data())
def test_signed_layout_is_injective(layout, data):
    """Changing any one field changes the encoding; for a signature, it makes
    ``verifies`` False (for an announcement, changing its device_id too)."""
    pack, strategies = SIGNED_LAYOUTS[layout]
    fields = data.draw(st.tuples(*strategies))
    i = data.draw(st.integers(0, len(fields) - 1))
    other = (*fields[:i], data.draw(strategies[i]), *fields[i + 1 :])
    if layout in SIGNATURES:
        cls = SIGNATURES[layout][0]
        assert verifies(cls, other, pack(*fields).signature) == (fields == other)
    else:
        assert (pack(*fields) == pack(*other)) == (fields == other)


@pytest.mark.parametrize("cls", SYNC_FIELDS, ids=lambda c: c.__name__)
@given(data=st.data())
def test_sync_message_roundtrips_for_random_fields(cls, data):
    msg = cls(*data.draw(st.tuples(*SYNC_FIELDS[cls])))
    assert wire.decode_sync_message(wire.encode_sync_message(msg)) == msg
