"""Differential tests of the receive path.

``ReferenceReceiver`` restates the README's receiver rules in a few lines. It
shares no code with ``paisa.receiver``, verifies both signatures with
``cryptography`` directly and keeps its duplicate window as a plain list. It
runs beside ``Receiver`` over generated frame sequences, and the two must
agree on every verdict, duplicate flag and device id; every report must also
serialise to exactly ``json.dumps`` of its fields.

``element_walk_decode`` is the element walk of ``wire.decode_beacon`` as it
was when every element was sliced out; the decoder must give the same verdict
and announcement on truncated, repeated, overlapping and fuzzed elements.
"""

import dataclasses
import hashlib
import json
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed, encode_dss_signature
from hypothesis import given, settings, strategies as st

from paisa import crypto, wire
from paisa.manifest import (
    Manifest,
    ManifestError,
    ShortUrlRegistry,
    canonicalize,
    hosted_path,
    manifest_from_json,
    manifest_to_json,
    sign_manifest,
)
from paisa.receiver import PresenceReport, Receiver, ReceiverConfig, RegistryFetcher

EPSILON, FUTURE_SKEW = 10, 2
OUI = b"\x00\x14\x6c"
_ECDSA = ec.ECDSA(Prehashed(hashes.SHA256()))


# -- the reference receiver ---------------------------------------------------


def ecdsa_ok(public_key: bytes, digest: bytes, signature: bytes) -> bool:
    """Raw X||Y key, raw r||s signature, P-256 over a SHA-256 digest."""
    x, y = int.from_bytes(public_key[:32], "big"), int.from_bytes(public_key[32:], "big")
    r, s = int.from_bytes(signature[:32], "big"), int.from_bytes(signature[32:], "big")
    try:
        key = ec.EllipticCurvePublicNumbers(x, y, ec.SECP256R1()).public_key()
        key.verify(encode_dss_signature(r, s), digest, _ECDSA)
    except (InvalidSignature, ValueError):
        return False
    return True


def reference_announcement(frame: bytes):
    """``(timestamp, short_url, att_result, signed_bytes, signature)`` of the
    announcement a beacon carries, or None.

    A beacon starts ``80 00`` and its elements start at byte 36. Its SSID is
    the first SSID element and its payload the first vendor element under the
    OUI; a truncated element ends the list.
    """
    if len(frame) < 36 or frame[:2] != b"\x80\x00":
        return None
    elements, off = [], 36
    while off + 2 <= len(frame) and off + 2 + frame[off + 1] <= len(frame):
        elements.append((frame[off], frame[off + 2 : off + 2 + frame[off + 1]]))
        off += 2 + frame[off + 1]
    ssid = next((value for tag, value in elements if tag == 0x00), None)
    payload = next((v[3:] for tag, v in elements if tag == 0xDD and v[:3] == OUI), None)
    if ssid != b"PAISA" or payload is None or len(payload) != 116:
        return None
    timestamp, url = int.from_bytes(payload[32:36], "big"), payload[36:47]
    att_result, att_timestamp = payload[47], int.from_bytes(payload[48:52], "big")
    if not url.isascii() or att_result not in (0, 1) or att_timestamp > timestamp:
        return None
    return timestamp, url.decode("ascii"), att_result, payload[:52], payload[52:]


class ReferenceReceiver:
    """The README's pipeline; the first failing stage decides the verdict."""

    def __init__(self, registry: ShortUrlRegistry, hosted: dict):
        self.registry, self.hosted = registry, hosted
        self.window = []  # (signature, received_at) of every announcement seen

    def process(self, frame: bytes, now: int):
        """``(verdict, duplicate, device_id)``, or None for a frame that
        carries no announcement."""
        announcement = reference_announcement(frame)
        if announcement is None:
            return None
        timestamp, short_url, att_result, signed_bytes, signature = announcement
        last = next((t for sig, t in reversed(self.window) if sig == signature), None)
        self.window.append((signature, now))
        duplicate = last is not None and now - last <= EPSILON
        if timestamp > now + FUTURE_SKEW:
            return "future", duplicate, None
        if not now - EPSILON < timestamp:
            return "stale", duplicate, None
        full_url = self.registry.resolve(short_url)
        document = full_url and self.hosted.get(hosted_path(full_url))
        if document is None:
            return "fetch_error", duplicate, None
        try:
            man = manifest_from_json(document)
        except ManifestError:
            return "bad_manifest_signature", duplicate, None
        mfr_digest = hashlib.sha256(canonicalize(man)).digest()
        device_digest = hashlib.sha256(man.device_id + signed_bytes).digest()
        if not ecdsa_ok(man.manufacturer_public_key, mfr_digest, man.manifest_signature):
            verdict = "bad_manifest_signature"
        elif man.full_url != full_url:
            verdict = "redirect_mismatch"
        elif man.status == "revoked":
            verdict = "revoked"
        elif not ecdsa_ok(man.device_public_key, device_digest, signature):
            verdict = "bad_announcement_signature"
        else:
            verdict = "compromised" if att_result == 0 else "verified"
        return verdict, duplicate, man.device_id.hex()


# -- a small fleet, one device per manifest outcome ----------------------------

MFR = crypto.generate_keypair(b"\x21" * 32)
# The unknown device's URL is never registered, so its frames cannot be fetched.
KINDS = ("honest", "honest", "revoked", "redirected", "tampered", "unknown")
DEVICE_KEYS = [crypto.generate_keypair(bytes([0x40 + i]) * 32) for i in range(len(KINDS))]
SUMMARY_TEXT = ("device_type_model", "manufacturer", "deployment_purpose", "deployment_location")

# Text a JSON encoder must escape or pass through: quotes, backslashes,
# control characters, non-ASCII letters and symbols, line separators.
texts = st.text(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\t\n é漢😀\u2028\u2029') | st.characters(exclude_categories=("Cs",)),
    max_size=8,
)
descriptions = st.fixed_dictionaries(
    {
        **{name: texts for name in SUMMARY_TEXT},
        "sensors": st.lists(texts, max_size=2).map(tuple),
        "actuators": st.lists(texts, max_size=2).map(tuple),
    }
)


def build_fleet(descs):
    """The registry, the hosted manifests and, per device, what signs its frames."""
    registry, hosted, devices = ShortUrlRegistry(), {}, []
    for i, (kind, keys, desc) in enumerate(zip(KINDS, DEVICE_KEYS, descs)):
        device_id, full_url = bytes([i + 1]) * 16, f"https://mfr.example/manifests/{i}.json"
        short_url = registry.key_for(full_url)
        if kind != "unknown":
            registry.add(short_url, full_url)
        man = Manifest(
            **desc,
            device_id=device_id,
            manufacture_date_location="2024-01-01 / Factory 1",
            network_interfaces=("wifi",),
            owner_id="owner-0",
            sw_hash=bytes(32),
            device_public_key=keys.public_key,
            full_url=full_url if kind != "redirected" else full_url + ".moved",
            status="revoked" if kind == "revoked" else "active",
        )
        man = sign_manifest(man, MFR)
        if kind == "tampered":
            man = dataclasses.replace(man, owner_id="mallory")
        hosted[hosted_path(full_url)] = manifest_to_json(man)
        devices.append((keys.private_key, device_id, short_url))
    return registry, hosted, devices


def announce(device, timestamp: int, att_result: int, nonce: bytes) -> bytes:
    private_key, device_id, short_url = device
    msg = wire.signed(
        wire.AnnouncementMsg, private_key, nonce, timestamp, short_url, att_result,
        timestamp - 1, device_id=device_id,
    )
    return wire.encode_beacon(msg, b"\x02" + device_id[:5])


# Each step first advances the clock, then sends one frame: a new announcement
# whose timestamp lies `age` seconds back (negative: ahead), a byte-identical
# replay of an earlier frame, or an earlier frame with one bit flipped.
steps = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.one_of(
            st.tuples(st.just("send"), st.integers(0, len(KINDS) - 1), st.integers(-4, 12), st.integers(0, 1)),
            st.tuples(st.just("replay"), st.integers(0, 2**16)),
            st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(0, wire.BEACON_FRAME_LEN * 8 - 1)),
        ),
    ),
    min_size=1,
    max_size=30,
)

SUMMARY_KEYS = SUMMARY_TEXT + ("sensors", "actuators", "status")


def report_doc(rep: PresenceReport) -> dict:
    """The report's JSON object, built here from its fields."""
    doc = {
        "verdict": rep.verdict.value,
        "received_at": rep.received_at,
        "announcement_timestamp": rep.announcement_timestamp,
        "att_result": rep.att_result,
        "att_timestamp": rep.att_timestamp,
        "device_id": rep.device_id,
        "duplicate": rep.duplicate,
    }
    if rep.manifest is not None:
        doc["manifest"] = {key: getattr(rep.manifest, key) for key in SUMMARY_KEYS}
    return doc


@settings(max_examples=150, deadline=None)
@given(descs=st.lists(descriptions, min_size=len(KINDS), max_size=len(KINDS)), script=steps)
def test_receiver_agrees_with_the_reference(descs, script):
    registry, hosted, devices = build_fleet(descs)
    now = [1000]
    receiver = Receiver(
        ReceiverConfig(epsilon=EPSILON, manifest_fetcher=RegistryFetcher(registry, hosted.get)),
        clock=lambda: now[0],
    )
    reference = ReferenceReceiver(registry, hosted)
    sent = []
    for advance, (action, *args) in script:
        now[0] += advance
        if action == "send" or not sent:
            kind, age, att_result = args if action == "send" else (0, 0, 1)
            nonce = struct.pack(">I", len(sent)) + bytes(28)
            frame = announce(devices[kind], now[0] - age, att_result, nonce)
        elif action == "replay":
            frame = sent[args[0] % len(sent)]
        else:
            buf = bytearray(sent[args[0] % len(sent)])
            buf[args[1] // 8] ^= 1 << (args[1] % 8)
            frame = bytes(buf)
        sent.append(frame)
        got, want = receiver.process_frame(frame), reference.process(frame, now[0])
        if want is None:
            assert isinstance(got, wire.BeaconDecode)
            assert got.verdict is not wire.BeaconVerdict.OK
            continue
        assert isinstance(got, PresenceReport)
        assert (got.verdict.value, got.duplicate, got.device_id) == want
        # The receiver holds exactly the signatures seen in the last epsilon seconds.
        assert set(receiver._recent_sigs) == {s for s, t in reference.window if now[0] - t <= EPSILON}
        assert got.to_json() == json.dumps(report_doc(got), sort_keys=True)


def test_the_fleet_reaches_every_manifest_verdict():
    descs = [dict.fromkeys(SUMMARY_TEXT, "x") | {"sensors": (), "actuators": ()}] * len(KINDS)
    registry, hosted, devices = build_fleet(descs)
    reference = ReferenceReceiver(registry, hosted)
    nonce = bytes(32)
    verdicts = [reference.process(announce(d, 1000, 1, nonce), 1000)[0] for d in devices]
    assert verdicts == [
        "verified", "verified", "revoked", "redirect_mismatch", "bad_manifest_signature", "fetch_error",
    ]
    assert reference.process(announce(devices[0], 1000, 0, nonce), 1000)[0] == "compromised"


# -- decode_beacon against the slicing element walk ---------------------------

_ANNOUNCEMENT = struct.Struct(">32sI11sBI64s")


def element_walk_decode(frame: bytes):
    """``(verdict, msg)`` by the slicing walk: every element is copied out,
    the first SSID and the first vendor element under the OUI are kept, and
    the payload is checked by ``AnnouncementMsg.validate``."""
    if len(frame) < 36 or frame[0] != 0x80 or frame[1] != 0x00:
        return wire.BeaconVerdict.NON_BEACON, None
    ssid = vendor_payload = None
    truncated = False
    off = 36
    while off + 2 <= len(frame):
        tag, length = frame[off], frame[off + 1]
        value = frame[off + 2 : off + 2 + length]
        if len(value) != length:
            truncated = True
            break
        if tag == 0x00 and ssid is None:
            ssid = value
        elif tag == 0xDD and value[:3] == OUI and vendor_payload is None:
            vendor_payload = value[3:]
        off += 2 + length
    if off != len(frame) and not truncated:
        truncated = True
    if ssid != b"PAISA":
        return wire.BeaconVerdict.WRONG_SSID, None
    if vendor_payload is None:
        if truncated:
            return wire.BeaconVerdict.MALFORMED_PAYLOAD, None
        return wire.BeaconVerdict.NO_VENDOR_ELEMENT, None
    if len(vendor_payload) != wire.ANNOUNCEMENT_LEN:
        return wire.BeaconVerdict.MALFORMED_PAYLOAD, None
    nonce, timestamp, url, att_result, att_timestamp, signature = _ANNOUNCEMENT.unpack(vendor_payload)
    try:
        msg = wire.AnnouncementMsg(
            nonce, timestamp, url.decode("ascii"), att_result, att_timestamp, signature
        )
        msg.validate()
    except (UnicodeDecodeError, wire.AnnouncementParseError):
        return wire.BeaconVerdict.MALFORMED_PAYLOAD, None
    return wire.BeaconVerdict.OK, msg


def assert_same_decode(frame: bytes):
    got = wire.decode_beacon(frame)
    assert (got.verdict, got.msg) == element_walk_decode(frame), frame.hex()


HONEST = announce((DEVICE_KEYS[0].private_key, b"\x01" * 16, "AbCdEfGhIjK"), 1000, 1, bytes(32))
HEADER, PAYLOAD = HONEST[:36], HONEST[-wire.ANNOUNCEMENT_LEN :]


def element(tag: int, value: bytes) -> bytes:
    return bytes((tag, len(value))) + value


SSID, VENDOR = element(0x00, b"PAISA"), element(0xDD, OUI + PAYLOAD)
RATES = element(0x01, b"\x82\x84\x8b\x96")
BAD_VENDOR = element(0xDD, OUI + PAYLOAD[:-1])


def test_decode_matches_the_element_walk_on_every_truncation():
    assert element_walk_decode(HONEST)[0] is wire.BeaconVerdict.OK
    for n in range(len(HONEST) + 1):
        assert_same_decode(HONEST[:n])


def test_decode_matches_the_element_walk_on_repeated_and_extra_elements():
    frames = {
        "trailing byte": HONEST + b"\x00",
        "two trailing bytes": HONEST + b"\xdd\x00",
        "second SSID": HEADER + SSID + element(0x00, b"OTHER") + VENDOR,
        "SSID second": HEADER + element(0x00, b"OTHER") + SSID + VENDOR,
        "second vendor malformed": HEADER + SSID + VENDOR + BAD_VENDOR,
        "first vendor malformed": HEADER + SSID + BAD_VENDOR + VENDOR,
        "foreign vendor first": HEADER + SSID + element(0xDD, b"\x00\x50\xf2\x04") + VENDOR,
        "short vendor first": HEADER + SSID + element(0xDD, b"\x00\x14") + VENDOR,
        "vendor before SSID": HEADER + VENDOR + RATES + SSID,
        "no vendor": HEADER + SSID + RATES,
        "no vendor, truncated": HEADER + SSID + RATES[:-1],
        "no SSID": HEADER + RATES + VENDOR,
        "empty": HEADER,
    }
    for name, frame in frames.items():
        assert_same_decode(frame)


def test_decode_matches_the_element_walk_on_payload_field_edges():
    timestamp = int.from_bytes(PAYLOAD[32:36], "big")
    fields = [(0, timestamp), (1, timestamp), (1, timestamp + 1), (2, 0), (255, 0), (1, 2**32 - 1)]
    for att_result, att_timestamp in fields:
        payload = PAYLOAD[:47] + bytes([att_result]) + att_timestamp.to_bytes(4, "big") + PAYLOAD[52:]
        assert_same_decode(HEADER + SSID + element(0xDD, OUI + payload))
    for url_byte in (b"\x7f", b"\x80", b"\xff"):
        payload = PAYLOAD[:40] + url_byte + PAYLOAD[41:]
        assert_same_decode(HEADER + SSID + element(0xDD, OUI + payload))


def test_vendor_oui_is_read_inside_its_own_element():
    # An empty vendor element followed by an SSID element whose length byte
    # and value begin 14 6c: the three bytes after "dd 00" read as the OUI
    # only if the test crosses the empty element's end.
    straddle = HEADER + SSID + b"\xdd\x00" + OUI + bytes(19) + VENDOR
    assert element_walk_decode(straddle)[0] is wire.BeaconVerdict.OK
    assert_same_decode(straddle)


@settings(max_examples=1500, deadline=None)
@given(
    st.one_of(
        st.just(HONEST),
        st.binary(max_size=300).map(lambda tail: HEADER + tail),
        st.lists(
            st.sampled_from([SSID, VENDOR, RATES, BAD_VENDOR, b"\xdd\x00", OUI, b"\x00", element(0x00, b"")]),
            max_size=5,
        ).map(lambda parts: HEADER + b"".join(parts)),
    ),
    st.lists(st.tuples(st.integers(0, 300), st.integers(0, 255)), max_size=4),
)
def test_decode_matches_the_element_walk_on_fuzzed_frames(base, edits):
    frame = bytearray(base)
    for pos, byte in edits:
        frame[pos % len(frame)] = byte
    assert_same_decode(bytes(frame))
