import dataclasses
import json
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

import paisa.receiver as receiver_mod
from paisa import crypto, wire
from paisa.manifest import manifest_from_json, manifest_to_json, sign_manifest
from paisa.receiver import (
    DedupeEntry,
    FetchError,
    Freshness,
    ManifestSummary,
    PresenceReport,
    Receiver,
    ReceiverConfig,
    RegistryFetcher,
    Verdict,
    check_freshness,
    dedupe,
)

from conftest import complete_sync


class FakeClock:
    def __init__(self, now=0):
        self.now = now

    def __call__(self):
        return self.now


def make_receiver(rig, now=0, **cfg_overrides):
    fetcher = RegistryFetcher(rig["server"].registry, rig["server"].serve_manifest)
    cfg = ReceiverConfig(manifest_fetcher=fetcher, **cfg_overrides)
    clock = FakeClock(now)
    return Receiver(cfg, clock), clock, fetcher


def synced_frame(rig, now):
    complete_sync(rig["server"], rig["device"], now=now)
    return rig["device"].announce_now()[0]


# -- freshness ---------------------------------------------------------------


def brute_force_freshness(ts_dev, ts_udev, epsilon, future_skew):
    """Independent restatement of the acceptance window, evaluated literally."""
    if ts_dev > ts_udev + future_skew:
        return Freshness.FUTURE
    if (ts_udev - epsilon) < ts_dev:
        return Freshness.FRESH
    return Freshness.STALE


@pytest.mark.parametrize("epsilon", [0, 1, 5, 10])
def test_freshness_grid_matches_oracle(epsilon):
    cfg = ReceiverConfig(epsilon=epsilon, manifest_fetcher=object())
    for ts_udev in range(0, 51):
        for ts_dev in range(0, 51):
            assert check_freshness(ts_dev, ts_udev, cfg) == brute_force_freshness(
                ts_dev, ts_udev, epsilon, cfg.future_skew
            ), (ts_dev, ts_udev, epsilon)


def test_freshness_boundary_exactly_epsilon_old_is_stale():
    cfg = ReceiverConfig(epsilon=10, manifest_fetcher=object())
    assert check_freshness(990, 1000, cfg) is Freshness.STALE
    assert check_freshness(991, 1000, cfg) is Freshness.FRESH


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        ReceiverConfig(epsilon=-1)


# -- pipeline ----------------------------------------------------------------


def test_honest_frame_verified(rig):
    frame = synced_frame(rig, now=1000)
    receiver, clock, _ = make_receiver(rig, now=1000)
    rep = receiver.process_frame(frame)
    assert isinstance(rep, PresenceReport)
    assert rep.verdict is Verdict.VERIFIED
    assert rep.device_id == (b"\x07" * 16).hex()
    assert rep.manifest.device_type_model == "rig-device"
    assert not rep.duplicate


def test_verified_report_json(rig):
    frame = synced_frame(rig, now=1000)
    receiver, _, _ = make_receiver(rig, now=1003)
    assert receiver.process_frame(frame).to_json() == (
        '{"announcement_timestamp": 1000, "att_result": 1, "att_timestamp": 1000, '
        '"device_id": "07070707070707070707070707070707", "duplicate": false, '
        '"manifest": {"actuators": [], "deployment_location": "unspecified", '
        '"deployment_purpose": "unspecified", "device_type_model": "rig-device", '
        '"manufacturer": "Example Manufacturer", "sensors": [], "status": "active"}, '
        '"received_at": 1003, "verdict": "verified"}'
    )


# Quotes, backslashes, control, non-ASCII and lone-surrogate characters, among others.
json_text = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'), st.characters(exclude_categories=()))
)
summaries = st.builds(
    ManifestSummary, json_text, json_text, st.lists(json_text).map(tuple),
    st.lists(json_text).map(tuple), json_text, json_text, st.sampled_from(["active", "revoked"]),
)


@given(
    verdict=st.sampled_from(Verdict),
    times=st.tuples(*[st.integers(0, wire.TS_MAX)] * 3),
    att_result=st.integers(0, 1),
    device_id=st.none() | json_text,
    summary=st.none() | summaries,
    duplicate=st.booleans(),
)
def test_report_json_is_json_dumps_of_its_fields(verdict, times, att_result, device_id, summary, duplicate):
    received_at, announcement_ts, att_ts = times
    rep = PresenceReport(verdict, received_at, announcement_ts, att_result, att_ts, device_id, summary, duplicate)
    fields = {
        "verdict": verdict.value, "received_at": received_at, "announcement_timestamp": announcement_ts,
        "att_result": att_result, "att_timestamp": att_ts, "device_id": device_id, "duplicate": duplicate,
    }
    if summary is not None:
        fields["manifest"] = {f.name: getattr(summary, f.name) for f in dataclasses.fields(summary) if f.init}
    assert rep.to_json() == json.dumps(fields, sort_keys=True)


def test_non_paisa_frame_returns_decode(rig):
    receiver, _, _ = make_receiver(rig)
    out = receiver.process_frame(b"\x00" * 50)
    assert isinstance(out, wire.BeaconDecode)


def test_stale_frame_never_fetches_manifest(rig):
    frame = synced_frame(rig, now=1000)
    receiver, clock, fetcher = make_receiver(rig, now=1000 + 11)
    rep = receiver.process_frame(frame)
    assert rep.verdict is Verdict.STALE
    assert fetcher.call_count == 0


def test_future_frame_rejected(rig):
    frame = synced_frame(rig, now=1000)
    receiver, clock, fetcher = make_receiver(rig, now=990)
    rep = receiver.process_frame(frame)
    assert rep.verdict is Verdict.FUTURE
    assert fetcher.call_count == 0


def test_fetch_error_verdict(rig):
    frame = synced_frame(rig, now=1000)

    class Dead:
        call_count = 0

        def fetch(self, short_url):
            raise FetchError("offline")

    receiver = Receiver(
        ReceiverConfig(manifest_fetcher=Dead()), FakeClock(1000)
    )
    assert receiver.process_frame(frame).verdict is Verdict.FETCH_ERROR


def test_tampered_hosted_manifest_yields_bad_manifest_signature(rig):
    frame = synced_frame(rig, now=1000)
    server = rig["server"]
    man = manifest_from_json(server.serve_manifest("/manifests/rig.json"))
    tampered = dataclasses.replace(man, owner_id="mallory")
    server.manifests["/manifests/rig.json"] = manifest_to_json(tampered)
    receiver, _, _ = make_receiver(rig, now=1000)
    assert receiver.process_frame(frame).verdict is Verdict.BAD_MANIFEST_SIGNATURE


def test_hosted_manifest_nested_past_the_recursion_limit_is_bad_manifest_signature(rig):
    frame = synced_frame(rig, now=1000)
    rig["server"].manifests["/manifests/rig.json"] = b"[" * 100_000
    receiver, _, _ = make_receiver(rig, now=1000)
    report = receiver.process_frame(frame)
    assert report.verdict is Verdict.BAD_MANIFEST_SIGNATURE
    assert report.manifest is None


def test_unpinned_manufacturer_key_rejected(rig):
    from paisa import crypto

    frame = synced_frame(rig, now=1000)
    other = crypto.generate_keypair(b"\x66" * 32)
    receiver, _, _ = make_receiver(
        rig, now=1000, pinned_mfr_keys=frozenset({other.public_key})
    )
    assert receiver.process_frame(frame).verdict is Verdict.BAD_MANIFEST_SIGNATURE


def test_pinned_manufacturer_key_accepted(rig):
    frame = synced_frame(rig, now=1000)
    receiver, _, _ = make_receiver(
        rig, now=1000, pinned_mfr_keys=frozenset({rig["server"].keys.public_key})
    )
    assert receiver.process_frame(frame).verdict is Verdict.VERIFIED


def test_redirect_mismatch_detected(rig):
    """A registry that resolves somewhere other than the manifest's own URL."""
    frame = synced_frame(rig, now=1000)
    server = rig["server"]
    # Re-sign the hosted manifest claiming a different canonical URL.
    man = manifest_from_json(server.serve_manifest("/manifests/rig.json"))
    moved = sign_manifest(
        dataclasses.replace(man, full_url="https://mfr.example/manifests/other.json"),
        server.keys,
    )
    server.manifests["/manifests/rig.json"] = manifest_to_json(moved)
    receiver, _, _ = make_receiver(rig, now=1000)
    assert receiver.process_frame(frame).verdict is Verdict.REDIRECT_MISMATCH


def test_revoked_manifest_end_to_end(rig):
    frame = synced_frame(rig, now=1000)
    server = rig["server"]
    man = manifest_from_json(server.serve_manifest("/manifests/rig.json"))
    revoked = sign_manifest(dataclasses.replace(man, status="revoked"), server.keys)
    server.manifests["/manifests/rig.json"] = manifest_to_json(revoked)
    receiver, _, _ = make_receiver(rig, now=1000)
    rep = receiver.process_frame(frame)
    assert rep.verdict is Verdict.REVOKED
    assert rep.manifest.status == "revoked"


def test_flipped_signature_bit_rejected(rig):
    frame = bytearray(synced_frame(rig, now=1000))
    frame[-1] ^= 0x01  # last signature byte
    receiver, _, _ = make_receiver(rig, now=1000)
    assert receiver.process_frame(bytes(frame)).verdict is Verdict.BAD_ANNOUNCEMENT_SIGNATURE


def test_compromised_attestation_verdict(rig):
    complete_sync(rig["server"], rig["device"], now=1000)
    rig["device"].software.program_memory[3] ^= 0xFF
    frame = rig["device"].announce_now()[0]
    receiver, _, _ = make_receiver(rig, now=1000)
    rep = receiver.process_frame(frame)
    assert rep.verdict is Verdict.COMPROMISED
    assert rep.att_result == 0


def test_payload_bit_flip_soundness(rig):
    frame = synced_frame(rig, now=1000)
    rng = random.Random(11)
    receiver, _, _ = make_receiver(rig, now=1000)
    # Bits of the vendor payload (the announcement) live in the last 116 bytes.
    for _ in range(300):
        buf = bytearray(frame)
        bit = rng.randrange((240 - 116) * 8, 240 * 8)
        buf[bit // 8] ^= 1 << (bit % 8)
        out = receiver.process_frame(bytes(buf))
        if isinstance(out, PresenceReport):
            assert out.verdict is not Verdict.VERIFIED


def test_manifest_cache_avoids_refetch_within_epsilon(rig):
    frame = synced_frame(rig, now=1000)
    receiver, clock, fetcher = make_receiver(rig, now=1000)
    receiver.process_frame(frame)
    assert fetcher.call_count == 1
    clock.now = 1005
    second = rig["device"].announce_now()[0]
    receiver.process_frame(second)
    assert fetcher.call_count == 1
    clock.now = 1020
    rig["device"].clock.ticks_since_sync = 20
    third = rig["device"].announce_now()[0]
    receiver.process_frame(third)
    assert fetcher.call_count == 2


@pytest.fixture
def manifest_work(monkeypatch):
    """Counts manifest parses and manufacturer-signature checks in the receiver."""
    import paisa.receiver as receiver_mod

    counts = {"parse": 0, "verify": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        receiver_mod, "manifest_from_json", counted("parse", receiver_mod.manifest_from_json)
    )
    monkeypatch.setattr(
        receiver_mod, "verify_manifest", counted("verify", receiver_mod.verify_manifest)
    )
    return counts


def frame_at(rig, clock, now):
    """A fresh announcement from the synced rig device at receiver time ``now``."""
    clock.now = now
    rig["device"].clock.ticks_since_sync = now - 1000
    return rig["device"].announce_now()[0]


def test_manifest_parsed_and_verified_once_across_refetch(rig, manifest_work):
    synced_frame(rig, now=1000)
    receiver, clock, fetcher = make_receiver(rig, now=1000)
    for now in (1000, 1003, 1006, 1009, 1020, 1025, 1031, 1045):
        rep = receiver.process_frame(frame_at(rig, clock, now))
        assert rep.verdict is Verdict.VERIFIED
    assert fetcher.call_count == 4
    assert manifest_work == {"parse": 1, "verify": 1}


def test_manifest_resigned_as_revoked_seen_within_one_ttl(rig, manifest_work):
    synced_frame(rig, now=1000)
    receiver, clock, _ = make_receiver(rig, now=1000)
    assert receiver.process_frame(frame_at(rig, clock, 1000)).verdict is Verdict.VERIFIED
    server = rig["server"]
    man = manifest_from_json(server.serve_manifest("/manifests/rig.json"))
    revoked = sign_manifest(dataclasses.replace(man, status="revoked"), server.keys)
    server.manifests["/manifests/rig.json"] = manifest_to_json(revoked)
    rep = receiver.process_frame(frame_at(rig, clock, 1011))
    assert rep.verdict is Verdict.REVOKED
    assert rep.manifest.status == "revoked"
    assert manifest_work == {"parse": 2, "verify": 2}


def test_tampered_manifest_bytes_rejected_after_earlier_verified(rig, manifest_work):
    synced_frame(rig, now=1000)
    receiver, clock, _ = make_receiver(rig, now=1000)
    assert receiver.process_frame(frame_at(rig, clock, 1000)).verdict is Verdict.VERIFIED
    server = rig["server"]
    man = manifest_from_json(server.serve_manifest("/manifests/rig.json"))
    server.manifests["/manifests/rig.json"] = manifest_to_json(
        dataclasses.replace(man, owner_id="mallory")
    )
    for now in (1011, 1015, 1030):
        rep = receiver.process_frame(frame_at(rig, clock, now))
        assert rep.verdict is Verdict.BAD_MANIFEST_SIGNATURE
    assert manifest_work == {"parse": 2, "verify": 2}


def test_malformed_manifest_bytes_parsed_once(rig, manifest_work):
    synced_frame(rig, now=1000)
    rig["server"].manifests["/manifests/rig.json"] = b"{not json"
    receiver, clock, fetcher = make_receiver(rig, now=1000)
    for now in (1000, 1011, 1022):
        rep = receiver.process_frame(frame_at(rig, clock, now))
        assert rep.verdict is Verdict.BAD_MANIFEST_SIGNATURE
        assert rep.manifest is None
    assert fetcher.call_count == 3
    assert manifest_work == {"parse": 1, "verify": 0}


def test_cached_manifest_still_checked_against_pinned_keys(rig, manifest_work):
    from paisa import crypto

    synced_frame(rig, now=1000)
    receiver, clock, _ = make_receiver(
        rig, now=1000, pinned_mfr_keys=frozenset({rig["server"].keys.public_key})
    )
    assert receiver.process_frame(frame_at(rig, clock, 1000)).verdict is Verdict.VERIFIED
    other = crypto.generate_keypair(b"\x66" * 32)
    receiver.cfg.pinned_mfr_keys = frozenset({other.public_key})
    for now in (1003, 1020):
        rep = receiver.process_frame(frame_at(rig, clock, now))
        assert rep.verdict is Verdict.BAD_MANIFEST_SIGNATURE
    assert manifest_work == {"parse": 1, "verify": 1}


def test_duplicate_frame_flagged_within_epsilon(rig):
    frame = synced_frame(rig, now=1000)
    receiver, clock, _ = make_receiver(rig, now=1000)
    first = receiver.process_frame(frame)
    clock.now = 1003
    again = receiver.process_frame(frame)
    assert not first.duplicate
    assert again.duplicate


def test_replay_outside_epsilon_is_stale_not_duplicate(rig):
    frame = synced_frame(rig, now=1000)
    receiver, clock, _ = make_receiver(rig, now=1000)
    receiver.process_frame(frame)
    clock.now = 1011  # epsilon + 1 past the announcement timestamp
    rep = receiver.process_frame(frame)
    assert rep.verdict is Verdict.STALE
    assert not rep.duplicate


# -- dedupe ------------------------------------------------------------------


def rep(verdict, received_at, device_id="aa", duplicate=False):
    return PresenceReport(
        verdict=verdict,
        received_at=received_at,
        announcement_timestamp=received_at,
        att_result=1,
        att_timestamp=received_at,
        device_id=device_id,
        duplicate=duplicate,
    )


def test_dedupe_collapses_same_verdict_runs():
    reports = [rep(Verdict.VERIFIED, t) for t in (0, 5, 10)]
    entries = dedupe(reports, window=10)
    assert entries == [
        DedupeEntry(device_id="aa", verdict=Verdict.VERIFIED, first_seen=0, last_seen=10, count=3)
    ]


def test_dedupe_new_entry_after_gap():
    reports = [rep(Verdict.VERIFIED, 0), rep(Verdict.VERIFIED, 100)]
    assert len(dedupe(reports, window=10)) == 2


def test_dedupe_verdict_change_breaks_run():
    reports = [rep(Verdict.VERIFIED, 0), rep(Verdict.COMPROMISED, 5), rep(Verdict.VERIFIED, 8)]
    verdicts = [e.verdict for e in dedupe(reports, window=10)]
    assert verdicts == [Verdict.VERIFIED, Verdict.COMPROMISED, Verdict.VERIFIED]


def test_dedupe_drops_flagged_duplicates():
    reports = [rep(Verdict.VERIFIED, 0), rep(Verdict.VERIFIED, 1, duplicate=True)]
    entries = dedupe(reports, window=10)
    assert len(entries) == 1 and entries[0].count == 1


def test_dedupe_tracks_devices_independently():
    reports = [rep(Verdict.VERIFIED, 0, "aa"), rep(Verdict.VERIFIED, 1, "bb")]
    assert len(dedupe(reports, window=10)) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("device_type_model", [1, 2]),
        ("sensors", [5]),
        ("full_url", 7),
        ("owner_id", None),
        ("sensors", "pir"),
    ],
)
def test_wrongly_typed_manifest_field_is_bad_manifest_signature(rig, key, value):
    frame = synced_frame(rig, now=1000)
    hosted = rig["server"].manifests
    doc = json.loads(hosted["/manifests/rig.json"])
    doc[key] = value
    hosted["/manifests/rig.json"] = json.dumps(doc).encode()
    receiver, _, _ = make_receiver(rig, now=1000)
    rep = receiver.process_frame(frame)
    assert rep.verdict is Verdict.BAD_MANIFEST_SIGNATURE
    assert rep.manifest is None and rep.device_id is None


def test_unencodable_manifest_string_is_bad_manifest_signature(rig):
    frame = synced_frame(rig, now=1000)
    hosted = rig["server"].manifests
    doc = json.loads(hosted["/manifests/rig.json"])
    doc["owner_id"] = "\ud800"  # a lone surrogate: a JSON string with no UTF-8 form
    hosted["/manifests/rig.json"] = json.dumps(doc).encode()
    receiver, _, _ = make_receiver(rig, now=1000)
    assert receiver.process_frame(frame).verdict is Verdict.BAD_MANIFEST_SIGNATURE


# -- the decode and verify memo -----------------------------------------------

PAYLOAD_START = wire.BEACON_FRAME_LEN - wire.ANNOUNCEMENT_LEN


def memo_receiver(rig, memo, now=1000):
    fetcher = RegistryFetcher(rig["server"].registry, rig["server"].serve_manifest)
    return Receiver(ReceiverConfig(manifest_fetcher=fetcher), FakeClock(now), memo=memo)


def test_memo_never_verifies_a_flipped_payload_bit(rig):
    frame = synced_frame(rig, now=1000)
    memo = OrderedDict()
    receiver = memo_receiver(rig, memo)
    assert receiver.process_frame(frame).verdict is Verdict.VERIFIED

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, wire.ANNOUNCEMENT_LEN * 8 - 1))
    def flipped_never_verifies(bit):
        buf = bytearray(frame)
        buf[PAYLOAD_START + bit // 8] ^= 1 << (bit % 8)
        out = receiver.process_frame(bytes(buf))
        assert not isinstance(out, PresenceReport) or out.verdict is not Verdict.VERIFIED
        assert receiver.process_frame(frame).verdict is Verdict.VERIFIED

    flipped_never_verifies()


def test_memo_rechecks_a_frame_under_a_new_device_key(rig):
    frame = synced_frame(rig, now=1000)
    memo = OrderedDict()
    assert memo_receiver(rig, memo).process_frame(frame).verdict is Verdict.VERIFIED
    # The manufacturer re-provisions the device under a new key: its manifest
    # now vouches for that key, so the old frame no longer verifies.
    server = rig["server"]
    man = manifest_from_json(server.serve_manifest("/manifests/rig.json"))
    new_key = crypto.generate_keypair(b"\x44" * 32).public_key
    resigned = sign_manifest(dataclasses.replace(man, device_public_key=new_key), server.keys)
    server.manifests["/manifests/rig.json"] = manifest_to_json(resigned)
    rep = memo_receiver(rig, memo).process_frame(frame)
    assert rep.verdict is Verdict.BAD_ANNOUNCEMENT_SIGNATURE


def test_memo_is_bounded_and_evicts_the_oldest_first(rig, monkeypatch):
    junk = [i.to_bytes(4, "big") * 60 for i in range(receiver_mod.MEMO_SIZE + 10)]
    memo = OrderedDict()
    receiver = memo_receiver(rig, memo)
    for frame in junk:
        receiver.process_frame(frame)
        assert len(memo) <= receiver_mod.MEMO_SIZE
    assert list(memo) == junk[10:]

    monkeypatch.setattr(receiver_mod, "MEMO_SIZE", 3)
    frame = synced_frame(rig, now=1000)
    memo.clear()
    for data in junk[:2] + [frame]:
        receiver.process_frame(data)
    # A verified frame takes one entry for its decode, then one for its verify.
    assert list(memo)[:2] == [junk[1], frame] and list(memo.values())[2] is True


def test_memo_takes_any_bytes_like_frame(rig):
    frame = synced_frame(rig, now=1000)
    memo = OrderedDict()
    receiver = memo_receiver(rig, memo)
    outs = [receiver.process_frame(d) for d in (bytearray(frame), memoryview(frame), bytearray(240))]
    assert [o.verdict for o in outs] == [Verdict.VERIFIED] * 2 + [wire.BeaconVerdict.NON_BEACON]
    assert list(memo)[0] == frame and len(memo) == 3


def test_memo_decodes_and_verifies_a_repeated_frame_once(rig, monkeypatch):
    frame = synced_frame(rig, now=1000)
    calls = {"decode": 0, "verifies": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(wire, "decode_beacon", counted("decode", wire.decode_beacon))
    monkeypatch.setattr(wire, "verifies", counted("verifies", wire.verifies))
    memo = OrderedDict()
    first, second = memo_receiver(rig, memo), memo_receiver(rig, memo)
    reports = [r.process_frame(frame) for r in (first, second, first)]
    assert [r.verdict for r in reports] == [Verdict.VERIFIED] * 3
    assert [r.duplicate for r in reports] == [False, False, True]
    assert calls == {"decode": 1, "verifies": 1}
    # A receiver without a memo makes its own.
    make_receiver(rig, now=1000)[0].process_frame(frame)
    assert calls == {"decode": 2, "verifies": 2}
