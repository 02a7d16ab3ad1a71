import dataclasses
import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from paisa import crypto, wire
from paisa.device import ATTEST_CHUNK_SIZE, MAX_SYNC_ATTEMPTS, Device, DeviceError, TimerConfig
from paisa.server import ManufacturerServer

from conftest import SeededNonces, complete_sync


def test_timer_config_requires_multiple():
    TimerConfig(t_announce=10, t_attest=10)
    TimerConfig(t_announce=10, t_attest=30)
    with pytest.raises(ValueError):
        TimerConfig(t_announce=10, t_attest=25)
    with pytest.raises(ValueError):
        TimerConfig(t_announce=0, t_attest=10)


def test_provision_outputs_public_key_matching_manifest(rig):
    assert rig["device"].trusted.device_keys.public_key == rig["manifest"].device_public_key


def test_provision_hashes_image_like_external_oracle(rig):
    assert rig["device"].trusted.sw_hash_expected == hashlib.sha256(rig["sw"]).digest()


def test_reprovision_rejected(rig):
    with pytest.raises(DeviceError):
        rig["device"].provision(
            device_id=b"\x08" * 16,
            sw_dev=b"",
            mfr_public_key=b"\x00" * 64,
            short_url="AAAAAAAAAAA",
            full_url="u",
            ts_cur=0,
            timer_config=TimerConfig(10, 10),
        )


def test_sync_req_signature_verifies_against_bumped_ts(rig):
    dev = rig["device"]
    req = dev.make_sync_req()
    preimage = req.device_id + req.n_dev1 + (req.ts_prev + 1).to_bytes(4, "big")
    assert crypto.verify(
        dev.trusted.device_keys.public_key,
        hashlib.sha256(preimage).digest(),
        req.signature,
    )


def test_full_sync_updates_clock_and_ts_prev(rig):
    outcome = complete_sync(rig["server"], rig["device"], now=1_700_000_000)
    assert outcome.committed
    dev = rig["device"]
    assert dev.synced
    assert dev.trusted.ts_prev == 1_700_000_000
    assert dev.clock.now == 1_700_000_000


def test_tampered_sync_resp_changes_nothing(rig):
    dev, server = rig["device"], rig["server"]
    req = dev.make_sync_req()
    resp = server.handle_sync_req(req, now=500)
    tampered = wire.SyncResp(
        resp.device_id, resp.n_dev1, resp.n_svr1, resp.ts_cur + 99, resp.signature
    )
    assert dev.handle_sync_resp(tampered) is None
    assert not dev.synced
    assert dev.trusted.ts_prev == 0


def test_stale_nonce_sync_resp_rejected(rig):
    dev, server = rig["device"], rig["server"]
    old_req = dev.make_sync_req()
    old_resp = server.handle_sync_req(old_req, now=500)
    dev.make_sync_req()  # new boot attempt supersedes the old nonce
    assert dev.handle_sync_resp(old_resp) is None


def test_attest_clean_and_mutated(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=100)
    assert dev.attest().att_result == 1
    dev.software.program_memory[17] ^= 0x01
    assert dev.attest().att_result == 0
    dev.software.program_memory[17] ^= 0x01
    assert dev.attest().att_result == 1


def test_attest_report_timestamp_is_clock_now(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=100)
    dev.clock.ticks_since_sync = 42
    assert dev.attest().att_timestamp == 142


def test_announcement_verifies_end_to_end(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=100)
    msg = dev.make_announcement()
    # The device id the announcement never carries, then its 52 signed bytes.
    preimage = (
        dev.trusted.device_id
        + msg.nonce
        + msg.timestamp.to_bytes(4, "big")
        + msg.short_url.encode("ascii")
        + bytes((msg.att_result,))
        + msg.att_timestamp.to_bytes(4, "big")
    )
    assert wire.encode_announcement(msg)[:52] == preimage[16:]
    assert crypto.verify(
        rig["manifest"].device_public_key,
        hashlib.sha256(preimage).digest(),
        msg.signature,
    )


def test_two_announcements_differ_in_nonce_and_signature(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=100)
    a, b = dev.make_announcement(), dev.make_announcement()
    assert a.nonce != b.nonce
    assert a.signature != b.signature


def test_unsynced_device_cannot_announce(rig):
    with pytest.raises(DeviceError):
        rig["device"].make_announcement()
    assert rig["device"].tick() == []


def test_tick_schedule_counts(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=0)
    frames = dev.announce_now()
    for _ in range(100):
        frames.extend(dev.tick())
    # announcements at ts 0, 10, ..., 100
    assert len(frames) == 11


def test_tick_refreshes_attestation_on_schedule(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=0)
    dev.announce_now()
    dev.software.program_memory[0] ^= 0xFF
    reports = []
    for _ in range(60):
        for frame in dev.tick():
            reports.append(wire.decode_beacon(frame).msg)
    # t_attest=30: announcements at 10 and 20 still carry the t=0 report,
    # the attest at 30 notices the mutation.
    assert [(m.att_result, m.att_timestamp) for m in reports] == [
        (1, 0), (1, 0), (0, 30), (0, 30), (0, 30), (0, 60)
    ]


def test_compromise_never_changes_cadence(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=0)
    frames = dev.announce_now()
    dev.software.program_memory[:] = b"\x00" * len(dev.software.program_memory)
    for _ in range(100):
        frames.extend(dev.tick())
    assert len(frames) == 11


def test_consecutive_announcements_step_by_t_announce(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=5)
    stamps = []
    for _ in range(40):
        for frame in dev.tick():
            stamps.append(wire.decode_beacon(frame).msg.timestamp)
    assert stamps == [10, 20, 30, 40]


def test_private_key_never_in_emitted_bytes(rig):
    dev = rig["device"]
    complete_sync(rig["server"], dev, now=0)
    sk = dev.trusted.device_keys.private_key
    blobs = [wire.encode_sync_message(dev.make_sync_req())]
    blobs.extend(dev.announce_now())
    for _ in range(30):
        blobs.extend(dev.tick())
    for blob in blobs:
        assert sk not in blob
        assert sk.hex().encode() not in blob


# -- a wake equals the ticks it skips ----------------------------------------

TWIN_MFR = crypto.generate_keypair(b"\x55" * 32)
TWIN_IMAGE = bytes(range(256)) * 2


def synced_twin(timer, ts):
    """A device synced at ``ts``; two calls give twins, alike in every key,
    nonce and byte of memory."""
    dev = Device(nonce_source=SeededNonces(11))
    dev.provision(
        device_id=b"\x02" * 16, sw_dev=TWIN_IMAGE, mfr_public_key=TWIN_MFR.public_key,
        short_url="AAAAAAAAAAA", full_url="https://mfr.example/twin.json", ts_cur=0,
        timer_config=timer, key_seed=b"\x66" * 32,
    )
    req = dev.make_sync_req()
    resp = wire.signed(wire.SyncResp, TWIN_MFR.private_key, req.device_id, req.n_dev1, bytes(32), ts)
    assert dev.handle_sync_resp(resp) is not None
    return dev


@settings(max_examples=100, deadline=None)
@given(
    t_announce=st.integers(1, 10),
    multiple=st.integers(1, 4),
    ts=st.integers(0, 100),
    # Per wake: how far into the gap before it the ticked twin's memory is
    # written, and the writes as (address, byte).
    steps=st.lists(
        st.tuples(st.integers(0, 39), st.lists(st.tuples(st.integers(0, 511), st.integers(0, 255)), max_size=3)),
        max_size=12,
    ),
)
def test_a_wake_equals_ticking_every_second_to_the_boundary(t_announce, multiple, ts, steps):
    timer = TimerConfig(t_announce, t_announce * multiple)
    woken, ticked = synced_twin(timer, ts), synced_twin(timer, ts)
    assert woken.announce_now() == ticked.announce_now()
    for at, writes in steps:
        gap = woken.next_announce - woken.clock.now
        frames = []
        for second in range(gap):
            if second == at % gap:
                for address, value in writes:
                    ticked.software.program_memory[address] = value
            frames.extend(ticked.tick())
        for address, value in writes:
            woken.software.program_memory[address] = value
        assert woken.wake() == frames and len(frames) == 1
        assert woken.clock == ticked.clock
        assert woken._last_report == ticked._last_report


def link_to(server, now, lose=()):
    """A blocking datagram link to ``server``: every datagram is handled at
    ``now``; the replies to the sends numbered in ``lose`` (from 1) are lost."""
    outcomes = []

    def send(data):
        outcomes.append(server.handle_datagram(data, now))

    def recv(timeout):
        return None if len(outcomes) in lose else outcomes[-1].reply

    return send, recv, outcomes


def test_boot_with_transport_retries(rig):
    dev, server = rig["device"], rig["server"]
    send, recv, outcomes = link_to(server, now=50, lose={1})
    frames = dev.boot(send, recv)
    assert dev.synced
    assert [o.event for o in outcomes] == ["sync_resp", "sync_resp", "sync_commit"]
    assert server.records[dev.trusted.device_id].latest_ts == dev.trusted.ts_prev == 50
    assert len(frames) == 1


def test_boot_drops_garbage_and_unexpected_replies(rig):
    dev, server = rig["device"], rig["server"]
    send, link_recv, outcomes = link_to(server, now=70)

    def recv(timeout):
        reply = link_recv(timeout)
        if len(outcomes) == 1:
            return b"\x02garbage"
        if len(outcomes) == 2:
            return bytes((wire.SYNC_ACK_TAG,)) + reply[1:]  # a SyncResp retagged
        return reply

    assert len(dev.boot(send, recv)) == 1
    assert [o.event for o in outcomes] == ["sync_resp"] * 3 + ["sync_commit"]
    assert server.records[dev.trusted.device_id].latest_ts == 70


def test_handle_sync_datagram_names_each_outcome_as_the_simulator_log(rig):
    dev, server = rig["device"], rig["server"]

    def handle(data):
        outcome = dev.handle_sync_datagram(data)
        assert not outcome.committed
        return outcome.event, outcome.fields(), outcome.reply

    assert handle(b"") == ("device_discard", {"reason": "empty datagram"}, None)
    req = dev.make_sync_req()
    assert handle(wire.encode_sync_message(req)) == (
        "device_discard", {"reason": "unexpected_message"}, None
    )
    resp = server.handle_sync_req(req, now=10)
    wrong_nonce = dataclasses.replace(resp, n_dev1=bytes(wire.NONCE_LEN))
    assert handle(wire.encode_sync_message(wrong_nonce)) == ("device_sync_retry", {}, None)
    assert not dev.synced
    event, fields, reply = handle(wire.encode_sync_message(resp))
    assert (event, fields, dev.synced) == ("device_synced", {}, True)
    ack = wire.decode_sync_message(reply)
    assert isinstance(ack, wire.SyncAck) and ack.n_svr1 == resp.n_svr1
    # No request is pending once synced, so even the same response is retried.
    assert handle(wire.encode_sync_message(resp)) == ("device_sync_retry", {}, None)
    commit = server.handle_datagram(reply, 10)
    assert commit.committed and commit.event == "sync_commit"


def test_boot_unreachable_server_stays_silent():
    dev = Device(nonce_source=SeededNonces(1))
    dev.provision(
        device_id=b"\x01" * 16,
        sw_dev=b"\x00" * 128,
        mfr_public_key=crypto.generate_keypair(b"\x44" * 32).public_key,
        short_url="AAAAAAAAAAA",
        full_url="https://mfr.example/x.json",
        ts_cur=0,
        timer_config=TimerConfig(10, 10),
    )
    sent, waits = [], []

    def recv(timeout):
        waits.append(timeout)
        return None

    assert dev.boot(sent.append, recv) == []
    assert len(sent) == MAX_SYNC_ATTEMPTS
    assert waits == [2, 4, 8, 16, 32]
    assert dev.sync_attempts == MAX_SYNC_ATTEMPTS
    assert dev.next_sync_attempt() is None
    assert not dev.synced
    assert dev.tick() == []


# -- state file --------------------------------------------------------------


def test_state_round_trips_and_the_copy_syncs(rig):
    dev, server = rig["device"], rig["server"]
    complete_sync(server, dev, now=100)
    doc = json.loads(json.dumps(dev.export_state()))
    copy = Device.from_state(doc, rig["sw"], nonce_source=SeededNonces(3))
    assert copy.trusted == dev.trusted
    assert copy.software.program_memory == dev.software.program_memory
    assert copy.export_state() == doc
    assert not copy.synced
    assert complete_sync(server, copy, now=200).committed
    assert copy.attest().att_result == 1


def test_state_keeps_the_provisioned_file_format(rig):
    assert list(rig["device"].export_state()) == [
        "device_id", "private_key", "public_key", "mfr_public_key", "short_url",
        "full_url", "sw_hash", "ts_prev", "t_announce", "t_attest",
    ]


DROP = object()


@pytest.mark.parametrize(
    "change",
    [
        {"device_id": "07" * 15},  # the length provision checks
        {"device_id": "not hex"},
        {"sw_hash": DROP},
        {"private_key": 7},
        {"private_key": "00" * 31},
        {"private_key": "00" * 32},  # scalar 0
        {"private_key": f"{crypto.CURVE_ORDER:064x}"},  # scalar n
        {"ts_prev": "0"},
        {"ts_prev": True},
        {"ts_prev": 2**32},  # wider than the 4-byte wire field
        {"ts_prev": -1},
        {"t_announce": 0},
        {"t_attest": 25},  # not a multiple of t_announce
        {"t_announce": 10.0},
        {"full_url": DROP},
    ],
    ids=lambda c: ",".join(f"{k}={'missing' if v is DROP else v!r}" for k, v in c.items()),
)
def test_from_state_rejects_malformed_fields(rig, change):
    doc = {**rig["device"].export_state(), **change}
    doc = {k: v for k, v in doc.items() if v is not DROP}
    with pytest.raises(DeviceError):
        Device.from_state(doc, rig["sw"])


@pytest.mark.parametrize("doc", [[], "state", None, {}])
def test_from_state_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(DeviceError):
        Device.from_state(doc, b"")


# -- program memory ----------------------------------------------------------


def peak_allocated(fn):
    """The peak bytes that Python allocates while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def provision_kwargs(image):
    return dict(
        device_id=b"\x05" * 16, sw_dev=image, mfr_public_key=b"\x00" * 64,
        short_url="AAAAAAAAAAA", full_url="u", ts_cur=0,
        timer_config=TimerConfig(10, 10), key_seed=b"\x06" * 32,
    )


_template = Device()
_template.provision(**provision_kwargs(b""))
STATE_TEMPLATE = _template.export_state()
MB_IMAGE = random.Random(11).randbytes(1 << 20)
MB_STATE = {**STATE_TEMPLATE, "sw_hash": hashlib.sha256(MB_IMAGE).hexdigest()}


def test_registering_a_bytes_image_does_not_copy_it():
    server = ManufacturerServer(crypto.generate_keypair(b"\x33" * 32), nonce_source=SeededNonces(1))
    dev = Device(nonce_source=SeededNonces(2))
    peak = peak_allocated(lambda: server.register_device(
        device=dev,
        device_id=b"\x09" * 16,
        sw_dev=MB_IMAGE,
        full_url="https://mfr.example/manifests/big.json",
        ts_cur=0,
        timer_config=TimerConfig(10, 30),
        key_seed=b"\x44" * 32,
    ))
    assert peak < 256 << 10
    assert dev.software.contents is MB_IMAGE


def test_loading_a_bytes_image_from_state_does_not_copy_it():
    loaded = []
    assert peak_allocated(lambda: loaded.append(Device.from_state(MB_STATE, MB_IMAGE))) < 256 << 10
    assert loaded[0].attest().att_result == 1


def test_attesting_an_untouched_image_does_not_copy_it():
    dev = Device.from_state(MB_STATE, MB_IMAGE)
    assert peak_allocated(dev.attest) < 64 << 10
    assert dev.software.contents is MB_IMAGE


_INDEXED = (st.integers(0, 1 << 16), st.integers(0, 255))
MEMORY_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("caller_write"), *_INDEXED),
        st.tuples(st.just("adversary_write"), *_INDEXED),
        st.tuples(st.just("restore")),
        st.tuples(st.just("attest")),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    image=st.binary(min_size=1, max_size=3 * ATTEST_CHUNK_SIZE + 1),
    kind=st.sampled_from(["bytes", "bytearray", "memoryview"]),
    via=st.sampled_from(["provision", "from_state"]),
    actions=MEMORY_ACTIONS,
)
def test_device_memory_follows_a_reference_model(image, kind, via, actions):
    """The device owns its memory: only writes through ``program_memory``
    reach it, and every attestation measures exactly what is there."""
    caller_buffer = bytearray(image)
    given_image = {
        "bytes": bytes(caller_buffer),
        "bytearray": caller_buffer,
        "memoryview": memoryview(caller_buffer),
    }[kind]
    expected = hashlib.sha256(image).digest()
    if via == "provision":
        dev = Device()
        dev.provision(**provision_kwargs(given_image))
    else:
        dev = Device.from_state({**STATE_TEMPLATE, "sw_hash": expected.hex()}, given_image)
    model = bytearray(image)
    for action, *args in actions + [("attest",)]:
        if action == "caller_write":
            caller_buffer[args[0] % len(caller_buffer)] = args[1]
        elif action == "adversary_write":
            dev.software.program_memory[args[0] % len(model)] = args[1]
            model[args[0] % len(model)] = args[1]
        elif action == "restore":  # as the simulator restores a compromised device
            dev.software.program_memory[:] = image
            model[:] = image
        else:
            report = dev.attest()
            assert report.att_result == (hashlib.sha256(model).digest() == expected)
        assert dev.software.contents == model
