import dataclasses
import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from paisa import crypto, wire
from paisa.device import Device, DeviceError, TimerConfig
from paisa.manifest import ManifestError, manifest_from_json, verify_manifest
from paisa.server import DeviceDescription, ManufacturerServer, ServerError

from conftest import SeededNonces, complete_sync


def test_register_duplicate_device_id_rejected(rig):
    with pytest.raises(ServerError):
        rig["server"].register_device(
            device=Device(nonce_source=SeededNonces(1)),
            device_id=b"\x07" * 16,
            sw_dev=b"",
            full_url="https://mfr.example/manifests/dup.json",
            ts_cur=0,
            timer_config=TimerConfig(10, 10),
        )


@pytest.mark.parametrize(
    "full_url",
    ["https://mfr.example/manifests/rig.json", "https://other.example/manifests/rig.json"],
    ids=["same_url", "same_path"],
)
def test_register_refuses_a_full_url_in_use(rig, full_url):
    server = rig["server"]
    served = server.serve_manifest("/manifests/rig.json")
    with pytest.raises(ServerError, match="in use"):
        server.register_device(
            device=Device(nonce_source=SeededNonces(1)),
            device_id=b"\x08" * 16,
            sw_dev=b"other",
            full_url=full_url,
            ts_cur=0,
            timer_config=TimerConfig(10, 10),
        )
    assert list(server.records) == [b"\x07" * 16]
    assert server.serve_manifest("/manifests/rig.json") == served
    assert list(server.registry.to_dict()) == [rig["device"].trusted.short_url]


def test_served_manifest_bytes_verify(rig):
    data = rig["server"].serve_manifest("/manifests/rig.json")
    assert data is not None
    man = manifest_from_json(data)
    assert verify_manifest(man)
    assert man.manufacturer_public_key == rig["server"].keys.public_key


def test_serve_unknown_path_returns_none(rig):
    assert rig["server"].serve_manifest("/manifests/nope.json") is None


def test_three_way_exchange_advances_latest_ts(rig):
    assert rig["record"].latest_ts == 0
    outcome = complete_sync(rig["server"], rig["device"], now=123)
    assert outcome.committed
    assert rig["record"].latest_ts == 123


def test_unknown_device_rejected(rig):
    req = wire.SyncReq(b"\xEE" * 16, b"\x00" * 32, 0, b"\x00" * 64)
    result = rig["server"].handle_sync_req(req, now=5)
    assert result.event == "sync_reject"
    assert result.reason == "unknown_device"


def test_wrong_ts_prev_rejected_before_signature_check(rig):
    dev = rig["device"]
    req = dev.make_sync_req()
    bad = wire.SyncReq(req.device_id, req.n_dev1, req.ts_prev + 7, req.signature)
    result = rig["server"].handle_sync_req(bad, now=5)
    assert result.event == "sync_reject"
    assert result.reason == "timestamp_mismatch"


def test_forged_req_signature_rejected(rig):
    req = rig["device"].make_sync_req()
    sig = bytearray(req.signature)
    sig[0] ^= 0x01
    result = rig["server"].handle_sync_req(
        wire.SyncReq(req.device_id, req.n_dev1, req.ts_prev, bytes(sig)), now=5
    )
    assert result.event == "sync_reject"
    assert result.reason == "bad_signature"


def test_replayed_sync_req_rejected_after_commit(rig):
    dev, server = rig["device"], rig["server"]
    req = dev.make_sync_req()
    resp = server.handle_sync_req(req, now=40)
    ack = dev.handle_sync_resp(resp)
    assert server.handle_sync_ack(ack, now=40).committed
    # The captured request carries ts_prev=0, but latest_ts is now 40.
    result = server.handle_sync_req(req, now=45)
    assert result.event == "sync_reject"
    assert result.reason == "timestamp_mismatch"
    assert rig["record"].latest_ts == 40


def test_replayed_sync_ack_rejected_session_one_shot(rig):
    dev, server = rig["device"], rig["server"]
    req = dev.make_sync_req()
    resp = server.handle_sync_req(req, now=40)
    ack = dev.handle_sync_resp(resp)
    assert server.handle_sync_ack(ack, now=40).committed
    replay = server.handle_sync_ack(ack, now=41)
    assert not replay.committed
    assert replay.reason == "unknown_session"
    assert rig["record"].latest_ts == 40


def test_ack_with_wrong_device_rejected(rig):
    dev, server = rig["device"], rig["server"]
    resp = server.handle_sync_req(dev.make_sync_req(), now=40)
    ack = dev.handle_sync_resp(resp)
    wrong = wire.SyncAck(b"\xEE" * 16, ack.n_dev2, ack.n_svr1, ack.ts_prev, ack.signature)
    outcome = server.handle_sync_ack(wrong, now=40)
    assert not outcome.committed and outcome.reason == "device_mismatch"


def test_ack_with_wrong_timestamp_rejected(rig):
    dev, server = rig["device"], rig["server"]
    resp = server.handle_sync_req(dev.make_sync_req(), now=40)
    ack = dev.handle_sync_resp(resp)
    wrong = wire.SyncAck(ack.device_id, ack.n_dev2, ack.n_svr1, ack.ts_prev + 1, ack.signature)
    outcome = server.handle_sync_ack(wrong, now=40)
    assert not outcome.committed and outcome.reason == "timestamp_mismatch"
    assert rig["record"].latest_ts == 0


def test_ack_with_forged_signature_rejected(rig):
    dev, server = rig["device"], rig["server"]
    resp = server.handle_sync_req(dev.make_sync_req(), now=40)
    ack = dev.handle_sync_resp(resp)
    sig = bytearray(ack.signature)
    sig[10] ^= 0x80
    outcome = server.handle_sync_ack(
        wire.SyncAck(ack.device_id, ack.n_dev2, ack.n_svr1, ack.ts_prev, bytes(sig)),
        now=40,
    )
    assert not outcome.committed and outcome.reason == "bad_signature"
    assert rig["record"].latest_ts == 0


def test_session_expires_after_ttl(rig):
    dev, server = rig["device"], rig["server"]
    resp = server.handle_sync_req(dev.make_sync_req(), now=40)
    ack = dev.handle_sync_resp(resp)
    outcome = server.handle_sync_ack(ack, now=40 + server.session_ttl + 1)
    assert not outcome.committed and outcome.reason == "unknown_session"


def test_latest_ts_is_monotone(rig):
    dev, server = rig["device"], rig["server"]
    assert complete_sync(server, dev, now=100).committed
    assert rig["record"].latest_ts == 100
    assert complete_sync(server, dev, now=100).committed
    assert rig["record"].latest_ts == 100


def test_server_nonces_unique_across_sessions(rig):
    dev, server = rig["device"], rig["server"]
    seen = set()
    for now in (10, 20, 30):
        resp = server.handle_sync_req(dev.make_sync_req(), now=now)
        seen.add(resp.n_svr1)
        ack = dev.handle_sync_resp(resp)
        assert server.handle_sync_ack(ack, now=now).committed
    assert len(seen) == 3


def test_rejection_leaves_records_untouched(rig):
    server = rig["server"]
    before = dataclasses.replace(rig["record"])
    server.handle_sync_req(wire.SyncReq(b"\xEE" * 16, b"\x00" * 32, 0, b"\x00" * 64), now=5)
    server.handle_sync_ack(
        wire.SyncAck(b"\x07" * 16, b"\x00" * 32, b"\x00" * 32, 0, b"\x00" * 64), now=5
    )
    assert rig["record"] == before


def test_persistence_roundtrip(tmp_path):
    store = str(tmp_path / "server.json")
    nonces = SeededNonces(3)
    server = ManufacturerServer(
        crypto.generate_keypair(b"\x55" * 32), store_path=store, nonce_source=nonces
    )
    device = Device(nonce_source=nonces)
    server.register_device(
        device=device,
        device_id=b"\x09" * 16,
        sw_dev=b"\xAB" * 4096,
        full_url="https://mfr.example/manifests/persist.json",
        ts_cur=0,
        timer_config=TimerConfig(5, 5),
        description=DeviceDescription(owner_id="owner-9"),
    )
    assert complete_sync(server, device, now=77).committed

    reloaded = ManufacturerServer.load(store, nonce_source=SeededNonces(4))
    assert reloaded.records[b"\x09" * 16].latest_ts == 77
    assert reloaded.serve_manifest("/manifests/persist.json") == server.serve_manifest(
        "/manifests/persist.json"
    )
    # A stale request against the reloaded server is rejected by state, and a
    # fresh exchange succeeds.
    stale = device.make_sync_req()
    wrong = wire.SyncReq(stale.device_id, stale.n_dev1, 0, stale.signature)
    assert reloaded.handle_sync_req(wrong, now=80).reason == "timestamp_mismatch"
    resp = reloaded.handle_sync_req(stale, now=80)
    ack = device.handle_sync_resp(resp)
    assert reloaded.handle_sync_ack(ack, now=80).committed
    assert reloaded.records[b"\x09" * 16].latest_ts == 80


def test_sync_resp_signature_binds_all_fields(rig):
    dev, server = rig["device"], rig["server"]
    req = dev.make_sync_req()
    resp = server.handle_sync_req(req, now=40)
    preimage = resp.device_id + resp.n_dev1 + resp.n_svr1 + resp.ts_cur.to_bytes(4, "big")
    assert crypto.verify(
        server.keys.public_key, hashlib.sha256(preimage).digest(), resp.signature
    )


def _store_rig(store, n):
    """A server with ``n`` provisioned devices, store-backed when ``store`` is a path."""
    nonces = SeededNonces(17)
    server = ManufacturerServer(
        crypto.generate_keypair(b"\x66" * 32), store_path=store, nonce_source=nonces
    )
    devices = []
    for i in range(n):
        device = Device(nonce_source=nonces)
        server.register_device(
            device=device,
            device_id=bytes([i + 1]) * 16,
            sw_dev=bytes([i]) * 4096,
            full_url=f"https://mfr.example/manifests/store-{i}.json",
            ts_cur=0,
            timer_config=TimerConfig(5, 5),
        )
        devices.append(device)
    return server, devices


def _register(server, i, full_url=None, device_id=None):
    """Register device ``i`` of a store test with a deterministic key."""
    device = Device(nonce_source=SeededNonces(100 + i))
    server.register_device(
        device=device,
        device_id=device_id if device_id is not None else bytes([i + 1]) * 16,
        sw_dev=bytes([i]) * 64,
        full_url=full_url or f"https://mfr.example/manifests/store-{i}.json",
        ts_cur=0,
        timer_config=TimerConfig(5, 5),
        key_seed=bytes([i]) * 32,
    )
    return device


def _server_state(server):
    """Everything a reload must restore: records, served manifests, registry."""
    records = {did: dataclasses.replace(r) for did, r in server.records.items()}
    served = {r.manifest_path: server.serve_manifest(r.manifest_path) for r in records.values()}
    registry = {key: server.registry.resolve(key) for key in server.registry.to_dict()}
    return records, served, dict(server.manifests), registry


@pytest.mark.parametrize(
    "device_id, full_url, error",
    [
        (b"\x0f" * 15, None, DeviceError),
        (b"\x01" * 16, None, ServerError),
        (None, "https://mfr.example/manifests/store-0.json", ServerError),
    ],
    ids=["short_device_id", "known_device_id", "full_url_in_use"],
)
def test_failed_registration_leaves_no_state_behind(tmp_path, device_id, full_url, error):
    store = str(tmp_path / "server.json")
    server, _ = _store_rig(store, n=2)
    state = _server_state(server)
    with open(store, "rb") as f:
        before = f.read()
    with pytest.raises(error):
        _register(server, 5, full_url=full_url, device_id=device_id)
    assert _server_state(server) == state
    with open(store, "rb") as f:
        assert f.read() == before
    # Nothing of it reaches the next snapshot either.
    server._persist()
    assert _server_state(ManufacturerServer.load(store)) == state


@pytest.mark.parametrize(
    "description",
    [DeviceDescription(owner_id="\ud800"), DeviceDescription(sensors=("pir", "\udfff"))],
    ids=["owner_id", "sensor"],
)
def test_registration_refused_by_its_manifest_leaves_the_device_unprovisioned(tmp_path, description):
    # A lone surrogate has no UTF-8 form, so no manifest can sign it.
    store = str(tmp_path / "server.json")
    server, _ = _store_rig(store, n=2)
    state = _server_state(server)
    with open(store, "rb") as f:
        before = f.read()
    device = Device(nonce_source=SeededNonces(9))
    register = dict(
        device=device,
        device_id=b"\x09" * 16,
        sw_dev=b"\x00" * 64,
        full_url="https://mfr.example/manifests/store-9.json",
        ts_cur=0,
        timer_config=TimerConfig(5, 5),
    )
    with pytest.raises(ManifestError):
        server.register_device(**register, description=description)
    assert device.trusted is None
    assert _server_state(server) == state
    with open(store, "rb") as f:
        assert f.read() == before
    # The same device then registers with a description its manifest can hold.
    man, _ = server.register_device(**register, description=DeviceDescription())
    assert device.trusted.device_keys.public_key == man.device_public_key


def test_ack_for_session_past_ttl_rejected_even_after_clock_step_back():
    server, devices = _store_rig(None, n=2)
    ttl = server.session_ttl
    first, second = devices
    resp_a = server.handle_sync_req(first.make_sync_req(), now=1000)
    # The clock steps back: this session is issued after, but older than, A.
    resp_b = server.handle_sync_req(second.make_sync_req(), now=500)
    ack_a, ack_b = first.handle_sync_resp(resp_a), second.handle_sync_resp(resp_b)
    late = server.handle_sync_ack(ack_b, now=1000 + ttl)
    assert not late.committed and late.reason == "unknown_session"
    assert server.records[ack_b.device_id].latest_ts == 0
    assert server.handle_sync_ack(ack_a, now=1000 + ttl).committed
    assert server.records[ack_a.device_id].latest_ts == 1000


def test_pending_sessions_stay_bounded_over_a_long_storm(rig):
    dev, server = rig["device"], rig["server"]
    for now in range(5 * server.session_ttl):
        assert isinstance(server.handle_sync_req(dev.make_sync_req(), now=now), wire.SyncResp)
        assert len(server._sessions) <= server.session_ttl + 1


# -- the store file: snapshot plus journal of registrations and commits -----


def _latest(server):
    return {did: r.latest_ts for did, r in server.records.items()}


def _journal(store):
    with open(store, encoding="utf-8") as f:
        return f.read().split("\n")[1:-1]


def test_store_replays_journal_of_commits(tmp_path):
    store = str(tmp_path / "server.json")
    server, devices = _store_rig(store, n=3)
    server._persist()  # compact the registration lines
    journal_lengths = []
    for k in range(8):
        assert complete_sync(server, devices[k % 3], now=10 * (k + 1)).committed
        journal_lengths.append(len(_journal(store)))
        reloaded = ManufacturerServer.load(store)
        assert _latest(reloaded) == _latest(server)
    # Three records: three appends, then a compaction, and again.
    assert journal_lengths == [1, 2, 3, 0, 1, 2, 3, 0]


def test_store_commit_after_reload_appends_to_the_journal(tmp_path):
    store = str(tmp_path / "server.json")
    server, devices = _store_rig(store, n=3)
    server._persist()  # compact the registration lines
    reloaded = ManufacturerServer.load(store)
    assert complete_sync(reloaded, devices[1], now=42).committed
    assert _journal(store) == ['{"device_id":"%s","latest_ts":42}' % ("02" * 16)]
    assert _latest(ManufacturerServer.load(store)) == _latest(reloaded)


def test_store_drops_a_torn_last_line(tmp_path):
    store = str(tmp_path / "server.json")
    server, devices = _store_rig(store, n=2)
    assert complete_sync(server, devices[0], now=30).committed
    with open(store, "a", encoding="utf-8") as f:
        f.write('{"device_id":"%s","latest_ts":9' % ("02" * 16))
    reloaded = ManufacturerServer.load(store)
    assert _latest(reloaded) == _latest(server)
    # The first commit after a torn line rewrites the store rather than
    # appending to the torn bytes.
    assert complete_sync(reloaded, devices[1], now=40).committed
    assert _journal(store) == []
    assert _latest(ManufacturerServer.load(store)) == _latest(reloaded)


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "",
        '{"device_id":"%s","latest_ts":5}' % ("ee" * 16),
        '{"device_id":"zz","latest_ts":5}',
        '{"latest_ts":5}',
        '{"device_id":"%s","latest_ts":"5"}' % ("01" * 16),
        "[1, 2]",
    ],
)
def test_store_rejects_a_corrupt_terminated_line(tmp_path, line):
    store = str(tmp_path / "server.json")
    server, devices = _store_rig(store, n=2)
    assert complete_sync(server, devices[0], now=30).committed
    with open(store, "a", encoding="utf-8") as f:
        f.write(line + "\n")
    with pytest.raises(ServerError):
        ManufacturerServer.load(store)


@pytest.mark.parametrize("latest_ts", ["5", 5.0, None, True], ids=["str", "float", "null", "bool"])
def test_store_rejects_a_snapshot_record_without_integer_latest_ts(tmp_path, latest_ts):
    store = str(tmp_path / "server.json")
    server, _ = _store_rig(store, n=2)
    server._persist()  # compact the registration line, so line 1 holds both records
    with open(store, encoding="utf-8") as f:
        doc = json.loads(f.readline())
    doc["records"][1]["latest_ts"] = latest_ts
    with open(store, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc) + "\n")
    with pytest.raises(ServerError, match="latest_ts") as exc:
        ManufacturerServer.load(store)
    assert store in str(exc.value)


def test_store_in_indented_single_document_format_loads_unchanged(tmp_path):
    store = str(tmp_path / "server.json")
    server, devices = _store_rig(store, n=2)
    server._persist()
    with open(store, encoding="utf-8") as f:
        doc = json.loads(f.readline())
    old = str(tmp_path / "old.json")
    with open(old, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    reloaded = ManufacturerServer.load(old)
    assert reloaded.keys == server.keys
    assert reloaded.records == server.records
    assert reloaded.manifests == server.manifests
    assert reloaded.registry.to_dict() == server.registry.to_dict()
    # The first commit rewrites it as a snapshot, which loads back.
    assert complete_sync(reloaded, devices[0], now=12).committed
    assert _latest(ManufacturerServer.load(old)) == _latest(reloaded)


def test_store_compaction_bounds_the_journal(tmp_path):
    store = str(tmp_path / "server.json")
    n = 4
    server, devices = _store_rig(store, n=n)
    longest = 0
    for k in range(3 * n):
        assert complete_sync(server, devices[k % n], now=1000 + k).committed
        with open(store, encoding="utf-8") as f:
            snapshot = f.readline()
            lines = f.read().splitlines(keepends=True)
        longest = max([longest] + [len(line) for line in lines])
        assert len(lines) <= n
        assert os.path.getsize(store) <= len(snapshot) + n * longest
    assert _latest(ManufacturerServer.load(store)) == _latest(server)


def test_rejected_sync_leaves_store_file_byte_identical(tmp_path):
    store = str(tmp_path / "server.json")
    server, devices = _store_rig(store, n=2)
    dev = devices[0]
    assert complete_sync(server, dev, now=20).committed
    with open(store, "rb") as f:
        before = f.read()

    def unchanged():
        with open(store, "rb") as f:
            return f.read() == before

    req = dev.make_sync_req()
    bad_sig = bytearray(req.signature)
    bad_sig[0] ^= 0x01
    for forged in (
        wire.SyncReq(b"\xEE" * 16, req.n_dev1, req.ts_prev, req.signature),
        wire.SyncReq(req.device_id, req.n_dev1, req.ts_prev + 1, req.signature),
        wire.SyncReq(req.device_id, req.n_dev1, req.ts_prev, bytes(bad_sig)),
    ):
        assert server.handle_sync_req(forged, now=30).event == "sync_reject"
        assert unchanged()

    ack = dev.handle_sync_resp(server.handle_sync_req(req, now=30))
    bad_sig = bytearray(ack.signature)
    bad_sig[0] ^= 0x01
    for forged, now in (
        (wire.SyncAck(ack.device_id, ack.n_dev2, b"\x00" * 32, ack.ts_prev, ack.signature), 30),
        (wire.SyncAck(b"\xEE" * 16, ack.n_dev2, ack.n_svr1, ack.ts_prev, ack.signature), 30),
        (wire.SyncAck(ack.device_id, ack.n_dev2, ack.n_svr1, ack.ts_prev + 1, ack.signature), 30),
        (wire.SyncAck(ack.device_id, ack.n_dev2, ack.n_svr1, ack.ts_prev, bytes(bad_sig)), 30),
        (ack, 30 + server.session_ttl + 1),
    ):
        assert not server.handle_sync_ack(forged, now=now).committed
        assert unchanged()


def test_handle_datagram_names_each_outcome_as_the_simulator_log(rig):
    dev, server = rig["device"], rig["server"]

    def handle(data, now):
        outcome = server.handle_datagram(data, now)
        return outcome.event, outcome.fields()

    assert handle(b"", 10) == ("server_discard", {"reason": "empty datagram"})
    req = wire.encode_sync_message(dev.make_sync_req())
    stranger = dataclasses.replace(wire.decode_sync_message(req), device_id=b"\x09" * 16)
    assert handle(wire.encode_sync_message(stranger), 10) == (
        "sync_reject", {"reason": "unknown_device", "latest_ts": None}
    )
    resp = server.handle_datagram(req, 10)
    assert (resp.event, resp.fields()) == ("sync_resp", {"latest_ts": 0})
    assert handle(resp.reply, 10) == ("server_discard", {"reason": "unexpected_message"})
    ack = dev.handle_sync_datagram(resp.reply).reply
    commit = server.handle_datagram(ack, 10)
    assert (commit.reply, commit.event, commit.fields()) == (None, "sync_commit", {"latest_ts": 10})
    assert handle(ack, 11) == ("sync_ack_reject", {"reason": "unknown_session", "latest_ts": 10})
    assert handle(req, 11) == ("sync_reject", {"reason": "timestamp_mismatch", "latest_ts": 10})


def _read(store):
    with open(store, "rb") as f:
        return f.read()


def test_store_registration_appends_one_line(tmp_path):
    store = str(tmp_path / "server.json")
    server = ManufacturerServer(
        crypto.generate_keypair(b"\x66" * 32), store_path=store, nonce_source=SeededNonces(8)
    )
    devices = []
    for i in range(8):
        before = _read(store) if devices else b""
        devices.append(_register(server, i))
        after = _read(store)
        # The first write is a snapshot; every later registration appends,
        # also right after a commit that compacted.
        assert after.startswith(before)
        assert after.count(b"\n") == before.count(b"\n") + 1
        if i % 2:
            assert complete_sync(server, devices[0], now=10 * i).committed
    assert _server_state(ManufacturerServer.load(store)) == _server_state(server)


def test_store_bytes_written_by_registrations_grow_linearly(tmp_path):
    store = str(tmp_path / "server.json")
    server = ManufacturerServer(
        crypto.generate_keypair(b"\x66" * 32), store_path=store, nonce_source=SeededNonces(9)
    )
    before, written = b"", []
    for i in range(64):
        _register(server, i)
        after = _read(store)
        # An append writes its growth; a rewrite writes the whole file.
        written.append(len(after) - len(before) if after.startswith(before) else len(after))
        before = after
    assert sum(written) == len(after)
    assert max(written[1:]) < 2 * min(written[1:])


_OPS = st.lists(
    st.one_of(
        st.just(("register",)),
        st.tuples(st.just("commit"), st.integers(0, 7)),
        st.just(("reload",)),
    ),
    max_size=12,
)


@settings(max_examples=30, deadline=None)
@given(_OPS)
def test_store_cut_at_any_line_loads_the_state_of_its_last_complete_line(ops):
    with tempfile.TemporaryDirectory() as tmp:
        store, cut = os.path.join(tmp, "server.json"), os.path.join(tmp, "cut.json")
        server = ManufacturerServer(
            crypto.generate_keypair(b"\x66" * 32), store_path=store, nonce_source=SeededNonces(10)
        )
        devices, now = [], 0
        # line_states[k]: the in-memory state when line k + 1 was written.
        text, line_states = b"", []
        for op in ops:
            if op[0] == "register":
                devices.append(_register(server, len(devices)))
            elif op[0] == "commit" and devices:
                now += 10
                assert complete_sync(server, devices[op[1] % len(devices)], now=now).committed
            elif op[0] == "reload" and devices:
                server = ManufacturerServer.load(store, nonce_source=SeededNonces(now))
                assert _server_state(server) == line_states[-1]
                continue
            else:
                continue
            after = _read(store)
            if after.startswith(text):
                assert after.count(b"\n") == len(line_states) + 1
                line_states.append(_server_state(server))
            else:
                assert after.count(b"\n") == 1  # compacted to one snapshot line
                line_states = [_server_state(server)]
            text = after

        lines = text.splitlines(keepends=True)
        for k in range(1, len(lines) + 1):
            torn = lines[k][: len(lines[k]) // 2] if k < len(lines) else b""
            for tail in {b"", torn}:
                with open(cut, "wb") as f:
                    f.write(b"".join(lines[:k]) + tail)
                assert _server_state(ManufacturerServer.load(cut)) == line_states[k - 1]


def _registration(store):
    """The store's last journal line, a registration, as a dict."""
    with open(store, encoding="utf-8") as f:
        return json.loads(f.read().splitlines()[-1])


def _set(entry, path, value):
    *parents, last = path
    for key in parents:
        entry = entry[key]
    entry[last] = value


@pytest.mark.parametrize(
    "edits",
    [
        [],  # the same registration again: a known device
        [(("record", "device_id"), "ee" * 16)],  # a used manifest path
        [(("record", "device_id"), "ee" * 16), (("record", "manifest_path"), "/m/new.json")],  # used short URL
        [
            (("record", "device_id"), "ee" * 16),
            (("record", "manifest_path"), "/m/new.json"),
            (("short_url",), "AAAAAAAAAAA"),
        ],  # used full URL
        [(("record", "device_id"), "ee" * 16), (("record", "latest_ts"), "0")],
        [(("record", "device_id"), "ee" * 16), (("record", "manifest_path"), 5)],
        [(("record",), [1, 2])],
        [(("record", "device_id"), "ee" * 16), (("manifest",), {"a": 1})],
        [(("record", "device_id"), "ee" * 16), (("short_url",), 12345678901)],
        [(("record", "device_id"), "ee" * 16), (("full_url",), None)],
    ],
    ids=[
        "known_device", "used_path", "used_short_url", "used_full_url", "str_latest_ts",
        "int_manifest_path", "list_record", "object_manifest", "int_short_url", "null_full_url",
    ],
)
def test_store_rejects_a_bad_registration_line(tmp_path, edits):
    store = str(tmp_path / "server.json")
    _store_rig(store, n=2)
    entry = _registration(store)
    for path, value in edits:
        _set(entry, path, value)
    with open(store, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry) + "\n")
    with pytest.raises(ServerError, match="journal line 3"):
        ManufacturerServer.load(store)
