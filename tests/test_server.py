import dataclasses
import hashlib
import json
import os

import pytest

from paisa import crypto, wire
from paisa.device import Device, TimerConfig
from paisa.manifest import manifest_from_json, verify_manifest
from paisa.server import DeviceDescription, ManufacturerServer, ServerError, SyncRejection

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
    assert isinstance(result, SyncRejection)
    assert result.reason == "unknown_device"


def test_wrong_ts_prev_rejected_before_signature_check(rig):
    dev = rig["device"]
    req = dev.make_sync_req()
    bad = wire.SyncReq(req.device_id, req.n_dev1, req.ts_prev + 7, req.signature)
    result = rig["server"].handle_sync_req(bad, now=5)
    assert isinstance(result, SyncRejection)
    assert result.reason == "timestamp_mismatch"


def test_forged_req_signature_rejected(rig):
    req = rig["device"].make_sync_req()
    sig = bytearray(req.signature)
    sig[0] ^= 0x01
    result = rig["server"].handle_sync_req(
        wire.SyncReq(req.device_id, req.n_dev1, req.ts_prev, bytes(sig)), now=5
    )
    assert isinstance(result, SyncRejection)
    assert result.reason == "bad_signature"


def test_replayed_sync_req_rejected_after_commit(rig):
    dev, server = rig["device"], rig["server"]
    req = dev.make_sync_req()
    resp = server.handle_sync_req(req, now=40)
    ack = dev.handle_sync_resp(resp)
    assert server.handle_sync_ack(ack, now=40).committed
    # The captured request carries ts_prev=0, but latest_ts is now 40.
    result = server.handle_sync_req(req, now=45)
    assert isinstance(result, SyncRejection)
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
        assert not isinstance(server.handle_sync_req(dev.make_sync_req(), now=now), SyncRejection)
        assert len(server._sessions) <= server.session_ttl + 1


# -- the store file: snapshot plus commit journal ---------------------------


def _latest(server):
    return {did: r.latest_ts for did, r in server.records.items()}


def _journal(store):
    with open(store, encoding="utf-8") as f:
        return f.read().split("\n")[1:-1]


def test_store_replays_journal_of_commits(tmp_path):
    store = str(tmp_path / "server.json")
    server, devices = _store_rig(store, n=3)
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
    _, devices = _store_rig(store, n=3)
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
        assert isinstance(server.handle_sync_req(forged, now=30), SyncRejection)
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
    ack = dev.handle_sync_datagram(resp.reply)
    commit = server.handle_datagram(ack, 10)
    assert (commit.reply, commit.event, commit.fields()) == (None, "sync_commit", {"latest_ts": 10})
    assert handle(ack, 11) == ("sync_ack_reject", {"reason": "unknown_session", "latest_ts": 10})
    assert handle(req, 11) == ("sync_reject", {"reason": "timestamp_mismatch", "latest_ts": 10})
