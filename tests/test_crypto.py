import hashlib
import json
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from paisa import crypto, simnet, wire
from paisa.device import ATTEST_CHUNK_SIZE, Device, DeviceError, TimerConfig, TrustedState
from paisa.manifest import Manifest, ManifestError, manifest_from_json, manifest_to_json, sign_manifest
from paisa.server import CommitLine, DeviceRecord, ManufacturerServer, RegistrationLine, ServerError, Snapshot

from p256_oracle import ecdsa_verify, scalar_mult

SEED = bytes(range(32))


def test_keypair_deterministic_with_seed():
    assert crypto.generate_keypair(SEED) == crypto.generate_keypair(SEED)


def test_keypair_distinct_without_seed():
    a = crypto.generate_keypair()
    b = crypto.generate_keypair()
    assert a.private_key != b.private_key


def test_keypair_rejects_bad_seed_length():
    with pytest.raises(crypto.CryptoError):
        crypto.generate_keypair(b"short")


def test_public_key_matches_scalar_multiplication_oracle():
    keys = crypto.generate_keypair(SEED)
    scalar = int.from_bytes(keys.private_key, "big")
    x, y = scalar_mult(scalar)
    assert keys.public_key == x.to_bytes(32, "big") + y.to_bytes(32, "big")


def test_hash_chunked_empty_is_published_constant():
    assert (
        crypto.hash_chunked(b"", 4096).hex()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_hash_chunked_independent_of_chunk_size():
    data = b"\xaa" * 8192
    assert crypto.hash_chunked(data, 4096) == crypto.hash_chunked(data, 8192)


def test_hash_chunked_matches_hashlib_oracle():
    data = random.Random(1).randbytes(10000)
    assert crypto.hash_chunked(data, 4096) == hashlib.sha256(data).digest()


@given(st.binary(min_size=0, max_size=5000), st.integers(min_value=1, max_value=6000))
def test_hash_chunked_chunk_invariance_property(data, chunk):
    assert crypto.hash_chunked(data, chunk) == hashlib.sha256(data).digest()


@pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_hash_chunked_matches_hashlib_around_the_attestation_chunk(chunks, extra):
    length = chunks * ATTEST_CHUNK_SIZE + extra
    data = random.Random(length).randbytes(length)
    assert crypto.hash_chunked(data, ATTEST_CHUNK_SIZE) == hashlib.sha256(data).digest()


def test_hash_chunked_rejects_nonpositive_chunk():
    with pytest.raises(ValueError):
        crypto.hash_chunked(b"x", 0)


def test_sign_verify_roundtrip():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"hello").digest()
    sig = crypto.sign(keys.private_key, digest)
    assert len(sig) == 64
    assert crypto.verify(keys.public_key, digest, sig)


def test_sign_is_deterministic():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"repeatable").digest()
    assert crypto.sign(keys.private_key, digest) == crypto.sign(keys.private_key, digest)


def test_signature_validates_against_independent_verifier_oracle():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"oracle me").digest()
    sig = crypto.sign(keys.private_key, digest)
    pub = (
        int.from_bytes(keys.public_key[:32], "big"),
        int.from_bytes(keys.public_key[32:], "big"),
    )
    r = int.from_bytes(sig[:32], "big")
    s = int.from_bytes(sig[32:], "big")
    assert ecdsa_verify(pub, digest, r, s)


def test_verify_wrong_key_fails():
    keys = crypto.generate_keypair(SEED)
    other = crypto.generate_keypair(bytes(reversed(SEED)))
    digest = hashlib.sha256(b"bound").digest()
    sig = crypto.sign(keys.private_key, digest)
    assert not crypto.verify(other.public_key, digest, sig)


def test_single_bit_flips_always_fail():
    rng = random.Random(42)
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"flip").digest()
    sig = crypto.sign(keys.private_key, digest)
    for _ in range(1000):
        target = rng.choice(("sig", "digest", "pk"))
        if target == "sig":
            buf = bytearray(sig)
        elif target == "digest":
            buf = bytearray(digest)
        else:
            buf = bytearray(keys.public_key)
        bit = rng.randrange(len(buf) * 8)
        buf[bit // 8] ^= 1 << (bit % 8)
        if target == "sig":
            ok = crypto.verify(keys.public_key, digest, bytes(buf))
        elif target == "digest":
            ok = crypto.verify(keys.public_key, bytes(buf), sig)
        else:
            ok = crypto.verify(bytes(buf), digest, sig)
        assert not ok


def test_verify_survives_garbage_without_raising():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"x").digest()
    assert crypto.verify(keys.public_key, digest, b"\x00" * 64) is False
    assert crypto.verify(keys.public_key, digest, b"junk") is False
    assert crypto.verify(b"\xff" * 64, digest, b"\x01" * 64) is False
    assert crypto.verify(b"", digest, b"\x01" * 64) is False


def test_keypair_file_roundtrip(tmp_path):
    keys = crypto.generate_keypair(SEED)
    path = str(tmp_path / "dev.key")
    crypto.save_keypair(path, keys)
    assert crypto.load_keypair(path) == keys
    lines = open(path).read().splitlines()
    assert len(lines[0]) == 64 and len(lines[1]) == 128


def test_load_keypair_rejects_a_public_key_of_another_key(tmp_path):
    mine, other = crypto.generate_keypair(SEED), crypto.generate_keypair(b"\x01" * 32)
    path = tmp_path / "mixed.key"
    path.write_text(mine.private_key.hex() + "\n" + other.public_key.hex() + "\n")
    with pytest.raises(crypto.CryptoError, match="not the private key's"):
        crypto.load_keypair(str(path))


def test_bad_public_keys_fail_on_every_call():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"cached").digest()
    sig = crypto.sign(keys.private_key, digest)
    off_curve = keys.public_key[:63] + bytes([keys.public_key[63] ^ 1])
    with pytest.raises(ValueError):
        crypto._load_public(off_curve)
    for pk in (off_curve, keys.public_key[:63], keys.public_key + b"\x00"):
        for _ in range(3):
            assert crypto.verify(pk, digest, sig) is False
    assert crypto.verify(keys.public_key, digest, sig) is True


@pytest.mark.parametrize(
    "scalar", [0, crypto.CURVE_ORDER, crypto.CURVE_ORDER + 1, 2**256 - 1]
)
def test_out_of_range_private_scalar_raises_on_every_call(scalar):
    digest = hashlib.sha256(b"cached").digest()
    for _ in range(3):
        with pytest.raises(crypto.CryptoError):
            crypto.sign(scalar.to_bytes(32, "big"), digest)


def test_keys_and_digests_of_the_wrong_width_are_refused():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"width").digest()
    sig = crypto.sign(keys.private_key, digest)
    with pytest.raises(crypto.CryptoError, match="public key must be 64 bytes"):
        crypto.KeyPair(keys.private_key, keys.public_key[:63])
    with pytest.raises(crypto.CryptoError, match="private key must be 32 bytes"):
        crypto.sign(keys.private_key[:31], digest)
    with pytest.raises(crypto.CryptoError, match="digest must be 32 bytes"):
        crypto.sign(keys.private_key, digest[:31])
    assert crypto.verify(keys.public_key, digest[:31], sig) is False


def test_key_caches_are_bounded():
    assert crypto._load_public.cache_info().maxsize == 1024
    assert crypto._load_private.cache_info().maxsize == 1024


# -- the typed JSON reader -----------------------------------------------------

_MFR_KEYS = crypto.generate_keypair(b"\x44" * 32)
_device = Device()
_device.provision(
    device_id=b"\x05" * 16, sw_dev=b"", mfr_public_key=_MFR_KEYS.public_key, short_url="AAAAAAAAAAA",
    full_url="u", ts_cur=0, timer_config=TimerConfig(10, 10), key_seed=b"\x06" * 32,
)
STATE_DOC = _device.export_state()
MANIFEST_DOC = json.loads(manifest_to_json(sign_manifest(Manifest(
    device_id=b"\x05" * 16, device_type_model="m", manufacturer="mf", manufacture_date_location="d",
    sensors=("pir",), actuators=(), deployment_purpose="p", network_interfaces=("wifi",), owner_id="o",
    deployment_location="l", sw_hash=b"\x01" * 32, device_public_key=_device.trusted.public_key,
    full_url="u", status="active",
), _MFR_KEYS)))
SCENARIO_DOC = {
    "seed": 1, "horizon": 20, "epsilon": 10, "receivers": 1,
    "devices": [{"name": "a", "t_announce": 10, "t_attest": 10, "sw_size": 64, "boot_at": 0}],
    "adversary": {
        "drop": [{"link": "device->receiver", "probability": 0.5, "from": 3, "max_matches": 2}],
        "tamper": [{"link": "device->server", "flip_bit": 7}],
        "delay": [{"link": "server->device", "delay": 1}],
        "replay": [{"device": "a", "capture_time": 0, "inject_at": 5, "flip_bit": 1}],
        "replay_sync": [{"device": "a", "message": "sync_req"}],
        "compromise": [{"device": "a", "at": 5, "flip_byte": 3, "busy_loop": True, "restore_at": 9}],
    },
}
SCENARIO_CLASSES = (
    simnet.Scenario, simnet.DeviceSpec, simnet.AdversaryPolicy, simnet._DropRule, simnet._TamperRule,
    simnet._DelayRule, simnet._ReplayDirective, simnet._SyncReplayDirective, simnet._CompromiseDirective,
)


def documents(base, keys, root_any=True):
    """JSON documents keyed mostly by ``keys``: ``base`` with members
    replaced, added or dropped at any depth, or (``root_any``) any JSON value."""
    key = st.sampled_from(sorted(keys)) | st.text(max_size=4)
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | st.sampled_from(["a", "00"]),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(key, inner, max_size=4),
        max_leaves=10,
    )

    def edited(node):
        if isinstance(node, list):
            return st.tuples(*map(edited, node)).map(list)
        if not isinstance(node, dict):
            return st.just(node)
        own = st.sampled_from(sorted(node))
        return st.builds(
            lambda members, edits, drops: {k: v for k, v in {**members, **edits}.items() if k not in drops},
            st.fixed_dictionaries({k: edited(v) for k, v in node.items()}),
            st.dictionaries(own | key, values, max_size=1),
            st.sets(own, max_size=1),
        )

    return edited(base) | values if root_any else edited(base)


@settings(max_examples=100, deadline=None)
@given(doc=documents(SCENARIO_DOC, {k for cls in SCENARIO_CLASSES for k in crypto.record_keys(cls)}, root_any=False))
@example(doc={**SCENARIO_DOC, "adversary": {"drop": [{"link": "device->receiver", "probability": 10**400}]}})
def test_load_scenario_refuses_a_document_only_with_scenario_error(doc):
    # Only objects: load_scenario reads any other source as a file path.
    try:
        simnet.load_scenario(doc)
    except simnet.ScenarioError:
        pass


@settings(max_examples=100, deadline=None)
@given(doc=documents(MANIFEST_DOC, crypto.record_keys(Manifest)))
def test_manifest_from_json_refuses_a_document_only_with_manifest_error(doc):
    try:
        manifest_from_json(json.dumps(doc).encode())
    except ManifestError:
        pass


@settings(max_examples=100, deadline=None)
@given(doc=documents(STATE_DOC, crypto.record_keys(TrustedState)))
def test_from_state_refuses_a_document_only_with_device_error(doc):
    try:
        Device.from_state(doc, b"")
    except DeviceError:
        pass


def _round_trip(record):
    return crypto.record_from_json(type(record), json.loads(json.dumps(crypto.record_to_json(record))))


_texts = st.text(max_size=6)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    device_id=st.binary(min_size=16, max_size=16),
    sw_hash=st.binary(min_size=32, max_size=32),
    latest_ts=st.integers(0, wire.TS_MAX),
    short_url=st.text(st.characters(max_codepoint=127), min_size=11, max_size=11),
    texts=st.lists(_texts, min_size=7, max_size=7),
    lists=st.lists(st.lists(_texts, max_size=3).map(tuple), min_size=3, max_size=3),
)
def test_every_record_class_round_trips_through_json(seed, device_id, sw_hash, latest_ts, short_url, texts, lists):
    keys = crypto.generate_keypair(seed)
    device_record = DeviceRecord(device_id, keys.public_key, latest_ts, texts[0])
    records = [
        keys,
        device_record,
        TrustedState(
            device_id, keys.private_key, keys.public_key, _MFR_KEYS.public_key, short_url, texts[0],
            sw_hash, latest_ts, 10, 30,
        ),
        sign_manifest(Manifest(
            device_id=device_id, device_type_model=texts[1], manufacturer=texts[2],
            manufacture_date_location=texts[3], sensors=lists[0], actuators=lists[1],
            deployment_purpose=texts[4], network_interfaces=lists[2], owner_id=texts[5],
            deployment_location=texts[6], sw_hash=sw_hash, device_public_key=keys.public_key,
            full_url=texts[0], status="revoked",
        ), _MFR_KEYS),
        Snapshot(keys, (device_record,), {texts[0]: texts[1]}, {short_url: texts[2]}),
        RegistrationLine(device_record, texts[1], short_url, texts[0]),
        CommitLine(device_id, latest_ts),
    ]
    for record in records:
        assert _round_trip(record) == record


def _store_text():
    """A store of two devices: its snapshot line and a registration line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "server.json")
        server = ManufacturerServer(_MFR_KEYS, store_path=path, nonce_source=random.Random(1))
        for i in (1, 2):
            server.register_device(
                device=Device(nonce_source=random.Random(i)), device_id=bytes([i]) * 16, sw_dev=b"",
                full_url=f"https://mfr.example/m/{i}.json", ts_cur=0, timer_config=TimerConfig(10, 10),
                key_seed=bytes([i]) * 32,
            )
        with open(path, encoding="utf-8") as f:
            return f.read()


STORE_TEXT = _store_text()
# A registration no earlier line conflicts with, and a commit for a known device.
REGISTRATION_DOC = json.loads(STORE_TEXT.splitlines()[-1])
REGISTRATION_DOC["record"].update(device_id="ee" * 16, manifest_path="/m/new.json")
REGISTRATION_DOC.update(short_url="AAAAAAAAAAA", full_url="https://mfr.example/m/new.json")
COMMIT_DOC = {"device_id": "01" * 16, "latest_ts": 5}
_LINE_KEYS = {k for cls in (RegistrationLine, CommitLine, DeviceRecord) for k in crypto.record_keys(cls)}


@settings(max_examples=100, deadline=None)
@given(doc=documents(REGISTRATION_DOC, _LINE_KEYS) | documents(COMMIT_DOC, _LINE_KEYS))
def test_store_load_refuses_a_journal_line_only_with_server_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "server.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(STORE_TEXT + json.dumps(doc) + "\n")
        try:
            ManufacturerServer.load(path)
        except ServerError:
            pass
