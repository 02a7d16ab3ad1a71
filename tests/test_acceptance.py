"""The acceptance gate: nine end-to-end criteria, each with a runtime budget.

Every test prints exactly one pass/fail line in the terminal summary via the
conftest hook, independent of pytest's own reporting.
"""

import copy
import dataclasses
import json
import pathlib
import random
import statistics
import time
from contextlib import contextmanager

from paisa import crypto, simnet, wire
from paisa.device import ATTEST_CHUNK_SIZE
from paisa.manifest import manifest_from_json, manifest_to_json, sign_manifest, verify_manifest
from paisa.receiver import (
    Freshness,
    PresenceReport,
    Receiver,
    ReceiverConfig,
    RegistryFetcher,
    Verdict,
    check_freshness,
    dedupe,
)

from conftest import ACCEPTANCE_RESULTS, complete_sync

SCENARIOS = pathlib.Path(simnet.__file__).parent / "scenarios"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@contextmanager
def criterion(num, title, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append(f"criterion {num} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_s
    ACCEPTANCE_RESULTS.append(
        f"criterion {num} ({title}): {'PASS' if within else 'FAIL'}"
        f" ({elapsed:.2f}s, budget {budget_s}s)"
    )
    assert within, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


# ---------------------------------------------------------------------------
# 1. Wire-size fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_wire_size_fidelity():
    with criterion(1, "wire-size fidelity", 1):
        msg = wire.AnnouncementMsg(
            nonce=bytes(range(32)),
            timestamp=1_700_000_000,
            short_url="2Bf91xQwErT",
            att_result=1,
            att_timestamp=1_699_999_970,
            signature=bytes(range(64)),
        )
        encoded = wire.encode_announcement(msg)
        assert len(encoded) == 116 == 32 + 4 + 11 + 5 + 64
        frame = wire.encode_beacon(msg, b"\x02\xaa\xbb\xcc\xdd\xee")
        assert len(frame) == 240
        assert encoded.hex() == (GOLDEN / "announcement.hex").read_text().strip()
        assert frame.hex() == (GOLDEN / "beacon.hex").read_text().strip()


# ---------------------------------------------------------------------------
# 2. Protocol correctness on honest runs
# ---------------------------------------------------------------------------

def test_criterion_2_honest_runs():
    with criterion(2, "honest-run correctness", 5):
        scenario = simnet.load_scenario(str(SCENARIOS / "honest.json"))
        assert len(scenario.devices) == 3
        assert all(d.t_announce == 10 and d.t_attest == 30 for d in scenario.devices)
        assert scenario.horizon == 600
        result = simnet.run_scenario(scenario)
        per_device = {}
        for entry in result.log:
            if entry["event"] == "verdict":
                assert entry["verdict"] == "verified", entry
                per_device[entry["device"]] = per_device.get(entry["device"], 0) + 1
        assert per_device == {d.name: 61 for d in scenario.devices}


# ---------------------------------------------------------------------------
# 3. Unforgeability under single-bit mutation
# ---------------------------------------------------------------------------

def test_criterion_3_unforgeability(rig):
    with criterion(3, "unforgeability under bit flips", 60):
        complete_sync(rig["server"], rig["device"], now=1000)
        frame = rig["device"].announce_now()[0]
        fetcher = RegistryFetcher(rig["server"].registry, rig["server"].serve_manifest)
        receiver = Receiver(
            ReceiverConfig(manifest_fetcher=fetcher), clock=lambda: 1000
        )
        assert receiver.process_frame(frame).verdict is Verdict.VERIFIED

        rng = random.Random(0xACCE97)
        # The announcement (nonce, ts, URL, attestation, signature) occupies
        # the final 116 bytes of the 240-byte frame.
        lo, hi = (240 - 116) * 8, 240 * 8
        trials = 10_000
        verified = 0
        for _ in range(trials):
            bit = rng.randrange(lo, hi)
            buf = bytearray(frame)
            buf[bit // 8] ^= 1 << (bit % 8)
            out = receiver.process_frame(bytes(buf))
            if isinstance(out, PresenceReport) and out.verdict is Verdict.VERIFIED:
                verified += 1
        assert verified == 0, f"{verified} of {trials} mutated frames verified"


# ---------------------------------------------------------------------------
# 4. Freshness and replay
# ---------------------------------------------------------------------------

def test_criterion_4_freshness_and_replay():
    with criterion(4, "freshness window and replay", 10):
        # Exhaustive grid versus a literal restatement of the window.
        for epsilon in (0, 1, 5, 10):
            cfg = ReceiverConfig(epsilon=epsilon, manifest_fetcher=object())
            for ts_udev in range(0, 51):
                for ts_dev in range(0, 51):
                    if ts_dev > ts_udev + cfg.future_skew:
                        expected = Freshness.FUTURE
                    elif (ts_udev - epsilon) < ts_dev:
                        expected = Freshness.FRESH
                    else:
                        expected = Freshness.STALE
                    got = check_freshness(ts_dev, ts_udev, cfg)
                    assert got == expected, (ts_dev, ts_udev, epsilon, got)

        # Scenario-level replay at delay epsilon+1 is stale.
        result = simnet.run_scenario(str(SCENARIOS / "replay.json"))
        replayed = [
            e for e in result.log
            if e["event"] == "verdict" and e["replayed"] and e["att_result"] == 1
        ]
        stale = [e for e in replayed if e["verdict"] == "stale"]
        assert stale, "the delayed replay did not surface"
        assert all(
            e["verdict"] != "verified" for e in replayed
        ), "a replayed frame verified"

        # Byte-identical replay inside epsilon is flagged and deduplicated.
        result = simnet.run_scenario(str(SCENARIOS / "replay_within_window.json"))
        dupes = [
            e for e in result.log
            if e["event"] == "verdict" and e["duplicate"]
        ]
        assert len(dupes) == 1 and dupes[0]["replayed"]
        reports = [
            PresenceReport(
                verdict=Verdict(e["verdict"]),
                received_at=e["t"],
                announcement_timestamp=e["announcement_ts"],
                att_result=e["att_result"],
                att_timestamp=e["att_ts"],
                device_id=e["device_id"],
                duplicate=e["duplicate"],
            )
            for e in result.log
            if e["event"] == "verdict"
        ]
        entries = dedupe(reports, window=10)
        devices = {e.device_id for e in entries}
        # One physical device: the replay never shows up as a second one.
        assert len(devices) == 1
        total = sum(e.count for e in entries)
        assert total == len(reports) - 1  # the duplicate was dropped


# ---------------------------------------------------------------------------
# 5. Timeliness under compromise
# ---------------------------------------------------------------------------

def test_criterion_5_compromise_timeliness():
    with criterion(5, "compromise timeliness", 5):
        with open(SCENARIOS / "compromise.json", "r", encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["adversary"]["compromise"][0]["at"] == 50

        compromised_run = simnet.run_scenario(copy.deepcopy(doc))
        honest_doc = copy.deepcopy(doc)
        honest_doc["adversary"] = {}
        honest_run = simnet.run_scenario(honest_doc)

        def announce_count(log):
            return sum(1 for e in log if e["event"] == "announce")

        assert announce_count(compromised_run.log) == announce_count(honest_run.log)

        verdicts = [e for e in compromised_run.log if e["event"] == "verdict"]
        assert verdicts
        for e in verdicts:
            if e["att_ts"] >= 60:
                assert e["verdict"] == "compromised", e
            else:
                assert e["verdict"] == "verified", e


# ---------------------------------------------------------------------------
# 6. Time-sync state machine
# ---------------------------------------------------------------------------

def test_criterion_6_time_sync_state_machine():
    with criterion(6, "time-sync state machine", 5):
        result = simnet.run_scenario(str(SCENARIOS / "timesync_drop.json"))
        log = result.log

        # The first SyncResp is dropped; the device retries and converges.
        drops = [e for e in log if e["event"] == "drop"]
        assert drops and drops[0]["link"] == "server->device"
        attempts = [e for e in log if e["event"] == "sync_attempt"]
        assert 2 <= len(attempts) <= 5
        synced = [e for e in log if e["event"] == "device_synced"]
        assert len(synced) == 1

        # The genuine 3-way exchange commits latest_ts to the issued ts_cur.
        commits = [e for e in log if e["event"] == "sync_commit"]
        assert len(commits) == 1 and not commits[0]["replayed"]
        assert commits[0]["latest_ts"] == synced[0]["ts"]

        # Replays of both captured messages bounce off with no state change.
        req_rejects = [
            e for e in log if e["event"] == "sync_reject" and e["replayed"]
        ]
        ack_rejects = [
            e for e in log if e["event"] == "sync_ack_reject" and e["replayed"]
        ]
        assert req_rejects and req_rejects[0]["reason"] == "timestamp_mismatch"
        assert ack_rejects and ack_rejects[0]["reason"] == "unknown_session"
        for e in req_rejects + ack_rejects:
            assert e["latest_ts"] == commits[0]["latest_ts"]


# ---------------------------------------------------------------------------
# 7. Manifest binding
# ---------------------------------------------------------------------------

def test_criterion_7_manifest_binding(rig):
    with criterion(7, "manifest field binding", 5):
        server = rig["server"]
        signed = manifest_from_json(server.serve_manifest("/manifests/rig.json"))
        assert verify_manifest(signed)
        other_pk = crypto.generate_keypair(b"\x99" * 32).public_key
        mutations = {
            "device_id": bytes(16),
            "device_type_model": "?",
            "manufacturer": "?",
            "manufacture_date_location": "?",
            "sensors": ("?",),
            "actuators": ("?",),
            "deployment_purpose": "?",
            "network_interfaces": ("?",),
            "owner_id": "?",
            "deployment_location": "?",
            "sw_hash": b"\x01" * 32,
            "device_public_key": other_pk,
            "full_url": "https://evil.example/m.json",
            "status": "revoked",
        }
        payload_fields = {
            f.name
            for f in dataclasses.fields(signed)
            if f.name not in ("manufacturer_public_key", "manifest_signature")
        }
        assert set(mutations) == payload_fields, "mutation map must cover every payload field"
        for field, value in mutations.items():
            tampered = dataclasses.replace(signed, **{field: value})
            assert not verify_manifest(tampered), f"mutation of {field} went undetected"

        # Revocation end-to-end: re-sign with status=revoked, re-host, re-scan.
        complete_sync(server, rig["device"], now=2000)
        frame = rig["device"].announce_now()[0]
        revoked = sign_manifest(
            dataclasses.replace(signed, status="revoked"), server.keys
        )
        server.manifests["/manifests/rig.json"] = manifest_to_json(revoked)
        fetcher = RegistryFetcher(server.registry, server.serve_manifest)
        receiver = Receiver(
            ReceiverConfig(manifest_fetcher=fetcher), clock=lambda: 2000
        )
        assert receiver.process_frame(frame).verdict is Verdict.REVOKED


# ---------------------------------------------------------------------------
# 8. Timing shape (substituted property)
# ---------------------------------------------------------------------------

def test_criterion_8_timing_shape(rig):
    with criterion(8, "timing shape", 60):
        dev = rig["device"]
        complete_sync(rig["server"], dev, now=3000)

        # Full sign-attest-encode path for the 64 KB image, best of 20.
        def announce_once():
            dev.attest()
            return wire.encode_beacon(dev.make_announcement(), dev.mac)

        best = min(
            _timed(announce_once) for _ in range(20)
        )
        assert len(dev.software.program_memory) == 64 * 1024
        assert best < 0.050, f"announcement path took {best * 1000:.1f} ms"

        # Attestation cost is linear in image size across 64 KB - 1 MB.
        sizes = [64 * 1024 * k for k in (1, 2, 4, 6, 8, 10, 12, 14, 16)]
        images = [b"\xA5" * size for size in sizes]
        for image in images:
            crypto.hash_chunked(image, ATTEST_CHUNK_SIZE)  # warm up
        # Each of 15 rounds times every size once, so host drift lands on all
        # sizes alike; keep each size's least-noise sample. Batch the hashes
        # so per-call timer overhead cannot distort the small sizes.
        times = [float("inf")] * len(sizes)
        for _ in range(15):
            for i, image in enumerate(images):
                sample = _timed(lambda: crypto.hash_chunked(image, ATTEST_CHUNK_SIZE), reps=20)
                times[i] = min(times[i], sample)
        r = statistics.correlation(sizes, times)
        assert r * r > 0.99, f"attestation fit R^2 = {r * r:.4f}"


def _timed(fn, reps=1):
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism():
    with criterion(9, "determinism", 5):
        for name in ("honest.json", "replay.json", "compromise.json", "timesync_drop.json"):
            a = simnet.run_scenario(str(SCENARIOS / name))
            b = simnet.run_scenario(str(SCENARIOS / name))
            assert a.log_ndjson() == b.log_ndjson(), f"{name} diverged"
            assert a.beacon_frames == b.beacon_frames, f"{name} frames diverged"
