import gc
import json
import pathlib
import weakref

import pytest

from paisa import simnet

SCENARIOS = pathlib.Path(simnet.__file__).parent / "scenarios"


def base_doc(**overrides):
    doc = {
        "seed": 1,
        "horizon": 60,
        "epsilon": 10,
        "future_skew": 2,
        "receivers": 1,
        "devices": [{"name": "a", "t_announce": 10, "t_attest": 10, "sw_size": 4096}],
        "adversary": {},
    }
    doc.update(overrides)
    return doc


# -- scenario loading --------------------------------------------------------


def test_bundled_scenarios_all_load():
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = simnet.load_scenario(str(path))
        assert scenario.devices


def test_unknown_top_level_key_rejected():
    with pytest.raises(simnet.ScenarioError):
        simnet.load_scenario(base_doc(surprise=1))


def test_unknown_adversary_key_rejected():
    with pytest.raises(simnet.ScenarioError):
        simnet.load_scenario(base_doc(adversary={"teleport": []}))


def test_unknown_rule_key_rejected():
    with pytest.raises(simnet.ScenarioError):
        simnet.load_scenario(
            base_doc(adversary={"drop": [{"link": "device->server", "sneaky": 1}]})
        )


def test_duplicate_device_name_rejected():
    with pytest.raises(simnet.ScenarioError):
        simnet.load_scenario(
            base_doc(devices=[{"name": "a"}, {"name": "a"}])
        )


def test_empty_device_list_rejected():
    with pytest.raises(simnet.ScenarioError):
        simnet.load_scenario(base_doc(devices=[]))


def test_invalid_link_name_rejected():
    with pytest.raises(simnet.ScenarioError):
        simnet.load_scenario(
            base_doc(adversary={"drop": [{"link": "device->moon"}]})
        )


def test_malformed_json_file_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(simnet.ScenarioError) as exc:
        simnet.load_scenario(str(bad))
    assert "line" in str(exc.value)


# -- determinism -------------------------------------------------------------


def test_same_seed_byte_identical_logs():
    a = simnet.run_scenario(str(SCENARIOS / "replay.json"))
    b = simnet.run_scenario(str(SCENARIOS / "replay.json"))
    assert a.log_ndjson() == b.log_ndjson()
    assert a.beacon_frames == b.beacon_frames


def test_different_seed_changes_frames():
    doc = base_doc()
    a = simnet.run_scenario(doc)
    b = simnet.run_scenario(base_doc(seed=2))
    assert [f for _, f in a.beacon_frames] != [f for _, f in b.beacon_frames]


# -- conservation and honest behavior ----------------------------------------


def test_send_conservation():
    result = simnet.run_scenario(str(SCENARIOS / "honest.json"))
    sends = {e["id"] for e in result.log if e["event"] == "send"}
    delivered = {e["id"] for e in result.log if e["event"] == "deliver"}
    dropped = {e["id"] for e in result.log if e["event"] == "drop"}
    assert delivered | dropped <= sends
    assert delivered & dropped == set()
    # No adversary in the honest scenario: everything sent is delivered.
    assert delivered == sends


def test_honest_counts_match_schedule():
    result = simnet.run_scenario(str(SCENARIOS / "honest.json"))
    counts = simnet.summarize_verdicts(result.log)
    assert counts == {"verified": 183}  # 61 per device, 3 devices


def test_full_drop_silences_receiver():
    doc = base_doc(
        adversary={"drop": [{"link": "device->receiver", "probability": 1.0}]}
    )
    result = simnet.run_scenario(doc)
    assert simnet.summarize_verdicts(result.log) == {}
    assert any(e["event"] == "drop" for e in result.log)


def test_partial_drop_on_sync_link_retries_to_success():
    result = simnet.run_scenario(str(SCENARIOS / "timesync_drop.json"))
    events = [e["event"] for e in result.log]
    assert "drop" in events
    assert "device_synced" in events
    commits = [e for e in result.log if e["event"] == "sync_commit"]
    assert commits and not commits[0]["replayed"]


def test_timesync_replay_rejected_without_state_change():
    result = simnet.run_scenario(str(SCENARIOS / "timesync_drop.json"))
    committed_ts = [e["latest_ts"] for e in result.log if e["event"] == "sync_commit"]
    assert len(committed_ts) == 1
    req_rejects = [
        e for e in result.log if e["event"] == "sync_reject" and e["replayed"]
    ]
    ack_rejects = [
        e for e in result.log if e["event"] == "sync_ack_reject" and e["replayed"]
    ]
    assert req_rejects and req_rejects[0]["reason"] == "timestamp_mismatch"
    assert ack_rejects and ack_rejects[0]["reason"] == "unknown_session"
    for e in req_rejects + ack_rejects:
        assert e["latest_ts"] == committed_ts[0]


# -- replay scenarios --------------------------------------------------------


def test_replay_scenario_verdicts():
    result = simnet.run_scenario(str(SCENARIOS / "replay.json"))
    counts = simnet.summarize_verdicts(result.log)
    assert counts["stale"] == 1
    assert counts["bad_announcement_signature"] == 1
    replay_verdicts = [
        e for e in result.log if e["event"] == "verdict" and e["replayed"]
    ]
    assert {e["verdict"] for e in replay_verdicts} == {
        "stale",
        "bad_announcement_signature",
    }


def test_replay_within_window_flagged_duplicate():
    result = simnet.run_scenario(str(SCENARIOS / "replay_within_window.json"))
    dupes = [
        e
        for e in result.log
        if e["event"] == "verdict" and e["duplicate"]
    ]
    assert len(dupes) == 1
    assert dupes[0]["replayed"]
    assert dupes[0]["verdict"] == "verified"


# -- compromise --------------------------------------------------------------


def test_compromise_scenario_detection_and_cadence():
    result = simnet.run_scenario(str(SCENARIOS / "compromise.json"))
    counts = simnet.summarize_verdicts(result.log)
    assert counts["verified"] + counts["compromised"] == 61
    verdicts = [e for e in result.log if e["event"] == "verdict"]
    # Before the attest following the compromise everything verifies; after,
    # every report is flagged with an attestation timestamp past the event.
    flagged = [e for e in verdicts if e["verdict"] == "compromised"]
    assert flagged
    assert all(e["att_ts"] >= 60 for e in flagged)
    assert min(e["announcement_ts"] for e in flagged) == 60


def test_restore_before_attest_is_invisible():
    doc = base_doc(
        horizon=100,
        devices=[{"name": "a", "t_announce": 10, "t_attest": 50, "sw_size": 4096}],
        adversary={
            "compromise": [{"device": "a", "at": 51, "flip_byte": 0, "restore_at": 90}]
        },
    )
    result = simnet.run_scenario(doc)
    counts = simnet.summarize_verdicts(result.log)
    # Compromised between attests at 50 and 100, restored at 90: the infection
    # never overlaps an attestation, so nothing is flagged.
    assert counts == {"verified": 11}


def test_compromise_unknown_device_rejected_at_run():
    doc = base_doc(adversary={"compromise": [{"device": "ghost", "at": 5}]})
    with pytest.raises(simnet.ScenarioError):
        simnet.run_scenario(doc)


# -- log format --------------------------------------------------------------


def test_log_ndjson_is_valid_and_sorted():
    result = simnet.run_scenario(base_doc(horizon=30))
    lines = result.log_ndjson().strip().split("\n")
    times = []
    for line in lines:
        entry = json.loads(line)
        assert "t" in entry and "event" in entry
        times.append(entry["t"])
    assert times == sorted(times)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_finished_simulation_freed_without_cycle_collector(path, monkeypatch):
    refs = []

    class Tracked(simnet.Simulation):
        def __init__(self, scenario):
            super().__init__(scenario)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(simnet, "Simulation", Tracked)
    gc.collect()
    gc.disable()
    try:
        simnet.run_scenario(str(path))
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()
