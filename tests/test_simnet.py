import gc
import hashlib
import heapq
import json
import pathlib
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from paisa import crypto, simnet, wire
from paisa.receiver import Receiver

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


def one_device(**fields):
    return [dict({"name": "a", "t_announce": 10, "t_attest": 10}, **fields)]


@pytest.mark.parametrize(
    "overrides",
    [
        {"devices": one_device(t_announce=0)},
        {"devices": one_device(t_announce="x")},
        {"devices": one_device(t_attest=15)},
        {"horizon": "abc"},
        {"adversary": {"drop": [{"link": "device->receiver", "probability": "p"}]}},
        {"epsilon": -1},
        {"future_skew": -1},
        {"devices": one_device(boot_at=-1)},
        {
            "devices": one_device(sw_size=0),
            "adversary": {"compromise": [{"device": "a", "at": 5, "flip_byte": 3}]},
        },
        {"receivers": -1},
        {"devices": one_device(name=5)},
        {"adversary": []},
        {"adversary": {"compromise": [{"device": "a", "at": -1}]}},
        {"adversary": {"compromise": [{"device": "a"}]}},
        {"adversary": {"delay": [{"link": "device->receiver", "delay": -3}]}},
        {"adversary": {"replay_sync": [{"device": "a", "message": "sync_req", "delay": -1}]}},
        # Every directive's device must name a scenario device.
        {"adversary": {"drop": [{"link": "device->receiver", "device": "ghost"}]}},
        {"adversary": {"tamper": [{"link": "device->server", "device": "ghost", "flip_bit": 1}]}},
        {"adversary": {"delay": [{"link": "server->device", "device": "ghost", "delay": 1}]}},
        {"adversary": {"replay": [{"device": "ghost", "capture_time": 0, "inject_at": 5}]}},
        {"adversary": {"replay_sync": [{"device": "ghost", "message": "sync_req"}]}},
        {"adversary": {"compromise": [{"device": "ghost", "at": 5}]}},
        # Each rule kind accepts only the keys it uses.
        {"adversary": {"tamper": [{"link": "device->server", "flip_bit": 1, "probability": 0.5}]}},
        {"adversary": {"delay": [{"link": "device->server", "delay": 1, "probability": 0.5}]}},
        {"adversary": {"drop": [{"link": "device->server", "delay": 1}]}},
        {"adversary": {"tamper": [{"link": "device->server", "flip_bit": 1, "delay": 1}]}},
        {"adversary": {"tamper": [{"link": "device->server"}]}},
        # Scalars are checked, not converted: an int is a JSON integer and not
        # a bool, a float any number but a bool, a bool only true or false.
        {"horizon": 7.9},
        {"horizon": "60"},
        {"devices": one_device(t_announce=True)},
        {"devices": one_device(sw_size=False)},
        {"adversary": {"drop": [{"link": "device->receiver", "probability": "0.5"}]}},
        {"adversary": {"drop": [{"link": "device->receiver", "probability": True}]}},
        {"adversary": {"compromise": [{"device": "a", "at": 5, "busy_loop": "false"}]}},
        {"adversary": {"compromise": [{"device": "a", "at": 5, "busy_loop": 0}]}},
        {"devices": {"name": "a"}},
    ],
)
def test_malformed_value_is_a_scenario_error(overrides):
    with pytest.raises(simnet.ScenarioError):
        simnet.load_scenario(base_doc(**overrides))


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"])
def test_unreadable_scenario_file_is_a_scenario_error(tmp_path, content):
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(simnet.ScenarioError):
        simnet.load_scenario(str(path))


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


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in SCENARIOS.glob("*.json")) + ["tamper_sync"]
)
def test_loaded_scenario_runs_the_same_twice(name):
    source = INLINE.get(name) or str(SCENARIOS / f"{name}.json")
    scenario = simnet.load_scenario(source)
    a = simnet.run_scenario(scenario)
    b = simnet.run_scenario(scenario)
    assert a.log_ndjson() == b.log_ndjson()
    assert a.beacon_frames == b.beacon_frames


def test_equal_rules_count_their_matches_apart():
    rule = {"link": "device->receiver", "max_matches": 1}
    result = simnet.run_scenario(base_doc(adversary={"drop": [rule, dict(rule)]}))
    assert sum(e["event"] == "drop" for e in result.log) == 2


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
        # An integer is a number: it loads as the float 1.0.
        adversary={"drop": [{"link": "device->receiver", "probability": 1}]}
    )
    assert simnet.load_scenario(doc).adversary.drop[0].probability == 1.0
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


def test_unreachable_server_gives_up_on_the_device_schedule():
    doc = base_doc(
        horizon=100,
        adversary={"drop": [{"link": "server->device", "probability": 1.0}]},
    )
    result = simnet.run_scenario(doc)
    attempts = [(e["t"], e["attempt"]) for e in result.log if e["event"] == "sync_attempt"]
    assert attempts == [(0, 0), (2, 1), (6, 2), (14, 3), (30, 4)]
    failed = [e for e in result.log if e["event"] == "sync_failed"]
    assert failed == [{"t": 62, "event": "sync_failed", "device": "a", "attempts": 5}]
    assert not any(e["event"] == "announce" for e in result.log)


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


def test_replay_with_no_frame_in_its_window_never_fires():
    doc = base_doc(
        devices=[{"name": "a", "boot_at": 10}],
        adversary={"replay": [{"device": "a", "capture_time": 0, "inject_at": 5}]},
    )
    result = simnet.run_scenario(doc)
    assert any(e["event"] == "announce" for e in result.log)
    assert not any(e["event"].startswith("replay") or e.get("replayed") for e in result.log)


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


# -- pinned output -----------------------------------------------------------

# sha256 of log_ndjson() and of the beacon frames (each frame's time as 8
# big-endian bytes, then the frame). A refactor of the simulator, the server
# or the device must leave every one of these unchanged.
PINNED = {
    "compromise": (
        "ca2a8107bd5dd53c3d4366154f52ca8c3785101ab053caf4c1f31801397433c8",
        "6637a43a9e8ec13cd7ad3db74e79e68b7303fd18e4fa30c76159189a2d99a1ae",
    ),
    "honest": (
        "a77a848444edc98b52db4c323ac0e66cc09bcb617dc33476b31a000b12b7eff1",
        "8d55b12f8319daf83243ebe403624d8877c4906bbda780e2f95e5bfc0b9a6cd6",
    ),
    "replay": (
        "584088e232a9ad570b92141c2dd1a7dacc8fb5d8dfde5850a123f61f3c2ea6cc",
        "33105c44e1cf282ec4647ca4ee1f3cafc037844426a0d9c8772bdcb4dc256a12",
    ),
    "replay_within_window": (
        "9ea5f89e0f7c660ce6743b124c1680cd2cae197ce6d7cf4d92fa577758213054",
        "07059faeedc627a4f2a1f71e0ff03ddf9b4d8093291988612bc17b0d0816e6dc",
    ),
    "timesync_drop": (
        "b0c71f9752f57355808bb07d52b6616153d8da95f577dfc216b31440f24303ea",
        "cb9180a564e2d0e719dd04e4c982cc5bb0c35d2e42d45cd0d1865031df76d14d",
    ),
    "same_second": (
        "e06ac8f7cd26339ca5acfbd87c384f06b98a35a049eb894743ec60d3ddd5b794",
        "f92f3a3212734c88bd0c701e73156003a26093aec6bb96b7294f9e88ccdf7c99",
    ),
    "tamper_sync": (
        "817514a14b39481ccfc2702e92c4858a95f00c60d9ce984220ce771b6b90ff8b",
        "92aee64579af39027d0bba96de2eb271e4cd047c9fa213de160b5613496f57d2",
    ),
}

# Flips the tag bit of the first SyncReq (it then reads as a short SyncAck)
# and of the first SyncResp (it then reads as a SyncAck): the only run that
# logs server_discard and device_discard.
TAMPER_SYNC = base_doc(
    seed=7,
    adversary={
        "tamper": [
            {"link": "device->server", "max_matches": 1, "flip_bit": 1},
            {"link": "server->device", "max_matches": 1, "flip_bit": 0},
        ]
    },
)

# Three cadences, staggered boots, delays, a dropped SyncResp, a replayed
# SyncReq and a beacon replay one second after its capture: many seconds hold
# several events, so their order at equal times is pinned too.
SAME_SECOND = base_doc(
    seed=3,
    horizon=120,
    receivers=2,
    devices=[
        {"name": "a", "t_announce": 5, "t_attest": 10, "boot_at": 0},
        {"name": "b", "t_announce": 2, "t_attest": 2, "boot_at": 1},
        {"name": "c", "t_announce": 10, "t_attest": 30, "boot_at": 3},
    ],
    adversary={
        "drop": [{"link": "server->device", "device": "c", "max_matches": 2}],
        "delay": [
            {"link": "device->receiver", "device": "a", "delay": 1},
            {"link": "server->device", "device": "b", "delay": 1},
        ],
        "replay_sync": [{"device": "b", "message": "sync_req", "delay": 1}],
        "replay": [{"device": "a", "capture_time": 20, "inject_at": 21}],
    },
)
INLINE = {"same_second": SAME_SECOND, "tamper_sync": TAMPER_SYNC}


def frames_digest(frames):
    h = hashlib.sha256()
    for t, frame in frames:
        h.update(t.to_bytes(8, "big") + frame)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_log_and_frames_match_pinned_digests(name):
    source = INLINE.get(name) or str(SCENARIOS / f"{name}.json")
    result = simnet.run_scenario(source)
    log_digest = hashlib.sha256(result.log_ndjson().encode()).hexdigest()
    assert (log_digest, frames_digest(result.beacon_frames)) == PINNED[name]


def test_tamper_sync_discards_then_syncs():
    result = simnet.run_scenario(TAMPER_SYNC)
    events = [(e["event"], e.get("reason")) for e in result.log]
    assert ("server_discard", "sync body must be 148 bytes") in events
    assert ("device_discard", "unexpected_message") in events
    assert ("sync_commit", None) in events


# -- wakes against per-second ticking -----------------------------------------


class PlainClock:
    """Equal-time events in insertion order, as a (t, seq) heap."""

    def __init__(self):
        self.now, self._seq, self._heap = 0, 0, []

    def new_rank(self):
        return None

    def schedule(self, t, fn, rank=None):
        assert t >= self.now
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn))

    def run_until(self, horizon):
        while self._heap and self._heap[0][0] <= horizon:
            self.now, _, fn = heapq.heappop(self._heap)
            fn()
        self.now = horizon


class PerSecond(simnet.Simulation):
    """The reference: every synced device ticked once a second on a PlainClock."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.clock = PlainClock()
        for receiver in self.receivers:
            receiver.clock = lambda clock=self.clock: clock.now

    def _schedule_wake(self, name, rank):
        if self.clock.now < self.scenario.horizon:
            self.clock.schedule(self.clock.now + 1, lambda: self._tick(name))

    def _tick(self, name):
        self._broadcast(name, self.devices[name].tick())
        self._schedule_wake(name, None)


def assert_matches_per_second(doc):
    scenario = simnet.load_scenario(doc)
    woken, ticked = simnet.Simulation(scenario), PerSecond(scenario)
    a, b = woken.run(), ticked.run()
    assert a.log_ndjson() == b.log_ndjson()
    assert a.beacon_frames == b.beacon_frames
    return woken


@st.composite
def scenarios(draw):
    names = [f"d{i}" for i in range(draw(st.integers(1, 12)))]
    horizon = draw(st.integers(5, 40))
    devices = []
    for name in names:
        t_announce = draw(st.integers(1, 10))
        devices.append({
            "name": name, "t_announce": t_announce, "t_attest": t_announce * draw(st.integers(1, 3)),
            "sw_size": 64, "boot_at": draw(st.integers(0, 5)),
        })
    name, at = st.sampled_from(names), st.integers(0, horizon)

    def rules(most, **fields):
        optional = {"device": name, "max_matches": st.integers(1, 3), "from": st.integers(0, 10)}
        rule = st.fixed_dictionaries({"link": st.sampled_from(simnet.LINKS), **fields}, optional=optional)
        return st.lists(rule, max_size=most)

    @st.composite
    def replay(draw):
        capture = draw(at)
        return {"device": draw(name), "capture_time": capture, "inject_at": capture + draw(st.integers(0, 3))}

    @st.composite
    def compromise(draw):
        out = {"device": draw(name), "at": draw(at), "flip_byte": draw(st.integers(0, 63))}
        if draw(st.booleans()):
            out["restore_at"] = out["at"] + draw(st.integers(0, 10))
        return out

    replay_sync = st.fixed_dictionaries(
        {"device": name, "message": st.sampled_from(["sync_req", "sync_ack"]), "delay": st.integers(0, 3)}
    )
    adversary = {
        "delay": draw(rules(6, delay=st.integers(0, 5))),
        "drop": draw(rules(2, probability=st.sampled_from([0.2, 0.5, 1.0]))),
        "tamper": draw(rules(2, flip_bit=st.integers(0, 2000))),
        "replay": draw(st.lists(replay(), max_size=2)),
        "replay_sync": draw(st.lists(replay_sync, max_size=2)),
        "compromise": draw(st.lists(compromise(), max_size=2)),
    }
    return base_doc(
        seed=draw(st.integers(0, 2**16)), horizon=horizon, receivers=draw(st.integers(0, 3)),
        devices=devices, adversary=adversary,
    )


@settings(max_examples=150, deadline=None)
@given(doc=scenarios())
def test_wakes_give_the_logs_and_frames_of_per_second_ticks(doc):
    assert_matches_per_second(doc)


def test_syncs_nested_in_one_rank_gap_match_per_second_ticks():
    """Two devices tick at ranks (-1,) and (0,) when sixty-six more finish
    sync in one second, before any tick of it. The first of them ranks (-2,),
    and each later one falls between the one before and (-1,): 65 splits of
    one gap, more than float midpoints could make."""
    late = [{"name": f"d{i}", "t_announce": 1 + i % 5, "sw_size": 64, "boot_at": 5} for i in range(66)]
    doc = base_doc(
        horizon=20,
        devices=[
            {"name": "first", "t_announce": 3, "sw_size": 64},
            {"name": "second", "t_announce": 4, "sw_size": 64, "boot_at": 2},
        ] + late,
        adversary={"delay": [{"link": "server->device", "delay": 2, "from": 1}]},
    )
    ranks = assert_matches_per_second(doc).clock._ranks
    assert ranks == [(-2,) + (0,) * i for i in range(66)] + [(-1,), (0,)]


# -- the receivers' shared decode and verify memo ----------------------------

THREE_RECEIVERS = base_doc(
    seed=3,
    receivers=3,
    devices=[
        {"name": "a", "t_announce": 10, "t_attest": 10, "sw_size": 4096},
        {"name": "b", "t_announce": 5, "t_attest": 10, "sw_size": 4096},
    ],
    adversary={"replay": [{"device": "a", "capture_time": 20, "inject_at": 23}]},
)


def test_shared_memo_verifies_each_broadcast_once_with_the_same_flags(monkeypatch):
    verified = []
    real_verify = crypto.verify

    def counted(pk, digest, sig):
        verified.append(sig)
        return real_verify(pk, digest, sig)

    monkeypatch.setattr(crypto, "verify", counted)
    shared = simnet.run_scenario(THREE_RECEIVERS)
    broadcast = [wire.decode_beacon(f).msg.signature for _, f in shared.beacon_frames]
    assert len(set(broadcast)) == len(broadcast) > 10
    assert sorted(s for s in verified if s in set(broadcast)) == sorted(broadcast)

    monkeypatch.setattr(simnet, "Receiver", lambda cfg, clock, memo: Receiver(cfg, clock))
    apart = simnet.run_scenario(THREE_RECEIVERS)
    flags = [
        [(e["receiver"], e["verdict"], e["duplicate"]) for e in result.log if e["event"] == "verdict"]
        for result in (shared, apart)
    ]
    assert flags[0] == flags[1]
    assert sum(dup for _, _, dup in flags[0]) == 3  # the replay, at each receiver
    assert shared.log_ndjson() == apart.log_ndjson()
