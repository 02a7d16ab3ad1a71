"""The four workloads, their correctness checks and their metrics.

Each workload has a set-up (input generation, timed as ``setup_s``) and a unit
of work that a run repeats until its time is up. One caller drives every
operation and waits for it: the loop is closed on purpose, because
``Receiver.process_frame`` and the server's sync handlers are synchronous and
the program has no internal queue, so an open-loop rate sweep would only
measure the generator's own queue.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

from paisa import pcapio, simnet
from paisa.receiver import PresenceReport, Receiver, ReceiverConfig, RegistryFetcher, Verdict

import gen
from oracle import AnnouncementOracle
from tracing import Tracer

class Check:
    """Counts checked outcomes; a forged frame that verifies is fatal."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.fatal = False
        self.notes: Counter = Counter()

    def __call__(self, ok: bool, what: str, fatal: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fatal = self.fatal or fatal
            self.notes[what] += 1


@dataclass
class Acc:
    """What one unit of work, or one reference boot, measured."""

    ops: gen.OpSamples = field(default_factory=gen.OpSamples)
    frame_us: List[float] = field(default_factory=list)
    read_us: float = 0.0  # read_pcap of the capture
    verdict_us: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    fetches: int = 0
    fresh_frames: int = 0
    sim_device_s: float = 0.0
    sim_wall_s: float = 0.0
    sim_beacons: int = 0
    sim_sync_attempts: int = 0
    sim_drops: int = 0


def classes(result) -> List[str]:
    if not isinstance(result, PresenceReport):
        return ["not_paisa"]
    return [result.verdict.value] + (["duplicate"] if result.duplicate else [])


def scan_frames(frames, server, tracer: Tracer, acc: Acc) -> list:
    """Feed ``(timestamp, frame)`` pairs to a fresh receiver whose clock is the
    capture timestamp, serialising each report, as ``paisa scan`` does."""
    fetcher = RegistryFetcher(server.registry, server.serve_manifest)
    now = [0]
    receiver = Receiver(ReceiverConfig(epsilon=gen.EPSILON, manifest_fetcher=fetcher), clock=lambda: now[0])
    clock = time.perf_counter_ns
    results, lat = [], []
    for ts, frame in frames:
        now[0] = ts
        tracer.begin("frame")
        t0 = clock()
        result = receiver.process_frame(frame)
        if isinstance(result, PresenceReport):
            result.to_json()
        lat.append((clock() - t0) / 1e3)
        results.append(result)
    acc.frame_us += lat
    acc.fetches += fetcher.call_count
    for result, us in zip(results, lat):
        kinds = classes(result)
        for kind in kinds:
            acc.verdict_us[kind].append(us)
        if kinds[0] not in ("not_paisa", "stale", "future"):
            acc.fresh_frames += 1
    return results


def check_frames(results, labels, check: Check) -> None:
    for result, label in zip(results, labels, strict=True):
        verified = isinstance(result, PresenceReport) and result.verdict is Verdict.VERIFIED
        if label == gen.HONEST:
            check(verified and not result.duplicate, "honest frame not verified")
        elif label == gen.DUPLICATE:
            check(not verified or result.duplicate, "in-window replay reported as a new presence")
        else:
            check(not verified, f"{label} frame verified", fatal=True)


def honest_fleet(seed, imgs, window, tracer, ops, check, store_path=None) -> gen.Booted:
    fleet = gen.boot_fleet(seed, imgs, window, ops, tracer, store_path)
    for ok in fleet.committed:
        check(ok, "sync did not commit")
    return fleet


# Workloads whose units run no fleet of their own (``reference = True``) boot
# this small in-memory fleet between units of an untraced run, so that their
# provision, sync and announce numbers are sampled across the whole run, as
# the receiver's are, rather than in a few set-up windows. A boot takes about
# 80 ms; after each unit it is repeated until the boots have taken
# REFERENCE_SHARE of the unit's time, so every workload gives each reference
# operation some 80 samples a run. It is not part of a unit, so it is in
# neither the unit's wall time nor the traced run.
REFERENCE_SIZES = [4096, 8192, 16384] * 20
REFERENCE_WINDOW = 30
REFERENCE_SHARE = 0.3


def reference_boot(seed, imgs, acc, check) -> None:
    honest_fleet(seed, imgs, REFERENCE_WINDOW, Tracer(), acc.ops, check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Scan:
    """An honest capture of a few hundred devices, scanned from pcap."""

    reference = True
    devices = 300
    window = 60  # seconds of capture: six announcements per device
    sizes = [4096, 8192, 16384]

    def mix(self, seed, fleet):
        return [(ts, frame, gen.HONEST) for ts, frame, _ in fleet.beacons]

    def setup(self, seed, tracer, check, workdir):
        sizes = [self.sizes[i % len(self.sizes)] for i in range(self.devices)]
        fleet = honest_fleet(seed, gen.images(seed, sizes), self.window, tracer, gen.OpSamples(), check)
        mix = self.mix(seed, fleet)
        path = os.path.join(workdir, "capture.pcap")
        pcapio.write_pcap(path, [(ts, frame) for ts, frame, _ in mix])
        return {
            "server": fleet.server,
            "pcap": path,
            "labels": [label for _, _, label in mix],
        }

    def unit(self, state, tracer, acc, check) -> float:
        start = time.perf_counter()
        frames = pcapio.read_pcap(state["pcap"])
        acc.read_us = (time.perf_counter() - start) * 1e6
        results = scan_frames(frames, state["server"], tracer, acc)
        wall = time.perf_counter() - start
        check_frames(results, state["labels"], check)
        return wall


class Flood(Scan):
    """The scan receiver on an adversarial mix; honest frames are a fifth."""

    # 3,000 frames a unit, so that a unit is as short as scan's: the more
    # units a run has, the surer each frame's fastest time (run.Best).
    devices = 100

    def mix(self, seed, fleet):
        return gen.flood_mix(seed, fleet)


class Fleet:
    """A boot storm against a store-backed server, then every device's timer."""

    reference = False
    # 48 devices keep a unit near 0.4 s, so a run has some 50 of them.
    devices = 48
    window = 60
    # 64 KB to 1 MB images, the range acceptance criterion 8 covers.
    sizes = [64 << 10 << k for k in range(5)]

    def setup(self, seed, tracer, check, workdir):
        sizes = [self.sizes[i % len(self.sizes)] for i in range(self.devices)]
        return {"seed": seed, "images": gen.images(seed, sizes), "store": os.path.join(workdir, "store.json")}

    def unit(self, state, tracer, acc, check) -> float:
        if os.path.exists(state["store"]):
            os.remove(state["store"])
        start = time.perf_counter()
        fleet = honest_fleet(state["seed"], state["images"], self.window, tracer, acc.ops, check, state["store"])
        results = scan_frames([(ts, frame) for ts, frame, _ in fleet.beacons], fleet.server, tracer, acc)
        wall = time.perf_counter() - start
        oracle = AnnouncementOracle(fleet.server)
        for (_, frame, i), result in zip(fleet.beacons, results):
            check(oracle.verifies(frame, fleet.manifest_paths[i]), "announcement does not verify under its manifest key")
            check(isinstance(result, PresenceReport) and result.verdict is Verdict.VERIFIED, "fleet beacon not verified")
        return wall


class Simulate:
    """A generated scenario run by the discrete-event simulator."""

    reference = True

    def setup(self, seed, tracer, check, workdir):
        doc = gen.scenario(seed)
        # Loading the scenario builds its server and provisions its devices;
        # the first unit after this set-up runs the simulation built here.
        sim = simnet.Simulation(simnet.load_scenario(doc))
        return {"doc": doc, "sim": sim, "log": None}

    def unit(self, state, tracer, acc, check) -> float:
        doc = state["doc"]
        sim = state.pop("sim", None) or simnet.Simulation(simnet.load_scenario(doc))
        tracer.begin("simulate")
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        acc.sim_wall_s += wall
        acc.sim_device_s += len(doc["devices"]) * doc["horizon"]
        acc.sim_beacons += len(result.beacon_frames)
        events = Counter(e["event"] for e in result.log)
        acc.sim_sync_attempts += events["sync_attempt"]
        acc.sim_drops += events["drop"]
        for e in result.log:
            if e["event"] in ("sync_reject", "sync_ack_reject"):
                acc.ops.rejects[e["reason"]] += 1
        # Export the broadcast frames and scan them, as `paisa simulate --pcap`
        # followed by `paisa scan` would.
        start = time.perf_counter()
        exported = scan_frames(result.beacon_frames, sim.server, tracer, acc)
        wall += time.perf_counter() - start
        check_simulation(doc, result.log, exported, check)
        if state["log"] is None:
            state["log"] = result.log
        check(result.log == state["log"], "simulator log differs between runs of one scenario")
        return wall


def check_simulation(doc, log, exported, check: Check) -> None:
    """Every verdict and announcement must agree with what the log says the
    devices and the adversary did."""
    eps, horizon = doc["epsilon"], doc["horizon"]
    compromised_at = {c["device"]: c["at"] for c in doc["adversary"]["compromise"]}

    def expected_att(name, att_ts):
        return 0 if name in compromised_at and att_ts >= compromised_at[name] else 1

    synced = {e["device"]: e["t"] for e in log if e["event"] == "device_synced"}
    committed = {e["device"] for e in log if e["event"] == "sync_commit"}
    announces = Counter(e["device"] for e in log if e["event"] == "announce")
    for spec in doc["devices"]:
        name = spec["name"]
        check(name in synced and name in committed, "device never synced")
        t_sync = synced.get(name, horizon)
        due = 1 + sum(1 for t in range(t_sync + 1, horizon + 1) if t % spec["t_announce"] == 0)
        check(name not in synced or announces[name] == due, "announcements off the timer schedule")
    delivered = sum(1 for e in log if e["event"] == "deliver" and e["kind"] == "beacon")
    received = sum(1 for e in log if e["event"] in ("verdict", "not_paisa"))
    check(delivered == received, "a delivered beacon got no verdict")
    for e in log:
        if e["event"] == "not_paisa":
            check(False, "simulated beacon not recognised")
        if e["event"] != "verdict":
            continue
        if e["replayed"]:
            stale = e["t"] - e["announcement_ts"] >= eps
            ok = e["verdict"] != "verified" or (not stale and e["duplicate"])
            check(ok, "replayed beacon accepted", fatal=stale)
        else:
            want = "verified" if expected_att(e["device"], e["att_ts"]) else "compromised"
            check(e["verdict"] == want and not e["duplicate"], "simulated verdict contradicts the log")
            if want == "compromised":
                check(e["verdict"] != "verified", "compromised device verified", fatal=True)
    for result in exported:
        ok = isinstance(result, PresenceReport) and not result.duplicate
        want = Verdict.VERIFIED if ok and result.att_result else Verdict.COMPROMISED
        check(ok and result.verdict is want, "exported beacon got the wrong verdict")


WORKLOADS = {"scan": Scan, "flood": Flood, "fleet": Fleet, "simulate": Simulate}
