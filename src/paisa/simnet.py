"""Deterministic discrete-event broadcast medium with a virtual clock and a
configurable Dolev-Yao adversary connecting devices, server, and receivers.

The adversary is pure data: a scenario policy can drop, delay, tamper with,
and replay serialized frames, and mutate a device's normal software. No policy
primitive exists that reads or writes trusted state or private keys, so
isolation holds by construction; unknown directives fail at load time.

Every run is fully determined by (scenario, seed): all randomness flows from
one seeded generator owned by the scheduler.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from . import crypto, wire
from .device import Device, TimerConfig
from .receiver import (
    PresenceReport,
    Receiver,
    ReceiverConfig,
    RegistryFetcher,
)
from .server import DeviceDescription, ManufacturerServer

LINKS = ("device->server", "server->device", "device->receiver")


class ScenarioError(ValueError):
    """Scenario rejected at load time; the message names the offending key."""


class VirtualClock:
    """Integer-seconds event queue; equal-time events fire in insertion order."""

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []

    def schedule(self, t: int, fn: Callable[[], None]) -> None:
        if t < self.now:
            raise ValueError(f"cannot schedule event in the past ({t} < {self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn))

    def run_until(self, horizon: int) -> None:
        while self._heap and self._heap[0][0] <= horizon:
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
        self.now = horizon


# ---------------------------------------------------------------------------
# Adversary policy
# ---------------------------------------------------------------------------

@dataclass
class _LinkRule:
    link: str
    device: Optional[str]
    from_t: int
    until_t: Optional[int]
    max_matches: Optional[int]
    probability: float = 1.0
    delay: int = 0
    flip_bit: Optional[int] = None
    matched: int = 0

    def applies(self, link: str, device: Optional[str], t: int) -> bool:
        if self.link != link:
            return False
        if self.device is not None and self.device != device:
            return False
        if t < self.from_t:
            return False
        if self.until_t is not None and t >= self.until_t:
            return False
        if self.max_matches is not None and self.matched >= self.max_matches:
            return False
        return True


@dataclass
class _ReplayDirective:
    device: str
    capture_time: int
    inject_at: int
    flip_bit: Optional[int] = None
    captured: Optional[bytes] = None


@dataclass
class _SyncReplayDirective:
    device: str
    message: str  # "sync_req" | "sync_ack"
    delay: int
    captured: bool = False


@dataclass
class _CompromiseDirective:
    device: str
    at: int
    flip_byte: Optional[int] = None
    busy_loop: bool = False
    restore_at: Optional[int] = None


@dataclass
class AdversaryPolicy:
    drop: List[_LinkRule] = field(default_factory=list)
    tamper: List[_LinkRule] = field(default_factory=list)
    delay: List[_LinkRule] = field(default_factory=list)
    replay: List[_ReplayDirective] = field(default_factory=list)
    replay_sync: List[_SyncReplayDirective] = field(default_factory=list)
    compromise: List[_CompromiseDirective] = field(default_factory=list)


def _require_keys(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _parse_link_rule(doc: dict, where: str, tamper: bool = False) -> _LinkRule:
    allowed = {"link", "device", "from", "until", "max_matches", "probability", "delay"}
    if tamper:
        allowed.add("flip_bit")
    _require_keys(doc, allowed, where)
    link = doc.get("link")
    if link not in LINKS:
        raise ScenarioError(f"{where}: link must be one of {LINKS}, got {link!r}")
    return _LinkRule(
        link=link,
        device=doc.get("device"),
        from_t=int(doc.get("from", 0)),
        until_t=int(doc["until"]) if "until" in doc and doc["until"] is not None else None,
        max_matches=(
            int(doc["max_matches"])
            if "max_matches" in doc and doc["max_matches"] is not None
            else None
        ),
        probability=float(doc.get("probability", 1.0)),
        delay=int(doc.get("delay", 0)),
        flip_bit=int(doc["flip_bit"]) if tamper and "flip_bit" in doc else None,
    )


def parse_adversary(doc: dict) -> AdversaryPolicy:
    _require_keys(
        doc,
        {"drop", "tamper", "delay", "replay", "replay_sync", "compromise"},
        "adversary",
    )
    policy = AdversaryPolicy()
    for i, rule in enumerate(doc.get("drop", [])):
        policy.drop.append(_parse_link_rule(rule, f"adversary.drop[{i}]"))
    for i, rule in enumerate(doc.get("tamper", [])):
        policy.tamper.append(_parse_link_rule(rule, f"adversary.tamper[{i}]", tamper=True))
    for i, rule in enumerate(doc.get("delay", [])):
        policy.delay.append(_parse_link_rule(rule, f"adversary.delay[{i}]"))
    for i, rep in enumerate(doc.get("replay", [])):
        where = f"adversary.replay[{i}]"
        _require_keys(rep, {"device", "capture_time", "inject_at", "flip_bit"}, where)
        directive = _ReplayDirective(
            device=rep["device"],
            capture_time=int(rep["capture_time"]),
            inject_at=int(rep["inject_at"]),
            flip_bit=int(rep["flip_bit"]) if rep.get("flip_bit") is not None else None,
        )
        if directive.inject_at < directive.capture_time:
            raise ScenarioError(f"{where}: inject_at precedes capture_time")
        policy.replay.append(directive)
    for i, rep in enumerate(doc.get("replay_sync", [])):
        where = f"adversary.replay_sync[{i}]"
        _require_keys(rep, {"device", "message", "delay"}, where)
        if rep.get("message") not in ("sync_req", "sync_ack"):
            raise ScenarioError(f"{where}: message must be sync_req or sync_ack")
        policy.replay_sync.append(
            _SyncReplayDirective(
                device=rep["device"], message=rep["message"], delay=int(rep.get("delay", 1))
            )
        )
    for i, comp in enumerate(doc.get("compromise", [])):
        where = f"adversary.compromise[{i}]"
        _require_keys(comp, {"device", "at", "flip_byte", "busy_loop", "restore_at"}, where)
        policy.compromise.append(
            _CompromiseDirective(
                device=comp["device"],
                at=int(comp["at"]),
                flip_byte=int(comp["flip_byte"]) if comp.get("flip_byte") is not None else None,
                busy_loop=bool(comp.get("busy_loop", False)),
                restore_at=(
                    int(comp["restore_at"]) if comp.get("restore_at") is not None else None
                ),
            )
        )
    return policy


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass
class DeviceSpec:
    name: str
    t_announce: int = 10
    t_attest: int = 10
    sw_size: int = 4096
    boot_at: int = 0


@dataclass
class Scenario:
    seed: int
    horizon: int
    epsilon: int
    future_skew: int
    receivers: int
    devices: List[DeviceSpec]
    adversary: AdversaryPolicy


def load_scenario(source: Union[str, dict]) -> Scenario:
    """Parse a scenario from a JSON file path or an already-loaded dict."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    _require_keys(
        doc,
        {"seed", "horizon", "epsilon", "future_skew", "receivers", "devices", "adversary"},
        "scenario",
    )
    if "devices" not in doc or not doc["devices"]:
        raise ScenarioError("scenario: at least one device is required")
    devices = []
    seen = set()
    for i, dev in enumerate(doc["devices"]):
        where = f"devices[{i}]"
        _require_keys(dev, {"name", "t_announce", "t_attest", "sw_size", "boot_at"}, where)
        if "name" not in dev:
            raise ScenarioError(f"{where}: device name is required")
        if dev["name"] in seen:
            raise ScenarioError(f"{where}: duplicate device name {dev['name']!r}")
        seen.add(dev["name"])
        t_announce = int(dev.get("t_announce", 10))
        devices.append(
            DeviceSpec(
                name=dev["name"],
                t_announce=t_announce,
                t_attest=int(dev.get("t_attest", t_announce)),
                sw_size=int(dev.get("sw_size", 4096)),
                boot_at=int(dev.get("boot_at", 0)),
            )
        )
    return Scenario(
        seed=int(doc.get("seed", 0)),
        horizon=int(doc.get("horizon", 100)),
        epsilon=int(doc.get("epsilon", 10)),
        future_skew=int(doc.get("future_skew", 2)),
        receivers=int(doc.get("receivers", 1)),
        devices=devices,
        adversary=parse_adversary(doc.get("adversary", {})),
    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

@dataclass
class SimResult:
    log: List[dict]
    beacon_frames: List[Tuple[int, bytes]]

    def log_ndjson(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.log) + "\n"


class Simulation:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.clock = VirtualClock()
        self.log: List[dict] = []
        self.beacon_frames: List[Tuple[int, bytes]] = []
        self._send_seq = 0

        mfr_keys = crypto.generate_keypair(self.rng.randbytes(32))
        self.server = ManufacturerServer(mfr_keys, nonce_source=self.rng)

        self.devices: Dict[str, Device] = {}
        self._name_by_id: Dict[str, str] = {}
        self._sw_original: Dict[str, bytes] = {}
        for spec in scenario.devices:
            dev = Device(nonce_source=self.rng)
            sw = self.rng.randbytes(spec.sw_size)
            device_id = hashlib.sha256(b"paisa-device:" + spec.name.encode()).digest()[:16]
            self.server.register_device(
                device=dev,
                device_id=device_id,
                sw_dev=sw,
                full_url=f"https://mfr.example/manifests/{spec.name}.json",
                ts_cur=0,
                timer_config=TimerConfig(spec.t_announce, spec.t_attest),
                description=DeviceDescription(
                    device_type_model=f"sim-{spec.name}",
                    deployment_purpose="simulation",
                ),
                key_seed=self.rng.randbytes(32),
            )
            self.devices[spec.name] = dev
            self._name_by_id[device_id.hex()] = spec.name
            self._sw_original[spec.name] = sw

        fetcher = RegistryFetcher(self.server.registry, self.server.serve_manifest)
        cfg = ReceiverConfig(
            epsilon=scenario.epsilon,
            future_skew=scenario.future_skew,
            manifest_fetcher=fetcher,
        )
        # The clock is captured rather than self: a cycle through self would
        # keep a finished simulation alive until a full garbage collection.
        self.receivers = [
            Receiver(cfg, clock=lambda clock=self.clock: clock.now)
            for _ in range(scenario.receivers)
        ]

    # -- logging ------------------------------------------------------------

    def _log(self, event: str, **fields) -> None:
        entry = {"t": self.clock.now, "event": event}
        entry.update(fields)
        self.log.append(entry)

    # -- adversary application ----------------------------------------------

    def _apply_rules(
        self, link: str, device: Optional[str], payload: bytes, send_id: int
    ) -> Optional[Tuple[bytes, int]]:
        """Returns (possibly tampered payload, extra delay), or None if dropped."""
        t = self.clock.now
        for rule in self.scenario.adversary.drop:
            if rule.applies(link, device, t):
                rule.matched += 1
                if self.rng.random() < rule.probability:
                    self._log("drop", id=send_id, link=link, device=device)
                    return None
        out = payload
        for rule in self.scenario.adversary.tamper:
            if rule.applies(link, device, t) and rule.flip_bit is not None:
                rule.matched += 1
                buf = bytearray(out)
                bit = rule.flip_bit % (len(buf) * 8)
                buf[bit // 8] ^= 1 << (bit % 8)
                out = bytes(buf)
                self._log("tamper", id=send_id, link=link, device=device, flip_bit=bit)
        extra_delay = 0
        for rule in self.scenario.adversary.delay:
            if rule.applies(link, device, t):
                rule.matched += 1
                extra_delay += rule.delay
                self._log("delay", id=send_id, link=link, device=device, seconds=rule.delay)
        return out, extra_delay

    def _send(
        self,
        link: str,
        device: Optional[str],
        kind: str,
        payload: bytes,
        deliver: Callable[[bytes], None],
        replayed: bool = False,
    ) -> None:
        """Push one message onto the medium; the adversary sees only bytes."""
        self._send_seq += 1
        send_id = self._send_seq
        self._log(
            "send", id=send_id, link=link, device=device, kind=kind, replayed=replayed
        )
        outcome = self._apply_rules(link, device, payload, send_id)
        if outcome is None:
            return
        data, delay = outcome
        self.clock.schedule(self.clock.now + delay, lambda: self._deliver(send_id, link, device, kind, data, deliver))

    def _deliver(self, send_id, link, device, kind, data, deliver) -> None:
        self._log("deliver", id=send_id, link=link, device=device, kind=kind)
        deliver(data)

    # -- sync flow -----------------------------------------------------------

    def _boot(self, name: str) -> None:
        """Send the device's next SyncReq and come back when its wait is over."""
        dev = self.devices[name]
        attempt = dev.sync_attempts
        step = dev.next_sync_attempt()
        if step is None:
            if not dev.synced:
                self._log("sync_failed", device=name, attempts=attempt)
            return
        self._log("sync_attempt", device=name, attempt=attempt)
        payload, wait = step
        self._maybe_capture_sync(name, "sync_req", payload)
        self._send_to_server(name, "sync_req", payload)
        self.clock.schedule(self.clock.now + wait, lambda: self._boot(name))

    def _maybe_capture_sync(self, name: str, kind: str, payload: bytes) -> None:
        for directive in self.scenario.adversary.replay_sync:
            if directive.device == name and directive.message == kind and not directive.captured:
                directive.captured = True
                self.clock.schedule(
                    self.clock.now + directive.delay,
                    lambda: self._send_to_server(name, kind, payload, replayed=True),
                )

    def _send_to_server(
        self, name: str, kind: str, payload: bytes, replayed: bool = False
    ) -> None:
        self._send(
            "device->server",
            name,
            kind,
            payload,
            lambda data: self._server_on_datagram(name, data, replayed),
            replayed=replayed,
        )

    def _server_on_datagram(self, name: str, data: bytes, replayed: bool) -> None:
        outcome = self.server.handle_datagram(data, self.clock.now)
        if outcome.reply is None:
            self._log(outcome.event, device=name, replayed=replayed, **outcome.fields())
            return
        self._send(
            "server->device",
            name,
            "sync_resp",
            outcome.reply,
            lambda d: self._device_on_sync_resp(name, d),
        )

    def _device_on_sync_resp(self, name: str, data: bytes) -> None:
        dev = self.devices[name]
        try:
            payload = dev.handle_sync_datagram(data)
        except wire.SyncParseError as exc:
            self._log("device_discard", device=name, reason=str(exc))
            return
        if payload is None:
            self._log("device_sync_retry", device=name)
            return
        self._maybe_capture_sync(name, "sync_ack", payload)
        self._send_to_server(name, "sync_ack", payload)
        # Only an unsynced device holds a pending nonce: an ack means it just synced.
        self._log("device_synced", device=name, ts=dev.clock.now)
        self._broadcast(name, dev.announce_now())
        self._schedule_tick(name)

    # -- runtime -------------------------------------------------------------

    def _schedule_tick(self, name: str) -> None:
        next_t = self.clock.now + 1
        if next_t <= self.scenario.horizon:
            self.clock.schedule(next_t, lambda: self._tick(name))

    def _tick(self, name: str) -> None:
        frames = self.devices[name].tick()
        self._broadcast(name, frames)
        self._schedule_tick(name)

    def _broadcast(self, name: str, frames: List[bytes]) -> None:
        for frame in frames:
            self.beacon_frames.append((self.clock.now, frame))
            self._log("announce", device=name, ts=self.devices[name].clock.now)
            self._maybe_capture_beacon(name, frame)
            self._send_to_receivers(name, frame)

    def _send_to_receivers(
        self, name: Optional[str], frame: bytes, replayed: bool = False
    ) -> None:
        for idx in range(len(self.receivers)):
            self._send(
                "device->receiver",
                name,
                "beacon",
                frame,
                lambda data, idx=idx: self._receiver_on_frame(idx, data, replayed),
                replayed=replayed,
            )

    def _maybe_capture_beacon(self, name: str, frame: bytes) -> None:
        for directive in self.scenario.adversary.replay:
            if (
                directive.device == name
                and directive.captured is None
                and self.clock.now >= directive.capture_time
            ):
                data = frame
                if directive.flip_bit is not None:
                    buf = bytearray(data)
                    bit = directive.flip_bit % (len(buf) * 8)
                    buf[bit // 8] ^= 1 << (bit % 8)
                    data = bytes(buf)
                directive.captured = data
                self._log("replay_capture", device=name, inject_at=directive.inject_at)
                self.clock.schedule(
                    directive.inject_at, lambda d=data, n=name: self.inject_replay(d, n)
                )

    def inject_replay(self, frame: bytes, device: Optional[str] = None) -> None:
        """Re-deliver captured frame bytes verbatim to every receiver, now."""
        self._log("replay_inject", device=device)
        self._send_to_receivers(device, frame, replayed=True)

    def _receiver_on_frame(self, idx: int, data: bytes, replayed: bool) -> None:
        result = self.receivers[idx].process_frame(data)
        if isinstance(result, PresenceReport):
            name = self._name_by_id.get(result.device_id) if result.device_id else None
            self._log(
                "verdict",
                receiver=idx,
                verdict=result.verdict.value,
                device=name,
                device_id=result.device_id,
                announcement_ts=result.announcement_timestamp,
                att_result=result.att_result,
                att_ts=result.att_timestamp,
                duplicate=result.duplicate,
                replayed=replayed,
            )
        else:
            self._log(
                "not_paisa", receiver=idx, verdict=result.verdict.value, replayed=replayed
            )

    # -- compromise directives ------------------------------------------------

    def _schedule_compromises(self) -> None:
        for directive in self.scenario.adversary.compromise:
            if directive.device not in self.devices:
                raise ScenarioError(f"compromise names unknown device {directive.device!r}")
            self.clock.schedule(directive.at, lambda d=directive: self._compromise(d))
            if directive.restore_at is not None:
                self.clock.schedule(
                    directive.restore_at, lambda d=directive: self._restore(d)
                )

    def _compromise(self, directive: _CompromiseDirective) -> None:
        sw = self.devices[directive.device].software
        if directive.flip_byte is not None:
            sw.program_memory[directive.flip_byte % len(sw.program_memory)] ^= 0xFF
        self._log(
            "compromise",
            device=directive.device,
            flip_byte=directive.flip_byte,
            busy_loop=directive.busy_loop,
        )

    def _restore(self, directive: _CompromiseDirective) -> None:
        sw = self.devices[directive.device].software
        sw.program_memory[:] = self._sw_original[directive.device]
        self._log("restore", device=directive.device)

    # -- run ------------------------------------------------------------------

    def run(self) -> SimResult:
        for spec in self.scenario.devices:
            self.clock.schedule(spec.boot_at, lambda n=spec.name: self._boot(n))
        self._schedule_compromises()
        self.clock.run_until(self.scenario.horizon)
        return SimResult(log=self.log, beacon_frames=self.beacon_frames)


def run_scenario(source: Union[str, dict, Scenario]) -> SimResult:
    """Load (if needed) and run a scenario to its horizon."""
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    return Simulation(scenario).run()


def summarize_verdicts(log: List[dict]) -> Dict[str, int]:
    """Count receiver verdicts in an event log, keyed by verdict name."""
    counts: Dict[str, int] = {}
    for entry in log:
        if entry.get("event") == "verdict":
            counts[entry["verdict"]] = counts.get(entry["verdict"], 0) + 1
    return counts
