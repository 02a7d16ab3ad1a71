"""Deterministic discrete-event broadcast medium with a virtual clock and a
configurable Dolev-Yao adversary connecting devices, server, and receivers.

The adversary is pure data: a scenario policy can drop, delay, tamper with,
and replay serialized frames, and mutate a device's normal software. No policy
primitive exists that reads or writes trusted state or private keys, so
isolation holds by construction.

A scenario is immutable data. Each section of the document is one frozen
dataclass whose fields are its only accepted keys (field metadata names the
JSON key where it differs, and the lower bound); ``_load`` reads every
section the same way, and each class checks its cross-field rules in
``__post_init__``. Unknown keys, values of the wrong JSON type or below
their minimum, and directives naming no scenario device fail at load time
with a ``ScenarioError``.

Every run is fully determined by (scenario, seed): all randomness flows from
one seeded generator owned by the scheduler, and everything a run changes
(the match counts of rules with ``max_matches``, which replay directives have
fired) lives in its ``Simulation``, so a loaded ``Scenario`` gives the same
log each time it is run.
"""

import bisect
import functools
import hashlib
import heapq
import json
import random
from collections import OrderedDict
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Set, Tuple, Union, get_args, get_origin

from . import crypto
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


def _flip_bit(data: bytes, bit: int) -> Tuple[bytes, int]:
    """``data`` with bit ``bit`` (wrapped to its length) inverted, and that bit."""
    buf = bytearray(data)
    bit %= len(buf) * 8
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf), bit


# Ranks are tuples of integers, in lexicographic order: there is always one
# more between any two, exactly, however often one gap is split.
_LOWEST = ()  # below every rank: the cursor before any tick of a second


def _between(lo: tuple, hi: Optional[tuple]) -> tuple:
    """A rank strictly between ``lo`` and ``hi`` (None: no bound above)."""
    if hi is None:
        return (lo[0] + 1,) if lo else (0,)
    if hi[: len(lo)] == lo:  # hi extends lo: just below hi's next element
        return lo + (hi[len(lo)] - 1,)
    return lo + (0,)


class VirtualClock:
    """Integer-seconds event queue in which equal-time events fire in the
    order that ticking every device once a second would give them.

    A device is woken only at its announce boundaries, but its place among
    equal-time events is still that of a tick scheduled by its tick one second
    earlier. That place is its rank, given once by ``new_rank`` when the
    device starts ticking: ticking devices run in rank order each second,
    interleaved with the other events. The cursor is the highest rank whose
    tick of this second has run (ticked virtually or woken), so it tells which
    next-second ticks an event scheduled now comes after. Keys are
    ``(t, second scheduled in, rank or cursor, 1 wake / 2 other, seq)``; a
    wake counts as scheduled in ``t - 1``, by the tick before it.
    """

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        self._heap: List[tuple] = []
        self._ranks: List[tuple] = []  # sorted: every rank given so far
        self._cursor = _LOWEST

    def new_rank(self) -> tuple:
        """The rank of a device whose first tick is next second: after every
        tick already scheduled for then, before those still to be scheduled."""
        above = bisect.bisect_right(self._ranks, self._cursor)
        rank = _between(self._cursor, self._ranks[above] if above < len(self._ranks) else None)
        self._ranks.insert(above, rank)
        self._cursor = rank
        return rank

    def schedule(self, t: int, fn: Callable[[], None], rank: Optional[tuple] = None) -> None:
        """Run ``fn`` at ``t``: a wake of the device with ``rank``, or any other event."""
        if t < self.now:
            raise ValueError(f"cannot schedule event in the past ({t} < {self.now})")
        self._seq += 1
        if rank is not None:
            key = (t, t - 1, rank, 1, self._seq, fn)
        else:
            key = (t, self.now, self._cursor if t == self.now + 1 else _LOWEST, 2, self._seq, fn)
        heapq.heappush(self._heap, key)

    def _advance(self, t: int) -> None:
        if t != self.now:
            self.now = t
            self._cursor = _LOWEST

    def run_until(self, horizon: int) -> None:
        ranks = self._ranks
        while self._heap and self._heap[0][0] <= horizon:
            t, scheduled, label, kind, _, fn = heapq.heappop(self._heap)
            self._advance(t)
            if kind == 1:  # every tick ranked below this wake has run
                below = bisect.bisect_left(ranks, label)
                self._cursor = max(self._cursor, ranks[below - 1] if below else _LOWEST)
                fn()
                self._cursor = label
                continue
            if scheduled == t - 1:  # after the ticks ranked up to its label
                self._cursor = max(self._cursor, label)
            elif scheduled == t:  # after every tick of this second
                self._cursor = max(self._cursor, ranks[-1] if ranks else _LOWEST)
            fn()
        self._advance(horizon)


# ---------------------------------------------------------------------------
# Scenario document: one frozen dataclass per section
# ---------------------------------------------------------------------------

def _key(default=MISSING, *, minimum: Optional[int] = None, key: Optional[str] = None):
    """A scenario field with a lower bound, or read from a JSON key other than its name."""
    return field(default=default, metadata={"minimum": minimum, "key": key})


@dataclass(frozen=True, kw_only=True)
class _LinkRule:
    link: str
    device: Optional[str] = None
    from_t: int = _key(0, key="from")
    until_t: Optional[int] = _key(None, key="until")
    max_matches: Optional[int] = None

    def __post_init__(self) -> None:
        if self.link not in LINKS:
            raise ValueError(f"link must be one of {LINKS}, got {self.link!r}")

    def takes(self, link: str, device: Optional[str], t: int, matched: Dict[int, int]) -> bool:
        """Whether the rule acts on this send. ``matched`` is the run's count of
        sends taken by each rule with ``max_matches``, keyed by ``id(rule)``."""
        if (
            self.link != link
            or (self.device is not None and self.device != device)
            or t < self.from_t
            or (self.until_t is not None and t >= self.until_t)
        ):
            return False
        if self.max_matches is None:
            return True
        n = matched[id(self)]
        if n >= self.max_matches:
            return False
        matched[id(self)] = n + 1
        return True


@dataclass(frozen=True, kw_only=True)
class _DropRule(_LinkRule):
    probability: float = 1.0


@dataclass(frozen=True, kw_only=True)
class _TamperRule(_LinkRule):
    flip_bit: int


@dataclass(frozen=True, kw_only=True)
class _DelayRule(_LinkRule):
    delay: int = _key(0, minimum=0)


@dataclass(frozen=True, kw_only=True)
class _ReplayDirective:
    device: str
    capture_time: int
    inject_at: int
    flip_bit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.inject_at < self.capture_time:
            raise ValueError(
                f"inject_at must be at least capture_time {self.capture_time}, got {self.inject_at}"
            )


@dataclass(frozen=True, kw_only=True)
class _SyncReplayDirective:
    device: str
    message: str
    delay: int = _key(1, minimum=0)

    def __post_init__(self) -> None:
        if self.message not in ("sync_req", "sync_ack"):
            raise ValueError(f"message must be sync_req or sync_ack, got {self.message!r}")


@dataclass(frozen=True, kw_only=True)
class _CompromiseDirective:
    device: str
    at: int = _key(minimum=0)
    flip_byte: Optional[int] = None
    busy_loop: bool = False
    restore_at: Optional[int] = _key(None, minimum=0)


@dataclass(frozen=True)
class AdversaryPolicy:
    drop: Tuple[_DropRule, ...] = ()
    tamper: Tuple[_TamperRule, ...] = ()
    delay: Tuple[_DelayRule, ...] = ()
    replay: Tuple[_ReplayDirective, ...] = ()
    replay_sync: Tuple[_SyncReplayDirective, ...] = ()
    compromise: Tuple[_CompromiseDirective, ...] = ()


@dataclass(frozen=True, kw_only=True)
class DeviceSpec:
    name: str
    t_announce: int = 10
    t_attest: Optional[int] = None  # t_announce when absent
    sw_size: int = _key(4096, minimum=1)
    boot_at: int = _key(0, minimum=0)

    def __post_init__(self) -> None:
        if self.t_attest is None:
            object.__setattr__(self, "t_attest", self.t_announce)
        TimerConfig(self.t_announce, self.t_attest)  # rejects periods a device cannot run


@dataclass(frozen=True, kw_only=True)
class Scenario:
    seed: int = 0
    horizon: int = 100
    epsilon: int = _key(10, minimum=0)
    future_skew: int = _key(2, minimum=0)
    receivers: int = _key(1, minimum=0)
    devices: Tuple[DeviceSpec, ...] = ()
    adversary: AdversaryPolicy = AdversaryPolicy()

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("at least one device is required")
        names: Set[str] = set()
        for spec in self.devices:
            if spec.name in names:
                raise ValueError(f"duplicate device name {spec.name!r}")
            names.add(spec.name)
        for section in fields(self.adversary):
            for i, directive in enumerate(getattr(self.adversary, section.name)):
                if directive.device is not None and directive.device not in names:
                    raise ValueError(
                        f"adversary.{section.name}[{i}] names unknown device {directive.device!r}"
                    )


# The JSON values each scalar kind takes, and its name in errors. A bool is
# also an int to Python, so it is refused apart wherever it is not the kind.
_SCALARS = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
}


@functools.lru_cache(maxsize=None)
def _keys(cls) -> Dict[str, tuple]:
    """The fields of section ``cls`` by JSON key, resolved once per class:
    (field name, kind, many, required, minimum). The kind is a scalar type or
    a section class, ``Optional[X]`` read as X; ``many`` marks a list of
    sections (a ``Tuple[Section, ...]`` field)."""
    table = {}
    for f in fields(cls):
        kind = f.type
        if get_origin(kind) is Union:  # Optional[X]
            kind = get_args(kind)[0]
        many = get_origin(kind) is tuple
        if many:
            kind = get_args(kind)[0]
        table[f.metadata.get("key") or f.name] = (
            f.name, kind, many, f.default is MISSING, f.metadata.get("minimum")
        )
    return table


def _load(cls, doc, where: str):
    """Read the section ``doc`` into the dataclass ``cls``: each field is one
    key, and an absent or null key takes the field's default."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where} must be an object")
    keys = _keys(cls)
    unknown = doc.keys() - keys.keys()
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")
    values = {}
    for key, (name, kind, many, required, minimum) in keys.items():
        raw = doc.get(key)
        if raw is not None:
            values[name] = _value(kind, many, minimum, raw, f"{where}.{key}")
        elif required:
            raise ScenarioError(f"{where}: {key} is required")
    try:
        return cls(**values)
    except ValueError as exc:  # a cross-field rule in __post_init__
        raise ScenarioError(f"{where}: {exc}") from exc


def _value(kind, many: bool, minimum: Optional[int], raw, where: str):
    """``raw`` as a field of ``kind``: a section, a list of sections, or a
    scalar of exactly that kind (an integer also as a float) not below
    ``minimum``."""
    if many:
        if not isinstance(raw, list):
            raise ScenarioError(f"{where} must be a list")
        return tuple(_load(kind, item, f"{where}[{i}]") for i, item in enumerate(raw))
    if kind not in _SCALARS:
        return _load(kind, raw, where)
    types, name = _SCALARS[kind]
    if not isinstance(raw, types) or (isinstance(raw, bool) and kind is not bool):
        raise ScenarioError(f"{where} must be {name}, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ScenarioError(f"{where} must be at least {minimum}, got {raw}")
    return kind(raw)


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
        except RecursionError as exc:
            raise ScenarioError(f"{source}: invalid JSON: nested too deeply") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read {source}: {exc}") from exc
    return _load(Scenario, doc, "scenario")


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
        # Run state, keyed by identity so that two equal rules count apart:
        # the sends taken so far by each rule with max_matches, and the
        # replay directives that have fired.
        adv = scenario.adversary
        self._matched: Dict[int, int] = {
            id(rule): 0
            for rules in (adv.drop, adv.tamper, adv.delay)
            for rule in rules
            if rule.max_matches is not None
        }
        self._fired: Set[int] = set()

        mfr_keys = crypto.generate_keypair(self.rng.randbytes(32))
        self.server = ManufacturerServer(mfr_keys, nonce_source=self.rng)

        self.devices: Dict[str, Device] = {}
        self._name_by_id: Dict[str, str] = {}
        # Each image is one bytes object, shared with its device until the
        # adversary's first write gives the device a private copy.
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
        # One memo for all receivers: each broadcast is decoded and verified once.
        memo: OrderedDict = OrderedDict()
        self.receivers = [
            Receiver(cfg, clock=lambda clock=self.clock: clock.now, memo=memo)
            for _ in range(scenario.receivers)
        ]

    # -- logging ------------------------------------------------------------

    def _log(self, event: str, **fields) -> None:
        self.log.append({"t": self.clock.now, "event": event, **fields})

    # -- adversary application ----------------------------------------------

    def _apply_rules(
        self, link: str, device: Optional[str], payload: bytes, send_id: int
    ) -> Optional[Tuple[bytes, int]]:
        """Returns (possibly tampered payload, extra delay), or None if dropped."""
        t = self.clock.now
        adv, matched = self.scenario.adversary, self._matched
        for rule in adv.drop:
            if rule.takes(link, device, t, matched) and self.rng.random() < rule.probability:
                self._log("drop", id=send_id, link=link, device=device)
                return None
        out = payload
        for rule in adv.tamper:
            if rule.takes(link, device, t, matched):
                out, bit = _flip_bit(out, rule.flip_bit)
                self._log("tamper", id=send_id, link=link, device=device, flip_bit=bit)
        extra_delay = 0
        for rule in adv.delay:
            if rule.takes(link, device, t, matched):
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
            if directive.device == name and directive.message == kind and id(directive) not in self._fired:
                self._fired.add(id(directive))
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
        outcome = dev.handle_sync_datagram(data)
        if outcome.reply is None:
            self._log(outcome.event, device=name, **outcome.fields())
            return
        self._maybe_capture_sync(name, "sync_ack", outcome.reply)
        self._send_to_server(name, "sync_ack", outcome.reply)
        self._log(outcome.event, device=name, ts=dev.clock.now)
        self._broadcast(name, dev.announce_now())
        self._schedule_wake(name, self.clock.new_rank())

    # -- runtime -------------------------------------------------------------

    def _schedule_wake(self, name: str, rank: tuple) -> None:
        """Wake the device at its next announce boundary, if within the horizon."""
        dev = self.devices[name]
        t = self.clock.now + dev.next_announce - dev.clock.now
        if t <= self.scenario.horizon:
            self.clock.schedule(t, lambda: self._wake(name, rank), rank=rank)

    def _wake(self, name: str, rank: tuple) -> None:
        self._broadcast(name, self.devices[name].wake())
        self._schedule_wake(name, rank)

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
        """Capture the device's first frame sent in a replay's window
        [capture_time, inject_at]; with none in it, that replay never fires."""
        for directive in self.scenario.adversary.replay:
            if (
                directive.device == name
                and directive.capture_time <= self.clock.now <= directive.inject_at
                and id(directive) not in self._fired
            ):
                self._fired.add(id(directive))
                data = frame
                if directive.flip_bit is not None:
                    data, _ = _flip_bit(frame, directive.flip_bit)
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
        for directive in self.scenario.adversary.compromise:
            self.clock.schedule(directive.at, lambda d=directive: self._compromise(d))
            if directive.restore_at is not None:
                self.clock.schedule(directive.restore_at, lambda d=directive: self._restore(d))
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
