"""Seeded input generator for the benchmark.

Inputs are built from one integer seed through the package's public API
only (``ManufacturerServer``, ``Device``, ``wire``); captures are written with
``pcapio`` and scenarios are documents for ``simnet.load_scenario``. The same
seed always yields byte-identical inputs. Every generated
beacon, sync and announcement carries the outcome it must have; the program
under test only ever sees the bytes.
"""

from __future__ import annotations

import hashlib
import os
import random
import string
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

from paisa import crypto, wire
from paisa.device import Device, TimerConfig
from paisa.server import DeviceDescription, ManufacturerServer

# A multiple of T_ATTEST, so every device announces and attests on the same
# wall-clock boundaries and the capture is easy to reason about.
T0 = 1_699_999_980
EPSILON = 10
T_ANNOUNCE = 10
T_ATTEST = 3 * T_ANNOUNCE

# Frame labels: the outcome each generated frame must get from a receiver.
HONEST = "honest"                # fresh device output: must verify, not a duplicate
DUPLICATE = "duplicate"          # byte-identical replay inside the window: flagged or rejected
STALE = "stale"                  # replay at least epsilon old: must be rejected
UNKNOWN_URL = "unknown_url"      # forged, unregistered short URL: must be rejected
BAD_SIGNATURE = "bad_signature"  # forged, registered URL, random signature: must be rejected
NOT_PAISA = "not_paisa"          # foreign or truncated beacon: rejected at decode
FORGED = frozenset({STALE, UNKNOWN_URL, BAD_SIGNATURE, NOT_PAISA})

_B62 = string.digits + string.ascii_uppercase + string.ascii_lowercase


class SeededNonces:
    """Nonce source for ``Device`` and ``ManufacturerServer`` driven by a seeded RNG."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def randbytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)


@dataclass
class OpSamples:
    """Per-operation latencies (µs) and device-timer throughput of a fleet boot."""

    provision_us: List[float] = field(default_factory=list)
    sync_us: List[float] = field(default_factory=list)
    announce_us: List[float] = field(default_factory=list)
    device_s: float = 0.0        # device-seconds of timer run
    device_wall_s: float = 0.0   # wall seconds those timers took
    persist_bytes: int = 0       # store file size summed over every commit
    rejects: Counter = field(default_factory=Counter)  # sync rejection reasons


@dataclass
class Booted:
    server: ManufacturerServer
    beacons: List[Tuple[int, bytes, int]]  # (timestamp, frame, device index)
    manifest_paths: List[str]
    committed: List[bool]  # per device: its boot sync committed


def device_id(seed: int, i: int) -> bytes:
    return hashlib.sha256(b"perfbench:%d:%d" % (seed, i)).digest()[:16]


def images(seed: int, sizes: List[int]) -> List[bytes]:
    rng = random.Random(f"images:{seed}")
    return [rng.randbytes(size) for size in sizes]


def boot_fleet(seed, imgs, window, ops, tracer, store_path=None) -> Booted:
    """Provision one device per image, sync them as a boot storm, then run
    every device's one-second timer for ``window`` seconds.

    All SyncReqs are answered before any SyncAck arrives, so pending sessions
    pile up on the server; every datagram goes through the wire codec. With
    ``store_path`` the server is store-backed and is reloaded from the store
    after provisioning, as ``paisa provision`` and ``paisa server`` do.
    """
    rng = random.Random(f"fleet:{seed}")
    nonces = SeededNonces(random.Random(rng.randrange(2**63)))
    clock = time.perf_counter_ns
    server = ManufacturerServer(
        crypto.generate_keypair(rng.randbytes(32)), store_path=store_path, nonce_source=nonces
    )
    devices, paths = [], []
    for i, image in enumerate(imgs):
        dev = Device(nonce_source=nonces)
        did = device_id(seed, i)
        key_seed = rng.randbytes(32)
        tracer.begin("provision")
        t0 = clock()
        _, record = server.register_device(
            device=dev,
            device_id=did,
            sw_dev=image,
            full_url=f"https://mfr.example/fleet/{seed}/{i:04d}.json",
            ts_cur=0,
            timer_config=TimerConfig(T_ANNOUNCE, T_ATTEST),
            description=DeviceDescription(device_type_model=f"bench-{i % 7}", owner_id=f"owner-{i % 13}"),
            key_seed=key_seed,
        )
        ops.provision_us.append((clock() - t0) / 1e3)
        if store_path:
            ops.persist_bytes += os.path.getsize(store_path)
        devices.append(dev)
        paths.append(record.manifest_path)
    if store_path:
        server = ManufacturerServer.load(store_path, nonce_source=nonces)

    # Boot storm: every SyncReq/SyncResp first, then every SyncAck.
    now = T0
    acks, req_ids, elapsed = [], [], []
    for dev in devices:
        req_ids.append(tracer.begin("sync"))
        t0 = clock()
        req = wire.decode_sync_message(wire.encode_sync_message(dev.make_sync_req()))
        resp = server.handle_sync_req(req, now)
        ack = None
        if isinstance(resp, wire.SyncResp):
            resp = wire.decode_sync_message(wire.encode_sync_message(resp))
            ack = dev.handle_sync_resp(resp)
        else:
            ops.rejects[resp.reason] += 1
        acks.append(None if ack is None else wire.encode_sync_message(ack))
        elapsed.append(clock() - t0)
    committed = []
    for i, data in enumerate(acks):
        if data is None:
            committed.append(False)
            continue
        tracer.req = req_ids[i]
        t0 = clock()
        outcome = server.handle_sync_ack(wire.decode_sync_message(data), now)
        ops.sync_us.append((elapsed[i] + clock() - t0) / 1e3)
        committed.append(outcome.committed)
        if not outcome.committed:
            ops.rejects[outcome.reason] += 1
        elif store_path:
            ops.persist_bytes += os.path.getsize(store_path)

    # Timers, round-robin one second at a time; an announce is one period.
    live = [i for i, dev in enumerate(devices) if dev.synced]
    period_ns = dict.fromkeys(live, 0)
    period_req = {i: tracer.begin("announce") for i in live}
    beacons = []
    start = clock()
    for s in range(1, window + 1):
        for i in live:
            tracer.req = period_req[i]
            t0 = clock()
            frames = devices[i].tick()
            period_ns[i] += clock() - t0
            for frame in frames:
                beacons.append((now + s, frame, i))
            if s % T_ANNOUNCE == 0:
                ops.announce_us.append(period_ns[i] / 1e3)
                period_ns[i] = 0
                period_req[i] = tracer.begin("announce")
    ops.device_wall_s += (clock() - start) / 1e9
    ops.device_s += len(live) * window
    return Booted(server, beacons, paths, committed)


# ---------------------------------------------------------------------------
# Flood: an adversarial mix around an honest capture
# ---------------------------------------------------------------------------

def _random_mac(rng: random.Random) -> bytes:
    return bytes([0x02]) + rng.randbytes(5)


def _random_signature(rng: random.Random) -> bytes:
    return b"".join(rng.randrange(1, crypto.CURVE_ORDER).to_bytes(32, "big") for _ in range(2))


def _forged(rng, ts, short_url) -> bytes:
    msg = wire.AnnouncementMsg(
        nonce=rng.randbytes(32),
        timestamp=ts,
        short_url=short_url,
        att_result=1,
        att_timestamp=ts - ts % T_ATTEST,
        signature=_random_signature(rng),
    )
    return wire.encode_beacon(msg, _random_mac(rng))


def _foreign_beacon(rng, ts) -> bytes:
    """A well-formed beacon of an ordinary access point (no PAISA SSID)."""
    ssid = ("net-" + "".join(rng.choice(_B62) for _ in range(6))).encode()
    mac = _random_mac(rng)
    header = b"\x80\x00\x00\x00" + b"\xff" * 6 + mac + mac + b"\x00\x00"
    fixed = (ts * 1_000_000).to_bytes(8, "little") + b"\x64\x00\x31\x04"
    return header + fixed + bytes((0, len(ssid))) + ssid + b"\x01\x04\x82\x84\x8b\x96"


def flood_mix(seed, fleet: Booted) -> List[Tuple[int, bytes, str]]:
    """Honest beacons (a fifth of the mix) plus forged, replayed and foreign frames.

    Per honest frame there is one unknown-URL forgery, one registered-URL
    forgery with a random signature, 3/4 stale replay, 1/2 in-window replay
    and 3/4 non-PAISA or truncated beacon, each at a random capture time.
    """
    rng = random.Random(f"flood:{seed}")
    honest = [(ts, frame, HONEST) for ts, frame, _ in fleet.beacons]
    first, last = honest[0][0], honest[-1][0]
    registered = fleet.server.registry.to_dict()
    urls = sorted(registered)
    mix = list(honest)
    n = len(honest)
    for _ in range(n):
        ts = rng.randint(first, last)
        while True:
            url = "".join(rng.choice(_B62) for _ in range(wire.SHORT_URL_LEN))
            if url not in registered:
                break
        mix.append((ts, _forged(rng, ts, url), UNKNOWN_URL))
    for _ in range(n):
        ts = rng.randint(first, last)
        mix.append((ts, _forged(rng, ts, rng.choice(urls)), BAD_SIGNATURE))
    old = [h for h in honest if h[0] + EPSILON <= last]
    for _ in range(3 * n // 4):
        ts0, frame, _ = rng.choice(old)
        mix.append((rng.randint(ts0 + EPSILON, last), frame, STALE))
    for _ in range(n // 2):
        ts0, frame, _ = rng.choice(honest)
        mix.append((ts0 + rng.randint(1, EPSILON - 1), frame, DUPLICATE))
    for k in range(3 * n // 4):
        ts = rng.randint(first, last)
        if k % 2:
            frame = _foreign_beacon(rng, ts)
        else:
            frame = rng.choice(honest)[1][: rng.randrange(24, wire.BEACON_FRAME_LEN)]
        mix.append((ts, frame, NOT_PAISA))
    # Time order, seeded order within a second. A replay inside the window is
    # at least one second after its original, so it always comes later.
    keyed = sorted((ts, rng.random(), i) for i, (ts, _, _) in enumerate(mix))
    return [mix[i] for _, _, i in keyed]


# ---------------------------------------------------------------------------
# Simulator scenario
# ---------------------------------------------------------------------------

SCENARIO_DEVICES = 20
SCENARIO_HORIZON = 600


def scenario(seed: int) -> dict:
    """Tens of devices, two receivers, a light adversary: 5% beacon drops, one
    SyncResp drop, one stale replay and one compromise."""
    rng = random.Random(f"scenario:{seed}")
    names = [f"dev{i:02d}" for i in range(SCENARIO_DEVICES)]
    specs = [
        {
            "name": name,
            "t_announce": T_ANNOUNCE,
            "t_attest": T_ATTEST,
            "sw_size": rng.choice([4096, 8192, 16384, 65536]),
            "boot_at": rng.randrange(T_ANNOUNCE),
        }
        for name in names
    ]
    victim, replayed, unlucky = rng.sample(names, 3)
    capture = rng.randrange(60, 200)
    compromise_at = rng.randrange(200, 400)
    if compromise_at % T_ATTEST == 0:
        compromise_at += 1
    return {
        "seed": rng.randrange(2**31),
        "horizon": SCENARIO_HORIZON,
        "epsilon": EPSILON,
        "receivers": 2,
        "devices": specs,
        "adversary": {
            "drop": [
                {"link": "device->receiver", "probability": 0.05},
                {"link": "server->device", "device": unlucky, "max_matches": 1},
            ],
            "replay": [{"device": replayed, "capture_time": capture, "inject_at": capture + 2 * EPSILON + 5}],
            "compromise": [{"device": victim, "at": compromise_at, "flip_byte": rng.randrange(4096)}],
        },
    }
