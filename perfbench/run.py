"""Benchmark entry point.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from ``--seed`` (several times: ``setup_s`` is
the median), repeats its unit of work for ``--seconds``, checks every output,
and prints one JSON line: the end-to-end metrics with ``--trace 0``, or, with
``--trace 1``, the per-layer metrics of one traced set-up plus one traced unit
and the tracing overhead against the untraced units of the same run. Metric
names and units come from ``BENCHMARK.json``; the package is imported from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 5  # phases of a run, each opened by set-ups; setup_s is their median
SETUP_MIN_S = 0.2  # a phase repeats its set-up until this much time has passed
# Every Verdict, plus the duplicate flag and frames rejected at decode.
VERDICT_CLASSES = [
    "verified", "stale", "future", "fetch_error", "bad_manifest_signature",
    "redirect_mismatch", "revoked", "bad_announcement_signature", "compromised",
    "duplicate", "not_paisa",
]
SYNC_REJECT_REASONS = ["unknown_device", "timestamp_mismatch", "bad_signature", "unknown_session", "device_mismatch"]


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0.0


def import_package():
    if not os.path.isfile(os.path.join(SRC, "paisa", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}/paisa")
    sys.path.insert(0, SRC)
    import paisa

    if not os.path.abspath(paisa.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported paisa from {paisa.__file__}, not from {SRC}")


class Best:
    """The fastest time of each operation over the units (and reference
    boots) of a run.

    Every unit repeats the same operations on the same inputs (a fresh
    receiver on the same capture, the same seeded fleet, the same scenario),
    so the i-th sample of a series is the same operation in every unit. The
    shared host alternates between its normal speed and periods up to 1.6x
    slower, for fractions of a second to minutes; an operation's fastest time
    over the run is its cost at the host's normal speed, while a median over
    the run follows the share of slow periods in it.
    """

    def __init__(self) -> None:
        self.series: Dict[str, List[float]] = {}
        self.device_s: Dict[str, float] = {}  # device-seconds a timers or simulation sample covers

    def add(self, acc) -> None:
        """Fold in one unit or one reference boot. Only the series it has
        samples of are updated, so units and reference boots can alternate."""
        ops = acc.ops
        unit = {
            "frame": acc.frame_us,
            "read": [acc.read_us] if acc.read_us else [],
            "provision": ops.provision_us,
            "sync": ops.sync_us,
            "announce": ops.announce_us,
            "timers": [ops.device_wall_s] if ops.device_wall_s else [],
            "simulation": [acc.sim_wall_s] if acc.sim_wall_s else [],
        }
        if ops.device_wall_s:
            self.device_s["timers"] = ops.device_s
        if acc.sim_wall_s:
            self.device_s["simulation"] = acc.sim_device_s
        for name, samples in unit.items():
            if not samples:
                continue
            old = self.series.setdefault(name, samples)
            if len(old) != len(samples):
                raise RuntimeError(f"units differ in their number of {name} operations")
            self.series[name] = [min(a, b) for a, b in zip(old, samples)]


def end_to_end(best: Best, setup_s) -> dict:
    s = best.series
    rate = "simulation" if "simulation" in s else "timers"
    return {
        "setup_s": statistics.median(setup_s),
        "frames_per_s": len(s["frame"]) / ((sum(s.get("read", [])) + sum(s["frame"])) / 1e6),
        "frame_p90_us": pct(s["frame"], 0.90),
        "provision_p50_us": pct(s["provision"], 0.50),
        "sync_p50_us": pct(s["sync"], 0.50),
        "sync_p90_us": pct(s["sync"], 0.90),
        "announce_p50_us": pct(s["announce"], 0.50),
        "announce_p90_us": pct(s["announce"], 0.90),
        "device_s_per_s": best.device_s[rate] / s[rate][0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced, untraced, check, overhead_pct):
    from tracing import layer_totals

    calls, self_ns, by_kind = layer_totals(tracer)
    counts = tracer.counts
    ms = {name: ns / 1e6 for name, ns in self_ns.items()}
    frames = len(traced.frame_us)
    tick_frames = sum(
        1 for s in tracer.spans
        if s[0] == "wire.encode_beacon" and s[3] >= 0 and tracer.spans[s[3]][0] == "device.tick"
    )
    m = {
        "crypto.verify.calls": calls["crypto.verify"],
        "crypto.verify.self_ms": ms.get("crypto.verify", 0.0),
        "crypto.verify_per_frame": by_kind["crypto.verify", "frame"] / frames if frames else 0.0,
        "crypto.sign.calls": calls["crypto.sign"],
        "crypto.sign.self_ms": ms.get("crypto.sign", 0.0),
        "crypto.hash_chunked.bytes": counts["crypto.hash_chunked.bytes"],
        "crypto.hash_chunked.self_ms": ms.get("crypto.hash_chunked", 0.0),
        "wire.decode_beacon.calls": calls["wire.decode_beacon"],
        "wire.decode_beacon.self_ms": ms.get("wire.decode_beacon", 0.0),
        "wire.encode_beacon.self_ms": ms.get("wire.encode_beacon", 0.0),
        "wire.sync_codec.self_ms": ms.get("wire.sync_codec", 0.0),
        "manifest.manifest_from_json.calls": calls["manifest.manifest_from_json"],
        "manifest.manifest_from_json.self_ms": ms.get("manifest.manifest_from_json", 0.0),
        "manifest.verify_manifest.calls": calls["manifest.verify_manifest"],
        "manifest.verify_manifest.self_ms": ms.get("manifest.verify_manifest", 0.0),
        "manifest.sign_manifest.self_ms": ms.get("manifest.sign_manifest", 0.0),
        "receiver.process_frame.self_ms": ms.get("receiver.process_frame", 0.0),
        "receiver.fetch.calls": traced.fetches,
        "receiver.fetch_per_frame": traced.fetches / traced.fresh_frames if traced.fresh_frames else 0.0,
        "receiver.fetch.errors": counts["receiver.fetch.errors"],
    }
    for kind in VERDICT_CLASSES:
        m[f"receiver.verdict.{kind}.count"] = len(traced.verdict_us.get(kind, ()))
        m[f"receiver.verdict.{kind}.p50_us"] = pct(untraced.verdict_us.get(kind, ()), 0.5)
    m.update({
        "device.attest.calls": calls["device.attest"],
        "device.attest.self_ms": ms.get("device.attest", 0.0),
        "device.make_announcement.self_ms": ms.get("device.make_announcement", 0.0),
        "device.make_sync_req.self_ms": ms.get("device.make_sync_req", 0.0),
        "device.handle_sync_resp.self_ms": ms.get("device.handle_sync_resp", 0.0),
        "device.tick.calls": calls["device.tick"],
        "device.frames_per_tick": tick_frames / calls["device.tick"] if calls["device.tick"] else 0.0,
        "server.register_device.self_ms": ms.get("server.register_device", 0.0),
        "server.handle_sync_req.self_ms": ms.get("server.handle_sync_req", 0.0),
        "server.handle_sync_ack.self_ms": ms.get("server.handle_sync_ack", 0.0),
        "server.persist_bytes": traced.ops.persist_bytes,
    })
    for reason in SYNC_REJECT_REASONS:
        m[f"server.sync_reject.{reason}"] = traced.ops.rejects[reason]
    m.update({
        "simnet.events": counts["simnet.events"],
        "simnet.events_per_frame": counts["simnet.events"] / traced.sim_beacons if traced.sim_beacons else 0.0,
        "simnet.self_ms": ms.get("simnet.run", 0.0),
        "simnet.sync_attempts": traced.sim_sync_attempts,
        "simnet.drops": traced.sim_drops,
        "pcapio.read_pcap.self_ms": ms.get("pcapio.read_pcap", 0.0),
        "pcapio.bytes": counts["pcapio.bytes"],
        "pcapio.write_pcap.self_ms": ms.get("pcapio.write_pcap", 0.0),
        "trace.overhead_pct": overhead_pct,
        "trace.spans": len(tracer.spans),
        "fail_ratio": check.failed / check.attempted,
    })
    return m


def run(workload: str, seed: int, seconds: float, traced_run: bool, workdir: str):
    import gen
    from tracing import Tracer
    from workloads import REFERENCE_SHARE, REFERENCE_SIZES, WORKLOADS, Acc, Check, reference_boot

    wl = WORKLOADS[workload]()
    check, tracer = Check(), Tracer()
    untraced = Acc()  # per-verdict latencies of the whole run, for --trace 1
    reference = gen.images(seed, REFERENCE_SIZES) if wl.reference else None
    # Set-ups are spread through the run, so that setup_s, too, is sampled
    # across the whole run, not only its start. A cheap set-up (simulate's
    # takes about 10 ms) is repeated, so that its median rests on many.
    best = Best()
    setup_s, walls, spent = [], [], 0.0
    for k in range(SETUPS):
        phase = time.perf_counter()
        while True:
            # Free the previous set-up's state before the next is made, so
            # that peak RSS does not depend on when the collector runs.
            state = None
            gc.collect()
            start = time.perf_counter()
            state = wl.setup(seed, tracer, check, workdir)
            setup_s.append(time.perf_counter() - start)
            if start + setup_s[-1] - phase >= SETUP_MIN_S:
                break
        while True:
            start = time.perf_counter()
            acc = Acc()
            walls.append(wl.unit(state, tracer, acc, check))
            best.add(acc)
            ref_start = time.perf_counter()
            while reference and time.perf_counter() - ref_start < REFERENCE_SHARE * walls[-1]:
                booted = Acc()
                reference_boot(seed, reference, booted, check)
                best.add(booted)
            spent += time.perf_counter() - start
            if traced_run:
                for kind, us in acc.verdict_us.items():
                    untraced.verdict_us[kind] += us
            if spent >= seconds * (k + 1) / SETUPS:
                break
    if not traced_run:
        return check, end_to_end(best, setup_s)

    traced = Acc()
    tracer = Tracer()
    with tracer:
        state = wl.setup(seed, tracer, check, workdir)
        traced_wall = wl.unit(state, tracer, traced, check)
    tracer.dump(os.path.join(os.path.dirname(workdir), f"trace-{workload}-{seed}.ndjson"))
    overhead = 100.0 * (traced_wall / statistics.median(walls) - 1.0)
    return check, per_layer(tracer, traced, untraced, check, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    import_package()
    sys.path.insert(0, HERE)

    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        check, values = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in listed}:
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in listed})} disagree with BENCHMARK.json")
    for what, n in check.notes.most_common():
        print(f"FAILED {n}x: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 1 if check.fatal else 0


if __name__ == "__main__":
    sys.exit(main())
