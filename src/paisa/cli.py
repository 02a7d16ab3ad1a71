"""Operator entry points: key generation, provisioning, scenario simulation,
pcap scanning, and live server/device modes.

Every subcommand writes machine-readable output and exits 0 only when its
postcondition held, so all of them are scriptable.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from typing import List, Optional, Tuple

from . import crypto, pcapio, simnet, wire
from .device import Device, DeviceError, TimerConfig
from .receiver import EPSILON, Receiver, ReceiverConfig, RegistryFetcher
from .server import DeviceDescription, ManufacturerServer, ServerError

def _load_store(path: str) -> Optional[ManufacturerServer]:
    """The server in a store file, or None (reported) if it cannot be loaded."""
    try:
        return ManufacturerServer.load(path)
    except ServerError as exc:
        print(f"cannot load store: {exc}", file=sys.stderr)
        return None


def cmd_keygen(args: argparse.Namespace) -> int:
    try:
        keys = crypto.generate_keypair(args.seed)
    except crypto.CryptoError as exc:
        print(f"keygen failed: {exc}", file=sys.stderr)
        return 1
    try:
        crypto.save_keypair(args.out, keys)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote keypair to {args.out}")
    print(f"public_key {keys.public_key.hex()}")
    return 0


def cmd_provision(args: argparse.Namespace) -> int:
    try:
        with open(args.image, "rb") as f:
            sw = f.read()
    except OSError as exc:
        print(f"cannot read image: {exc}", file=sys.stderr)
        return 1
    # --device-out must be creatable (write and search on its directory) before the store changes.
    parent = os.path.dirname(args.device_out or "") or "."
    if args.device_out and (os.path.isdir(args.device_out) or not os.access(parent, os.W_OK | os.X_OK)):
        print(f"cannot write {args.device_out}: not a file in a writable directory", file=sys.stderr)
        return 1
    if os.path.exists(args.store):
        server = _load_store(args.store)
        if server is None:
            return 1
    else:
        try:
            keys = crypto.load_keypair(args.mfr_keys)
        except (OSError, ValueError) as exc:  # ValueError includes CryptoError
            print(f"cannot load manufacturer keys: {exc}", file=sys.stderr)
            return 1
        server = ManufacturerServer(keys, store_path=args.store)
    device = Device()
    try:
        man, record = server.register_device(
            device=device,
            device_id=args.id,
            sw_dev=sw,
            full_url=args.full_url,
            ts_cur=args.ts,
            timer_config=TimerConfig(args.t_announce, args.t_attest),
            description=DeviceDescription(owner_id=args.owner),
        )
    except Exception as exc:
        print(f"provision failed: {exc}", file=sys.stderr)
        return 1
    if args.device_out:
        crypto.write_owner_only(args.device_out, json.dumps(device.export_state(), indent=2))
    print(f"registered device {args.id.hex()}")
    print(f"short_url {device.trusted.short_url}")
    print(f"manifest_path {record.manifest_path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        result = simnet.run_scenario(args.scenario)
    except simnet.ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            f.write(result.log_ndjson())
    if args.pcap:
        pcapio.write_pcap(args.pcap, result.beacon_frames)
    counts = simnet.summarize_verdicts(result.log)
    print("verdict            count")
    for verdict in sorted(counts):
        print(f"{verdict:<18} {counts[verdict]}")
    if not counts:
        print("(no verdicts)")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    pinned = frozenset({args.pin}) if args.pin else None
    try:
        cfg = ReceiverConfig(epsilon=args.epsilon, manifest_fetcher=None, pinned_mfr_keys=pinned)
    except ValueError as exc:
        print(f"bad --epsilon: {exc}", file=sys.stderr)
        return 1
    try:
        frames = pcapio.read_pcap(args.input)
    except (OSError, pcapio.PcapError) as exc:
        print(f"cannot read pcap: {exc}", file=sys.stderr)
        return 1
    server = _load_store(args.store)
    if server is None:
        return 1
    cfg.manifest_fetcher = RegistryFetcher(server.registry, server.serve_manifest)
    current_ts = [0]
    receiver = Receiver(cfg, clock=lambda: current_ts[0])
    verified = 0
    for ts, frame in frames:
        current_ts[0] = ts
        result = receiver.process_frame(frame)
        if isinstance(result, wire.BeaconDecode):
            continue
        print(result.to_json())
        if result.verdict.value == "verified":
            verified += 1
    print(f"# {verified} verified of {len(frames)} frames", file=sys.stderr)
    return 0


def _address(text: str) -> Tuple[str, int]:
    """``host:port`` as a socket address; an empty host is 127.0.0.1."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"not host:port: {text!r}")
    return host or "127.0.0.1", int(port)


def cmd_server(args: argparse.Namespace) -> int:
    """Live UDP time-sync responder backed by a store file; prints one JSON
    event per datagram, named as in the simulator log."""
    server = _load_store(args.store)
    if server is None:
        return 1
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(args.listen)
        print(f"listening on {sock.getsockname()[0]}:{sock.getsockname()[1]}", flush=True)
        handled = 0
        while args.max_requests == 0 or handled < args.max_requests:
            data, addr = sock.recvfrom(4096)
            handled += 1
            now = int(time.time())
            outcome = server.handle_datagram(data, now)
            if outcome.reply is not None:
                sock.sendto(outcome.reply, addr)
            print(json.dumps({"t": now, "event": outcome.event, **outcome.fields()}), flush=True)
    return 0


def cmd_device(args: argparse.Namespace) -> int:
    """Live device: sync over UDP (the device sets how many SyncReqs to send
    and how long to wait for each reply), save the synced state back to the
    config file, then write announcements to a pcap file."""
    try:
        with open(args.config, "r", encoding="utf-8") as f, open(args.image, "rb") as img:
            dev = Device.from_state(json.load(f), img.read())
    except (OSError, ValueError, DeviceError, RecursionError) as exc:
        print(f"cannot load device: {exc}", file=sys.stderr)
        return 1

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:

        def recv(timeout: int) -> Optional[bytes]:
            sock.settimeout(timeout)
            try:
                return sock.recvfrom(4096)[0]
            except socket.timeout:
                return None

        frames = [(dev.now, f) for f in dev.boot(lambda d: sock.sendto(d, args.server), recv)]
    if not dev.synced:
        print("time sync failed; device stays silent", file=sys.stderr)
        return 1
    crypto.write_owner_only(args.config, json.dumps(dev.export_state(), indent=2))
    while len(frames) < args.count:
        frames.extend((dev.now, f) for f in dev.wake())
    pcapio.write_pcap(args.pcap, frames)
    print(f"synced at {dev.trusted.ts_prev}; wrote {len(frames)} announcements to {args.pcap}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paisa")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair file")
    p.add_argument("--out", default="paisa.key", help="output path (default %(default)s)")
    p.add_argument("--seed", type=bytes.fromhex, help="32-byte hex seed for deterministic generation")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("provision", help="register a device and publish its manifest")
    p.add_argument("--store", required=True, help="server store JSON path")
    p.add_argument("--mfr-keys", default="paisa.key", help="manufacturer key file (for a new store)")
    p.add_argument("--id", required=True, type=bytes.fromhex, help="16-byte device id, hex")
    p.add_argument("--image", required=True, help="software image path")
    p.add_argument("--full-url", required=True, help="full manifest URL")
    p.add_argument("--owner", default="owner-0")
    p.add_argument("--ts", type=int, default=0, help="provisioning timestamp")
    p.add_argument("--t-announce", type=int, default=10)
    p.add_argument("--t-attest", type=int, default=10)
    p.add_argument("--device-out", help="write provisioned device state JSON here")
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("simulate", help="run a scenario and summarize verdicts")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("--log", help="write the event log (ndjson) here")
    p.add_argument("--pcap", help="export broadcast frames to this pcap")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="verify announcements from a pcap capture")
    p.add_argument("--input", required=True, help="pcap file of 802.11 frames")
    p.add_argument("--store", required=True, help="server store JSON (registry + manifests)")
    p.add_argument("--epsilon", type=int, default=EPSILON)
    p.add_argument("--pin", type=bytes.fromhex, help="pinned manufacturer public key, hex")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("server", help="run the live UDP time-sync server")
    p.add_argument("--store", required=True)
    p.add_argument("--listen", type=_address, default="127.0.0.1:9470")
    p.add_argument("--max-requests", type=int, default=0, help="stop after N datagrams (0 = forever)")
    p.set_defaults(func=cmd_server)

    p = sub.add_parser("device", help="sync a provisioned device and emit announcements")
    p.add_argument("--config", required=True, help="device state JSON from provision")
    p.add_argument("--server", type=_address, default="127.0.0.1:9470")
    p.add_argument("--image", required=True, help="software image to load into program memory")
    p.add_argument("--pcap", required=True, help="write announcements here")
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_device)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
