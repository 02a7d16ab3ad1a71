import json
import os
import pathlib
import socket
import subprocess
import sys
import threading

import pytest

from paisa import crypto, pcapio, simnet
from paisa.cli import main
from paisa.server import ManufacturerServer

SCENARIOS = pathlib.Path(simnet.__file__).parent / "scenarios"

SEED = "ab" * 32


def test_keygen_deterministic_with_seed(tmp_path, capsys):
    a, b = str(tmp_path / "a.key"), str(tmp_path / "b.key")
    assert main(["keygen", "--out", a, "--seed", SEED]) == 0
    assert main(["keygen", "--out", b, "--seed", SEED]) == 0
    assert crypto.load_keypair(a) == crypto.load_keypair(b)
    out = capsys.readouterr().out
    assert crypto.load_keypair(a).public_key.hex() in out


def test_keygen_without_seed_differs(tmp_path):
    a, b = str(tmp_path / "a.key"), str(tmp_path / "b.key")
    assert main(["keygen", "--out", a]) == 0
    assert main(["keygen", "--out", b]) == 0
    assert crypto.load_keypair(a) != crypto.load_keypair(b)


def provision(tmp_path, device_id="07" * 16, device_out=None, full_url=None):
    keyfile = str(tmp_path / "mfr.key")
    store = str(tmp_path / "store.json")
    image = tmp_path / "fw.bin"
    if not image.exists():
        image.write_bytes(bytes(range(256)) * 64)
    main(["keygen", "--out", keyfile, "--seed", SEED])
    argv = [
        "provision",
        "--store", store,
        "--mfr-keys", keyfile,
        "--id", device_id,
        "--image", str(image),
        "--full-url", full_url or f"https://mfr.example/manifests/{device_id[:4]}.json",
    ]
    if device_out:
        argv += ["--device-out", device_out]
    return main(argv), store


def test_provision_creates_store(tmp_path, capsys):
    rc, store = provision(tmp_path)
    assert rc == 0
    doc = json.loads(pathlib.Path(store).read_text())
    assert len(doc["records"]) == 1
    out = capsys.readouterr().out
    assert "short_url" in out


def test_provision_duplicate_id_fails(tmp_path, capsys):
    rc, _ = provision(tmp_path)
    assert rc == 0
    rc, _ = provision(tmp_path)
    assert rc == 1
    assert "provision failed" in capsys.readouterr().err


def test_provision_second_device_appends(tmp_path):
    rc, store = provision(tmp_path, device_id="07" * 16)
    assert rc == 0
    rc, store = provision(tmp_path, device_id="08" * 16)
    assert rc == 0
    assert len(ManufacturerServer.load(store).records) == 2


def test_provision_reused_full_url_fails(tmp_path, capsys):
    url = "https://mfr.example/manifests/shared.json"
    rc, store = provision(tmp_path, device_id="07" * 16, full_url=url)
    assert rc == 0
    before = pathlib.Path(store).read_bytes()
    rc, _ = provision(tmp_path, device_id="08" * 16, full_url=url)
    assert rc == 1
    assert "provision failed: " in capsys.readouterr().err
    assert pathlib.Path(store).read_bytes() == before


@pytest.mark.parametrize("device_out", ["nodir/d.json", "."], ids=["missing_dir", "a_directory"])
def test_provision_to_an_unwritable_device_out_leaves_the_store_alone(tmp_path, capsys, device_out):
    rc, store = provision(tmp_path, device_id="07" * 16)
    assert rc == 0
    before = pathlib.Path(store).read_bytes()
    capsys.readouterr()
    rc, _ = provision(tmp_path, device_id="08" * 16, device_out=str(tmp_path / device_out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write ") and err.count("\n") == 1
    assert pathlib.Path(store).read_bytes() == before
    # Nothing was registered, so the same device provisions once the path is good.
    rc, _ = provision(tmp_path, device_id="08" * 16, device_out=str(tmp_path / "d.json"))
    assert rc == 0
    assert json.loads((tmp_path / "d.json").read_text())["device_id"] == "08" * 16
    assert not (tmp_path / "d.json.tmp").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen", "--seed", "zz"],
        ["provision", "--store", "s", "--image", "i", "--full-url", "u", "--id", "zz"],
        ["scan", "--input", "p", "--store", "s", "--pin", "xyz"],
        ["server", "--store", "s", "--listen", "nonsense"],
        ["server", "--store", "s", "--listen", "127.0.0.1:notaport"],
        ["device", "--config", "c", "--image", "i", "--pcap", "p", "--server", "nonsense"],
    ],
    ids=["seed", "id", "pin", "listen", "listen_port", "server"],
)
def test_malformed_arguments_are_usage_errors(tmp_path, argv):
    """The malformed value is the last argument, so argv[-2] is its option."""
    src = pathlib.Path(simnet.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-m", "paisa.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2
    assert "usage: " in run.stderr and f"argument {argv[-2]}" in run.stderr
    assert "Traceback" not in run.stderr


def test_provision_key_file_of_two_keys_fails(tmp_path, capsys):
    mine = crypto.generate_keypair(bytes.fromhex(SEED))
    other = crypto.generate_keypair(b"\x01" * 32)
    keyfile = tmp_path / "mixed.key"
    keyfile.write_text(mine.private_key.hex() + "\n" + other.public_key.hex() + "\n")
    image = tmp_path / "fw.bin"
    image.write_bytes(b"\x00" * 64)
    store = tmp_path / "store.json"
    rc = main([
        "provision", "--store", str(store), "--mfr-keys", str(keyfile), "--id", "07" * 16,
        "--image", str(image), "--full-url", "https://mfr.example/manifests/m.json",
    ])
    assert rc == 1
    assert "cannot load manufacturer keys: " in capsys.readouterr().err
    assert not store.exists()


def test_simulate_prints_summary_and_writes_artifacts(tmp_path, capsys):
    log = str(tmp_path / "events.ndjson")
    pcap = str(tmp_path / "frames.pcap")
    rc = main(
        ["simulate", str(SCENARIOS / "honest.json"), "--log", log, "--pcap", pcap]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified" in out and "183" in out
    lines = pathlib.Path(log).read_text().strip().split("\n")
    assert all(json.loads(line) for line in lines)
    assert len(pcapio.read_pcap(pcap)) == 183


def test_simulate_bad_scenario_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"devices": [], "surprise": 1}))
    assert main(["simulate", str(bad)]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_simulate_then_scan_end_to_end(tmp_path, capsys):
    """Frames exported by the simulator verify offline against its store."""
    # The simulator's store is in memory, so drive provision+device+scan with
    # the CLI's own artifacts instead.
    device_out = str(tmp_path / "device.json")
    rc, store = provision(tmp_path, device_out=device_out)
    assert rc == 0
    doc = json.loads(pathlib.Path(device_out).read_text())
    assert doc["device_id"] == "07" * 16
    assert doc["ts_prev"] == 0


def test_scan_counts_verified(tmp_path, capsys):
    log = str(tmp_path / "events.ndjson")
    pcap = str(tmp_path / "frames.pcap")
    main(["simulate", str(SCENARIOS / "honest.json"), "--log", log, "--pcap", pcap])
    capsys.readouterr()

    # Reconstruct the simulator's store deterministically so the scan has the
    # same registry and manifests.
    scenario = simnet.load_scenario(str(SCENARIOS / "honest.json"))
    sim = simnet.Simulation(scenario)
    store = str(tmp_path / "store.json")
    sim.server.store_path = store
    sim.server._persist()

    rc = main(["scan", "--input", pcap, "--store", store])
    assert rc == 0
    captured = capsys.readouterr()
    assert "183 verified of 183 frames" in captured.err
    first = json.loads(captured.out.strip().split("\n")[0])
    assert first["verdict"] == "verified"


def test_scan_with_wrong_pin_rejects_everything(tmp_path, capsys):
    pcap = str(tmp_path / "frames.pcap")
    main(["simulate", str(SCENARIOS / "honest.json"), "--pcap", pcap])
    capsys.readouterr()
    scenario = simnet.load_scenario(str(SCENARIOS / "honest.json"))
    sim = simnet.Simulation(scenario)
    store = str(tmp_path / "store.json")
    sim.server.store_path = store
    sim.server._persist()
    other = crypto.generate_keypair(b"\x77" * 32)
    rc = main(
        ["scan", "--input", pcap, "--store", store, "--pin", other.public_key.hex()]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "0 verified of 183 frames" in captured.err


def test_scan_missing_pcap_nonzero_exit(tmp_path, capsys):
    rc = main(["scan", "--input", str(tmp_path / "nope.pcap"), "--store", "irrelevant"])
    assert rc == 1
    assert "cannot read pcap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content",
    [
        (command, content)
        for command in ("scan", "server", "provision")
        for content in (None, "{not json", '{"keys": {"private_key": 5}}')
        if (command, content) != ("provision", None)  # a missing store is created
    ],
)
def test_unloadable_store_fails_cleanly(tmp_path, capsys, command, content):
    store = tmp_path / "store.json"
    if content is not None:
        store.write_text(content)
    pcap, image = str(tmp_path / "empty.pcap"), tmp_path / "fw.bin"
    pcapio.write_pcap(pcap, [])
    image.write_bytes(b"\x00" * 64)
    argv = {
        "scan": ["scan", "--input", pcap, "--store", str(store)],
        "server": ["server", "--store", str(store), "--listen", "127.0.0.1:0"],
        "provision": [
            "provision", "--store", str(store), "--id", "07" * 16,
            "--image", str(image), "--full-url", "https://mfr.example/manifests/x.json",
        ],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "cannot load store" in err and str(store) in err


@pytest.mark.parametrize("key_content", [None, "00" * 32 + "\n"], ids=["missing", "one_line"])
def test_provision_with_unloadable_mfr_keys_fails_cleanly(tmp_path, capsys, key_content):
    keyfile, image = tmp_path / "mfr.key", tmp_path / "fw.bin"
    if key_content is not None:
        keyfile.write_text(key_content)
    image.write_bytes(b"\x00" * 64)
    rc = main([
        "provision", "--store", str(tmp_path / "store.json"), "--mfr-keys", str(keyfile),
        "--id", "07" * 16, "--image", str(image), "--full-url", "https://mfr.example/manifests/x.json",
    ])
    assert rc == 1
    assert "cannot load manufacturer keys" in capsys.readouterr().err
    assert not (tmp_path / "store.json").exists()


def free_udp_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_live_server_device_scan_end_to_end(tmp_path, capsys):
    """provision -> server -> device -> scan on 127.0.0.1, twice: the second
    device run syncs from the state the first one wrote back."""
    config = str(tmp_path / "device.json")
    rc, store = provision(tmp_path, device_out=config)
    assert rc == 0
    pcap = str(tmp_path / "live.pcap")
    for run in range(2):
        port = free_udp_port()
        # One sync is two datagrams, SyncReq and SyncAck.
        argv = ["server", "--store", store, "--listen", f"127.0.0.1:{port}", "--max-requests", "2"]
        server = threading.Thread(target=main, args=(argv,), daemon=True)
        server.start()
        # A SyncReq sent before the server binds is lost; the device retries.
        rc = main([
            "device", "--config", config, "--server", f"127.0.0.1:{port}",
            "--image", str(tmp_path / "fw.bin"), "--pcap", pcap, "--count", "3",
        ])
        server.join(timeout=10)
        assert not server.is_alive()
        out = capsys.readouterr().out
        assert rc == 0, f"device run {run + 1} did not sync"
        events = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert [e["event"] for e in events] == ["sync_resp", "sync_commit"]
        synced_ts = json.loads(pathlib.Path(config).read_text())["ts_prev"]
        assert synced_ts == events[1]["latest_ts"] > 0

        assert main(["scan", "--input", pcap, "--store", store]) == 0
        assert "3 verified of 3 frames" in capsys.readouterr().err


def test_device_requires_an_image(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["device", "--config", str(tmp_path / "d.json"), "--pcap", str(tmp_path / "p")])
    assert "--image" in capsys.readouterr().err


def test_device_with_a_malformed_config_fails_cleanly(tmp_path, capsys):
    config = tmp_path / "device.json"
    config.write_text(json.dumps({"device_id": "07" * 16}))
    image = tmp_path / "fw.bin"
    image.write_bytes(b"\x00" * 64)
    argv = ["device", "--config", str(config), "--image", str(image), "--pcap", str(tmp_path / "p")]
    rc = main(argv)
    assert rc == 1
    assert "cannot load device" in capsys.readouterr().err
