"""Self-tests of the benchmark: input determinism, the flood labeller, self
time on a synthetic span tree, the fastest-time series, the correctness gate,
and a short smoke run of every workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import Check, check_frames  # noqa: E402

from paisa import pcapio  # noqa: E402
from paisa.receiver import PresenceReport, Verdict  # noqa: E402


def small_fleet(seed, devices=6):
    imgs = gen.images(seed, [4096] * devices)
    return gen.boot_fleet(seed, imgs, 60, gen.OpSamples(), Tracer())


def inputs(seed, tmp_path):
    """Every input the generator makes from one seed, as bytes."""
    fleet = small_fleet(seed)
    mix = gen.flood_mix(seed, fleet)
    path = tmp_path / f"mix-{seed}.pcap"
    pcapio.write_pcap(str(path), [(ts, frame) for ts, frame, _ in mix])
    return (
        path.read_bytes(),
        json.dumps([label for _, _, label in mix]).encode(),
        json.dumps(gen.scenario(seed), sort_keys=True).encode(),
        b"".join(gen.images(seed, [1024, 2048])),
    )


def test_same_seed_gives_identical_inputs(tmp_path):
    assert inputs(7, tmp_path) == inputs(7, tmp_path)


def test_different_seed_gives_different_inputs(tmp_path):
    a, b = inputs(7, tmp_path), inputs(8, tmp_path)
    assert all(x != y for x, y in zip(a, b))


def test_self_time_on_synthetic_tree():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],    # overlaps b: the union is 10..50
        ["b", 20, 50, 0, 0],
        ["a.child", 12, 18, 1, 0],
        ["c", 90, 120, 0, 0],   # runs past its parent: clipped to 90..100
    ]
    own = self_times(spans)
    assert own == [100 - 40 - 10, 20 - 6, 30, 6, 30]
    assert all(t >= 0 for t in own)


def test_best_keeps_each_operations_fastest_time():
    from run import Best
    from workloads import Acc

    best = Best()
    for frames, provision in (([5.0, 9.0, 2.0], [30.0]), ([4.0, 12.0, 3.0], [20.0])):
        unit, booted = Acc(frame_us=frames), Acc()
        booted.ops.provision_us = provision
        best.add(unit)
        best.add(booted)  # a reference boot: frames untouched
    assert best.series["frame"] == [4.0, 9.0, 2.0]
    assert best.series["provision"] == [20.0]
    with pytest.raises(RuntimeError):
        best.add(Acc(frame_us=[1.0]))


def test_uninstalled_tracer_keeps_no_state():
    tracer = Tracer()
    assert tracer.begin("frame") == -1 and tracer.requests == []
    with tracer:
        assert tracer.begin("frame") == 0 and tracer.requests == ["frame"]


def test_flood_labeller_never_labels_forged_frames_honest():
    fleet = small_fleet(3)
    honest = {frame: ts for ts, frame, _ in fleet.beacons}
    seen = set()
    mix = gen.flood_mix(3, fleet)
    assert {label for _, _, label in mix} == gen.FORGED | {gen.HONEST, gen.DUPLICATE}
    for ts, frame, label in mix:
        if frame not in honest:
            assert label in gen.FORGED - {gen.STALE}
        elif frame in seen:
            assert label == (gen.STALE if ts - honest[frame] >= gen.EPSILON else gen.DUPLICATE)
        else:
            assert label == gen.HONEST and ts == honest[frame]
            seen.add(frame)
    assert seen == set(honest)


def report(verdict, duplicate=False):
    return PresenceReport(verdict=verdict, received_at=0, announcement_timestamp=0,
                          att_result=1, att_timestamp=0, duplicate=duplicate)


def test_a_verified_forgery_is_fatal():
    check = Check()
    check_frames([report(Verdict.VERIFIED), report(Verdict.VERIFIED, duplicate=True)],
                 [gen.HONEST, gen.DUPLICATE], check)
    assert (check.failed, check.fatal) == (0, False)
    check_frames([report(Verdict.VERIFIED)], [gen.BAD_SIGNATURE], check)
    assert (check.failed, check.fatal) == (1, True)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", ["scan", "flood", "fleet", "simulate"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "1":
        assert result["metrics"]["fail_ratio"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "scan", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0 and not out.stdout.strip()
