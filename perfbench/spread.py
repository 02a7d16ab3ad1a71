"""Run the benchmark over several seeds and report how steady each end-to-end
metric is: median, quartiles, and the quartile spread as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.

    python3 perfbench/spread.py --seeds 1-10 [--out FILE]

Every workload of ``BENCHMARK.json`` is run for its ``run_seconds``, so the
figures are comparable with ``baseline.json``. With ``--out`` the medians, quartiles and raw values are written as JSON
together with machine information (cores, Python, ``cryptography`` version,
``src/`` line count), which is how ``baseline.json`` was recorded.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import cryptography

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "src_lines": src_lines,
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed checks\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write medians, quartiles and machine info here")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds) for s in seeds(args.seeds)]
        rows = report["workloads"][workload] = {}
        print(f"\n{workload}: {len(runs)} seeds")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": share, "values": values}
            worst = max(worst, share / bound)
            flag = "ok" if share < bound / 3 else ("WIDE" if share > bound else "near")
            print(f"  {name:18} median {med:14.4f}  spread {share:7.2%}  bound {bound:.0%}  {flag}")
    print(f"\nworst spread / bound, setup_s included: {worst:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
