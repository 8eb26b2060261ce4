"""Run the benchmark over several seeds and summarise it in one BENCH file.

    python3 perfbench/collect.py --label parent --seeds 1-10 \
        --out perfbench/baseline/BENCH_parent.json

For every workload in BENCHMARK.json: one untraced run per seed (median,
quartiles and spread = (Q3 - Q1) / median of each end-to-end metric), then
one traced run on the first seed (its per-layer metrics). Run it from the
root of a checkout, on the parent commit and on the change, with the same
seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MANIFEST = BENCH_DIR.parent / "BENCHMARK.json"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["exit_code"] = out.returncode
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out[name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    manifest = json.loads(MANIFEST.read_text())
    seconds = manifest["run_seconds"]
    names = [w["name"] for w in manifest["workloads"]]
    seeds = seed_list(args.seeds)
    report = {"label": args.label, "seeds": seeds, "run_seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(one_run(name, seed, seconds, 0))
            print(f"{name} seed {seed}: exit {runs[-1]['exit_code']}", flush=True)
        traced = one_run(name, seeds[0], seconds, 1)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": summarise(runs),
            "per_layer": traced["metrics"],
        }
        ok &= all(r["correct"] and r["exit_code"] == 0 for r in [*runs, traced])
        report["workloads"][name] = entry
        for metric, v in entry["end_to_end"].items():
            print(f"  {metric:12s} median {v['median']:.6g} {v['unit']}  spread {v.get('spread')}")
    report["all_correct"] = ok
    first = Path.cwd() / ".perfbench_out" / f"result_{names[0]}_seed{seeds[0]}_trace0.json"
    record = json.loads(first.read_text())
    report["environment"] = record["environment"]
    report["held_out_seed"] = record["held_out_seed"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
