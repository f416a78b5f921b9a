"""Run the benchmark over several seeds and summarise it as one trajectory point.

    python3 perfbench/trajectory.py --runs 10 --first-seed 1 --out FILE

Run from the root of a checkout.  For each seed it runs every workload once
untraced (workloads interleaved, so machine drift spreads over all of them),
then each workload once traced on the first seed.  It prints, per workload and end-to-end
metric, the median, the quartiles and the spread (q3 - q1) / median next to
the metric's bound, and writes all of it, with the environment and the CLI
output hashes, to FILE as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def _run(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    extra = {}
    for line in lines:
        for key in ("environment", "cli output sha256"):
            if line.startswith(key + " "):
                extra[key] = json.loads(line[len(key) + 1 :])
    return json.loads(lines[-1]), extra


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    untraced = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    environment, hashes = None, {}
    for k in range(args.runs):
        for workload in workloads:
            result, extra = _run(workload, args.first_seed + k, seconds, 0)
            untraced[workload].append(result)
            environment = environment or extra.get("environment")
            if "cli output sha256" in extra:
                hashes = extra["cli output sha256"]
            print(f"{workload} seed {args.first_seed + k}: correct={result['correct']}", flush=True)
    for workload in workloads:
        result, _ = _run(workload, args.first_seed, seconds, 1)
        traced[workload].append(result)

    point = {"environment": environment, "cli_output_sha256": hashes, "workloads": {}}
    for workload in workloads:
        runs = untraced[workload]
        entry = {
            "seeds": [args.first_seed + k for k in range(args.runs)],
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer_traced": [r["metrics"] for r in traced[workload]],
        }
        print(f"\n{workload}: {entry['failed']} failed of {entry['attempted']}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = _summary([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = metric["unit"]
            stats["bound"] = metric["bound"]
            entry["end_to_end"][name] = stats
            print(
                f"  {name:18s} median {stats['median']:.6g} {metric['unit']:5s}"
                f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                f" spread {stats['spread']:.4f} (bound {metric['bound']})"
            )
        point["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(point, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
