"""qcrbench benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qcrbench checkout; the program is imported from its
`src/`.  Workloads, metrics and their units are declared in BENCHMARK.json
and explained in perfbench/README.md.  The run sets up the workload in
several fresh interpreters (set-up time is their median), then runs one
closed loop for S seconds in a fresh worker process and checks every
output.  Gated times are CPU times scaled by a reference kernel run before
each op (see perfbench/README.md).  Human-readable lines come first; the
last line of stdout is `{"correct", "attempted", "failed", "metrics"}` with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  Scratch files go to
`.perfbench_run/` in the checkout.  Stdlib only: NumPy and qcrbench are
imported in the worker processes, never here.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

from metrics import tail

HERE = os.path.dirname(os.path.abspath(__file__))
# fresh interpreters that only set up, besides the worker that runs the loop
SETUP_CHILDREN = 2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# CPU seconds of one reference kernel run (reference.py) on the host the
# bounds were set on; gated times are scaled to a host running it this fast
REFERENCE_S = 0.005
# coverage_frac must reach criterion 08's share of fits inside the window
MIN_COVERAGE = 0.68


def _parse():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _src_hash(src):
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _environment(root, args):
    from importlib import metadata

    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if "model name" in line)
    except (OSError, StopIteration):
        pass
    caches = {}
    proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True, check=False)
    for line in proc.stdout.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            caches[key] = int(value)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": _src_hash(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cache_bytes": caches,
    }


def _worker(args, root, workdir, env, setup_only):
    """Start a worker; return (process, ready line)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--root={root}",
        f"--workdir={workdir}",
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith('{"ready"'):
        proc.kill()
        proc.wait()
        _fail(f"{args.workload} worker failed during set-up")
    return proc, json.loads(line)


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        _fail(f"worker exited with code {proc.returncode}")
    return out


def main():
    args = _parse()
    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        _fail("run from the root of a qcrbench checkout (no BENCHMARK.json here)")
    with open(bench_path, encoding="utf-8") as handle:
        bench = json.load(handle)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        _fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(root, "src", "qcrbench", "__init__.py")):
        _fail("no src/qcrbench in this checkout: nothing to benchmark")
    if not args.seconds > 0:
        _fail("--seconds must be positive")

    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    workdir = os.path.join(root, ".perfbench_run", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setups = []
    warmup_failed = 0
    for _ in range(SETUP_CHILDREN):
        proc, ready = _worker(args, root, workdir, env, setup_only=True)
        _finish(proc, timeout=60)
        setups.append(ready["cpu_s"])
        warmup_failed += ready["warmup_failed"]
    proc, ready = _worker(args, root, workdir, env, setup_only=False)
    setups.append(ready["cpu_s"])
    out = _finish(proc, timeout=args.seconds + 120)
    report = json.loads(out.strip().splitlines()[-1])["result"]

    attempted = report["attempted"] + SETUP_CHILDREN
    failed = report["failed"] + warmup_failed
    reference_s = statistics.median(report["reference_cpu_s"])
    scale = REFERENCE_S / reference_s
    cpu = [scale * c for _, c in report["phases"]["untraced"]]
    tail_s, tail_pct, beyond = tail(cpu)
    values = {
        "setup_s": scale * statistics.median(setups),
        "throughput_ops_s": len(cpu) / sum(cpu),
        "op_p50_ms": 1000.0 * statistics.median(cpu),
        "op_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "coverage_frac": report["covered"] / report["attempted"],
    }
    correct = failed == 0
    if args.workload == "fit_coverage":
        correct &= values["coverage_frac"] >= MIN_COVERAGE

    environment = _environment(root, args)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(f"setup samples, cpu s: {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"reference kernel median {1000 * reference_s:.3f} ms: times scaled by {scale:.4f}")
    print(f"ops timed: {len(cpu)}; op_tail_ms is p{tail_pct:.1f} ({beyond} samples beyond)")
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} ops)")
    if "hashes" in report:
        print("cli output sha256 " + json.dumps(report["hashes"], sort_keys=True))

    if args.trace:
        layers = dict(report["layers"])
        traced = [c for _, c in report["phases"]["traced"]]
        layers["trace_overhead_frac"] = scale * sum(traced) / sum(cpu) - 1.0
        layers["trace.op_p50_ms"] = 1000.0 * scale * statistics.median(traced)
        checked = report["attempted"] - report["failed"]
        for key, name in enumerate(("s", "T_a")):
            layers[f"inference.sigma_{name}_cover_frac"] = (
                report["sigma_cover"][key] / checked if checked else 0.0
            )
        chosen, source = bench["per_layer"], layers
    else:
        chosen, source = bench["end_to_end"], values
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")

    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        record = {
            "environment": environment,
            "setup_samples_cpu_s": setups,
            "reference_scale": scale,
            "op_tail_percentile": tail_pct,
            "op_tail_beyond": beyond,
            "failed_frac": failed / attempted,
            "report": report,
            "metrics": metrics,
        }
        json.dump(record, handle, indent=1, sort_keys=True)
    print(
        json.dumps(
            {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
