"""Workload process: set up, run one closed loop, report on stdout.

Run by run.py, never directly.  It prints a `{"ready": ...}` line as soon as
set-up (imports, workload inputs, one discarded warm-up op) is done, so the
parent can time set-up from interpreter start; with --setup-only it exits
there.  Otherwise it runs ops back to back for --seconds (one client, the
next op starts when the previous returns) and prints a `{"result": ...}` line.
Before each op of the loop it runs the reference kernel (reference.py), whose
CPU times run.py uses to scale the op times to a fixed host speed.
With --trace 1 the ops of the first half of the time run untraced, then the
same ops again traced, so the difference between the halves is the tracing
overhead.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import tracer


def _parse():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args()


def _make_workload(args):
    if args.workload == "cli_cold":
        from cli_cold import CliCold

        return CliCold(args.seed, args.root, args.workdir)
    import qcrbench

    src = os.path.join(args.root, "src") + os.sep
    if not os.path.abspath(qcrbench.__file__).startswith(src):
        raise SystemExit(f"qcrbench imported from {qcrbench.__file__}, not from {src}")
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed)


def _cpu_seconds():
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Loop:
    """Runs ops and keeps their latencies, failures and coverage."""

    def __init__(self, work, args):
        self.work = work
        self.args = args
        self.cycle = getattr(work, "cycle", 1)
        self.attempted = 0
        self.failed = 0
        self.covered = 0
        self.sigma_cover = [0, 0]
        self.references = []
        self.tracer = None
        self.spans = []

    def run_op(self, i, traced=False):
        inputs = self.work.inputs(i)
        spans_path = None
        if traced and self.args.workload == "cli_cold":
            spans_path = os.path.join(self.args.workdir, "cli-spans.json")
        elif traced:
            self.tracer.op = i
        self.attempted += 1
        start, start_cpu = time.perf_counter(), _cpu_seconds()
        try:
            result = self.work.op(inputs, spans_path) if spans_path else self.work.op(inputs)
        except Exception:
            elapsed = time.perf_counter() - start, _cpu_seconds() - start_cpu
            traceback.print_exc()
            self.failed += 1
            return elapsed
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        elapsed = time.perf_counter() - start, _cpu_seconds() - start_cpu
        try:
            ok, covered = self.work.check(inputs, result)
        except Exception:
            traceback.print_exc()
            ok, covered = False, False
        if not ok:
            print(f"op {i}: output check failed", file=sys.stderr)
        self.failed += not ok
        self.covered += covered
        if ok and hasattr(self.work, "sigma_cover"):
            for k, hit in enumerate(self.work.sigma_cover(result)):
                self.sigma_cover[k] += hit
        if spans_path and result.returncode == 0:
            offset = len(self.spans)
            for span in tracer.load(spans_path):
                span[4] = i
                if span[3] is not None:
                    span[3] += offset
                self.spans.append(span)
        return elapsed

    def run_for(self, seconds):
        """Untraced ops from op 1 until `seconds` have passed on a whole cycle."""
        import reference  # numpy: so the cli_cold worker imports it only after set-up

        latencies = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(latencies) % self.cycle:
            self.references.append(reference.cpu_seconds())
            latencies.append(self.run_op(len(latencies) + 1))
        return latencies


def main():
    args = _parse()
    work = _make_workload(args)
    loop = Loop(work, args)
    loop.run_op(0)  # the warm-up: checked but not timed
    ready = {"ready": True, "cpu_s": _cpu_seconds(), "warmup_failed": loop.failed}
    print(json.dumps(ready), flush=True)
    if args.setup_only:
        return 0
    phases = {}
    if args.trace:
        # the traced half replays the untraced half's ops, so the two differ
        # only by the tracing
        phases["untraced"] = loop.run_for(args.seconds / 2.0)
        if args.workload != "cli_cold":
            loop.tracer = tracer.Tracer()
            loop.tracer.install(tracer.LAYER_TARGETS)
        ops = range(1, len(phases["untraced"]) + 1)
        phases["traced"] = [loop.run_op(i, traced=True) for i in ops]
        if loop.tracer is not None:
            loop.tracer.uninstall()
            loop.spans = loop.tracer.spans
    else:
        phases["untraced"] = loop.run_for(args.seconds)
    report = {
        "phases": phases,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "covered": loop.covered,
        "sigma_cover": loop.sigma_cover,
        "reference_cpu_s": loop.references,
    }
    if args.trace:
        from metrics import layer_metrics

        traced = phases["traced"]
        report["layers"] = layer_metrics(loop.spans, len(traced), sum(w for w, _ in traced))
        tracer.dump(loop.spans, os.path.join(args.workdir, "spans.json"))
    if args.workload == "cli_cold":
        report["hashes"] = work.reference
    print(json.dumps({"result": report}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
