"""The `cli_cold` workload: the four README commands, each in a fresh interpreter.

Stdlib only, so the workload process itself stays small and the measured
import cost is the CLI child's alone.  One op is one command; ops run in
cycles of all four, each cycle in an order drawn from the workload seed, and
a run always ends on a whole cycle so every command weighs the same.
"""

import hashlib
import os
import random
import shutil
import subprocess
import sys

COMMANDS = {
    "bounds": (["bounds"], ["bounds.csv"]),
    "simulate": (["simulate", "--trials", "10000", "--seed", "7"], ["simulate.csv"]),
    "fit": (["fit", "docs/sample_noises.json", "--population", "500", "--seed", "5"], []),
    "sa-time": (["sa-time", "--filter", "sync4", "--rbw", "51e3"], []),
}
NOISE_FILE = os.path.join("docs", "sample_noises.json")


class CliCold:
    cycle = len(COMMANDS)

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.workdir = workdir
        self.child = os.path.join(root, "perfbench", "cli_child.py")
        os.makedirs(os.path.join(workdir, "docs"), exist_ok=True)
        shutil.copyfile(os.path.join(root, NOISE_FILE), os.path.join(workdir, NOISE_FILE))
        # command -> sha256 of (stdout, output files) from its first run
        self.reference = {}

    def inputs(self, i):
        if i == 0:
            return "sa-time"  # the warm-up: the cheapest command, nearly all import
        cycle, position = divmod(i - 1, self.cycle)
        order = sorted(COMMANDS)
        random.Random(f"{self.seed}-{cycle}").shuffle(order)
        return order[position]

    def op(self, command, spans_path=None):
        argv, outputs = COMMANDS[command]
        for name in outputs:
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.remove(path)
        if spans_path is None:
            prefix = [sys.executable, "-m", "qcrbench.cli"]
        else:
            prefix = [sys.executable, self.child, spans_path]
        proc = subprocess.run(
            prefix + argv, cwd=self.workdir, capture_output=True, timeout=120, check=False
        )
        return proc

    def check(self, command, proc):
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return False, False
        digest = {"stdout": hashlib.sha256(proc.stdout).hexdigest()}
        for name in COMMANDS[command][1]:
            with open(os.path.join(self.workdir, name), "rb") as handle:
                digest[name] = hashlib.sha256(handle.read()).hexdigest()
        ok = self.reference.setdefault(command, digest) == digest
        return ok, ok

