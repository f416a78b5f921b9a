"""Every function in `src/qcrbench` is run by a command, or is listed here with why not.

The commands run in-process under `sys.setprofile`: `bounds`, `simulate`,
`fit` with both noise models, `sa-time` with both filter kinds, and one case
of each error path of the exit-code contract (usage and I/O errors, a config
and a noise file off their schema, and a domain error).  A function no run
enters must be on `NOT_RUN`, with the reason it stays in the package.

The one reason to stay is that the benchmark runs it.  Each reason starts
with what does: a `perfbench/workloads.py` workload (one op and its check),
or a `perfbench/tracer.py` target that no workload calls.  Only
`Field.__init__` runs at import instead.
"""

import contextlib
import functools
import inspect
import io
import os
import sys
import types
import warnings

import pytest

import qcrbench
from qcrbench import bounds, gaussian
from qcrbench.cli import main
from qcrbench.source import SourceParams

PACKAGE = os.path.dirname(qcrbench.__file__)
ROOT = os.path.dirname(os.path.dirname(PACKAGE))
DOCS = os.path.join(ROOT, "docs")
CONFIG = os.path.join(DOCS, "sample_config.txt")
NOISES = os.path.join(DOCS, "sample_noises.json")
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")

_LADDER = "noise_map: its check holds the slice ladder to the closed-form source"
_STATE = "ProbeChain.state_at: a tracer target"
_LOSS = "gaussian.apply_loss: a tracer target"

# (module, qualified name): what runs it, and how, as no command does
NOT_RUN = {
    ("errors", "Field.__init__"): "import: builds the rows of DOMAIN, before any command",
    ("bounds", "ProbeChain.state_at"): _STATE,
    ("gaussian", "ChannelOp.__post_init__"): _LOSS,
    ("gaussian", "ChannelOp.modes"): _LOSS,
    ("gaussian", "GaussianState.__post_init__"): _LADDER,
    ("gaussian", "GaussianState.block"): _LADDER,
    ("gaussian", "GaussianState.mode_displacement"): _LADDER,
    ("gaussian", "GaussianState.modes"): _LOSS,
    ("gaussian", "SymplecticOp.__post_init__"): _LADDER,
    ("gaussian", "_require_bright"): _LADDER,
    ("gaussian", "apply_loss"): _LOSS,
    ("gaussian", "bright_mean_photon"): _LADDER,
    ("gaussian", "number_covariance_bright"): _LADDER,
    ("gaussian", "number_variance_bright"): _LADDER,
    ("gaussian", "symplectic_form"): _LADDER,
    ("gaussian", "two_mode_squeezer"): _LADDER,
    ("inference", "synthetic_noise_measurements"): "fit_coverage: its inputs",
    ("source", "_affine_power"): _LADDER,
    ("source", "_layer_affine"): _LADDER,
    ("source", "_probe_loss_diag"): _LADDER,
    ("source", "_seed_state"): _LADDER,
    ("source", "converged_source"): _LADDER,
    ("source", "layered_source"): _LADDER,
    ("source", "noise_triple"): _LADDER,
    ("source", "_mirrored_moments"): _STATE,
    ("source", "_gain_kernel"): "noise_map: its op, continuum_gain over the map",
    ("source", "continuum_gain"): "noise_map: its op",
}


def _defined_functions() -> dict:
    """{(module, name, first line): qualified name} of every function the package defines.

    Qualified names are built here, as ``co_qualname`` (Python 3.11) would give them.
    """
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            stack = [(compile(handle.read(), name, "exec"), None)]
        while stack:
            code, qualname = stack.pop()
            function = bool(code.co_flags & inspect.CO_OPTIMIZED)
            for child in code.co_consts:
                if inspect.iscode(child):
                    if qualname is None:
                        scope = ""
                    else:
                        scope = f"{qualname}.<locals>." if function else f"{qualname}."
                    stack.append((child, scope + child.co_name))
            # class bodies and comprehensions are code objects, not functions
            if function and not code.co_name.startswith("<"):
                found[name[:-3], code.co_name, code.co_firstlineno] = qualname
    return found


def _recorder(entered: set):
    """A `sys.setprofile` hook adding (module, name, first line) of each package call."""

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == PACKAGE:
            module = os.path.basename(code.co_filename)[:-3]
            entered.add((module, code.co_name, code.co_firstlineno))

    return profile


def _runs(tmp_path):
    """(argv, exit code) of each run: the commands, then one case of each error path."""
    bad_config = tmp_path / "bad.txt"
    bad_config.write_text("bogus = 1\n")
    dim = tmp_path / "dim.txt"
    dim.write_text("seed_photons = 100\n")
    dark = tmp_path / "dark.txt"
    dark.write_text("eta_p = 0\n")
    bad_noises = tmp_path / "bad.json"
    bad_noises.write_text('{"channels": [1]}')
    out = str(tmp_path / "out")
    fit = ["fit", NOISES, "--population", "16", "--max-generations", "5", "--out", out]
    return [
        (["bounds", "--config", CONFIG, "--out", out], 0),
        (["simulate", "--config", CONFIG, "--trials", "1000", "--out", out], 0),
        (fit, 0),
        ([*fit, "--noise-model", "printed_formulas"], 0),
        (["sa-time", "--filter", "sync4", "--rbw", "51e3"], 0),
        (["sa-time", "--filter", "gaussian", "--rbw", "51e3"], 0),
        (["bounds", "--bogus"], 2),
        (["bounds", "--config", str(tmp_path / "absent.txt")], 2),
        (["bounds", "--config", str(bad_config), "--out", out], 3),
        (["bounds", "--config", str(dim), "--out", out], 3),
        (["fit", str(bad_noises)], 3),
        (["bounds", "--config", str(dark), "--out", out], 4),
    ]


def test_every_function_is_run_by_a_command_or_listed(tmp_path):
    # a cached call enters nothing, so the runs start from an empty cache
    bounds._distributed_terms.cache_clear()
    entered = set()
    profile = _recorder(entered)
    codes = []
    quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
    with quiet[0], quiet[1], warnings.catch_warnings():
        # a fit of five generations leaves its contour unbounded, which warns
        warnings.simplefilter("ignore", UserWarning)
        for argv, _ in _runs(tmp_path):
            sys.setprofile(profile)
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            finally:
                sys.setprofile(None)
    assert codes == [code for _, code in _runs(tmp_path)]
    functions = _defined_functions()
    defined = {(key[0], qualname) for key, qualname in functions.items()}
    entered = {(key[0], functions[key]) for key in entered if key in functions}
    assert sorted(defined - entered - set(NOT_RUN)) == []
    # a listed function that a command now runs, or that is gone, leaves the list
    assert sorted(set(NOT_RUN) & entered) == []
    assert sorted(set(NOT_RUN) - defined) == []


def _one_op(workload):
    """Op 0 of a workload at seed 1, and its check."""
    bench = workload(1)
    inputs = bench.inputs(0)
    assert bench.check(inputs, bench.op(inputs)) == (True, True), workload.__name__


def _benchmark_runs() -> dict:
    """{target: run}: one op of each workload, and the tracer's targets that no workload calls."""
    # compiled from the text, so no bytecode cache is written next to it
    perfbench = types.ModuleType("perfbench_workloads")
    with open(WORKLOADS, encoding="utf-8") as handle:
        exec(compile(handle.read(), WORKLOADS, "exec"), perfbench.__dict__)
    runs = {name: functools.partial(_one_op, cls) for name, cls in perfbench.WORKLOADS.items()}
    # tests/test_benchmark_targets.py holds the tracer to listing these two
    chain = bounds.build_chain(SourceParams(s=2.04, T_a=0.71), perfbench.ParamSweep.BUDGET)
    state = chain.state_at(0.5)
    runs["ProbeChain.state_at"] = lambda: chain.state_at(0.5)
    runs["gaussian.apply_loss"] = lambda: gaussian.apply_loss(state, gaussian.ChannelOp([1, 1]))
    return runs


# what each reason names as running its function: the words before its colon
TARGETS = {key: why.split(":")[0] for key, why in NOT_RUN.items()}


def test_every_reason_names_a_benchmark_target():
    assert sorted(set(TARGETS.values()) - set(_benchmark_runs()) - {"import"}) == []
    imported = [key for key, target in TARGETS.items() if target == "import"]
    assert imported == [("errors", "Field.__init__")]


@pytest.mark.parametrize("target", sorted(set(TARGETS.values()) - {"import"}))
def test_every_listed_function_is_run_by_the_benchmark(target):
    functions, entered = _defined_functions(), set()
    run = _benchmark_runs()[target]
    # FitCoverage sets a warnings filter for the rest of the process
    with warnings.catch_warnings():
        sys.setprofile(_recorder(entered))
        try:
            run()
        finally:
            sys.setprofile(None)
    reached = {(key[0], functions[key]) for key in entered if key in functions}
    assert sorted({key for key, name in TARGETS.items() if name == target} - reached) == []
