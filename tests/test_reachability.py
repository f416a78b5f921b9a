"""Every function in `src/qcrbench` is run by a command, or is listed here with why not.

The commands run in-process under `sys.setprofile`: `bounds`, `simulate`,
`fit` with both noise models, `sa-time` with both filter kinds, and one case
of each error path of the exit-code contract (usage and I/O errors, a config
and a noise file off their schema, and a domain error).  A function no run
enters must be on `NOT_RUN`, with the reason it stays in the package.
"""

import contextlib
import inspect
import io
import os
import sys
import warnings

import qcrbench
from qcrbench import bounds
from qcrbench.cli import main

PACKAGE = os.path.dirname(qcrbench.__file__)
DOCS = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)), "docs")
CONFIG = os.path.join(DOCS, "sample_config.txt")
NOISES = os.path.join(DOCS, "sample_noises.json")

_STACK = "the slice stack, the audit of the closed-form source"
_GAUSSIAN = "the Gaussian-state substrate of the slice stack and ProbeChain.state_at"
_CRITERION_01 = "criterion 01's closed-form identities"

# (module, qualified name): why no command enters it
NOT_RUN = {
    ("errors", "Field.__init__"): "builds the rows of DOMAIN at import, before any command",
    ("bounds", "ProbeChain.state_at"): "the chain's two-mode state, for the audits",
    ("bounds", "advantage_ratio"): "coherent / btmss_closed of bounds.csv, a paper cross-check",
    ("bounds", "conjugate_factor"): _CRITERION_01,
    ("bounds", "conjugate_factor_distributed"): _CRITERION_01,
    ("bounds", "distributed_reduction"): _CRITERION_01,
    ("bounds", "qcrb_pure_btmss"): _CRITERION_01,
    ("detection", "FilterModel.power_response"): "read by sa_chain_simulate and the tests",
    ("detection", "photons_from_voltage"): "criterion 09, lab photon accounting no command drives",
    ("detection", "sa_chain_simulate"): "criterion 06, the lab spectrum analyzer no command drives",
    ("gaussian", "ChannelOp.__post_init__"): _GAUSSIAN,
    ("gaussian", "ChannelOp.modes"): _GAUSSIAN,
    ("gaussian", "GaussianState.__post_init__"): _GAUSSIAN,
    ("gaussian", "GaussianState.block"): _GAUSSIAN,
    ("gaussian", "GaussianState.mode_displacement"): _GAUSSIAN,
    ("gaussian", "GaussianState.modes"): _GAUSSIAN,
    ("gaussian", "SymplecticOp.__post_init__"): _GAUSSIAN,
    ("gaussian", "SymplecticOp.modes"): _GAUSSIAN,
    ("gaussian", "_require_bright"): _GAUSSIAN,
    ("gaussian", "apply_loss"): _GAUSSIAN,
    ("gaussian", "bright_mean_photon"): _GAUSSIAN,
    ("gaussian", "number_covariance_bright"): _GAUSSIAN,
    ("gaussian", "number_variance_bright"): _GAUSSIAN,
    ("gaussian", "symplectic_form"): _GAUSSIAN,
    ("gaussian", "two_mode_squeezer"): _GAUSSIAN,
    ("inference", "synthetic_noise_measurements"): "benchmark workload and coverage studies",
    ("source", "_affine_power"): _STACK,
    ("source", "_layer_affine"): _STACK,
    ("source", "_probe_loss_diag"): _STACK,
    ("source", "_seed_state"): _STACK,
    ("source", "converged_source"): _STACK,
    ("source", "layered_source"): _STACK,
    ("source", "noise_triple"): _STACK,
    ("source", "_mirrored_moments"): "expands a sector to the state of ProbeChain.state_at",
    ("source", "_gain_kernel"): "benchmark workload (continuum_gain over the noise map)",
    ("source", "continuum_gain"): "benchmark workload (the noise map)",
    ("source", "squeezing_db"): "10 log10 of a noise, a paper cross-check",
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

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == PACKAGE:
            module = os.path.basename(code.co_filename)[:-3]
            entered.add((module, code.co_name, code.co_firstlineno))

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
