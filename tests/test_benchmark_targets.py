"""The benchmark's span tracer must find every function it wraps.

`perfbench/tracer.py` names its targets as (module, attribute) strings, so a
rename in the package breaks the benchmark's traced run without failing any
import.  The tracer module is compiled from its file; nothing is traced.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # compiled from the text, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


_TRACER = _load_tracer()
_TARGETS = _TRACER.LAYER_TARGETS + _TRACER.CLI_TARGETS


@pytest.mark.parametrize("target", _TARGETS, ids=[name for _, _, name, _ in _TARGETS])
def test_trace_target_resolves(target):
    module_name, attr, name, _ = target
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_chain_and_loss_targets_are_listed():
    targets = {(module, attr) for module, attr, _, _ in _TRACER.LAYER_TARGETS}
    assert ("qcrbench.bounds", "ProbeChain.state_at") in targets
    assert ("qcrbench.gaussian", "apply_loss") in targets
