"""Reduce op latencies and trace spans to the benchmark's metrics (stdlib only)."""

from collections import defaultdict

from cli_cold import COMMANDS
from tracer import self_times

LAYERS = ("cli", "config", "source", "gaussian", "bounds", "detection", "inference")
CLOSED_FORMS = ("bounds.qcrb_distributed", "bounds.qcrb_coherent", "bounds.qcrb_ultimate")


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no such percentile exists and the maximum is returned with 0 beyond.
    With 20-24 samples, as a `cli_cold` run has, this is p50-p54.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, 10


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, ops, op_seconds):
    """Per-layer metrics from the spans of `ops` traced ops taking `op_seconds`.

    Counts and times are per op unless the name says otherwise; a layer the
    workload never enters reports 0.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    durations = defaultdict(list)
    infos = defaultdict(list)
    chi2 = {"de": [0, 0.0], "contour": [0, 0.0]}
    parents = {
        "inference.differential_evolution": "de",
        "inference.uncertainty_by_chi2_doubling": "contour",
    }
    children = defaultdict(lambda: [0, 0])
    for span, seconds in zip(spans, own):
        name, start, end, parent, _, info = span
        calls[name] += 1
        self_s[name] += seconds
        layer_self[name.split(".")[0]] += seconds
        durations[name].append(end - start)
        infos[name].append(info)
        if name == "inference.chi_square_batch" and parent is not None:
            kind = parents.get(spans[parent][0])
            if kind is not None:
                chi2[kind][0] += 1
                chi2[kind][1] += seconds
                children[parent][0] += 1
                children[parent][1] += info

    def per_op(value):
        return value / ops if ops else 0.0

    def ms(name):
        return per_op(1000.0 * self_s[name])

    m = {"cli.import_ms": 1000.0 * _mean(durations["cli.import"])}
    for command in COMMANDS:
        m[f"cli.{command}.main_ms"] = 1000.0 * _mean(durations[f"cli.{command}.main"])
    m["config.load_config_ms"] = ms("config.load_config")
    m["cli.output_ms"] = ms("cli.output")

    name = "source.continuum_noises"
    points = sum(infos[name])
    m[f"{name}.calls"] = per_op(calls[name])
    m[f"{name}.points"] = per_op(points)
    m[f"{name}.self_ms"] = ms(name)
    m[f"{name}.us_per_point"] = 1e6 * self_s[name] / points if points else 0.0
    m["source.converged_source.calls"] = per_op(calls["source.converged_source"])
    m["source.converged_source.self_ms"] = ms("source.converged_source")
    m["source.layered_source.calls"] = per_op(calls["source.layered_source"])
    m["source.layers_used.mean"] = _mean(infos["source.converged_source"])
    m["source.continuum_gain.self_ms"] = ms("source.continuum_gain")

    m["gaussian.apply_loss.calls"] = per_op(calls["gaussian.apply_loss"])
    m["gaussian.apply_loss.self_ms"] = ms("gaussian.apply_loss")

    m["bounds.build_chain.self_ms"] = ms("bounds.build_chain")
    m["bounds.qcrb_numeric_gaussian.calls"] = per_op(calls["bounds.qcrb_numeric_gaussian"])
    m["bounds.qcrb_numeric_gaussian.self_ms"] = ms("bounds.qcrb_numeric_gaussian")
    m["bounds.ProbeChain.state_at.calls"] = per_op(calls["bounds.ProbeChain.state_at"])
    m["bounds.closed_form.self_ms"] = sum(ms(n) for n in CLOSED_FORMS)

    for name in ("effective_time", "transmission_variance", "snr_ramp_simulate"):
        m[f"detection.{name}.calls"] = per_op(calls[f"detection.{name}"])
        m[f"detection.{name}.self_ms"] = ms(f"detection.{name}")
    m["detection.snr_ramp_simulate.bins"] = per_op(sum(infos["detection.snr_ramp_simulate"]))

    de = "inference.differential_evolution"
    de_spans = [i for i, span in enumerate(spans) if span[0] == de]
    m[f"{de}.self_ms"] = ms(de)
    m[f"{de}.generations"] = _mean([info[0] for info in infos[de]])
    m[f"{de}.evaluations"] = _mean([children[i][1] for i in de_spans])
    m[f"{de}.discarded"] = _mean([info[1] for info in infos[de]])
    contour = "inference.uncertainty_by_chi2_doubling"
    contour_spans = [i for i, span in enumerate(spans) if span[0] == contour]
    m[f"{contour}.self_ms"] = ms(contour)
    m[f"{contour}.objective_calls"] = _mean([children[i][0] for i in contour_spans])
    m[f"{contour}.points"] = _mean([children[i][1] for i in contour_spans])
    m[f"{contour}.unbounded_frac"] = _mean([0.0 if b else 1.0 for b in infos[contour]])
    for kind, (count, seconds) in chi2.items():
        m[f"inference.chi_square_batch.{kind}.calls"] = per_op(count)
        m[f"inference.chi_square_batch.{kind}.self_ms"] = per_op(1000.0 * seconds)

    for layer in LAYERS:
        m[f"{layer}.self_frac"] = layer_self[layer] / op_seconds if op_seconds else 0.0
    m["source.continuum_noises.self_frac"] = (
        self_s["source.continuum_noises"] / op_seconds if op_seconds else 0.0
    )
    m["cli.import_frac"] = sum(durations["cli.import"]) / op_seconds if op_seconds else 0.0
    return m

