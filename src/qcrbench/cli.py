"""Command-line front end: bound curves, Monte Carlo ramps, fits, SA timing.

Exit codes are a stable contract: 0 success, 2 I/O failure or command-line
usage error (argparse's usage text, then ``SystemExit(2)`` from `main`),
3 input schema error, 4 domain/physics error.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import bounds, detection, inference
from .config import KEY_ROWS, WorkbenchConfig, load_config, parse_filter_spec
from .errors import DOMAIN, ConfigError, SchemaError, WorkbenchError

EXIT_OK = 0
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_DOMAIN = 4


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_table(path: str, config: WorkbenchConfig, extra: dict, columns: dict, fmt: str):
    """Emit a column table as CSV (with config echo comments) or JSON."""
    echo = config.resolved_items() + sorted(extra.items())
    if fmt == "csv":
        lines = [f"# {key} = {value}" for key, value in echo]
        names = list(columns)
        lines.append(",".join(names))
        length = len(next(iter(columns.values())))
        for row in range(length):
            lines.append(",".join(_fmt(columns[name][row]) for name in names))
        body = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": {key: value for key, value in echo},
            "columns": {name: [float(v) for v in values] for name, values in columns.items()},
        }
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body)


def _out_path(config: WorkbenchConfig, override: str | None, stem: str, fmt: str) -> str:
    if override:
        return override
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, f"{stem}.{fmt}")


def cmd_bounds(config: WorkbenchConfig, out: str | None, fmt: str) -> int:
    """Write every bound curve over the configured transmission grid."""
    chain = bounds.build_chain(config.source, config.budget)
    # Python floats: T / eta_p past the float range is inf without a numpy warning
    grid = [float(t) for t in config.T_grid]
    columns = {
        "T": grid,
        "btmss_closed": [
            bounds.qcrb_distributed(t, config.n_r, config.source, config.budget).var_n
            for t in grid
        ],
        "btmss_numeric": [
            bounds.qcrb_numeric_gaussian(
                t, config.source, config.budget, config.n_r, chain=chain
            ).var_n
            for t in grid
        ],
        "coherent": [bounds.qcrb_coherent(t, config.n_r, config.budget.eta_p).var_n for t in grid],
        "ultimate_ideal": [
            bounds.qcrb_ultimate(t, config.n_r, config.budget, lossless=True).var_n for t in grid
        ],
        "ultimate_lossy": [bounds.qcrb_ultimate(t, config.n_r, config.budget).var_n for t in grid],
    }
    path = _out_path(config, out, "bounds", fmt)
    _write_table(path, config, {}, columns, fmt)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(config: WorkbenchConfig, trials: int, out: str | None, fmt: str) -> int:
    """Monte Carlo SNR-ramp runs across the grid, next to the analytic bound."""
    DOMAIN["--trials"].check(trials)
    chain = bounds.build_chain(config.source, config.budget)
    t_bin = detection.effective_time(config.filter)
    simulated = []
    analytic = []
    # var_n = Var(T) n_r and the ramp's SNR do not depend on n_r, so each
    # ramp runs at n_r = 1, where Var(T) is var_n itself
    for index, t in enumerate(config.T_grid):
        var_t = detection.transmission_variance(chain, float(t))
        analytic.append(var_t)
        sigma = math.sqrt(var_t)
        plan = detection.MeasurementPlan(
            filter=config.filter,
            trials=trials,
            rng_seed=int(np.random.SeedSequence([config.seed, index]).generate_state(1)[0]),
            ramp_duration=trials * t_bin,
        )
        ramp = detection.snr_ramp_simulate(
            plan, detection.linear_ramp(5.0 * sigma, plan.ramp_duration), var_t
        )
        simulated.append(ramp.delta_T_at_snr1**2)
    columns = {
        "T": config.T_grid,
        "var_n_simulated": simulated,
        "var_n_analytic": analytic,
    }
    path = _out_path(config, out, "simulate", fmt)
    _write_table(path, config, {"trials": str(trials)}, columns, fmt)
    print(f"wrote {path}")
    return EXIT_OK


def _load_noise_file(path: str) -> list:
    """Noise measurements of a JSON noise file; content off the schema raises `SchemaError`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError (a file that is not UTF-8) and
            # RecursionError (arrays or objects nested past the interpreter's limit)
            raise SchemaError(f"noise file is not valid UTF-8 JSON: {exc}") from exc
    channels = payload.get("channels") if isinstance(payload, dict) else None
    if not isinstance(channels, list):
        raise SchemaError('noise file must be an object with a "channels" list')
    measurements = []
    for entry in channels:
        if not isinstance(entry, dict):
            raise SchemaError("each channel entry must be an object")
        unknown = set(entry) - {"channel", "value", "variance", "eta"}
        if unknown:
            raise SchemaError(f"unknown channel fields: {sorted(unknown)}")
        try:
            channel = entry["channel"]
            numbers = (entry["value"], entry["variance"], entry.get("eta", 1.0))
        except KeyError as exc:
            raise SchemaError(f"channel entry is missing field {exc}") from exc
        # a JSON number loads as int or float; float() would also read true and
        # false as 1.0 and 0.0, and numeric text such as "0.15"
        bad = [n for n in numbers if isinstance(n, bool) or not isinstance(n, (int, float))]
        if bad:
            raise SchemaError(f"value, variance and eta must be numbers, not {json.dumps(bad[0])}")
        try:
            value, variance, eta = map(float, numbers)
        except OverflowError as exc:
            raise SchemaError(f"value, variance and eta must be numbers: {exc}") from exc
        measurements.append(inference.NoiseMeasurement(channel, value, variance, eta))
    return measurements


def cmd_fit(
    noise_file: str,
    out: str | None,
    seed: int,
    population: int,
    max_generations: int,
    noise_model: str,
) -> int:
    """Fit (s, T_a) to a measured noise triple and emit the result as JSON."""
    measurements = _load_noise_file(noise_file)
    fields = {"population": population, "max_generations": max_generations, "rng_seed": seed}
    for name, option in zip(fields, ("--population", "--max-generations", "--seed")):
        DOMAIN[name].check(fields[name], f"{option}: {name}")
    de_config = inference.DEConfig(**fields)
    result = inference.fit_source(measurements, de_config, noise_model=noise_model)
    payload = {
        "fit": dataclasses.asdict(result),
        "de_config": dataclasses.asdict(de_config),
        "input": noise_file,
    }
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(f"wrote {out}")
    else:
        print(body, end="")
    return EXIT_OK


def cmd_sa_time(filter_kind: str, rbw: float) -> int:
    """Report the effective measurement time of an RBW filter."""
    filt = parse_filter_spec(filter_kind, rbw)
    t = detection.effective_time(filt)
    print(f"filter_kind = {filter_kind}")
    print(f"rbw_hz = {_fmt(rbw)}")
    print(f"effective_time_s = {_fmt(t)}")
    print(f"time_bandwidth_product = {_fmt(t * rbw)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcrbench",
        description="Transmission-estimation bound workbench for bright squeezed light",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="emit bound curves over the T grid")
    p_bounds.add_argument("--config")
    p_bounds.add_argument("--out")
    p_bounds.add_argument("--format", choices=("csv", "json"))

    p_sim = sub.add_parser("simulate", help="Monte Carlo SNR-ramp runs over the T grid")
    p_sim.add_argument("--config")
    p_sim.add_argument("--trials", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out")
    p_sim.add_argument("--format", choices=("csv", "json"))

    p_fit = sub.add_parser("fit", help="fit source parameters to a noise triple")
    p_fit.add_argument("noise_file")
    p_fit.add_argument("--out")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--population", type=int, default=500)
    p_fit.add_argument("--max-generations", type=int, default=1000)
    p_fit.add_argument(
        "--noise-model", choices=inference.NOISE_MODELS, default="numeric_oracle"
    )

    p_sa = sub.add_parser("sa-time", help="effective measurement time of an RBW filter")
    p_sa.add_argument("--filter", default="sync4")
    p_sa.add_argument("--rbw", type=float, default=51e3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bounds":
            config = load_config(args.config)
            return cmd_bounds(config, args.out, args.format or config.format)
        if args.command == "simulate":
            config = load_config(args.config)
            if args.seed is not None:
                seed = KEY_ROWS["seed"].check(args.seed, "--seed or config key 'seed'", ConfigError)
                config = dataclasses.replace(config, seed=seed)
            return cmd_simulate(config, args.trials, args.out, args.format or config.format)
        if args.command == "fit":
            return cmd_fit(
                args.noise_file,
                args.out,
                args.seed,
                args.population,
                args.max_generations,
                args.noise_model,
            )
        if args.command == "sa-time":
            return cmd_sa_time(args.filter, args.rbw)
        raise AssertionError(f"unhandled command {args.command!r}")
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (WorkbenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
