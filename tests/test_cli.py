"""Tests for the CLI, config parsing, and file emission contracts."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcrbench
from oracles import CONFIG_CAPS, edges, inside
from qcrbench.cli import main
from qcrbench.config import KEY_ROWS, MAX_GRID_POINTS, load_config, parse_config_text
from qcrbench.errors import DOMAIN, ConfigError
from qcrbench.inference import synthetic_noise_measurements

# the config's squeezing cap and the caps of the size options
MAX_S = KEY_ROWS["s"].high
MAX_POLES = int(KEY_ROWS["filter_kind"].high)
MAX_TRIALS = int(DOMAIN["--trials"].high)
MAX_POPULATION = int(DOMAIN["population"].high)
ETAS = {"diff": 0.919, "probe": 0.973 * 0.945, "conj": 0.919}
_SAMPLE_NOISES = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "sample_noises.json")


def _sample_noises_with(channel, key, value):
    """docs/sample_noises.json, which `fit` accepts, with one field of one channel replaced."""
    with open(_SAMPLE_NOISES) as handle:
        data = json.load(handle)
    data["channels"][channel][key] = value
    return json.dumps(data).encode()


def read_csv(path):
    config = {}
    rows = []
    header = None
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                config[key] = value
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(x) for x in line.split(",")])
    return config, header, np.array(rows)


class TestConfigParsing:
    def test_defaults(self):
        config = parse_config_text("")
        assert config.source.s == 2.04
        assert config.budget.eta_c == 0.919
        assert config.T_grid.size == 16
        assert config.T_grid[0] == pytest.approx(0.10)
        assert config.T_grid[-1] == pytest.approx(0.85)

    def test_source_keys_reach_source_params(self):
        config = parse_config_text("s = 1.1\nT_a = 0.8\nseed_photons = 5e6\n")
        assert config.source.s == 1.1
        assert config.source.T_a == 0.8
        assert config.source.seed_photons == 5e6

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("squeeze = 2.0\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_comments_and_overrides(self):
        config = parse_config_text("# comment\ns = 1.5  # inline\nT_grid = 0.2,0.4\n")
        assert config.source.s == 1.5
        assert list(config.T_grid) == [0.2, 0.4]

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("T_grid = 0.5,0.4\n")
        with pytest.raises(ConfigError):
            parse_config_text("T_grid = 0.0,0.5\n")

    @pytest.mark.parametrize(
        "grid", ["0.1:1:1e-12", "0.1:1:5e-324", ",".join(["0.5"] * (MAX_GRID_POINTS + 1))]
    )
    def test_oversized_grid_rejected_before_it_is_built(self, grid):
        with pytest.raises(ConfigError, match="more than"):
            parse_config_text(f"T_grid = {grid}\n")

    def test_bad_filter_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("filter_kind = cheby2\n")

    def test_echo_roundtrips(self):
        config = parse_config_text("s = 1.9\nrbw_hz = 33e3\nfilter_kind = gaussian\n")
        echoed = "\n".join(f"{k} = {v}" for k, v in config.resolved_items())
        again = parse_config_text(echoed)
        assert again.source.s == config.source.s
        assert again.filter.rbw == config.filter.rbw
        assert np.array_equal(again.T_grid, config.T_grid)


def _key_values(key):
    """Valid values of a numeric config key, from its row cut at `CONFIG_CAPS`."""
    return inside(KEY_ROWS[key], CONFIG_CAPS.get(key, math.inf))


@st.composite
def _config_texts(draw):
    """A valid config body that sets every key: range or list grid, either filter kind."""
    if draw(st.booleans()):
        start = draw(st.floats(1e-3, 0.5))
        step = draw(st.floats(1e-3, 0.05))
        stop = start + step * draw(st.integers(0, 9))
        grid = f"{start!r}:{stop!r}:{step!r}"
    else:
        points = draw(st.lists(_key_values("T_grid"), min_size=1, max_size=8, unique=True))
        grid = ",".join(repr(t) for t in sorted(points))
    sync = _key_values("filter_kind").map(lambda poles: f"sync{poles}")
    values = {
        "s": draw(_key_values("s")),
        "T_a": draw(_key_values("T_a")),
        "seed_photons": draw(_key_values("seed_photons")),
        "T_p": draw(_key_values("T_p")),
        "eta_p": draw(_key_values("eta_p")),
        "eta_c": draw(_key_values("eta_c")),
        "n_r": draw(_key_values("n_r")),
        "filter_kind": draw(st.one_of(st.just("gaussian"), sync)),
        "rbw_hz": draw(_key_values("rbw_hz")),
        "T_grid": grid,
        "seed": draw(_key_values("seed")),
        "out_dir": draw(st.text("abcXYZ019_-./", min_size=1, max_size=12)),
        "format": draw(st.sampled_from(["csv", "json"])),
    }
    return "\n".join(
        f"{key} = {value if isinstance(value, str) else repr(value)}"
        for key, value in values.items()
    )


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(text=_config_texts())
def test_echo_roundtrips_for_any_valid_config(text):
    config = parse_config_text(text)
    items = config.resolved_items()
    again = parse_config_text("\n".join(f"{key} = {value}" for key, value in items))
    assert again.resolved_items() == items
    # the echo loses nothing: the re-parsed config holds the same values
    assert np.array_equal(again.T_grid, config.T_grid)
    assert dataclasses.replace(again, T_grid=None) == dataclasses.replace(config, T_grid=None)


class TestBoundsCommand:
    def test_default_grid_shape(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--out", str(out)])
        assert rc == 0
        config, header, rows = read_csv(out)
        assert header == [
            "T",
            "btmss_closed",
            "btmss_numeric",
            "coherent",
            "ultimate_ideal",
            "ultimate_lossy",
        ]
        assert rows.shape[0] == 16
        assert config["seed"] == "20260808"

    def test_headline_ratio_at_max_transmission(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 0.5,0.84\n")
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        at_084 = rows[np.isclose(rows[:, 0], 0.84)][0]
        assert at_084[3] / at_084[1] == pytest.approx(2.6, abs=0.1)

    def test_zero_squeezing_collapses_to_coherent(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("s = 0.0\nT_grid = 0.2,0.5,0.8\n")
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert np.allclose(rows[:, 1], rows[:, 3], rtol=1e-12)

    def test_lossless_ultimate_vanishes_at_unit_transmission(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 0.5,1.0\n")
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[-1, 4] == 0.0

    def test_csv_and_json_values_match(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 0.2,0.5,0.84\n")
        csv_out = tmp_path / "bounds.csv"
        json_out = tmp_path / "bounds.json"
        assert main(["bounds", "--config", str(cfg), "--out", str(csv_out)]) == 0
        assert (
            main(["bounds", "--config", str(cfg), "--out", str(json_out), "--format", "json"]) == 0
        )
        _, header, rows = read_csv(csv_out)
        payload = json.loads(json_out.read_text())
        for col, name in enumerate(header):
            for row, value in enumerate(payload["columns"][name]):
                assert math.isclose(value, rows[row, col], rel_tol=1e-15, abs_tol=0.0)

    def test_embedded_config_reproduces_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 0.3,0.6\nseed = 3\n")
        out1 = tmp_path / "one.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out1)]) == 0
        config, _, _ = read_csv(out1)
        echoed = tmp_path / "echo.txt"
        echoed.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        out2 = tmp_path / "two.csv"
        assert main(["bounds", "--config", str(echoed), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_config_key_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus = 1\n")
        assert main(["bounds", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "line, message",
        [
            ("T_grid = 0.1:0.5", "T_grid range must be start:stop:step"),
            ("T_grid = 0.5:0.1:0.1", "T_grid range must increase with a positive step"),
            ("T_grid = ,", "T_grid is empty"),
            (
                "filter_kind = syncx",
                "config key 'filter_kind': 'syncx' is not gaussian or sync<poles>",
            ),
            ("seed = 1.5", "config key 'seed': '1.5' is not an integer"),
            ("T_p = 1.5", "config key 'T_p' must lie in [0, 1], not 1.5"),
            ("n_r = 0", "config key 'n_r' must be finite and positive, not 0.0"),
        ],
        ids=[
            "grid-without-step",
            "falling-grid",
            "empty-grid",
            "syncx",
            "seed-1.5",
            "T_p-1.5",
            "n_r-0",
        ],
    )
    def test_config_off_schema_exits_3_naming_it(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_utf8_config_exits_3(self, tmp_path, capsys):
        # a schema error, as for a noise file that is not UTF-8
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"s = \xff2.04\n")
        assert main(["bounds", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("error: config file is not valid UTF-8")

    def test_oversized_grid_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 0.1:1:1e-12\n")
        assert main(["bounds", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "eta_p, message", [("0", "no probe light reaches the detector"), ("1e-310", "finite")]
    )
    def test_dark_or_subnormal_detection_efficiency_exits_4(self, tmp_path, capsys, eta_p, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"eta_p = {eta_p}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "bounds.csv")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("t", ["2e-318", "1e-320", "5e-324"])
    def test_transmission_below_the_audit_step_exits_4(self, tmp_path, capsys, t):
        # the numeric bound's finite-difference step 1e-6 T underflows to 0 here
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"T_grid = {t}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "bounds.csv")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite-difference audit step" in err

    def test_smallest_transmission_with_an_audit_step_runs(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 3e-318\n")
        out = tmp_path / "bounds.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows.shape[0] == 1 and rows[0, 0] == 3e-318

    def test_unwritable_output_exits_2(self, tmp_path):
        assert main(["bounds", "--out", str(tmp_path / "missing" / "bounds.csv")]) == 2

    def test_squeezing_above_cap_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("s = 200\n")
        assert main(["bounds", "--config", str(cfg)]) == 3
        assert "'s'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            "T_a = 1e-9",
            "T_a = 0.05",
            "T_a = 0.95",
            "T_a = 1.0",
            # lossless, where the bound goes to 0 and precision is worst
            "T_a = 0.9999\nT_p = 1\neta_p = 1\neta_c = 1\nT_grid = 0.5,0.99,0.9999,1",
        ],
    )
    def test_squeezing_at_cap_gives_accurate_bounds(self, tmp_path, extra):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"s = {MAX_S!r}\n{extra}\n")
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert np.all(np.isfinite(rows))
        closed = rows[:, header.index("btmss_closed")]
        numeric = rows[:, header.index("btmss_numeric")]
        np.testing.assert_allclose(numeric, closed, rtol=1e-6, atol=0.0)


    def test_tiny_internal_transmission_runs(self, tmp_path):
        # the source state is closed-form, so T_a = 1e-100 needs no slice ladder
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("s = 0.5\nT_a = 1e-100\n")
        bnd = tmp_path / "bounds.csv"
        sim = tmp_path / "sim.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(bnd)]) == 0
        assert main(["simulate", "--config", str(cfg), "--trials", "1000", "--out", str(sim)]) == 0
        _, header, rows = read_csv(bnd)
        assert np.all(np.isfinite(rows))
        closed = rows[:, header.index("btmss_closed")]
        numeric = rows[:, header.index("btmss_numeric")]
        np.testing.assert_allclose(numeric, closed, rtol=1e-6, atol=0.0)
        _, _, sim_rows = read_csv(sim)
        assert np.all(np.isfinite(sim_rows)) and np.all(sim_rows[:, 1:] > 0.0)


class TestSimulateCommand:
    def test_reproducible_and_close_to_bound(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 0.2,0.84\nseed = 123\n")
        out1 = tmp_path / "sim1.csv"
        out2 = tmp_path / "sim2.csv"
        assert main(["simulate", "--config", str(cfg), "--trials", "4000", "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--trials", "4000", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, _, rows = read_csv(out1)
        assert np.all(np.abs(rows[:, 1] / rows[:, 2] - 1.0) < 0.15)

    def test_squeezing_at_cap_gives_analytic_variance_at_bound(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"s = {MAX_S!r}\nT_a = 0.95\n")
        sim = tmp_path / "sim.csv"
        bnd = tmp_path / "bounds.csv"
        assert main(["simulate", "--config", str(cfg), "--trials", "1000", "--out", str(sim)]) == 0
        assert main(["bounds", "--config", str(cfg), "--out", str(bnd)]) == 0
        _, header, rows = read_csv(sim)
        _, bound_header, bound_rows = read_csv(bnd)
        analytic = rows[:, header.index("var_n_analytic")]
        assert np.all(np.isfinite(rows)) and np.all(analytic > 0.0)
        closed = bound_rows[:, bound_header.index("btmss_closed")]
        np.testing.assert_allclose(analytic, closed, rtol=1e-6, atol=0.0)

    def test_coherent_simulation_tracks_shot_limit(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("s = 0.0\nT_a = 1.0\nT_grid = 0.15,0.5,0.84\nseed = 2718\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg), "--trials", "10000", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        # variance ratio within 10% <=> amplitude within ~5% at 1e4 bins
        assert np.all(np.abs(rows[:, 1] / rows[:, 2] - 1.0) < 0.10)

    def test_tiny_transmissions_simulate(self, tmp_path):
        # modulation powers down to ~1e-299, whose squares underflow in a plain line fit
        ratios = []
        for t in ("1e-160", "1e-170", "1e-250", "1e-300"):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"T_grid = {t}\n")
            out = tmp_path / f"sim{t}.csv"
            args = ["simulate", "--config", str(cfg), "--trials", "1000", "--out", str(out)]
            assert main(args) == 0
            _, _, rows = read_csv(out)
            ratios.append(rows[0, 1] / rows[0, 2])
        # the same noise stream at every T: the ramp is the one at 1e-160, rescaled
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_subnormal_transmission_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 1e-310\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg), "--trials", "1000", "--out", str(out)]) == 4
        assert "overflows float64" in capsys.readouterr().err

    def test_unsqueezed_source_at_tiny_internal_transmission(self, tmp_path):
        # (n_p / T)^2 underflows here; the exactly rescaled variance is T / eta_p
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("s = 0\nT_a = 1e-300\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg), "--trials", "10000", "--out", str(out)]) == 0
        config, header, rows = read_csv(out)
        analytic = rows[:, header.index("var_n_analytic")]
        expected = rows[:, header.index("T")] / float(config["eta_p"])
        np.testing.assert_allclose(analytic, expected, rtol=1e-14, atol=0.0)
        assert np.all(np.isfinite(rows)) and np.all(rows[:, 1] > 0.0)

    def test_subnormal_detection_efficiency_exits_4(self, tmp_path, capsys):
        # T / eta_p is past the float range, and (n_p / T)^2 underflows
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("eta_p = 1e-310\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg), "--trials", "1000", "--out", str(out)]) == 4
        assert "not positive and finite" in capsys.readouterr().err

    def test_ramp_powers_past_the_float_range_exit_4(self, tmp_path, capsys):
        # var_t ~ 8.5e306: the ramp's squared amplitudes would overflow
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("eta_p = 1e-307\nT_grid = 0.85\n")
        out = tmp_path / "sim.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--config", str(cfg), "--trials", "1000", "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: SNR ramp powers")

    def test_probing_photon_number_reaches_no_data_column(self, tmp_path):
        # var_n = Var(T) n_r and the ramp's SNR do not depend on n_r, so each ramp
        # runs at n_r = 1: no tiny or huge n_r rescales it out of the float range
        rows = {}
        for n_r in ("1", "1e-308", "1e-320", "1e12"):
            cfg = tmp_path / f"cfg{n_r}.txt"
            cfg.write_text(f"n_r = {n_r}\nT_grid = 0.1,0.5,0.84\n")
            out = tmp_path / f"sim{n_r}.csv"
            args = ["simulate", "--config", str(cfg), "--trials", "1000", "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(args) == 0
            # only the echoed n_r differs
            lines = out.read_text().splitlines()
            rows[n_r] = [line for line in lines if not line.startswith("# n_r = ")]
            assert len(lines) == len(rows[n_r]) + 1
        assert all(lines == rows["1"] for lines in rows.values())

    def test_too_few_trials_exits_4(self, tmp_path):
        assert main(["simulate", "--trials", "10", "--out", str(tmp_path / "x.csv")]) == 4

    @pytest.mark.parametrize(
        "config_text, argv, subject",
        [
            ("", ["--seed", "-7"], "--seed or config key 'seed'"),
            ("seed = -1\n", [], "config key 'seed'"),
        ],
        ids=["option", "config_key"],
    )
    def test_negative_seed_exits_3_naming_it(self, tmp_path, capsys, config_text, argv, subject):
        # the seed's row is checked before any chain or ramp is built
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {subject} must be non-negative, not -")
        assert err.count("\n") == 1 and not out.exists()

    def test_too_many_trials_exits_4_before_any_ramp(self, tmp_path, capsys, monkeypatch):
        def no_ramp(*args, **kwargs):
            raise AssertionError("a ramp was built past the trial cap")

        monkeypatch.setattr("qcrbench.detection.snr_ramp_simulate", no_ramp)
        argv = ["simulate", "--trials", str(MAX_TRIALS + 1), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 4
        assert str(MAX_TRIALS) in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key", ["T_p", "eta_p"])
@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_dark_budget_exits_4_with_one_shared_line(tmp_path, capsys, command, key):
    # the chain decides darkness, so both commands name it in the same words
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = 0\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err == "error: no probe light reaches the detector\n"
    assert not out.exists()


class TestFitCommand:
    def write_noise_file(self, path, s=2.04, ta=0.71, rel=0.012):
        measurements = synthetic_noise_measurements(s, ta, ETAS, rel_sigma=rel)
        payload = {
            "channels": [
                {"channel": m.channel, "value": m.value, "variance": m.variance, "eta": m.eta}
                for m in measurements
            ]
        }
        path.write_text(json.dumps(payload))

    def test_roundtrip(self, tmp_path):
        noise = tmp_path / "noises.json"
        self.write_noise_file(noise)
        out = tmp_path / "fit.json"
        rc = main(
            [
                "fit",
                str(noise),
                "--out",
                str(out),
                "--seed",
                "5",
                "--population",
                "300",
                "--max-generations",
                "500",
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["fit"]["s"] == pytest.approx(2.04, abs=1e-3)
        assert payload["fit"]["T_a"] == pytest.approx(0.71, abs=1e-3)
        assert payload["de_config"]["population"] == 300

    def test_zero_eta_exits_4(self, tmp_path):
        noise = tmp_path / "bad.json"
        noise.write_text(
            json.dumps(
                {
                    "channels": [
                        {"channel": "diff", "value": 0.15, "variance": 1e-6, "eta": 0.0},
                        {"channel": "probe", "value": 20.0, "variance": 1e-2, "eta": 0.9},
                        {"channel": "conj", "value": 22.0, "variance": 1e-2, "eta": 0.9},
                    ]
                }
            )
        )
        assert main(["fit", str(noise)]) == 4

    def test_missing_channel_exits_3(self, tmp_path):
        noise = tmp_path / "short.json"
        noise.write_text(
            json.dumps(
                {"channels": [{"channel": "diff", "value": 0.15, "variance": 1e-6, "eta": 0.9}]}
            )
        )
        assert main(["fit", str(noise), "--population", "16", "--max-generations", "5"]) == 3

    def test_malformed_json_exits_3(self, tmp_path):
        noise = tmp_path / "broken.json"
        noise.write_text("{not json")
        assert main(["fit", str(noise)]) == 3

    @pytest.mark.parametrize(
        "body",
        [
            b'{"channels": null}',
            b'{"channels": 3}',
            b'[1, 2]',
            b'{"channels": [{"channel": "diff", "value": [0.15], "variance": 1e-6}]}',
            b'{"channels": [{"channel": "diff", "value": "abc", "variance": 1e-6}]}',
            _sample_noises_with(0, "value", "0.15"),
            b'{"channels": [{"channel": "diff", "value": 0.15, "variance": 1e-6, "eta": null}]}',
            b'{"channels": [{"channel": "diff", "value": 1' + b"0" * 400 + b', "variance": 1}]}',
            b'{"channels": [{"channel": "diff\xff", "value": 0.15, "variance": 1e-6}]}',
            _sample_noises_with(0, "value", True),
            _sample_noises_with(1, "variance", False),
            _sample_noises_with(1, "eta", True),
            b"[" * 100_000,
        ],
        ids=[
            "null",
            "number",
            "list",
            "list-value",
            "text-value",
            "numeric-text-value",
            "null-eta",
            "huge-int",
            "utf8",
            "true-value",
            "false-variance",
            "true-eta",
            "deep-nesting",
        ],
    )
    def test_malformed_noise_file_exits_3(self, tmp_path, capsys, body):
        noise = tmp_path / "bad.json"
        noise.write_bytes(body)
        assert main(["fit", str(noise), "--population", "16", "--max-generations", "5"]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_channel_entry_not_an_object_exits_3_naming_it(self, tmp_path, capsys):
        noise = tmp_path / "bad.json"
        noise.write_text('{"channels": [1]}')
        assert main(["fit", str(noise)]) == 3
        assert capsys.readouterr().err == "error: each channel entry must be an object\n"

    def test_stdout_holds_the_bytes_out_writes(self, tmp_path, capsysbinary):
        args = ["fit", _SAMPLE_NOISES, "--population", "16", "--max-generations", "5"]
        out = tmp_path / "fit.json"
        assert main([*args, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == f"wrote {out}\n".encode()
        assert main(args) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "absent.json")]) == 2

    def test_too_large_population_exits_4_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran past the population cap")

        monkeypatch.setattr("qcrbench.inference.fit_source", no_fit)
        noise = tmp_path / "noises.json"
        self.write_noise_file(noise)
        assert main(["fit", str(noise), "--population", str(MAX_POPULATION + 1)]) == 4
        assert str(MAX_POPULATION) in capsys.readouterr().err


    @pytest.mark.parametrize(
        "args, option",
        [
            (["--population", "8", "--max-generations", "-3"], "--max-generations"),
            (["--seed", "-1"], "--seed"),
            (["--population", "3"], "--population"),
        ],
    )
    def test_fit_option_out_of_domain_exits_4_naming_it(self, capsys, monkeypatch, args, option):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran with an option out of its domain")

        monkeypatch.setattr("qcrbench.inference.fit_source", no_fit)
        assert main(["fit", _SAMPLE_NOISES, *args]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "channel, key, value, error",
        [
            (0, "value", 1e200, "log-scale variance"),
            (0, "value", math.inf, "log-scale variance"),
            (0, "value", 1e-300, "log-scale variance"),
            (1, "variance", 5e-324, "log-scale variance"),
            (1, "eta", 1e-170, "eta is too small"),
        ],
    )
    def test_degenerate_variance_exits_4(self, tmp_path, capsys, channel, key, value, error):
        noise = tmp_path / "degenerate.json"
        noise.write_bytes(_sample_noises_with(channel, key, value))
        assert main(["fit", str(noise), "--population", "16", "--max-generations", "5"]) == 4
        assert error in capsys.readouterr().err


class TestSaTimeCommand:
    def test_sync4(self, capsys):
        assert main(["sa-time", "--filter", "sync4", "--rbw", "51e3"]) == 0
        lines = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(lines["effective_time_s"]) == pytest.approx(8.63e-6, rel=0.02)
        assert float(lines["time_bandwidth_product"]) == pytest.approx(0.44, rel=0.02)

    def test_gaussian(self, capsys):
        assert main(["sa-time", "--filter", "gaussian", "--rbw", "51e3"]) == 0
        lines = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(lines["time_bandwidth_product"]) == pytest.approx(0.4697, abs=2e-4)

    def test_filter_ratio(self, capsys):
        main(["sa-time", "--filter", "sync4", "--rbw", "10e3"])
        sync = float(
            dict(
                line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
            )["effective_time_s"]
        )
        main(["sa-time", "--filter", "gaussian", "--rbw", "10e3"])
        gauss = float(
            dict(
                line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
            )["effective_time_s"]
        )
        assert sync / gauss == pytest.approx(0.94, abs=0.005)

    def test_infinite_rbw_exits_4(self, capsys):
        assert main(["sa-time", "--filter", "sync4", "--rbw", "inf"]) == 4
        assert "rbw must be finite" in capsys.readouterr().err


def test_cli_import_loads_no_scipy(tmp_path):
    # the run-time path is numpy-only: neither the import nor the README
    # commands, whose lazy imports an import-only probe would miss, may load
    # a test dependency
    src = os.path.dirname(os.path.dirname(qcrbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    config = os.path.join(os.path.dirname(src), "docs", "sample_config.txt")
    noises = os.path.join(os.path.dirname(src), "docs", "sample_noises.json")
    commands = [
        ["bounds", "--config", config, "--out", str(tmp_path / "bounds.csv")],
        ["simulate", "--config", config, "--trials", "10000", "--seed", "7",
         "--out", str(tmp_path / "simulate.csv")],
        ["fit", noises, "--population", "500", "--seed", "5", "--out", str(tmp_path / "fit.json")],
        ["sa-time", "--filter", "sync4", "--rbw", "51e3"],
    ]
    probe = (
        "import json, sys, qcrbench.cli\n"
        "def loaded():\n"
        "    return [name for name in ('scipy', 'hypothesis') if name in sys.modules]\n"
        "after_import = loaded()\n"
        "codes = [qcrbench.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([after_import, codes, loaded()]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    after_import, codes, after_commands = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert after_import == []
    assert after_commands == []


def test_cli_import_loads_no_numpy_random():
    # bounds and sa-time never draw, so importing the CLI must not pay for
    # numpy.random; simulate and fit load it when they do.  numpy 1.x loads
    # it with numpy itself, so the probe compares against bare numpy.
    src = os.path.dirname(os.path.dirname(qcrbench.__file__))
    probe = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import qcrbench.cli\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    before, after = result.stdout.split()
    assert after == before


def test_cli_import_loads_no_numpy_typing():
    # the Gaussian-state module's array alias needs no numpy.typing at run time
    src = os.path.dirname(os.path.dirname(qcrbench.__file__))
    probe = "import sys, qcrbench.cli\nprint('numpy.typing' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"


def test_package_boundary():
    # the package namespace re-exports nothing, and the estimator reads the
    # detected x sector without the Gaussian-state module
    src = os.path.dirname(os.path.dirname(qcrbench.__file__))
    probe = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(n for n in sys.modules if n.split('.')[0] in ('qcrbench', 'numpy'))\n"
        "import qcrbench\n"
        "after_package = loaded()\n"
        "import qcrbench.detection\n"
        "print(json.dumps([after_package, 'qcrbench.gaussian' in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    after_package, gaussian_loaded = json.loads(result.stdout)
    assert after_package == ["qcrbench"]
    assert not gaussian_loaded


@pytest.mark.parametrize(
    "argv",
    [["fit", _SAMPLE_NOISES, "--population", "abc"], ["bounds", "--bogus"]],
    ids=["fit-population-abc", "bounds-bogus"],
)
def test_usage_error_exits_2(argv, capsys):
    # argparse rejects malformed argv before any command runs: usage text, exit 2
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qcrbench")
    last = err.splitlines()[-1]
    assert last.startswith("qcrbench") and ": error: " in last


# values past or at the edge of the config domain, for any key, and per key: the
# edges of each key's row, then values the rows do not show
_EDGE_VALUES = ["0", "-1", "1", "5e-324", "1e-320", "1e300", "1e400", "nan", "-inf", "", "abc"]
_KEY_EDGES = {key: [repr(value) for value in edges(row)] for key, row in KEY_ROWS.items()}
_KEY_EDGES["filter_kind"] = [f"sync{poles}" for poles in edges(KEY_ROWS["filter_kind"])]
_KEY_EDGES["filter_kind"] += ["syncx", "boxcar"]
_KEY_EDGES["T_grid"] += [f"0.1:0.2:{step}" for step in _KEY_EDGES.pop("T_grid step")]
_KEY_EDGES["T_grid"] += [
    "1e-320",
    "1e-48",
    "0.85:0.1:0.05",
    "0.1:0.2",
    "0.5,0.2",
    "0.5,0.5",
    ",",
    f"0:1:{1.0 / MAX_GRID_POINTS!r}",
]
_KEY_EDGES["T_a"] += ["1e-300", "1e-315"]
_KEY_EDGES["seed"] += [str(2**64), "1.5"]
_KEY_EDGES["format"] = ["xml"]


@st.composite
def _config_bodies(draw):
    """A config file body: valid, with keys at or past their domain, or malformed."""
    fault = draw(st.sampled_from(["none"] * 4 + ["edge", "edges", "line", "bytes"]))
    lines = draw(_config_texts()).split("\n")
    for _ in range({"edge": 1, "edges": 2}.get(fault, 0)):
        index = draw(st.integers(0, len(lines) - 1))
        key = lines[index].split(" = ", 1)[0]
        lines[index] = f"{key} = {draw(st.sampled_from(_EDGE_VALUES + _KEY_EDGES.get(key, [])))}"
    if fault == "line":
        lines.append(draw(st.sampled_from(["just words", "squeeze = 2.0", "s == 1"])))
    body = "\n".join(lines).encode()
    if fault == "bytes":
        body = body.replace(b" = ", b" = \xff", 1)
    return body


_JSON_VALUES = [
    "0.15", None, True, [0.15], {"v": 1}, math.nan, math.inf, -1.0, 0.0, -0.0,
    1e-300, 5e-324, 1e300, 10**400, "diff",
]


@st.composite
def _noise_bodies(draw):
    """A noise file: the sample file with its JSON types, fields or channels broken, or raw bytes."""
    kind = draw(st.sampled_from(["edit"] * 8 + ["truncate", "bytes"]))
    if kind == "bytes":
        return draw(
            st.sampled_from(
                [b"", b"{not json", b"[" * 100_000, b"\xff\xfe{}", b"null", b"[1, 2]", b'{"channels": {}}']
            )
        )
    with open(_SAMPLE_NOISES) as handle:
        data = json.load(handle)
    channels = data["channels"]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        entry = channels[draw(st.integers(0, len(channels) - 1))] if channels else {}
        change = draw(st.sampled_from(["set", "drop", "extra", "copy", "remove", "rename"]))
        key = draw(st.sampled_from(["channel", "value", "variance", "eta"]))
        if change == "set":
            entry[key] = draw(st.sampled_from(_JSON_VALUES))
        elif change == "drop":
            entry.pop(key, None)
        elif change == "extra":
            entry["gain"] = 1.0
        elif change == "copy":
            channels.append(dict(entry))
        elif change == "remove" and channels:
            channels.pop()
        elif change == "rename":
            entry["channel"] = draw(st.sampled_from(["DIFF", "probe", "conj", ""]))
    # json.dumps writes NaN and Infinity, which json.load reads back
    body = json.dumps(data).encode()
    if kind == "truncate":
        body = body[: draw(st.integers(0, len(body) - 1))]
    return body


_TOKENS = [
    "bounds", "simulate", "fit", "sa-time", "--config", "--out", "--trials", "--seed", "--format",
    "--population", "--max-generations", "--noise-model", "--filter", "--rbw", "--bogus", "-h",
    "abc", "100", "-1", "1e400", "csv", "",
]


@st.composite
def _invocations(draw, command):
    """(argv, files): a `command` line over generated inputs, and the files it reads."""
    if command == "argv":
        # malformed command lines; a full default simulate is kept out for time
        argv = draw(st.lists(st.sampled_from(_TOKENS), max_size=5))
        if argv[:1] == ["simulate"]:
            argv += ["--trials", "100"]
        return argv, {}
    if command == "sa-time":
        rbw = draw(st.sampled_from(["51e3", "1", "0", "-1", "nan", "inf", "1e-320", "1e308", "abc"]))
        kind = draw(st.sampled_from(["sync4", "gaussian", f"sync{MAX_POLES + 1}", "sync0", "x"]))
        return ["sa-time", "--filter", kind, "--rbw", rbw], {}
    # most runs read and write where they can, so that they reach the command
    out = draw(st.sampled_from(["out.csv"] * 9 + [os.path.join("absent", "out.csv"), "."]))
    if command == "fit":
        argv = ["fit", "noises.json", "--out", out]
        argv += ["--population", draw(st.sampled_from(["4", "16", "3", str(MAX_POPULATION + 1)]))]
        argv += ["--max-generations", draw(st.sampled_from(["0", "3", "-3"]))]
        argv += ["--seed", draw(st.sampled_from(["0", "5", "-1", str(2**70)]))]
        argv += ["--noise-model", draw(st.sampled_from(["numeric_oracle", "printed_formulas"]))]
        return argv, {"noises.json": draw(_noise_bodies())}
    config = draw(st.sampled_from(["config.txt"] * 9 + ["absent.txt", "."]))
    argv = [command, "--config", config, "--out", out]
    argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]))
    if command == "simulate":
        argv += ["--trials", draw(st.sampled_from(["100", "99", "-5", str(MAX_TRIALS + 1)]))]
        argv += draw(st.sampled_from([[], ["--seed", "7"], ["--seed", "-7"], ["--seed", str(2**64)]]))
    return argv, {"config.txt": draw(_config_bodies())}


@pytest.mark.parametrize("command", ["bounds", "simulate", "fit", "sa-time", "argv"])
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_exit_code_contract_over_generated_input(command, data):
    # 0 success, 2 I/O or usage, 3 schema, 4 domain: every failure is one of
    # them with an error line, and no other exception (a RuntimeWarning
    # included, which pytest makes an error here) leaves `main`
    argv, files = data.draw(_invocations(command))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, body in files.items():
                with open(name, "wb") as handle:
                    handle.write(body)
            err = io.StringIO()
            usage = False
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    # an unbounded fit contour warns; that is not an error
                    warnings.simplefilter("ignore", UserWarning)
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code, usage = exc.code, True
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, code)
    err = err.getvalue()
    if code == 0:
        return
    if usage:
        assert code == 2
        last = err.splitlines()[-1]
        assert last.startswith("qcrbench") and ": error: " in last, err
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestLoadConfig:
    def test_load_default(self):
        config = load_config(None)
        assert config.format == "csv"

    def test_load_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("format = json\n")
        assert load_config(str(cfg)).format == "json"
