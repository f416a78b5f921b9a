"""Tests for the CLI, config parsing, and file emission contracts."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qcrbench
from qcrbench.cli import main
from qcrbench.config import MAX_GRID_POINTS, MAX_S, load_config, parse_config_text
from qcrbench.errors import ConfigError
from qcrbench.inference import synthetic_noise_measurements

ETAS = {"diff": 0.919, "probe": 0.973 * 0.945, "conj": 0.919}


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
        assert config.source.effective_seed_photons() == 5e6

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

    def test_oversized_grid_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T_grid = 0.1:1:1e-12\n")
        assert main(["bounds", "--config", str(cfg)]) == 3

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

    def test_too_few_trials_exits_4(self, tmp_path):
        assert main(["simulate", "--trials", "10", "--out", str(tmp_path / "x.csv")]) == 4


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

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "absent.json")]) == 2


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
        assert "RBW" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(qcrbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, qcrbench.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


class TestLoadConfig:
    def test_load_default(self):
        config = load_config(None)
        assert config.format == "csv"

    def test_load_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("format = json\n")
        assert load_config(str(cfg)).format == "json"
