"""Configuration parsing, presets and the command line interface."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rydsim
from rydsim import detection
from rydsim.atomic_states import resonance_fields
from rydsim.cli import main
from rydsim.config import SCAN_TYPES, build_setup, load_config
from rydsim.ensemble import field_scan
from rydsim.errors import ChannelError, ConfigError
from rydsim.presets import load_pair_system, parse_channel_file, parse_level

# a valid field-grid shorthand but for its point count
_SHORTHAND = ("--set", "field_start=0.7", "--set", "field_stop=0.72")


def _run_python(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this rydsim."""
    src = str(Path(rydsim.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    return result.stdout.strip()


def _write_preset(path, line, replacement):
    """The 50S/48S preset with its one `line` replaced."""
    preset = (resources.files("rydsim.data") / "rb87_50s48s.channels"
              ).read_text(encoding="utf-8")
    assert f"\n{line}\n" in preset
    path.write_text(preset.replace(f"\n{line}\n", f"\n{replacement}\n"),
                    encoding="utf-8")


def _write_gamma_p0_preset(path):
    """The 50S/48S preset with gamma_p = 0, whose V_ef has a pole at the
    resonance."""
    _write_preset(path, "gamma_p_mhz = 0.15", "gamma_p_mhz = 0")


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None, "gain-scan")
        assert cfg.scan == "gain-scan"
        assert cfg.samples == 2000
        assert cfg.pair_system == "rb87_50s48s"

    def test_empty_file_equals_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but comments\n\n")
        assert load_config(str(path), "gain-scan").values == \
            load_config(None, "gain-scan").values

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("samples = 500  # fewer samples\nseed = 7\n")
        cfg = load_config(str(path), "gain-scan")
        assert cfg.samples == 500
        assert cfg.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path), "gain-scan")

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override: unknown key 'nope'"):
            load_config(None, "gain-scan", {"nope": 1})

    def test_out_of_range_efficiency_rejected(self):
        with pytest.raises((ConfigError, ValueError)):
            cfg = load_config(None, "gain-scan", {"storage_efficiency": 1.3})
            build_setup(cfg)

    def test_unknown_scan_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, "not-a-scan")

    def test_field_grid_shorthand(self):
        cfg = load_config(None, "gain-scan", {
            "field_start": 0.6, "field_stop": 0.8, "field_points": 5,
        })
        assert cfg.field_grid == pytest.approx([0.6, 0.65, 0.7, 0.75, 0.8])

    def test_size_bounds_admit_their_limits(self):
        # each set-up is built at its limit and one past it, and never run
        load_config(None, "starkmap", {"field_start": 0.0, "field_stop": 1.0,
                                       "field_points": 65536})
        build_setup(load_config(None, "retrieval", {"spinwave_points": 2263}))
        with pytest.raises(ConfigError, match="retrieval work arrays"):
            load_config(None, "retrieval", {"spinwave_points": 2264})
        samples = 2**30 // (16 * 126)  # the default 66S/64S grid
        for scan in ("gain-scan", "fidelity-scan"):
            overrides = {"pair_system": "rb87_66s64s", "rate_grid": [0.0]}
            build_setup(load_config(None, scan, {**overrides, "samples": samples}))
            with pytest.raises(ConfigError, match="transport table of 126 fields"):
                build_setup(load_config(None, scan,
                                        {**overrides, "samples": samples + 1}))
        # other scans hold no transport table
        build_setup(load_config(None, "retrieval", {"samples": 10**7,
                                                    "rate_grid": [0.0]}))

    def test_incomplete_shorthand_rejected(self):
        with pytest.raises(ConfigError, match="incomplete"):
            load_config(None, "gain-scan", {"field_start": 0.6})

    @pytest.mark.parametrize("key, value", [
        ("samples", 2.5), ("seed", True), ("storage_efficiency", None),
        ("rate_grid", 10.0), ("field_grid", ["0.7"]), ("field_grid", np.array([0.7])),
        ("pair_system", Path("rb87_50s48s")), ("field_points", [3]),
    ])
    def test_override_of_the_wrong_type_rejected(self, key, value):
        # a samples of 2.5 once passed every check and failed in numpy
        with pytest.raises(ConfigError,
                           match=f"^override: bad value for {key!r}: .* is not a"):
            load_config(None, "gain-scan", {key: value})

    def test_overrides_of_a_fitting_type_are_kept_as_given(self):
        # stored unchanged, so the config echo and its hash stay as given
        overrides = {"storage_efficiency": 1, "retrieval_field": 0, "samples": 50,
                     "rate_grid": (10, 35.0), "field_grid": [0.706, 0.71]}
        cfg = load_config(None, "fidelity-scan", overrides)
        assert all(cfg.values[key] is value for key, value in overrides.items())

    def test_override_message_has_no_line_number(self):
        with pytest.raises(ConfigError) as info:
            load_config(None, "gain-scan", {"samples": "abc"})
        assert str(info.value) == "override: bad value for 'samples': 'abc'"

    def test_echo_excludes_output_dir(self):
        cfg = load_config(None, "gain-scan", {"output_dir": "/tmp/somewhere"})
        echo = cfg.echo()
        assert "output_dir" not in echo
        assert echo == load_config(None, "gain-scan").echo()


class TestPresets:
    def test_parse_level_variants(self):
        lvl = parse_level("50S1/2 +1/2")
        assert (lvl.n, lvl.l, lvl.j, lvl.m_j) == (50, "S", 0.5, 0.5)
        lvl = parse_level("64P3/2 -3/2")
        assert (lvl.n, lvl.l, lvl.j, lvl.m_j) == (64, "P", 1.5, -1.5)
        with pytest.raises(ConfigError):
            parse_level("fifty S")

    def test_builtin_pair_systems_load(self):
        for name in ("rb87_50s48s", "rb87_66s64s"):
            pair, extra = load_pair_system(name)
            assert pair.name == name
            assert len(pair.channels) >= 1
            assert extra["gamma_p"] > 0

    def test_unknown_system_rejected(self):
        with pytest.raises((ConfigError, ChannelError, FileNotFoundError)):
            load_pair_system("rb87_does_not_exist")

    def test_channel_file_round_trip(self, tmp_path):
        text = (
            "name = toy\n"
            "theta = 0.0\n"
            "gate_s = 50S1/2 +1/2\n"
            "source_s = 48S1/2 +1/2\n"
            "c3_prime_mhz_um3 = 2.0\n"
            "gamma_p_mhz = 0.15\n"
            "[channel]\n"
            "gate = 49P1/2 +1/2\n"
            "source = 48P1/2 +1/2\n"
            "defect_zero_field_mhz = 9.0\n"
            "diff_polarizability_mhz = 4.0\n"
            "zeeman_shift_mhz = 0.0\n"
            "c3_mhz_um3 = 100.0\n"
            "weight = 1.0\n"
        )
        pair, _extra = parse_channel_file(text, source="toy")
        assert pair.name == "toy"
        assert len(pair.channels) == 1
        path = tmp_path / "toy.channels"
        path.write_text(text)
        pair2, _ = load_pair_system(str(path))
        assert pair2.channels == pair.channels

    @pytest.mark.parametrize("line, message", [
        ("theta = abc", "bad value for 'theta'"),
        ("gamma_p_mhz = -1", "gamma_p_mhz must be >= 0"),
        # Zeeman shifts are per channel; there is no global field to set
        ("b_field = 1.0", "unknown keys ['b_field']"),
    ])
    def test_bad_channel_file_global_is_config_error(self, tmp_path, line,
                                                     message):
        path = tmp_path / "bad.channels"
        path.write_text(
            f"gate_s = 50S1/2 +1/2\nsource_s = 48S1/2 +1/2\n{line}\n"
            "[channel]\n"
            "gate = 49P1/2 +1/2\n"
            "source = 48P1/2 +1/2\n"
            "defect_zero_field_mhz = 10.0\n"
            "diff_polarizability_mhz = 19.8374\n"
            "c3_mhz_um3 = 100.0\n"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_pair_system(str(path))
        result = CliRunner().invoke(main, [
            "starkmap", "--set", f"pair_system={path}",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert message in result.stderr

    @pytest.mark.parametrize("gate_s, gate, message", [
        ("50S3/2 +1/2", "49P1/2 +1/2", "S states carry j = 1/2"),
        ("50P1/2 +1/2", "49P1/2 +1/2", "s_pair must contain S states"),
        ("50S1/2 +1/2", "49S1/2 +1/2", "not dipole-coupled"),
    ])
    def test_bad_channel_state_exits_with_config_code(self, tmp_path, gate_s,
                                                      gate, message):
        path = tmp_path / "bad.channels"
        path.write_text(
            f"gate_s = {gate_s}\nsource_s = 48S1/2 +1/2\n"
            "[channel]\n"
            f"gate = {gate}\n"
            "source = 48P1/2 +1/2\n"
            "defect_zero_field_mhz = 10.0\n"
            "diff_polarizability_mhz = 19.8374\n"
            "c3_mhz_um3 = 100.0\n"
        )
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "starkmap", "--set", f"pair_system={path}", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "config error:" in result.stderr
        assert message in result.stderr
        assert not (out / "starkmap.csv").exists()

    def test_forbidden_channel_leaves_interaction_unchanged(self, tmp_path):
        # at theta = 0 the selection rules drop a channel whose source
        # state changes m_j by +1, so it must not enter V_ef either
        preset = (resources.files("rydsim.data") / "rb87_50s48s.channels"
                  ).read_text(encoding="utf-8")
        path = tmp_path / "forbidden.channels"
        path.write_text(preset + (
            "\n[channel]\n"
            "gate = 49P1/2 +1/2\n"
            "source = 48P3/2 +3/2\n"
            "defect_zero_field_mhz = 10.0\n"
            "diff_polarizability_mhz = 19.8374\n"
            "c3_mhz_um3 = 100.0\n"
        ))

        def scan(pair_system):
            setup = build_setup(load_config(
                None, "gain-scan", {"pair_system": pair_system}))
            assert len(setup.interaction.channels) == 1
            return field_scan(
                setup.pair, setup.geometry, setup.params, setup.interaction,
                [0.70, 0.71], setup.stats, n_samples=200, seed=4,
            )

        got, want = scan(str(path)), scan("rb87_50s48s")
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


class TestCli:
    def test_all_scan_subcommands_registered(self):
        runner = CliRunner()
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for scan in SCAN_TYPES:
            assert scan in result.output

    def test_starkmap_runs_and_writes_outputs(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "run"
        result = runner.invoke(main, ["starkmap", "--out", str(out)])
        assert result.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scan"] == "starkmap"

    def test_bad_override_exits_with_config_code(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["starkmap", "--set", "bogus=1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_malformed_set_exits_with_config_code(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["starkmap", "--set", "noequals", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_missing_config_file_is_usage_error(self):
        runner = CliRunner()
        result = runner.invoke(main, ["starkmap", "--config", "/nope.cfg"])
        assert result.exit_code == 2

    def test_config_file_cannot_choose_the_scan(self, tmp_path):
        # the subcommand names the scan; a `scan` line is an unknown key
        path = tmp_path / "run.cfg"
        path.write_text("samples = 500\nscan = starkmap\n")
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["gain-scan", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert f"{path}:2: unknown key 'scan'" in result.stderr
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("text, message", [
        ("samples = 500\nseed = 7\nsamples = 600\n",
         ":3: duplicate key 'samples', first set on line 1"),
        ("samples = 500\n\n[channel]\nc3_mhz_um3 = 100.0\n",
         ":3: a config file has no [channel] blocks"),
    ], ids=["duplicate-key", "channel-block"])
    def test_config_file_layout_errors_name_their_line(self, tmp_path, text, message):
        # a repeated key once let its last line win without notice
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["gain-scan", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert f"config error: {path}{message}" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "scan, args, message",
        [
            ("gain-scan", ["--set", "field_grid=0.72,0.70"], "sorted ascending"),
            ("fidelity-scan", ["--set", "rate_grid=", "--set", "field_grid=0.71"],
             "rate_grid must not be empty"),
            ("gain-scan", ["--samples", "1", "--set", "field_grid=0.70,0.71"],
             "samples must be >= 2"),
            ("retrieval", ["--set", "spinwave_points=0"],
             "spinwave_points must be >= 2"),
            ("retrieval", ["--set", "spinwave_points=1"],
             "spinwave_points must be >= 2"),
            ("retrieval", ["--set", "retrieval_offsets=0"],
             "retrieval_offsets must be >= 1"),
            ("retrieval", ["--set", "source_means="],
             "source_means must not be empty"),
            ("retrieval", ["--set", "source_means=0,1,-2"],
             "source_means must all be >= 0"),
            ("fidelity-scan", ["--set", "rate_grid=-5,10"],
             "rate_grid entries must be finite and >= 0"),
            ("fidelity-scan", ["--set", "rate_grid=10,nan"],
             "rate_grid entries must be finite and >= 0"),
            ("fidelity-scan", ["--set", "rate_grid=inf"],
             "rate_grid entries must be finite and >= 0"),
            ("fidelity-scan", ["--set", "field_grid=0.70,nan"],
             "field_grid entries must be finite"),
            ("gain-scan", ["--set", "field_grid=-inf,0.70"],
             "field_grid entries must be finite"),
            ("fidelity-scan", ["--set", "rate_grid=1e9"],
             "above the 1 GiB limit"),
            ("gain-scan", ["--set", "source_rate=nan", "--set", "field_grid=0.70"],
             "source_rate must be finite"),
            ("gain-scan", ["--set", "gate_mean_in=inf", "--set", "field_grid=0.70"],
             "gate_mean_in must be finite"),
            ("gain-scan", ["--set", "g0=nan", "--set", "field_grid=0.70"],
             "g0 must be finite"),
            ("starkmap", ["--set", "field_grid=-0.5,-0.1"],
             "field_grid entries must be finite and >= 0"),
            ("gain-scan", ["--set", "pulse_length=0", "--set", "field_grid=0.71"],
             "pulse_length must be > 0"),
            ("gain-scan", [*_SHORTHAND, "--set", "field_points=0"],
             "field_points must be an integer >= 1"),
            ("gain-scan", [*_SHORTHAND, "--set", "field_points=2.7"],
             "field_points must be an integer >= 1"),
            ("gain-scan", [*_SHORTHAND, "--set", "field_points=-3"],
             "field_points must be an integer >= 1"),
            ("gain-scan", [*_SHORTHAND, "--set", "field_points=abc"],
             "bad value for 'field_points'"),
            ("gain-scan", ["--set", "field_start=nan", "--set", "field_stop=0.72",
                           "--set", "field_points=3"],
             "field_start must be finite"),
            ("gain-scan", ["--set", "field_start=0.7", "--set", "field_stop=inf",
                           "--set", "field_points=3"],
             "field_stop must be finite"),
            ("gain-scan", ["--set", "field_grid=0.71", "--set", "cloud_radius=1e-300"],
             "both must be finite and > 0"),
            ("gain-scan", ["--set", "field_grid=0.71", "--set", "cloud_radius=1e300"],
             "both must be finite and > 0"),
            ("gain-scan", ["--set", "g0=1e200", "--set", "field_grid=0.71"],
             "g_peak = 9.47595e+199 rad/us is too large"),
            ("gain-scan", ["--set", "omega_rabi_mhz=1e300", "--set", "field_grid=0.71"],
             "omega_rabi = 6.28319e+300 rad/us is too large"),
            ("gain-scan", ["--set", "omega_mhz=1e160", "--set", "field_grid=0.71"],
             "omega = 6.28319e+160 rad/us is too large"),
            ("gain-scan", ["--set", "omega_mhz=1e300", "--set", "field_grid=0.71"],
             "omega = 6.28319e+300 rad/us is too large"),
            ("retrieval", ["--set", "retrieval_field=50"],
             "retrieval_field must be <= 2 V/cm"),
            ("gain-scan", ["--set", "field_grid=0.71", "--set", "beam_waist=1e-200"],
             "beam_waist = 1e-200 um gives the gate a transverse spread of nan um"),
            ("retrieval", ["--set", "beam_waist=1e200"],
             "beam_waist = 1e+200 um gives the gate a transverse spread of nan um"),
            ("retrieval", ["--set", "cloud_half_length=1e300"],
             "cloud_half_length = 1e+300 um is too large"),
            ("retrieval", ["--set", "omega_rabi_mhz=1e-300"],
             "omega_rabi = 6.28319e-300 rad/us is too small"),
            ("gain-scan", [*_SHORTHAND, "--set", "field_points=1e30"],
             "field_points must be an integer >= 1 and <= 65536, got 1e+30"),
            ("starkmap", [*_SHORTHAND, "--set", "field_points=65537"],
             "field_points must be an integer >= 1 and <= 65536"),
            ("starkmap", ["--set", "field_grid=" + ",".join(["0.7"] * 65537)],
             "field_grid has 65537 points, above the limit of 65536"),
            # the mixture bound passes 10^7 samples at rate 0; the default
            # 101-field grid's amplitudes would take 16 GB
            ("gain-scan", ["--samples", "10000000", "--set", "rate_grid=0"],
             "gain-scan transport table of 101 fields x 10000000 samples "
             "takes 15.1 GiB, above the 1 GiB limit"),
            ("fidelity-scan", [*_SHORTHAND, "--set", "field_points=65536"],
             "fidelity-scan transport table of 65536 fields x 2000 samples"),
            ("gain-scan", ["--set", "pair_system=rb87_66s64s", "--samples", "600000",
                           "--set", "rate_grid=0"],
             "transport table of 126 fields x 600000 samples"),
            ("retrieval", ["--set", "spinwave_points=2264"],
             "retrieval work arrays take 1 GiB, above the 1 GiB limit"),
            ("retrieval", ["--set", "spinwave_points=1000000000"],
             "retrieval work arrays take"),
            ("retrieval", ["--set", "retrieval_offsets=9000"],
             "retrieval work arrays take"),
            ("gain-scan", ["--seed", "-1", "--set", "field_grid=0.71"],
             "seed must be >= 0, got -1"),
            ("gain-scan", ["--set", "samples=" + "1" + "0" * 400],
             "samples must be < 2**63"),
            ("retrieval", ["--set", "source_means=0,inf"],
             "source_means must all be finite"),
            ("retrieval", ["--set", "source_means=0,nan"],
             "source_means must all be finite"),
            # gamma/R_MIN^6 and the field's Stark shift are squared
            ("gain-scan", ["--set", "gamma_mhz=1e300", "--set", "field_grid=0.71"],
             "gamma = 6.28319e+300 rad/us is too large"),
            ("fidelity-scan", ["--set", "gamma_mhz=1e300", "--set", "field_grid=0.71"],
             "gamma = 6.28319e+300 rad/us is too large"),
            ("retrieval", ["--set", "gamma_mhz=1e300"],
             "gamma = 6.28319e+300 rad/us is too large"),
            ("starkmap", [*_SHORTHAND, "--set", "field_stop=1e300",
                          "--set", "field_points=3"],
             "a channel's Förster defect at 5e+299 V/cm is not finite"),
            ("gain-scan", [*_SHORTHAND, "--set", "field_stop=1e300",
                          "--set", "field_points=3"],
             "Förster defect at 5e+299 V/cm is not finite"),
            ("fidelity-scan", [*_SHORTHAND, "--set", "field_stop=1e300",
                              "--set", "field_points=3"],
             "Förster defect at 5e+299 V/cm is not finite"),
            ("fidelity-scan", ["--set", "field_grid=0.71,1e300"],
             "Förster defect at 1e+300 V/cm is not finite"),
            # the Stark map computes no C6, so it maps such a field
            ("gain-scan", ["--set", "field_grid=0.7,1e150"],
             "1e+150 V/cm is too large: the blockade term's"),
            ("retrieval", ["--set", "source_means=0,8,0.5,4,1,2"],
             "source_means must be sorted ascending"),
            # {inputs} is a directory of files that are not UTF-8
            ("gain-scan", ["--config", "{inputs}/latin1.cfg"],
             "config file '{inputs}/latin1.cfg' is not UTF-8 text"),
            ("gain-scan", ["--set", "pair_system={inputs}/latin1.channels"],
             "pair system '{inputs}/latin1.channels' is not UTF-8 text"),
            ("gain-scan", ["--set", "pair_system={inputs}"],
             "pair system '{inputs}' cannot be read"),
            # with gamma_p = 0, V_ef has a pole at the resonance: the default
            # grid's midpoint and the default retrieval field
            ("gain-scan", ["--set", "pair_system={inputs}/gamma_p0.channels",
                           "--samples", "20"],
             "at 0.709999 V/cm is not finite: V_ef has a pole there"),
            ("fidelity-scan", ["--set", "pair_system={inputs}/gamma_p0.channels",
                               "--samples", "20", "--set", "rate_grid=10"],
             "at 0.709999 V/cm is not finite: V_ef has a pole there"),
            ("retrieval", ["--set", "pair_system={inputs}/gamma_p0.channels",
                           "--set", "retrieval_offsets=1",
                           "--set", "spinwave_points=11"],
             "at 0.709999 V/cm is not finite: V_ef has a pole there"),
            # V_ef squares the coupling c3 * weight, which every scan loads
            *[(scan, ["--set", "pair_system={inputs}/c3_1e200.channels"],
               "channel 0: the square of coupling c3 * weight = 6.28319e+200 "
               "rad/us um^3 is not finite") for scan in SCAN_TYPES],
        ],
    )
    def test_bad_scan_input_exits_with_config_code(self, tmp_path, scan, args,
                                                   message):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for name in ("latin1.cfg", "latin1.channels"):
            (inputs / name).write_bytes("samples = 500  # \u00e9\n".encode("latin-1"))
        _write_gamma_p0_preset(inputs / "gamma_p0.channels")
        _write_preset(inputs / "c3_1e200.channels", "c3_mhz_um3 = 100.0",
                      "c3_mhz_um3 = 1e200")
        args = [arg.replace("{inputs}", str(inputs)) for arg in args]
        message = message.replace("{inputs}", str(inputs))
        runner = CliRunner()
        result = runner.invoke(main, [scan, *args, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "config error:" in result.stderr
        assert "Traceback" not in result.stderr
        assert message in result.stderr
        assert not (tmp_path / "summary.json").exists()

    def test_stark_map_runs_past_a_pole_of_v_ef(self, tmp_path):
        # the Stark map takes no V_ef, so a gamma_p = 0 preset still maps
        # its default fields, the resonance among them
        path = tmp_path / "gamma_p0.channels"
        _write_gamma_p0_preset(path)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["starkmap", "--set", f"pair_system={path}",
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "starkmap.csv").exists()

    @pytest.mark.parametrize("scan, args, code", [
        ("starkmap", [], 0),
        ("oracle-check", ["--set", "oracle_sets=1"], 0),
        ("retrieval", ["--set", "retrieval_field=0.5", "--set", "retrieval_offsets=1",
                       "--set", "spinwave_points=11"], 0),
        ("gain-scan", ["--samples", "20"], 2),
    ], ids=["starkmap", "oracle-check", "retrieval", "gain-scan"])
    def test_grid_through_a_pole_of_v_ef_is_checked_where_c6_is(self, tmp_path, scan,
                                                                 args, code):
        # with gamma_p = 0, V_ef has a pole at the resonance: the Stark map
        # computes no C6 there, and the oracle check and retrieval do not run
        # at the field grid; the gain scan does
        path = tmp_path / "gamma_p0.channels"
        _write_gamma_p0_preset(path)
        ((pole, _),) = resonance_fields(load_pair_system(str(path))[0], field_max=2.0)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            scan, "--set", f"pair_system={path}", "--set", f"field_grid=0.7,{pole!r}",
            *args, "--out", str(out),
        ])
        assert result.exit_code == code, result.output
        if scan == "starkmap":
            rows = (out / "starkmap.csv").read_text().splitlines()
            assert rows[2].startswith(f"{pole:.12g},0,")
        if code == 2:
            assert f"at {pole:g} V/cm is not finite: V_ef has a pole" in result.stderr

    @pytest.mark.parametrize(
        "scan, args",
        [
            ("gain-scan", ["--samples", "50", "--set", "field_grid=0.71"]),
            ("fidelity-scan", ["--samples", "20", "--set", "field_grid=0.70,0.71",
                               "--set", "rate_grid=10"]),
            ("retrieval", ["--set", "retrieval_offsets=1",
                           "--set", "spinwave_points=11"]),
        ],
        ids=["gain-scan", "fidelity-scan", "retrieval"],
    )
    def test_small_omega_rabi_is_rejected_or_finite(self, tmp_path, scan, args):
        # Omega^2 divides the EIT term: a small Omega either fails the
        # config check or gives finite results, with no numpy warning
        runner = CliRunner()
        exits = set()
        for exponent in range(-300, -29):
            out = tmp_path / str(-exponent)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = runner.invoke(main, [
                    scan, *args, "--set", f"omega_rabi_mhz=1e{exponent}",
                    "--out", str(out),
                ])
            assert [w for w in caught if w.category is RuntimeWarning] == [], exponent
            assert "Traceback" not in result.stderr, exponent
            assert result.exit_code in (0, 2), (exponent, result.stderr)
            exits.add(result.exit_code)
            if result.exit_code == 2:
                assert "omega_rabi" in result.stderr and "too small" in result.stderr
                continue
            (table,) = out.glob("*.csv")
            header, *rows = table.read_text().splitlines()
            numeric = [k for k, name in enumerate(header.split(","))
                       if name != "model_variant"]
            numbers = [float(row.split(",")[k]) for row in rows for k in numeric]
            headline = json.loads((out / "summary.json").read_text())["headline"]
            numbers += [v for v in headline.values() if isinstance(v, float)]
            assert all(math.isfinite(v) for v in numbers), exponent
        assert exits == {0, 2}

    def test_retrieval_summary_is_strict_json(self, tmp_path):
        # off resonance the model curve never reaches one scattered
        # photon, so the interpolated headline has no value
        runner = CliRunner()
        result = runner.invoke(main, [
            "retrieval", "--set", "retrieval_field=1.0",
            "--set", "retrieval_offsets=1", "--set", "spinwave_points=11",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(text, parse_constant=reject)
        assert summary["headline"]["retrieval_at_one_scattered"] is None

    def test_fully_blocking_gate_exits_zero(self, tmp_path):
        # a vanishing transparency-window loss makes the resonant gate block
        # every sampled photon (t1 = 0); the rate limit is then 0
        runner = CliRunner()
        result = runner.invoke(main, [
            "gain-scan", "--samples", "50", "--set", "field_grid=0.71",
            "--set", "g0=3e7", "--set", "gamma_s_mhz=1e-12",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        _, row = (tmp_path / "gain_scan.csv").read_text().splitlines()
        assert float(row.split(",")[4]) == 0.0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["headline"]["nondestructive_rate_limit"] == 0.0

    @pytest.mark.parametrize("scan", SCAN_TYPES)
    def test_cli_start_up_imports_no_scipy(self, scan):
        # scipy costs 0.6-1 s of every sim start-up; no pipeline imports
        # it, and start-up must not either
        code = ("import sys, rydsim.cli; "
                "from rydsim.config import build_setup, load_config; "
                f"build_setup(load_config(None, {scan!r})); "
                "print('scipy.stats' in sys.modules, "
                "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert _run_python(code) == "False []"

    @pytest.mark.parametrize(
        "scan, overrides",
        [
            ("gain-scan", {"samples": 50, "field_grid": "0.71"}),
            ("retrieval", {"retrieval_offsets": 1, "spinwave_points": 11}),
            ("starkmap", {}),
            ("oracle-check", {"oracle_sets": 2}),
            ("fidelity-scan", {"samples": 20, "field_grid": "0.70,0.71",
                               "rate_grid": "10"}),
        ],
        ids=["gain-scan", "retrieval", "starkmap", "oracle-check",
             "fidelity-scan"],
    )
    def test_pipeline_imports_only_the_scipy_it_calls(self, tmp_path, scan,
                                                      overrides):
        # every pipeline runs on numpy alone: scipy is a test dependency
        overrides = {**overrides, "output_dir": str(tmp_path)}
        code = ("import io, sys; "
                "from rydsim.config import load_config; "
                "from rydsim.runner import run_experiment; "
                f"run_experiment(load_config(None, {scan!r}, {overrides!r}), "
                "log=io.StringIO()); "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        assert _run_python(code) == "[]"

    def test_pipelines_leave_numpy_polynomial_unloaded(self, tmp_path):
        # importing numpy.polynomial adds about 0.7 MB of peak RSS; both
        # transport solvers build their Gauss-Legendre rule without it
        runs = [
            ("gain-scan", {"samples": 50, "field_grid": "0.71"}),
            ("retrieval", {"retrieval_offsets": 1, "spinwave_points": 11}),
            ("oracle-check", {"oracle_sets": 2}),
            ("fidelity-scan", {"samples": 20, "field_grid": "0.70,0.71",
                               "rate_grid": "10"}),
        ]
        runs = [(scan, {**overrides, "output_dir": str(tmp_path / scan)})
                for scan, overrides in runs]
        code = ("import io, sys; "
                "from rydsim.config import load_config; "
                "from rydsim.runner import run_experiment; "
                f"[run_experiment(load_config(None, scan, overrides), log=io.StringIO()) "
                f"for scan, overrides in {runs!r}]; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('numpy.polynomial')))")
        assert _run_python(code) == "[]"

    def test_package_source_imports_no_scipy(self):
        package = Path(rydsim.__file__).resolve().parent
        importers = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    importers.append(f"{path.name}:{node.lineno}")
        assert importers == []

    def test_non_finite_fidelity_exits_with_numerics_code(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(
            detection, "poisson_mixture_pmf",
            lambda mus, k_max: np.full(k_max + 1, np.nan),
        )
        runner = CliRunner()
        result = runner.invoke(main, [
            "fidelity-scan", "--samples", "20", "--set", "field_grid=0.70,0.71",
            "--set", "rate_grid=10", "--out", str(tmp_path),
        ])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "numerical failure:" in result.stderr
        assert "non-finite fidelities" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_gate_free_mean_exits_with_numerics_code(self, tmp_path):
        # as for the gain scan below, a vanishing speed of light makes the
        # gate-free intensities NaN; the count window must not be built
        runner = CliRunner()
        with pytest.warns(RuntimeWarning):
            result = runner.invoke(main, [
                "fidelity-scan", "--samples", "20", "--set", "speed_of_light=1e-300",
                "--set", "field_grid=0.70,0.71", "--set", "rate_grid=10",
                "--out", str(tmp_path),
            ])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.stderr
        assert "numerical failure:" in result.stderr
        assert "non-finite gate-free count mean at rate 10 /us" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_gain_exits_with_numerics_code(self, tmp_path):
        # a vanishing speed of light makes every transmission NaN, through
        # an invalid multiply and an overflow in the transport exponents
        runner = CliRunner()
        with pytest.warns(RuntimeWarning):
            result = runner.invoke(main, [
                "gain-scan", "--samples", "50", "--set", "speed_of_light=1e-300",
                "--set", "field_grid=0.71", "--out", str(tmp_path),
            ])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "numerical failure:" in result.stderr
        assert "1 non-finite gain points, first at field 0.71" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_retrieval_exits_with_numerics_code(self, tmp_path):
        # a huge source mean blows up exp(mu (Re D - 1)) where Re D - 1
        # rounds above 0
        runner = CliRunner()
        with pytest.warns(RuntimeWarning):
            result = runner.invoke(main, [
                "retrieval", "--set", "retrieval_offsets=1",
                "--set", "spinwave_points=11", "--set", "source_means=0,1e30",
                "--out", str(tmp_path),
            ])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "numerical failure:" in result.stderr
        assert ("non-finite retrieval points, first at source mean 1e+30, "
                "variant model") in result.stderr
        assert list(tmp_path.iterdir()) == []
