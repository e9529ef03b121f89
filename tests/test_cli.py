"""Tests for config assembly, precedence, and the command line entry point."""
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import cloudmimo
from cloudmimo import cli
from cloudmimo.cli import (PROFILES, REQUIRED_KEYS, _write_run,
                           assemble_config, main)
from cloudmimo.cloudfield import cloudlet_radius, draw_fields
from cloudmimo.errors import ConfigurationError, ModelValidityWarning
from cloudmimo.experiment import (CONFIG_SCHEMA, MODES, NUMERICS_VERSION,
                                  RunOutput, parse_config_value,
                                  spec_from_flat)


# ============================================================
# Value parsing
# ============================================================

def test_parse_distance_accepts_suffixes():
    def parse_distance(text):
        return parse_config_value("link.distance_m", text)

    assert parse_distance("40km") == 40000.0
    assert parse_distance("1.5km") == 1500.0
    assert parse_distance("300m") == 300.0
    assert parse_distance("40000") == 40000.0
    assert parse_distance(" 2KM ") == 2000.0


def test_profiles_cover_every_required_key():
    for name in PROFILES:
        flat, _ = assemble_config("capacity-cdf", name, None, [], {})
        assert list(flat) == list(CONFIG_SCHEMA), name
        unknown = [key for key in PROFILES[name] if key not in CONFIG_SCHEMA]
        assert not unknown, f"profile {name} has unknown keys {unknown}"
    assert set(REQUIRED_KEYS) == set(CONFIG_SCHEMA) - {
        "run.mode", "run.sweep_rwc", "run.sweep_thickness_m",
        "run.distance_grid_m"}


# ============================================================
# Config assembly and precedence
# ============================================================

def assemble(mode="capacity-cdf", profile="table3", config=None,
             sets=(), flags=None):
    return assemble_config(mode, profile, config, list(sets), flags or {})


def test_profile_values_flow_through():
    flat, explicit = assemble()
    assert flat["cloud.width_w"] == 20.0
    assert flat["link.elevation_deg"] == 90.0
    assert flat["link.distance_m"] == 40000.0
    assert flat["run.mode"] == "capacity-cdf"
    assert explicit == set()


def test_precedence_file_env_set_flags(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("cloud.lambda_s = 0.005\n")

    by_file, _ = assemble(config=str(config))
    assert by_file["cloud.lambda_s"] == 0.005

    monkeypatch.setenv("CLOUDMIMO_CLOUD__LAMBDA_S", "0.007")
    by_env, _ = assemble(config=str(config))
    assert by_env["cloud.lambda_s"] == 0.007

    by_set, _ = assemble(config=str(config), sets=["cloud.lambda_s=0.009"])
    assert by_set["cloud.lambda_s"] == 0.009

    by_flag, explicit = assemble(config=str(config),
                                 sets=["cloud.lambda_s=0.009"],
                                 flags={"cloud.lambda_s": 0.011})
    assert by_flag["cloud.lambda_s"] == 0.011
    assert "cloud.lambda_s" in explicit


# (mode, flag, text, the value its key takes); every dedicated flag appears.
_FLAG_TEXTS = [
    ("capacity-cdf", "--seed", "7", 7),
    ("capacity-cdf", "--seed", "007", 7),
    ("capacity-cdf", "--seed", "0x10", 16),
    ("capacity-cdf", "--trials", "+3", 3),
    ("capacity-cdf", "--distance", " 2KM ", 2000.0),
    ("capacity-cdf", "--distance", "40km", 40000.0),
    ("capacity-cdf", "--rwc", "0,0.4,0.8", [0.0, 0.4, 0.8]),
    ("capacity-cdf", "--thickness", "250,500", [250.0, 500.0]),
    ("correlation", "--grid", "2000,8000", [2000.0, 8000.0]),
    ("phase-dist", "--dt", "1.0", 1.0)]


@pytest.mark.parametrize("mode,flag,text,value", _FLAG_TEXTS)
def test_a_flag_reads_like_its_set_form(mode, flag, text, value):
    # One parser reads every source: a flag's text means what the same
    # text means after --set KEY=.
    key, _ = cli._FLAGS[flag[2:]]
    args = cli._build_parser().parse_args([mode, flag, text])
    by_flag = assemble_config(mode, "table3", None, [],
                              cli._flag_overrides(args))
    by_set = assemble_config(mode, "table3", None, [f"{key}={text}"], {})
    assert by_flag == by_set
    assert by_flag[0][key] == value
    assert by_flag[1] == {key}


def test_every_flag_has_a_text_case():
    assert {flag for _, flag, _, _ in _FLAG_TEXTS} == {
        f"--{flag}" for flag in cli._FLAGS}


def test_unknown_and_malformed_keys_reported_together():
    with pytest.raises(ConfigurationError) as err:
        assemble(sets=["bogus.key=1", "cloud.alpha=notafloat", "oops"])
    message = str(err.value)
    assert "unknown key 'bogus.key'" in message
    assert "cloud.alpha" in message
    assert "--set needs key=value" in message


def test_missing_keys_all_listed():
    with pytest.raises(ConfigurationError) as err:
        assemble_config("capacity-cdf", None, None, [], {})
    message = str(err.value)
    assert "missing required keys" in message
    for key in ("cloud.width_w", "link.distance_m", "run.trials",
                "mimo.snr_db"):
        assert key in message


def test_unknown_profile_rejected():
    with pytest.raises(ConfigurationError, match="unknown profile"):
        assemble(profile="nope")


def test_flat_config_file_comments_and_none(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# densities\n"
        "cloud.lambda_s = 0.004  # per m^2\n"
        "\n"
        "run.sweep_rwc = none\n")
    flat, explicit = assemble(config=str(config))
    assert flat["cloud.lambda_s"] == 0.004
    assert flat["run.sweep_rwc"] is None
    assert explicit == {"cloud.lambda_s", "run.sweep_rwc"}


def test_flat_config_file_bad_line_reported(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("cloud.lambda_s 0.004\n")
    with pytest.raises(ConfigurationError, match="expected 'key = value'"):
        assemble(config=str(config))


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigurationError, match="config file not found"):
        assemble(config=str(tmp_path / "gone.cfg"))


def test_manifest_json_accepted_as_config(tmp_path):
    base, _ = assemble()
    manifest = {"tool": "cloudmimo", "version": "0.1.0",
                "config": dict(base, **{"run.trials": 17})}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    flat, explicit = assemble(profile=None, config=str(path))
    assert flat["run.trials"] == 17
    assert flat["cloud.width_w"] == base["cloud.width_w"]
    assert "run.trials" in explicit


def test_threads_key_ignored_in_config_sources(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("run.threads = 8\n")
    flat, explicit = assemble(config=str(config))
    assert "run.threads" not in flat
    assert "run.threads" not in explicit


def test_mode_specific_trial_defaults(tmp_path):
    flat, _ = assemble(mode="phase-compare")
    assert flat["run.trials"] == 100000
    flat, _ = assemble(mode="mac-count")
    assert flat["run.trials"] == 1000
    flat, _ = assemble(mode="phase-compare", sets=["run.trials=50"])
    assert flat["run.trials"] == 50
    flat, _ = assemble(mode="capacity-cdf")
    assert flat["run.trials"] == 10000
    # The mode's defaults are one layer of the merge: a flag or a config
    # file wins over them, and without a profile the merge starts there.
    flat, explicit = assemble(mode="phase-compare", flags={"run.trials": "7"})
    assert (flat["run.trials"], explicit) == (7, {"run.trials"})
    config = tmp_path / "run.cfg"
    config.write_text("run.trials = 9\n")
    flat, _ = assemble(mode="phase-compare", config=str(config))
    assert flat["run.trials"] == 9
    base, _ = assemble()
    del base["run.trials"]
    config.write_text(json.dumps(base))
    flat, explicit = assemble(mode="phase-compare", profile=None,
                              config=str(config))
    assert flat["run.trials"] == 100000
    assert "run.trials" not in explicit


def test_mode_specific_grid_defaults():
    flat, _ = assemble(mode="correlation")
    assert flat["run.distance_grid_m"][0] == 2000.0
    assert flat["run.distance_grid_m"][-1] == 30000.0
    flat, _ = assemble(mode="compensated")
    assert flat["run.distance_grid_m"][0] == 20000.0
    assert flat["run.distance_grid_m"][-1] == 40000.0
    flat, _ = assemble(mode="correlation",
                       sets=["run.distance_grid_m=5000,10000"])
    assert flat["run.distance_grid_m"] == [5000.0, 10000.0]
    flat, _ = assemble(mode="capacity-cdf")
    assert flat["run.distance_grid_m"] is None
    # A profile's own grid wins over the mode's.
    flat, _ = assemble(mode="compensated", profile="table4")
    assert flat["run.distance_grid_m"] == [float(d)
                                           for d in range(2000, 30001, 2000)]


def test_boolean_and_integer_coercion():
    flat, _ = assemble(sets=["mimo.compensated=yes", "run.trials=0x10"])
    assert flat["mimo.compensated"] is True
    assert flat["run.trials"] == 16
    with pytest.raises(ConfigurationError, match="boolean"):
        assemble(sets=["mimo.compensated=maybe"])


@pytest.mark.parametrize("value", [True, False, np.True_])
@pytest.mark.parametrize("key", ["mimo.snr_db", "run.trials",
                                 "link.distance_m", "run.sweep_rwc"])
def test_a_boolean_is_not_a_number(key, value):
    # float(True) is 1.0 and int(False) is 0; a list entry is read alike.
    if CONFIG_SCHEMA[key][0] == "float_list":
        value = [0.4, value]
    with pytest.raises(ValueError, match="is not a number"):
        parse_config_value(key, value)


# ============================================================
# Entry point
# ============================================================

def run_cli(args):
    return main(list(args))


def test_main_small_run_succeeds(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["capacity-cdf", "--profile", "table3", "--trials", "3",
                    "--seed", "1", "--out", str(out)])
    assert code == 0
    assert (out / "results.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run.trials"] == 3
    assert manifest["config"]["run.master_seed"] == 1
    assert "median" in capsys.readouterr().out


def test_main_bad_flag_exits_one(capsys):
    assert run_cli(["capacity-cdf", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


# Every flag one mode's row owns, with a text its key reads.
_OWNED_FLAGS = {"rwc": "0.4", "thickness": "500", "grid": "30000",
                "dt": "1.0"}


def test_every_owned_flag_has_a_text():
    assert set(_OWNED_FLAGS) == {flag for facts in MODES.values()
                                 for flag in facts.flags}


@pytest.mark.parametrize("flag", sorted(_OWNED_FLAGS))
@pytest.mark.parametrize("mode", list(MODES))
def test_a_subcommand_takes_only_its_rows_flags(tmp_path, capsys, mode,
                                                 flag):
    argv = [mode, "--profile", "table4", "--trials", "1",
            f"--{flag}", _OWNED_FLAGS[flag], "--out", str(tmp_path / "x")]
    if flag in MODES[mode].flags:
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, flag) == _OWNED_FLAGS[flag]
        return
    assert run_cli(argv) == 1
    assert (f"unrecognized arguments: --{flag} {_OWNED_FLAGS[flag]}"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("extra", [["--thickness", "500"], ["--bogus"]])
def test_an_unknown_argument_is_reported_under_its_subcommand(
        tmp_path, capsys, extra):
    out = tmp_path / "x"
    assert run_cli(["correlation", "--profile", "table4", "--trials", "3",
                    *extra, "--out", str(out)]) == 1
    usage, *_, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: cloudmimo correlation [-h]")
    assert error == f"error: unrecognized arguments: {' '.join(extra)}"
    assert not out.exists()
    # Without a mode, the top-level usage line.
    assert run_cli(["--bogus"]) == 1
    assert capsys.readouterr().err.startswith("usage: cloudmimo [-h]")


def test_each_help_lists_the_shared_flags_and_its_rows(capsys):
    shared = {flag for flag in cli._FLAGS if flag not in _OWNED_FLAGS}
    assert shared == {"seed", "trials", "distance"}
    pairs = 0
    for mode, facts in MODES.items():
        text = _help_text([mode], capsys)
        listed = {flag for flag in cli._FLAGS if f"--{flag} " in text}
        assert listed == shared | set(facts.flags), mode
        pairs += len(listed)
    assert pairs == 26


def test_main_requires_mode(capsys):
    assert run_cli([]) == 1
    assert "MODE is required" in capsys.readouterr().err


def _help_text(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exited:
        main([*argv, "--help"])
    assert exited.value.code == 0
    return capsys.readouterr().out


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    first = _help_text([], capsys)
    assert _help_text([], capsys) == first
    assert first.startswith("usage: cloudmimo")
    assert cli._build_parser.cache_info().misses == 1
    # A parse leaves nothing behind: --set appends to a copy of its
    # default, and each parse fills a fresh namespace.
    parser = cli._build_parser()
    assert parser.parse_args(["field", "--set", "a=1"]).set_overrides == [
        "a=1"]
    assert parser.parse_args(["field"]).set_overrides == []
    assert parser.parse_args(["field"]).profile is None


# Each --help text at 80 columns, recorded from the command line, one file
# per mode and top.txt for the top level.
_HELP_TEXTS = Path(__file__).parent / "cli_help"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse formats help differently off Python "
                           "3.11")
@pytest.mark.parametrize("mode", ["top", *MODES])
def test_help_text_is_unchanged(monkeypatch, capsys, mode):
    monkeypatch.setenv("COLUMNS", "80")
    text = _help_text([] if mode == "top" else [mode], capsys)
    assert text == (_HELP_TEXTS / f"{mode}.txt").read_text()


def test_main_unknown_profile_exits_one(capsys):
    # argparse screens --profile choices before config assembly runs
    assert run_cli(["capacity-cdf", "--profile", "nope"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_main_missing_config_exits_one(capsys):
    assert run_cli(["capacity-cdf"]) == 1
    assert "missing required keys" in capsys.readouterr().err


def test_main_unknown_set_key_exits_one(tmp_path, capsys):
    code = run_cli(["capacity-cdf", "--profile", "table3",
                    "--set", "bogus=1", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["capacity-cdf", "field"])
def test_main_negative_seed_is_configuration_error(tmp_path, capsys, mode):
    code = run_cli([mode, "--profile", "table3", "--trials", "1",
                    "--seed", "-1", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "master_seed must be >= 0, got -1" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("mode,profile,key,field", [
    ("capacity-cdf", "table3", "run.sweep_rwc", "sweep_rwc"),
    ("capacity-cdf", "table3", "run.sweep_thickness_m", "sweep_thickness"),
    ("correlation", "table4", "run.distance_grid_m", "distance_grid")])
def test_main_empty_sweep_or_grid_is_configuration_error(
        tmp_path, capsys, mode, profile, key, field):
    # An empty list is no sweep of no points: a configuration error before
    # anything runs, not a crash or a header-only results.csv.
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({key: []}))
    code = run_cli([mode, "--profile", profile, "--trials", "5",
                    "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"{field} must not be empty" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("distance", ["abc", "km"])
def test_main_unparsable_distance_is_configuration_error(tmp_path, capsys,
                                                         distance):
    code = run_cli(["capacity-cdf", "--profile", "table3", "--trials", "1",
                    "--distance", distance, "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: link.distance_m: ")
    assert repr(distance) in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args, config", [
    (["--grid", "none"], None),
    ([], '{"run.distance_grid_m": null}'),
], ids=["text-none", "json-null"])
def test_a_null_grid_is_no_grid(tmp_path, capsys, args, config):
    # null and none read alike: neither falls back to the mode's grid.
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(config)
        args = [*args, "--config", str(path)]
    code = run_cli(["correlation", "--profile", "table4", "--trials", "2",
                    *args, "--out", str(tmp_path / "x")])
    assert code == 1
    assert ("configuration error: mode 'correlation' needs a distance grid"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_correlation_checks_its_transmit_columns_with_the_run(tmp_path,
                                                              capsys):
    code = run_cli(["correlation", "--profile", "table4", "--trials", "0",
                    "--set", "mimo.num_tx=1", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        "configuration error: trials must be >= 1, got 0; sub-channel "
        "correlation needs at least two transmit columns\n")
    assert not (tmp_path / "x").exists()
    # Capacity needs no second column.
    assert run_cli(["compensated", "--profile", "table4", "--trials", "2",
                    "--set", "mimo.num_tx=1",
                    "--out", str(tmp_path / "y")]) == 0


def test_main_lists_every_part_problem_together(tmp_path, capsys):
    # The cloud, the arrays and the ice constants are checked apart; a
    # problem in one must not hide those in the others.
    code = run_cli(["capacity-cdf", "--profile", "table3",
                    "--set", "cloud.width_w=-1", "--set", "mimo.num_tx=0",
                    "--set", "physics.ice_permittivity_real=0.5",
                    "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    for message in ("array sizes must be >= 1, got 0x2",
                    "width_w must be > 0, got -1.0",
                    "ice_permittivity_real must exceed 1, got 0.5"):
        assert message in err
    assert not (tmp_path / "x").exists()


# Run in a fresh interpreter: importing scipy costs about a second, more than
# these runs take, so the set-up and the benchmarked modes must not load it.
_SCIPY_FREE_RUNS = textwrap.dedent("""
    import json, sys, tempfile
    from pathlib import Path
    from cloudmimo import cli
    from cloudmimo.experiment import spec_from_flat
    flat, _ = cli.assemble_config("capacity-cdf", "table3", None, [], {})
    spec_from_flat(flat)
    sigma = {}
    with tempfile.TemporaryDirectory() as tmp:
        for profile in ("table1", "table3"):
            for mode in ("capacity-cdf", "correlation", "compensated",
                         "phase-compare"):
                out = Path(tmp) / profile / mode
                argv = [mode, "--profile", profile, "--trials", "20",
                        "--out", str(out)]
                if cli.main(argv) != 0:
                    sys.exit(f"{mode} on {profile} failed")
            report = json.loads((out / "manifest.json").read_text())["report"]
            sigma[profile] = report["analytic"]["sigma_c2_rad2"]
    print(json.dumps({"sigma": sigma, "scipy": sorted(
        name for name in sys.modules if name.split(".")[0] == "scipy")}))
""")


def test_runs_do_not_import_scipy(tmp_path):
    src = Path(cloudmimo.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUNS],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # table1 compares against a point mass, table3 runs the KS distance
    assert result["sigma"]["table1"] == 0.0
    assert result["sigma"]["table3"] > 0.0
    assert result["scipy"] == []


@pytest.mark.parametrize("error, args, config", [
    ("cloud.lambda_s: ", ["--trials", "10", "--set", "cloud.lambda_s=nan"],
     None),
    ("mimo.snr_db: ", ["--trials", "10", "--set", "mimo.snr_db=inf"], None),
    ("run.trials: ", [], '{"run.trials": 1e400}'),
    ("run.sweep_rwc: ", ["--trials", "10", "--rwc", "0,nan"], None),
    # Finite, but its linear SNR overflows.
    ("snr_db must give a finite linear SNR",
     ["--trials", "3", "--set", "mimo.snr_db=1e308"], None),
], ids=["nan-float", "inf-float", "overflowing-int", "nan-in-list",
        "overflowing-snr"])
def test_main_non_finite_value_is_configuration_error(tmp_path, capsys, error,
                                                      args, config):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(config)
        args = [*args, "--config", str(path)]
    code = run_cli(["capacity-cdf", "--profile", "table3", *args,
                    "--out", str(tmp_path / "x")])
    assert code == 1
    assert f"configuration error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("mode, elevation", [
    ("field", "120"), ("phase-dist", "0")])
def test_every_mode_checks_the_elevation(tmp_path, capsys, mode, elevation):
    code = run_cli([mode, "--profile", "table3",
                    "--set", f"link.elevation_deg={elevation}",
                    "--out", str(tmp_path / "x")])
    assert code == 1
    assert "elevation_deg must be in (0, 90]" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("mode, args", [
    ("field", ["--set", "link.cloud_upper_altitude_m=1e300"]),
    ("phase-dist", ["--set", "link.cloud_upper_altitude_m=1e300"]),
    # 1e18 - 1000 is below 1e18, but 1e18 - 1 rounds back to it: the
    # sweep's thinner layer has no thickness in floating point.
    ("capacity-cdf", ["--trials", "1", "--thickness", "1,1000",
                      "--set", "link.cloud_upper_altitude_m=1e18"]),
], ids=["field-1e300", "phase-dist-1e300", "thickness-sweep-1e18"])
def test_every_mode_checks_the_layer_order(tmp_path, capsys, mode, args):
    code = run_cli([mode, "--profile", "table3", *args,
                    "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error: cloud_upper_altitude (" in err
    assert ") must exceed cloud_lower_altitude (" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args, messages", [
    # The link's elevation and the cloud are checked apart.
    (["--set", "link.elevation_deg=0", "--set", "cloud.width_w=-1"],
     ["elevation_deg must be in (0, 90], got 0.0",
      "width_w must be > 0, got -1.0"]),
    # Each layer a thickness sweep traces is checked with the run.
    (["--thickness", "2000", "--trials", "0"],
     ["trials must be >= 1, got 0",
      "thickness_d (2000.0) must not exceed max_thickness_dmax (1000.0)"]),
], ids=["elevation-and-cloud", "swept-layer-and-trials"])
def test_main_lists_geometry_problems_with_the_others(tmp_path, capsys, args,
                                                       messages):
    code = run_cli(["capacity-cdf", "--profile", "table3", *args,
                    "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    for message in messages:
        assert message in err
    assert not (tmp_path / "x").exists()


def test_main_rejects_json_booleans_as_numbers(tmp_path, capsys):
    # Not 1 trial on a 1 m link at 0 dB: each key is named, in one message.
    path = tmp_path / "run.json"
    path.write_text('{"run.trials": true, "link.distance_m": true, '
                    '"mimo.snr_db": false}')
    code = run_cli(["capacity-cdf", "--profile", "table3", "--config",
                    str(path), "--out", str(tmp_path / "x")])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: ")
    for message in ("mimo.snr_db: False is not a number",
                    "link.distance_m: True is not a number",
                    "run.trials: True is not a number"):
        assert message in line
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("setting, error", [
    # The mixing coefficient's square overflows a Python float.
    ("physics.sphere_density_n=1e300",
     "second permittivity moment overflows"),
    # The coefficient itself is infinite, and so are the moments.
    ("physics.sphere_density_n=1e308", "stationary moments are not finite"),
    # The wavenumber's square overflows a Python float.
    ("physics.carrier_frequency_hz=1e200", "squared wavenumber overflows"),
], ids=["1e300", "1e308", "frequency-1e200"])
def test_phase_dist_overflow_is_a_named_runtime_error(tmp_path, capsys,
                                                      setting, error):
    code = run_cli(["phase-dist", "--profile", "table3", "--set", setting,
                    "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"runtime error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_main_runtime_failure_exits_two(tmp_path, capsys):
    # An absurd density blows the cloudlet cap mid-run, after the config
    # itself has validated.
    code = run_cli(["capacity-cdf", "--profile", "table3", "--trials", "1",
                    "--set", "cloud.lambda_s=1e6",
                    "--out", str(tmp_path / "x")])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def _display(message, category, filename, lineno, file=None, line=None):
    # Python's own display of a warning that nothing records.
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def test_main_shows_warnings_as_one_line(tmp_path, capsys):
    argv = ["capacity-cdf", "--profile", "table3", "--trials", "2",
            "--set", "link.distance_m=5000"]
    shown = warnings.formatwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _display     # restored on exit
        assert run_cli([*argv, "--out", str(tmp_path / "shown")]) == 0
    assert capsys.readouterr().err == (
        "warning: capacity-cdf point (no sweep): no ray reaches the cloud "
        "layer at link distance 5000 m and elevation 90 deg, so every "
        "trial is clear sky\n")
    assert warnings.formatwarning is shown
    # A caller that records warnings still receives each one.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli([*argv, "--out", str(tmp_path / "recorded")]) == 0
    assert [w.category for w in caught] == [ModelValidityWarning]
    assert capsys.readouterr().err == ""


def test_main_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["--version"])
    assert exit_info.value.code == 0
    assert "cloudmimo" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:Support for")
def test_project_version_is_the_package_version():
    # pyproject.toml reads its version from cloudmimo.__version__.
    from setuptools.config.pyprojecttoml import read_configuration
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = read_configuration(pyproject)["project"]
    assert project["version"] == cloudmimo.__version__


def test_field_mode_writes_field_files(tmp_path):
    out = tmp_path / "field"
    code = run_cli(["field", "--profile", "table3", "--seed", "3",
                    "--out", str(out)])
    assert code == 0
    assert (out / "field.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    header = (out / "field.csv").read_text().splitlines()[0]
    assert header == "x_m,y_m,radius_m,iwc_g_m3"
    assert manifest["report"]["cloudlet_count"] >= 0


def test_field_csv_parses_back_to_the_field_bit_for_bit(tmp_path):
    # Every column holds shortest round-trip decimals.
    out = tmp_path / "field"
    assert run_cli(["field", "--profile", "table3", "--seed", "21",
                    "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    spec = spec_from_flat(manifest["config"])
    (count,), (x, y, u) = draw_fields(
        spec.cloud, [np.random.default_rng(spec.master_seed)], 1)
    header, *rows = (out / "field.csv").read_text().splitlines()
    assert header == "x_m,y_m,radius_m,iwc_g_m3"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert parsed.shape == (count, 4)
    np.testing.assert_array_equal(parsed[:, 0], x)
    np.testing.assert_array_equal(parsed[:, 1], y)
    assert np.all(parsed[:, 2] == cloudlet_radius(spec.cloud))
    np.testing.assert_array_equal(parsed[:, 3], spec.cloud.max_iwc_c * u)


def test_phase_dist_mode_writes_density_grid(tmp_path, capsys):
    out = tmp_path / "dist"
    code = run_cli(["phase-dist", "--profile", "table3", "--out", str(out)])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "phi_rad,pdf_stationary,pdf_total"
    assert len(lines) == 502
    assert "phi0" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert "truncated_sum" in manifest["report"]
    assert "closed_form" in manifest["report"]


# A small run of each mode, and the lines it prints after "wrote ...",
# rebuilt from its manifest's report.
_MODE_RUNS = {
    "field": ([], lambda r: [f"{r['cloudlet_count']} cloudlets"]),
    "phase-dist": ([], lambda r: [
        f"phi0 = {r['truncated_sum']['phi0_rad']:.6e} rad, sigma_c2 = "
        f"{r['truncated_sum']['sigma_c2_rad2']:.6e} rad^2 (truncated sum)"]),
    "capacity-cdf": (["--trials", "3", "--rwc", "0,0.4"], lambda r: [
        f"{p['parameter']}={p['value']:g}: median "
        f"{p['median_bps_hz']:.4f} bit/s/Hz" for p in r["points"]]),
    "correlation": (["--trials", "2", "--grid", "2000,30000"],
                    lambda r: []),
    "compensated": (["--trials", "2", "--grid", "30000"], lambda r: []),
    "phase-compare": (["--trials", "20"], lambda r: []),
    "mac-count": (["--trials", "5"], lambda r: [
        f"average {r['average_mac_per_round']:.1f} MAC/round "
        f"(reference {r['reference_mac_per_round']})"]),
}


@pytest.mark.parametrize("mode", list(MODES))
def test_every_mode_prints_where_it_wrote_and_its_summary(tmp_path, capsys,
                                                          mode):
    args, summary = _MODE_RUNS[mode]
    out = tmp_path / "run"
    assert run_cli([mode, "--profile", "table3", "--seed", "4", *args,
                    "--out", str(out)]) == 0
    csv_name = "field.csv" if mode == "field" else "results.csv"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [csv_name, "manifest.json"])
    report = json.loads((out / "manifest.json").read_text())["report"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {out / csv_name} and {out / 'manifest.json'}"
    assert lines[1:] == [f"  {line}" for line in summary(report)]


def test_env_override_reaches_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("CLOUDMIMO_RUN__TRIALS", "4")
    out = tmp_path / "env"
    code = run_cli(["capacity-cdf", "--profile", "table3", "--seed", "2",
                    "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run.trials"] == 4


def test_manifest_reproduces_run_bytes(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli(["capacity-cdf", "--profile", "table3", "--trials", "5",
                    "--seed", "9", "--out", str(first)]) == 0
    assert run_cli(["capacity-cdf", "--config", str(first / "manifest.json"),
                    "--out", str(second), "--threads", "2"]) == 0
    assert (first / "results.csv").read_bytes() == \
        (second / "results.csv").read_bytes()


def test_replay_notes_a_different_numerics_version(tmp_path, capsys):
    first = tmp_path / "first"
    assert run_cli(["capacity-cdf", "--profile", "table3", "--trials", "5",
                    "--seed", "9", "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    capsys.readouterr()
    assert run_cli(["capacity-cdf", "--config", str(first / "manifest.json"),
                    "--out", str(tmp_path / "same")]) == 0
    assert capsys.readouterr().err == ""
    old = tmp_path / "old.json"
    old.write_text(json.dumps(dict(manifest, numerics=1)))
    assert run_cli(["capacity-cdf", "--config", str(old),
                    "--out", str(tmp_path / "second")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "numerics 1" in err[0]
    assert f"numerics {NUMERICS_VERSION}" in err[0]
    assert f"cloudmimo {cloudmimo.__version__}" in err[0]
    assert (first / "results.csv").read_bytes() == \
        (tmp_path / "second" / "results.csv").read_bytes()


def test_manifest_is_strict_json(tmp_path):
    # Without cloudlets every phase is 0 and the kurtosis is undefined.
    out = tmp_path / "run"
    assert run_cli(["phase-compare", "--profile", "table3", "--trials", "50",
                    "--set", "cloud.lambda_s=0", "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=reject)
    assert manifest["report"]["empirical"]["excess_kurtosis"] is None
    # Any other non-finite number fails the write, before any file is
    # written.
    spec = spec_from_flat(manifest["config"])
    with pytest.raises(ValueError):
        _write_run(tmp_path / "nan", spec,
                   RunOutput("x\n", {"x": float("nan")}), set(), 0.0)
    assert not (tmp_path / "nan").exists()


def test_assumed_defaults_track_explicit_overrides(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["capacity-cdf", "--profile", "table3", "--trials", "2",
                    "--set", "cloud.alpha=0.5", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assumed = manifest["assumed_defaults"]
    assert "cloud.alpha" not in assumed
    assert set(assumed) == {"physics.sphere_density_n",
                            "physics.sphere_volume_vice",
                            "physics.ice_permittivity_real"}


@pytest.mark.parametrize("sets", [[], ["--set", "cloud.alpha=0.5"]],
                         ids=["table3", "alpha-set"])
def test_a_replay_keeps_the_assumed_defaults_of_its_run(tmp_path, sets):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(["capacity-cdf", "--profile", "table3", "--trials", "20",
                    *sets, "--out", str(first)]) == 0
    assert run_cli(["capacity-cdf", "--config", str(first / "manifest.json"),
                    "--out", str(second)]) == 0
    original, replay = (json.loads((out / "manifest.json").read_text())
                        for out in (first, second))
    del original["wall_time_s"], replay["wall_time_s"]
    assert replay == original
    assert ("cloud.alpha" in replay["assumed_defaults"]) == (not sets)
    # A later source pins an assumed key again.
    third = tmp_path / "third"
    assert run_cli(["capacity-cdf", "--config", str(first / "manifest.json"),
                    "--set", "physics.sphere_density_n=30000",
                    "--out", str(third)]) == 0
    pinned = json.loads((third / "manifest.json").read_text())
    assert "physics.sphere_density_n" not in pinned["assumed_defaults"]


# ============================================================
# Runs split across forked workers
# ============================================================

_TABLE1_RUN = ["phase-compare", "--profile", "table1", "--trials", "777"]


@pytest.mark.filterwarnings("ignore::cloudmimo.ModelValidityWarning")
def test_a_split_run_writes_the_serial_bytes(tmp_path, forced_split):
    outputs = []
    for cpus in (1, 2, 3):
        forks = forced_split(cpus)
        out = tmp_path / str(cpus)
        assert run_cli([*_TABLE1_RUN, "--seed", "7", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["wall_time_s"]
        outputs.append(((out / "results.csv").read_bytes(), manifest))
    assert len(forks) == 1 + 2
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.filterwarnings("ignore::cloudmimo.ModelValidityWarning")
def test_a_cap_hit_in_a_workers_range_fails_as_the_serial_run(
        tmp_path, capsys, monkeypatch, forced_split):
    # Split in two, the caller traces table1's first 400 trials (ten
    # blocks of 40) and the worker the rest.  At master seed 6 a later
    # count exceeds the largest of the first 400, so a cap at that largest
    # one is hit in the worker's range alone.
    from cloudmimo import cloudfield, experiment
    flat, _ = assemble_config("phase-compare", "table1", None, [],
                              {"run.trials": 777, "run.master_seed": 6})
    spec = spec_from_flat(flat)
    forks = forced_split(1)
    counts, _, _, _ = experiment._centre_ray(spec)
    cap = int(counts[:400].max())
    assert counts[400:].max() > cap
    monkeypatch.setattr(cloudfield, "DEFAULT_CLOUDLET_CAP", cap)
    errors = []
    for cpus in (1, 2):
        forced_split(cpus)
        out = tmp_path / str(cpus)
        assert run_cli([*_TABLE1_RUN, "--seed", "6", "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert len(forks) == 1
    assert errors[0] == errors[1]
    assert "runtime error: realized cloudlet count" in errors[0]
    assert f"exceeds the cap {cap}" in errors[0]
