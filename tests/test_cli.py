"""Tests for config assembly, precedence, and the command line entry point."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cloudmimo
from cloudmimo.cli import (PROFILES, REQUIRED_KEYS, assemble_config, main,
                           parse_distance)
from cloudmimo.errors import ConfigurationError
from cloudmimo.experiment import CONFIG_SCHEMA, NUMERICS_VERSION


@pytest.fixture(autouse=True)
def scrub_environment(monkeypatch):
    # Stray CLOUDMIMO_ variables would silently override test configs.
    for name in list(os.environ):
        if name.startswith("CLOUDMIMO_"):
            monkeypatch.delenv(name)


# ============================================================
# Value parsing
# ============================================================

def test_parse_distance_accepts_suffixes():
    assert parse_distance("40km") == 40000.0
    assert parse_distance("1.5km") == 1500.0
    assert parse_distance("300m") == 300.0
    assert parse_distance("40000") == 40000.0
    assert parse_distance(" 2KM ") == 2000.0


def test_profiles_cover_every_required_key():
    for name in PROFILES:
        flat, _ = assemble_config("capacity-cdf", name, None, [], {},
                                  environ={})
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
             sets=(), flags=None, environ=None):
    return assemble_config(mode, profile, config, list(sets), flags or {},
                           environ=environ if environ is not None else {})


def test_profile_values_flow_through():
    flat, explicit = assemble()
    assert flat["cloud.width_w"] == 20.0
    assert flat["link.elevation_deg"] == 90.0
    assert flat["link.distance_m"] == 40000.0
    assert flat["run.mode"] == "capacity-cdf"
    assert explicit == set()


def test_precedence_file_env_set_flags(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("cloud.lambda_s = 0.005\n")
    environ = {"CLOUDMIMO_CLOUD__LAMBDA_S": "0.007"}

    by_file, _ = assemble(config=str(config))
    assert by_file["cloud.lambda_s"] == 0.005

    by_env, _ = assemble(config=str(config), environ=environ)
    assert by_env["cloud.lambda_s"] == 0.007

    by_set, _ = assemble(config=str(config), environ=environ,
                         sets=["cloud.lambda_s=0.009"])
    assert by_set["cloud.lambda_s"] == 0.009

    by_flag, explicit = assemble(config=str(config), environ=environ,
                                 sets=["cloud.lambda_s=0.009"],
                                 flags={"cloud.lambda_s": 0.011})
    assert by_flag["cloud.lambda_s"] == 0.011
    assert "cloud.lambda_s" in explicit


def test_unknown_and_malformed_keys_reported_together():
    with pytest.raises(ConfigurationError) as err:
        assemble(sets=["bogus.key=1", "cloud.alpha=notafloat", "oops"])
    message = str(err.value)
    assert "unknown key 'bogus.key'" in message
    assert "cloud.alpha" in message
    assert "--set needs key=value" in message


def test_missing_keys_all_listed():
    with pytest.raises(ConfigurationError) as err:
        assemble_config("capacity-cdf", None, None, [], {}, environ={})
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


def test_mode_specific_trial_defaults():
    flat, _ = assemble(mode="phase-compare")
    assert flat["run.trials"] == 100000
    flat, _ = assemble(mode="mac-count")
    assert flat["run.trials"] == 1000
    flat, _ = assemble(mode="phase-compare", sets=["run.trials=50"])
    assert flat["run.trials"] == 50
    flat, _ = assemble(mode="capacity-cdf")
    assert flat["run.trials"] == 10000


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


def test_boolean_and_integer_coercion():
    flat, _ = assemble(sets=["mimo.compensated=yes", "run.trials=0x10"])
    assert flat["mimo.compensated"] is True
    assert flat["run.trials"] == 16
    with pytest.raises(ConfigurationError, match="boolean"):
        assemble(sets=["mimo.compensated=maybe"])


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


def test_main_requires_mode(capsys):
    assert run_cli([]) == 1
    assert "MODE is required" in capsys.readouterr().err


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
    assert "configuration error" in capsys.readouterr().err
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


def test_main_runtime_failure_exits_two(tmp_path, capsys):
    # An absurd density blows the cloudlet cap mid-run, after the config
    # itself has validated.
    code = run_cli(["capacity-cdf", "--profile", "table3", "--trials", "1",
                    "--set", "cloud.lambda_s=1e6",
                    "--out", str(tmp_path / "x")])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


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
    assert (out / "field.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    header = (out / "field.csv").read_text().splitlines()[0]
    assert header == "x_m,y_m,radius_m,iwc_g_m3"
    assert manifest["report"]["cloudlet_count"] >= 0


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
