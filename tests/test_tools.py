"""Guards on the repository's tools: the names they wrap still exist, and
the calls the benchmark makes of the package still work."""
import importlib
import importlib.util
import math
import os
import sys
from pathlib import Path

from cloudmimo import cli
from cloudmimo.experiment import MODES, spec_from_flat

ROOT = Path(__file__).resolve().parents[1]

# The functions tools/stagetime.py wraps, at the module it wraps them in:
# the name the kernel and the modes look each one up under.
STAGETIME_WRAPS = {
    "cloudmimo.experiment": {"trial_kernel", "_capacity", "_coherence",
                             "trial_streams", "draw_fields",
                             "block_phases"},
    "cloudmimo.phasephysics": {"chord_lengths"},
}

# The benchmark tracer's layers whose functions the one-kernel design
# removed; until the tracer drops them, their metrics read 0.  Every other
# layer must resolve, or its metrics would silently read 0 too.
RETIRED_LAYERS = {"experiment.trial_seed", "cloudfield.generate_field",
                  "phasephysics.path_phase",
                  "mimochannel.subchannel_correlation",
                  "experiment.results_csv_text"}


def _load_tool(monkeypatch, path: str):
    """The module of a script under the repository root, e.g.
    ``tools/stagetime.py``.

    It is registered in ``sys.modules`` under its stem while the test
    runs, as an import would register it, so a dataclass it defines can
    look its module up.
    """
    spec = importlib.util.spec_from_file_location(Path(path).stem,
                                                  ROOT / path)
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tool)
    spec.loader.exec_module(tool)
    return tool


def test_stagetime_wraps_only_names_that_exist(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool extends it
    stagetime = _load_tool(monkeypatch, "tools/stagetime.py")
    modules = {name: importlib.import_module(name) for name in STAGETIME_WRAPS}
    # The tool pins the kernel serial, so that every trial reaches its
    # clock.  Raises if the constant is gone; restores it afterwards.
    experiment = modules["cloudmimo.experiment"]
    monkeypatch.setattr(experiment, "WORK_PER_WORKER",
                        experiment.WORK_PER_WORKER)
    stagetime._pin_serial()
    assert experiment.WORK_PER_WORKER == math.inf
    before = {name: dict(vars(module)) for name, module in modules.items()}
    for name, attributes in STAGETIME_WRAPS.items():
        for attribute in attributes:
            # Raises if the name is gone; restores the original afterwards.
            monkeypatch.setattr(modules[name], attribute,
                                getattr(modules[name], attribute))
    stagetime._install(stagetime._Clock())
    for name, module in modules.items():
        after = vars(module)
        # A wrapper set at a name that no longer exists would add one, and
        # its stage would silently read 0.
        assert after.keys() == before[name].keys(), name
        wrapped = {key for key, value in after.items()
                   if value is not before[name][key]}
        assert wrapped == STAGETIME_WRAPS[name], name


def test_layertrace_layers_resolve_but_the_retired_ones(monkeypatch):
    # Read only: the tracer's layer table and its own name lookup, with
    # nothing installed.
    layertrace = _load_tool(monkeypatch, "bench/layertrace.py")
    for mode in MODES:
        absent = {layer for layer, module, attribute in layertrace.LAYERS
                  if not callable(layertrace._Target(
                      module, attribute.format(mode=mode)).get())}
        assert absent <= RETIRED_LAYERS, (mode, absent - RETIRED_LAYERS)


def test_benchmark_calls_what_the_package_provides(monkeypatch):
    # Read only: each workload's set-up calls as bench/child.py makes
    # them, and its run and replay command lines as bench/run.py builds
    # them, parsed without running.  A break here stops every benchmark
    # run.
    for name in list(os.environ):
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)
    workloads = _load_tool(monkeypatch, "bench/workloads.py")
    parser = cli._build_parser()
    out = Path("run")
    for workload in workloads.WORKLOADS.values():
        mode, profile, overrides, threads = workload.setup_job(0)
        flat, _ = cli.assemble_config(mode, profile, None, [], overrides)
        assert spec_from_flat(flat, threads=threads).mode == mode
        replay = [mode, "--config", str(out / "manifest.json"),
                  "--threads", "1", "--out", str(out)]
        for argv in (workload.argv(0, out, workload.threads), replay):
            args = parser.parse_args(argv)
            assert (args.mode, args.out) == (mode, str(out)), argv


def test_only_the_long_benchmark_workload_forks(monkeypatch, tmp_path,
                                                capsys):
    # With three CPUs to split across and a fork that fails the run,
    # capacity_table3 and correlation_table4 still succeed: their kernels
    # stay serial.  phase_compare_table1's splits.
    workloads = _load_tool(monkeypatch, "bench/workloads.py")

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for name, code in (("capacity_table3", 0), ("correlation_table4", 0),
                       ("phase_compare_table1", 2)):
        workload = workloads.WORKLOADS[name]
        argv = workload.argv(0, tmp_path / name, workload.threads)
        assert cli.main(argv) == code, name
    assert "runtime error: forked" in capsys.readouterr().err
