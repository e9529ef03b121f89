"""One benchmark repetition, run in a fresh interpreter.

Reads a JSON job from ``argv[1]``:

``src``
    directory holding the ``cloudmimo`` package under test.
``argv``
    the argument list passed to ``cloudmimo.cli.main``.
``setup``
    ``[mode, profile, flag_overrides, threads]`` to time the import of
    ``cloudmimo.cli`` plus ``assemble_config`` and ``spec_from_flat``, or
    null to skip that.
``run``
    whether to call ``cloudmimo.cli.main``.
``trace``
    null, or ``{"trials": ..., "spans": path}`` to wrap the layers, record
    spans and report per-layer metrics.

Prints one JSON line with the CLI's exit code, the timings and the peak
resident set size, and exits with the CLI's exit code.
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _write_bytes(argv) -> int:
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    result = {"rc": 0}
    if job["setup"] is not None:
        mode, profile, overrides, threads = job["setup"]
        from cloudmimo import cli
        from cloudmimo.experiment import spec_from_flat
        flat, _ = cli.assemble_config(mode, profile, None, [], overrides)
        spec_from_flat(flat, threads=threads)
        result["setup_s"] = time.perf_counter() - _START
    if job["run"]:
        import warnings

        import cloudmimo
        from cloudmimo import cli
        if Path(cloudmimo.__file__).resolve().parents[1] \
                != Path(job["src"]).resolve():
            raise RuntimeError(f"imported {cloudmimo.__file__}, not the "
                               f"package under {job['src']}")
        trace = job["trace"]
        if trace is None:
            start = time.perf_counter()
            result["rc"] = cli.main(job["argv"])
            result["wall_s"] = time.perf_counter() - start
        else:
            from layertrace import Tracer
            tracer = Tracer()
            with tracer.installed(job["argv"][0]), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                result["rc"] = cli.main(job["argv"])
                result["wall_s"] = time.perf_counter() - start
            validity = getattr(sys.modules.get("cloudmimo.errors"),
                               "ModelValidityWarning", Warning)
            seen = sum(issubclass(w.category, validity) for w in caught)
            result["layers"] = tracer.metrics(trace["trials"], seen)
            result["layers"]["cli.write_run.bytes"] = float(
                _write_bytes(job["argv"]))
            result["absent"] = tracer.absent
            tracer.write_spans(trace["spans"])
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
