"""Byte-identity gate: results.csv and manifest digests of every CLI mode.

The results digests are those of the numerics version and numpy version
named below.  A change that keeps the numerics must reproduce every one of
them byte for byte; a change that means to alter them bumps
``NUMERICS_VERSION`` and re-records the table.  Numerics 3 (each field's
phase summed over its own cloudlets by ``np.add.reduceat``, numpy's pairwise
summation) re-recorded only the four phase-compare results digests, whose
values moved by ~1e-14 relative.  Numerics 4 (each ray traced once through
unit contents, a bound C's phases written as C times those, and the
capacity's log-determinant taken from a Cholesky factorization in place of
LAPACK's LU) re-recorded the six capacity, two compensated and four
phase-compare results digests: capacities moved by up to ~6e-15 relative,
phase-compare values by up to ~1e-13.  Numerics 5 (the coherence from
the capacity's real Gram matrix, segment lengths without BLAS, and
compensated's median the nearest-rank lower sample) re-recorded the
correlation digests at seeds 0 and 31, whose values moved by up to 2.5e-16
relative, and the compensated digests at seeds 0 and 31, whose cloud
medians moved by up to 3.1e-6 and 5.9e-6 relative.  The mac-count and
field results digests are the ones recorded under numerics 2, and the
capacity and phase-compare ones those of numerics 4.

Each manifest digest hashes ``manifest.json`` without its ``wall_time_s``,
re-serialized with ``json.dumps(..., indent=2)`` in file order, so a change
in the config keys' order, value types or defaults fails here.  Numerics 5
re-recorded all of them: they moved by the ``numerics`` key, and the
correlation and compensated ones also by the values their reports
summarize.

The last test replays every case under numpy's baseline SIMD dispatch, the
kernels an older x86 CPU runs, and must give the same results digests.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cloudmimo
from cloudmimo.cli import ENV_PREFIX, main
from cloudmimo.experiment import NUMERICS_VERSION

RECORDED_NUMERICS = 5
RECORDED_NUMPY = "2.4.6"

# (case, CLI arguments before --seed/--out, file whose bytes are hashed)
CASES = {
    "capacity-rwc": (["capacity-cdf", "--profile", "table3", "--trials",
                      "600", "--rwc", "0,0.4,0.8"], "results.csv"),
    "capacity-thickness": (["capacity-cdf", "--profile", "table3",
                            "--trials", "600", "--thickness", "300,1000"],
                           "results.csv"),
    "capacity": (["capacity-cdf", "--profile", "table3", "--trials", "600"],
                 "results.csv"),
    "correlation": (["correlation", "--profile", "table4", "--trials",
                     "200"], "results.csv"),
    "compensated": (["compensated", "--profile", "table3", "--trials", "200",
                     "--grid", "2000,8000,20000,40000"], "results.csv"),
    "phase-compare-table1": (["phase-compare", "--profile", "table1",
                              "--trials", "3000"], "results.csv"),
    "phase-compare-table3": (["phase-compare", "--profile", "table3",
                              "--trials", "3000"], "results.csv"),
    "mac-count": (["mac-count", "--profile", "table3", "--trials", "200"],
                  "results.csv"),
    "field": (["field", "--profile", "table3"], "field.csv"),
}

DIGESTS = {
    ("capacity", 0):
        "643a9480e70e5f860f1a0b51a1ffec28ea41cc85bcd88492d3fc33e4f1730b69",
    ("capacity", 31):
        "4946e6d04814a27e2c3c59ef659b5a18c2c69e5b87847545f3cf5c3af6d73692",
    ("capacity-rwc", 0):
        "e8cb10e978b88edf08f2b3b6ed945a3e99370caa2b3468ee0fa0a8246f4cd52f",
    ("capacity-rwc", 31):
        "4b03b0a8b6d096c8cfcd6bab449e850531e804409b052f0c085c31a17f1d33a7",
    ("capacity-thickness", 0):
        "8c9696022eebbf73329725a518408834d1ae8f7f0a897e1983e8e03a66aecbca",
    ("capacity-thickness", 31):
        "2de1ccfe9127bd8518301866a7039f3571f047974b0e1f6b33bbb4a2b1387bce",
    ("compensated", 0):
        "8b39b083c7159b3aaeb229ed8df2f0f92c303033a3b88f75c73714eb3b91c6ec",
    ("compensated", 31):
        "5a476c2c9e4c4cde092165c5616e466946bd979a423dd2af64b22fc83f0fc024",
    ("correlation", 0):
        "bde9ee5e02d002cf5eb61e1b5a9ca6a1bcdc5f9ffba334705020b014b37adb60",
    ("correlation", 31):
        "7c5532cd4446f30dac464ac709b73937280f1a60582213dabaff4f44c1d5d44f",
    ("field", 0):
        "1e43dc96d6dcad2733658ae84912c051ccfa26c2035b5e93d7ec4cd12a3e925c",
    ("field", 31):
        "74ce84cc3045924a92b597857852ccb63cb28956d73abd31fea41fd46431883d",
    ("mac-count", 0):
        "0de26899ef98d0b3cb2df36c6066d451600c69cb76bbc09a6efad84424ee5381",
    ("mac-count", 31):
        "e3282971472bfcadd1eabeb6629e2ab8a5ec4758a0408e37b56a2b8fe05b03bd",
    ("phase-compare-table1", 0):
        "2bc3cb913eb7389e14c1afb3f435c0abed06dfdcfaa811231cf0db26e5f85b42",
    ("phase-compare-table1", 31):
        "c6d890caf1f61294dc1a113f48f12113676cd84222725645e8ef53323e157b28",
    ("phase-compare-table3", 0):
        "041de3b0a3a0f82017f5ec89a26eef5237b9f1d21dfb7df19215e99ab973aca1",
    ("phase-compare-table3", 31):
        "f9b21eff083c274f8035522d531f11dfa1efd236b14adc50474fde0e79ede66f",
}

SEEDS = (0, 31)

MANIFEST_DIGESTS = {
    ("capacity", 0):
        "698886ee871ec96abb242a70b4364a39b8ef61e332c3269106b703e9dd46a7a6",
    ("capacity", 31):
        "3b1d5226d1f099278e415ce9a30023204600ebb6e854b4179e14c39619676a50",
    ("capacity-rwc", 0):
        "6548174a3aab1443f219d7b79ae2f4211d61839f675439a4b9bfa61d20c5a58c",
    ("capacity-rwc", 31):
        "b503eb824a15777fec944c083063edd4e001e1c48acd2abb363ba37f21fe36ae",
    ("capacity-thickness", 0):
        "f1c479b46de33cc604eab3a4aaf0753e750b069b271cc34a6addf9f78a05842b",
    ("capacity-thickness", 31):
        "a8e4337c4cce7774fdfff83d6301416b66ca8b620dad622ba8f2e11eade91097",
    ("compensated", 0):
        "b9ae4a5682b726b47b4051d189b94555230763f1b94063f5915ffc577bfa1047",
    ("compensated", 31):
        "02019dbfb63ac1cf72dca7bff764fd60744136496c71f3ef035825a4ee78f91d",
    ("correlation", 0):
        "011bed4ed2afe29f568e272292fe813a845bc258c1d0595f3ec5a452185d3139",
    ("correlation", 31):
        "c83c2e4c4fc9d245ae89ba7f681d6181cbaf5fd6184a28e02a2d2779e184cf02",
    ("field", 0):
        "6dff7db44e71775f143eeab388db3d46c7f08014dcd5f54b46bbae7e6de84d1b",
    ("field", 31):
        "213d1d172b43e9b9a4b2ab0cc78b658b51305579d2d8f2ea1474286a83365029",
    ("mac-count", 0):
        "56c1c7521687d4470a0c6c019ee1ff66cd6020f745055410491843f498103c66",
    ("mac-count", 31):
        "965d378f4ae1af0246a1f952c36976557cde7deaad736f875989fac16d4465c1",
    ("phase-compare-table1", 0):
        "d33b40d40782042630b806d24239c43b1e954e38e857ead14a9eb6b14f8a6b4d",
    ("phase-compare-table1", 31):
        "881c48f051943b11fb6711333cafae4e18ece7d97e2dc87ec7d340e68e29f00e",
    ("phase-compare-table3", 0):
        "ac2393e213d6ea0c96a9450ed8970fff2fa34b2c2898ec12b843b11321c56fb4",
    ("phase-compare-table3", 31):
        "a0e1a37daff5dd6bf8cccffe78a85ccb31bbb7dacb0a115e8b3ef8873189b56a",
}


def manifest_digest(path) -> str:
    manifest = json.loads(path.read_text())
    del manifest["wall_time_s"]
    text = json.dumps(manifest, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


# phase-compare on table3 warns that the analytic model is out of range;
# only the bytes are checked here.
@pytest.mark.filterwarnings("ignore::cloudmimo.ModelValidityWarning")
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_results_bytes_match_recorded_digest(case, seed, tmp_path, capsys):
    argv, name = CASES[case]
    assert main([*argv, "--seed", str(seed), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[case, seed], (
        f"{name} of {case} at master seed {seed} differs from the digest "
        f"recorded under numerics {RECORDED_NUMERICS} with numpy "
        f"{RECORDED_NUMPY} (now numerics {NUMERICS_VERSION}, numpy "
        f"{np.__version__})")
    assert manifest_digest(tmp_path / "manifest.json") \
        == MANIFEST_DIGESTS[case, seed], (
            f"manifest.json of {case} at master seed {seed} differs from "
            f"the recorded digest (wall time aside)")


# Runs every case and prints its results digests as [case, seed, digest]
# rows, after checking that numpy dispatches nothing above its baseline.
_BASELINE_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
import numpy as np
from cloudmimo.cli import main
from test_results_digest import CASES, SEEDS
assert not np.__config__.CONFIG["SIMD Extensions"].get("found")
rows = []
for case, (argv, name) in CASES.items():
    for seed in SEEDS:
        out = Path(sys.argv[1]) / f"{case}-{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--seed", str(seed), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        rows.append([case, seed, digest])
print(json.dumps(rows))
"""


def test_results_replay_under_numpys_baseline_dispatch(tmp_path):
    # An older x86 CPU runs numpy's baseline SIMD kernels.  The child gets
    # them by disabling, in its own environment, every group numpy found
    # above the baseline on this CPU, and must give every recorded digest.
    found = np.__config__.CONFIG["SIMD Extensions"].get("found")
    if not found:
        pytest.skip("numpy dispatches nothing above its baseline here")
    env = {name: value for name, value in os.environ.items()
           if not name.startswith(ENV_PREFIX)}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(found)
    env["PYTHONPATH"] = os.pathsep.join([
        str(Path(cloudmimo.__file__).resolve().parents[1]),
        str(Path(__file__).resolve().parent)])
    child = subprocess.run([sys.executable, "-c", _BASELINE_CHILD,
                            str(tmp_path)], env=env, capture_output=True,
                           text=True)
    assert child.returncode == 0, child.stderr
    digests = {(case, seed): digest
               for case, seed, digest in json.loads(child.stdout)}
    assert digests.keys() == DIGESTS.keys()
    moved = sorted(key for key, digest in digests.items()
                   if digest != DIGESTS[key])
    assert not moved, (f"under the baseline dispatch "
                       f"(NPY_DISABLE_CPU_FEATURES={' '.join(found)}) these "
                       f"results differ from their recorded digests: {moved}")
