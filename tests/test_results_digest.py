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
phase-compare values by up to ~1e-13.  The correlation, mac-count and
field results digests are the ones recorded under numerics 2.

Each manifest digest hashes ``manifest.json`` without its ``wall_time_s``,
re-serialized with ``json.dumps(..., indent=2)`` in file order, so a change
in the config keys' order, value types or defaults fails here.  Numerics 4
re-recorded all of them: they moved by the ``numerics`` key, and the
capacity, compensated and phase-compare ones also by the values their
reports summarize.
"""
import hashlib
import json

import numpy as np
import pytest

from cloudmimo.cli import main
from cloudmimo.experiment import NUMERICS_VERSION

RECORDED_NUMERICS = 4
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
        "f1b8bdff64d6934a4e06c1edbff7d739ec23f01d1945a0c68a58542b0edca0bc",
    ("compensated", 31):
        "4af02dded7dfd60329a50da9f2a0cc0761ffbe43f4be214819126ea00bc07295",
    ("correlation", 0):
        "a55059328ff53488f8fc25c01af98626958a3125c733b90e6c1eab8d6738f4a6",
    ("correlation", 31):
        "baa482de80189ef52ee8fb1807b61473226e8e854e252b04b5e2b37518fcb1bc",
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

MANIFEST_DIGESTS = {
    ("capacity", 0):
        "51e4074f5582f947b3b2c924283437856a7259b561787eb83729e2ffd43b97d9",
    ("capacity", 31):
        "cef1f1072b4169f819f59c28d164a69a90543d152416c8cc38d7f5b46e516ac9",
    ("capacity-rwc", 0):
        "8ac5f73f88cdabc4fc5920e975ff3f125ab0c95966861026d20bf57853919e00",
    ("capacity-rwc", 31):
        "a34e42fa1cba71179222d0dfd39d50a9c18142c032ce7ed1c7fc8d24e67e6c9f",
    ("capacity-thickness", 0):
        "5e37750c67d429f9aabb479b7bf4ea2012f09ac527009e0ecec276c528958f4f",
    ("capacity-thickness", 31):
        "33796ca5096f10b17ff0bf7fce0beaaa4cb52079d2c58e5488b4c898e8d924d1",
    ("compensated", 0):
        "3a95cbcff93e95e8597654032dd5cf4ac2ae34bcd91c412863b9955a945a9002",
    ("compensated", 31):
        "21ad0d8e9bf55aaab31f8d7a4bb11bb95f3c88d58e4a4f50cb76087654c23534",
    ("correlation", 0):
        "5bcab4d1f15f2cf43de32abf4fa4dd1a97efa3ec3d505abb3db55a05fb27e8b8",
    ("correlation", 31):
        "d850c299f6a90d71b162e7e69ac6dd73aac2bfcb74006050db464c835dddbf0e",
    ("field", 0):
        "c3d8fd5d6f18bb22fc9be895bdac0d0fbc032275f53b797f76dc78ddc0fc7c51",
    ("field", 31):
        "28ed1f3a932f6fa12d0f7985a39738d12beb795250274c630b9a1751cfcc41a7",
    ("mac-count", 0):
        "e27c49979c03988acf2ceadb6a03967a0d33d8999950cf5c51f2d61bfbdd8853",
    ("mac-count", 31):
        "c7d57d03ea73afbfff770d4c24e23e39fc242c4a5c17651e6f9d5f00969719d5",
    ("phase-compare-table1", 0):
        "ecb6fb3db6d1eb78ec1a9c00d0daff05b0c328a364651d68a76facb8dfb597f8",
    ("phase-compare-table1", 31):
        "19818c8a983343528d1563539b9415ebac3e2815fba78240e60b03d488c32a11",
    ("phase-compare-table3", 0):
        "0df6241985b20d1ddc6d4b97cec9df9c7bb4a9e6f46081f243e9877ba173c5fc",
    ("phase-compare-table3", 31):
        "6552f9fc69e31107c2e52ed89355d2217082852f7a5f13e9b60acc15923f4a9e",
}


def manifest_digest(path) -> str:
    manifest = json.loads(path.read_text())
    del manifest["wall_time_s"]
    text = json.dumps(manifest, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


# phase-compare on table3 warns that the analytic model is out of range;
# only the bytes are checked here.
@pytest.mark.filterwarnings("ignore::cloudmimo.ModelValidityWarning")
@pytest.mark.parametrize("seed", [0, 31])
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
