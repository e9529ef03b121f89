"""Byte-identity gate: results.csv and manifest digests of every CLI mode.

The results digests are those of the numerics version and numpy version
named below.  A change that keeps the numerics must reproduce every one of
them byte for byte; a change that means to alter them bumps
``NUMERICS_VERSION`` and re-records the table.  Numerics 3 (each field's
phase summed over its own cloudlets by ``np.add.reduceat``, numpy's pairwise
summation) re-recorded only the four phase-compare results digests, whose
values moved by ~1e-14 relative; every other results digest is the one
recorded under numerics 2.

Each manifest digest hashes ``manifest.json`` without its ``wall_time_s``,
re-serialized with ``json.dumps(..., indent=2)`` in file order, so a change
in the config keys' order, value types or defaults fails here.  Numerics 3
re-recorded all of them: they moved by the ``numerics`` key, and the
phase-compare ones also by their report's empirical moments.
"""
import hashlib
import json

import numpy as np
import pytest

from cloudmimo.cli import main
from cloudmimo.experiment import NUMERICS_VERSION

RECORDED_NUMERICS = 3
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
        "c1a92b16e06b8bf061c50d58624acede6864663641a4b1cbf8aa0de34d8f9947",
    ("capacity", 31):
        "e3f85ed66f3a3f06c1b1c5003a5e93795314b851c55639f519162b2c30ef5a81",
    ("capacity-rwc", 0):
        "0a283557ae46c2b7387c6a278404e92ec76450c37a6e784a5c098c297c196172",
    ("capacity-rwc", 31):
        "66c8047cfb068a5c50f5a5bbc0e9aed7614ceb92d6dba83b158e4a6ed76e65ad",
    ("capacity-thickness", 0):
        "be9fb4d70ad1169b2f72d6fb16dce46137f0af175d7e4e4e2eb0720b6fb20410",
    ("capacity-thickness", 31):
        "f6863a3804442b15b6dff01edb5f03db5b55ac3658e5fd04231cfefa7415a3f1",
    ("compensated", 0):
        "3d1510d7231e125c69380ab414d074c1f6243a54406a9e8a19c5f8e6fa87cca4",
    ("compensated", 31):
        "82856a6826da9e68b9bb03851d90b9899e73fb7433924f906b658d33ecfed255",
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
        "91b50d96efe1d96259b6fa6c3ec6dbcadfda95986b8fbd30b776cda8601980cd",
    ("phase-compare-table1", 31):
        "c153df3a6276418b44fc3ec9eb80110b320a33664add25446531d4f91defd4df",
    ("phase-compare-table3", 0):
        "a204740a437b3c431a21a877c300ccd81b7d9fe52516ae00ed348334d602c466",
    ("phase-compare-table3", 31):
        "65a194c0dee70959429751f5f58ab20b5337b4362811607bfee18ded5f294716",
}

MANIFEST_DIGESTS = {
    ("capacity", 0):
        "a3bc81a260f5ed79b8273ac5499c542f2bf0e254c6f12546b85164cf77a26be5",
    ("capacity", 31):
        "960fc96e4b04434147525771d9ebffad8ae6b1d697cdc5271ec2e7929e0785ad",
    ("capacity-rwc", 0):
        "5542eb87742b44fdeed41b300e5a546f4bc248d1a697902c74fc6551ef9ae2a5",
    ("capacity-rwc", 31):
        "892ccd9a9b6fc1f32a08f8e8fd4fdb5f186ee8f6a0fc328737ea81314dddcf81",
    ("capacity-thickness", 0):
        "30cb7bdc1f7a34ff820eb42397e073152d028025da2b679b4a509dc0de9951cf",
    ("capacity-thickness", 31):
        "e14ed34994bb4cc36bf9a577873ca13a7423416f0330b56d4b9eaa1645df117c",
    ("compensated", 0):
        "aa6636f70318775a9a5a51359ae16ddc3aab64473420b8bdd58a6d9b59b41aed",
    ("compensated", 31):
        "72b32b6ae5541153e4f129237f497bd343de5425763702f73e5503f5ea6e89c0",
    ("correlation", 0):
        "8b8c86a08a253a446a5d94f2379089e809fbe2d3af42db31ad6d07a7492bbb8c",
    ("correlation", 31):
        "b7c4a7f15852dacc6c40bf1fe2c761582f00a3f2057feb64e22cbabb7425479a",
    ("field", 0):
        "5589314ce4f2863fae077b7e485a83be3f752bdaef639b67d226625212abc832",
    ("field", 31):
        "dc7c79a071b4789ad5b63bdf95db8f5ccaa8ed7f03f1766f61a4370695c64a4f",
    ("mac-count", 0):
        "85252a9d6f3649288701805e2cb3e8eafa753b28130918bb21f785e2b7420091",
    ("mac-count", 31):
        "b9a7739099bc63fd8d476e297f7a72ef76b7d817d84c798c8dc99bbd6bb49f92",
    ("phase-compare-table1", 0):
        "fcc473aa77a141bf1087a7c7ba20a6a20384f5095df08eab2a5aebf6dfcc13a9",
    ("phase-compare-table1", 31):
        "6b8b7aaf43939a058f08d86ae90ddcb7a504df8966e28757ba29af03df685069",
    ("phase-compare-table3", 0):
        "fbdea919443c71bcbdf1d4927bac80e388b646e2083ecd7185775bcd374b5a3b",
    ("phase-compare-table3", 31):
        "d98d3e65748c56bebfb23fb39132a447f6289dac223d12e8ef364847769ff0cf",
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
