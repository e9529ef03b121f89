"""Byte-identity gate: results.csv and manifest digests of every CLI mode.

The results digests were recorded from the code before the trial kernel's
stream reset, one-call field draw and chord/count passes were rewritten, at
the numerics version and numpy version named below.  A change that keeps the
numerics must reproduce every one of them byte for byte; a change that
means to alter them bumps ``NUMERICS_VERSION`` and re-records the table.

The manifest digests were recorded before the config keys moved into one
schema table.  Each hashes ``manifest.json`` without its ``wall_time_s``,
re-serialized with ``json.dumps(..., indent=2)`` in file order, so a change
in the config keys' order, value types or defaults fails here.
"""
import hashlib
import json

import numpy as np
import pytest

from cloudmimo.cli import main
from cloudmimo.experiment import NUMERICS_VERSION

RECORDED_NUMERICS = 2
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
        "440697b443bcc282aa358257d3590c977d301bd42293ad1fcfde4a29a5c02412",
    ("phase-compare-table1", 31):
        "9076b198f96ed105167b15d37792fab683386d828b8c5ff6f9888e0dca2d6803",
    ("phase-compare-table3", 0):
        "041de3b0a3a0f82017f5ec89a26eef5237b9f1d21dfb7df19215e99ab973aca1",
    ("phase-compare-table3", 31):
        "f9b21eff083c274f8035522d531f11dfa1efd236b14adc50474fde0e79ede66f",
}

MANIFEST_DIGESTS = {
    ("capacity", 0):
        "5f24ad04de1bc63528d50b07b0adfd29d30c433c79376345c23e8008756fe5ab",
    ("capacity", 31):
        "c8da86c1ae2c520652eef98e05e3af0d010e5a980b891e22358908a989d68f58",
    ("capacity-rwc", 0):
        "ff0a4d2c73bdb5d3834bb9f75525bf6ceef96a27ba08c323d9e53a029ce3cc0c",
    ("capacity-rwc", 31):
        "aba60bcb7a5805ddb70c289858f9ef11dbc05d062cdb2e3cfcdd21541c05eff7",
    ("capacity-thickness", 0):
        "37f9c0cde24107de9bd4b103b3b025cd8063c9ada3d594e8d4619e249bf2e2cb",
    ("capacity-thickness", 31):
        "b1122e8aacd61d67af6ab936c054226fc10d9fdd0e2a9e7fdc313a2b5e76fb22",
    ("compensated", 0):
        "4b2c4a72bb8cf37eb75afe08ed5113652fed41938d60369b418dfef8afbf1963",
    ("compensated", 31):
        "4657f8d830246774450845da5258ce7411edb2278f8e0f1be5be3ba1bd3a367d",
    ("correlation", 0):
        "cb6fa18bca38938f3bd522e6df0b58986b2eecfc082a2f9352c265c32e3d2155",
    ("correlation", 31):
        "158ffb79ea6006331b259beaf13eae95bcd93b646002ab3a57348c2d7d4aff6d",
    ("field", 0):
        "357c1f930b93b4535365397af736b516e46a886e3a20b8a75303cbe50437ece1",
    ("field", 31):
        "5d55a9b16284c43ab4f0724fe8707e6e45ac9d725b8d6aeb663fb6cce19c8225",
    ("mac-count", 0):
        "0ae854985071bdd9f3adf5804dd8cd08203c8a0c5c7a007da6bb58cf8c9188ba",
    ("mac-count", 31):
        "8876a23c5eca64a54d19df116801d51d426b7d1e4a0ac411e34a70cba522c5c5",
    ("phase-compare-table1", 0):
        "bfb673daa4c34069db564ce1476adf8ac0c40ecdc52d28404940d43c3670d816",
    ("phase-compare-table1", 31):
        "0ed844005c484cabc555c4b780e5da9ee6f6e08341f015fbc47a11300f8af033",
    ("phase-compare-table3", 0):
        "ad39576a5e6344b3e4e7bf804fd0c6afc72e01df5bfb4e0205587b0068b48d02",
    ("phase-compare-table3", 31):
        "69e5f31205596d83e3b0400a19aa2df181fd870e68b81d757f17dedcb49c4980",
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
