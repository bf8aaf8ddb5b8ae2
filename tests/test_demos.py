"""The demos print the same stdout as before: a digest of each run."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout: 02-04 recorded before BasisMatroid moved to
# bitmasks, 01 once its restriction became an Arm
DIGESTS = {
    "01_matroids_and_rank.py": "d1da87f512b7ebeb9f2ab792c24bb64d12dcc65c2bbdc526c4ef3ec84f1c5c47",
    "02_matroid_partition.py": "151bda44e701f713bf9b0b9d316fde4379ae85c3e3702c750f6cd76b95e634ca",
    "03_cyclic_exchange.py": "655eefe8c10ab4afce58506c1306ddcb632dd6a87fac1e33db386ccda90daff9",
    "04_shift_by_two_search.py": "8c2a23e47bcc94be7e80df7689783b75db0f587a20e35dd3f94f44279e03c8ba",
}


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_stdout_is_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo]
