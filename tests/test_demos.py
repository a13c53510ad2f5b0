"""Every demo prints exactly what it printed when its digest was recorded.

Each ``demos/0*.py`` runs in its own interpreter against this tree's
``src``; the sha256 of its standard output is pinned.  A change that moves
any printed count, estimate or budget line fails here and must say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_polarization_purification.py": "48cf91e01ce08c170b36f4b73ecef7f3f85a07184c936b0bf292896088cd3d5d",
    "02_theta_scan_and_fit.py": "ccfc128e000bafc1906794aced80090e4afecdb211d4572746f25def8bb08b26",
    "03_delay_scan.py": "4db835e19a16acf8020ad958274c1a009aa6065361c2d6a777af5612e88c4cbe",
    "04_uncertainty_budgets.py": "6a680930c82890dbc5f557d4240bdf71bb810885861e9c990fd375d844dc928e",
    "05_klyshko_calibration.py": "633bb5e0673f6c8501101b0129dfff29165af15112aa4114a976081fabfa45eb",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("BIPHOTON_SEED", None)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
