"""The scripts under ``scripts/`` run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["run_fuzz_campaign.py", "--count", "3"],
        ["run_projective_plane_product.py", "--skip-classical"],
    ],
)
def test_script_exits_0(argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
