"""The script under ``scripts/`` runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_projective_plane_script_exits_0():
    script = ROOT / "scripts" / "run_projective_plane_product.py"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, str(script), "--skip-classical"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
