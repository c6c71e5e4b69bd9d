"""The script under ``scripts/`` and the console entry point run to
completion in a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

from hyperhom.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_projective_plane_script_exits_0():
    script = ROOT / "scripts" / "run_projective_plane_product.py"
    done = _python(str(script))
    assert done.returncode == 0, done.stdout + done.stderr


def test_entry_point_prints_what_a_reused_parser_prints(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("a b\nb c\na c\nd\n")
    argv = ["homology", str(path), "--verify", "--format", "structured"]
    done = _python("-m", "hyperhom.cli", *argv)
    assert (done.returncode, done.stderr) == (0, "")
    # the second in-process call parses with the parser the first built
    for _ in range(2):
        capsys.readouterr()
        assert main(argv) == 0
    assert capsys.readouterr().out == done.stdout
    assert _python("-m", "hyperhom.cli", "bogus").returncode == 1
