"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import tail
from workloads import RP2_GROUPS, TORUS_GROUPS, group, kunneth_groups, parse_group

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def child(workload: str, seed: int, traced: int, work: Path, root: Path = ROOT, env=None):
    work.mkdir()
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--root", str(root),
         "--workload", workload, "--seed", str(seed), "--size", "tiny",
         "--trace", str(traced), "--work", str(work)],
        capture_output=True, text=True, timeout=170, env=env,
    )


def test_known_answer_of_rp2_times_torus():
    want = ["Z", "Z^2 + Z/2", "Z + Z/2 + Z/2", "Z/2", "0", "0"]
    assert kunneth_groups(RP2_GROUPS, TORUS_GROUPS, 6) == [parse_group(g) for g in want]
    assert parse_group("Z/6") == group(0, [2, 3])


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(20))) is None
    q, value = tail([float(i) for i in range(100)])
    assert (q, value) == (90, 89.0)  # ten samples, 90..99, lie beyond
    assert tail(list(range(40)))[0] == 75


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_declared_metric(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = {m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    text = "\n".join(lines)
    if not trace:
        for name in ("op_ms.tail", "fail_ratio"):
            assert name in text


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_planted_wrong_answer_fails(workload):
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--size", "tiny", "--plant-wrong")
    result = json.loads(lines[-1])
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAILED") for line in lines)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tracing_leaves_answers_unchanged(workload, tmp_path):
    plain = child(workload, 11, 0, tmp_path / "plain")
    traced = child(workload, 11, 1, tmp_path / "traced")
    plain, traced = (json.loads(p.stdout.splitlines()[-1]) for p in (plain, traced))
    assert plain["failures"] == traced["failures"] == []
    assert plain["digest"] == traced["digest"]
    assert traced["absent"] == []


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    code, lines = bench("--workload", "campaign", "--seed", "1", "--seconds", "1",
                        cwd=tmp_path)
    assert code != 0 and not lines


def test_refuses_a_library_outside_the_checkout(tmp_path):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = child("campaign", 1, 0, tmp_path / "work", root=tmp_path, env=env)
    assert proc.returncode == 2 and "outside" in proc.stderr


def test_a_removed_name_is_reported_absent(monkeypatch):
    import tracing

    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import hyperhom.cli  # noqa: F401  (the child imports it too)

    layers = dict(tracing.LAYERS, **{"gone": ("hypergraph:no_such_function",)})
    monkeypatch.setattr(tracing, "LAYERS", layers)
    rec = tracing.Recorder()
    tracing.install(rec)
    metrics, missing = tracing.layer_metrics(rec, 0.0)
    assert rec.absent == ["hypergraph:no_such_function"]
    assert missing == ["gone.calls", "gone.s"]
