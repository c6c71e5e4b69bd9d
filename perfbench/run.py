"""Benchmark of the hyperhom library: cold-process rounds of named workloads.

    python3 perfbench/run.py --workload pair-verify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. Each round runs in a fresh child
process (``child.py``) that imports the library from ``src/``, draws its
inputs from the seed, and runs the workload's operations in a closed
loop with one client. Rounds run one at a time until the next one would
end after ``--seconds``. Nothing is warmed, and no cache outlives a
round, because every ``hyperhom`` call pays a cold start.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` pairs each
round with a traced round on the same inputs, reports the per-layer
metrics of the traced rounds, and fails the run if a traced answer
differs from its untraced one.

Every operation's answer is checked; a wrong answer, an exception or a
non-zero exit counts as a failed operation. The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the command exits 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS  # noqa: E402

ROUND_TIMEOUT_S = 170


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--size", default="full", choices=sorted(SIZES),
                   help="tiny inputs for the benchmark's own tests")
    p.add_argument("--plant-wrong", action="store_true",
                   help="expect a wrong answer, to show that checks fail")
    return p.parse_args(argv)


def round_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with at least ten
    samples beyond it, as (percentile, nearest-rank value)."""
    n = len(samples)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if q <= 50:
        return None
    return q, sorted(samples)[math.ceil(q * n / 100) - 1]


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance() -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_git else None
    return {
        "git_rev": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": (status != "") if status is not None else None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_child(args, work: Path, seed: int, traced: bool, timeout: float) -> dict:
    """One round; a crash or timeout comes back as a result with an error."""
    round_dir = Path(tempfile.mkdtemp(dir=work))
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(seed),
        "--size", args.size, "--trace", str(int(traced)), "--work", str(round_dir),
    ]
    if traced:
        cmd += ["--spans", str(work.parent / f"{args.workload}.spans.jsonl")]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"round timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def run_rounds(args, work: Path) -> list[dict]:
    """Rounds one at a time until the next would end after --seconds."""
    rounds = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        timeout = max(1.0, ROUND_TIMEOUT_S - (began - start))
        seed = round_seed(args.seed, len(rounds))
        plain = run_child(args, work, seed, False, timeout)
        entry = {"seed": seed, "plain": plain}
        if args.trace and "error" not in plain:
            timeout = max(1.0, ROUND_TIMEOUT_S - (time.monotonic() - start))
            entry["traced"] = run_child(args, work, seed, True, timeout)
        rounds.append(entry)
        now = time.monotonic()
        if any("error" in r for r in (plain, entry.get("traced", {}))):
            break
        if now - start + (now - began) > args.seconds:
            break
    return rounds


def failures(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every round, traced or not."""
    attempted = failed = 0
    reasons: list[str] = []
    for r in rounds:
        for kind in ("plain", "traced"):
            res = r.get(kind)
            if res is None:
                continue
            if "error" in res:
                attempted += 1
                failed += 1
                reasons.append(f"round {r['seed']} {kind}: {res['error']}")
                continue
            attempted += len(res["op_s"])
            failed += len(res["failures"])
            reasons += [f"round {r['seed']} {kind}: {f}" for f in res["failures"]]
        traced = r.get("traced")
        if traced and "error" not in traced and traced["digest"] != r["plain"]["digest"]:
            failed += 1
            reasons.append(f"round {r['seed']}: traced answers differ from untraced")
    return attempted, failed, reasons


def end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    """Times are medians over rounds, or over operations pooled over
    rounds. Peak memory is the mean over rounds: it repeats exactly for
    one input and moves with the input, so every round's input counts."""
    ops_ms = [1000 * t for r in plain for t in r["op_s"]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "op_ms.p50": (statistics.median(ops_ms), "ms"),
        "peak_rss_mb": (statistics.fmean(r["peak_rss_mb"] for r in plain), "MB"),
    }
    t = tail(ops_ms)
    samples = {
        "rounds": len(plain),
        "operations": len(ops_ms),
        "op_ms.tail_percentile": t[0] if t else None,
        "round_setup_s": [r["setup_s"] for r in plain],
        "round_wall_s": [r["wall_s"] for r in plain],
        "round_peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if t:
        metrics["op_ms.tail"] = (t[1], "ms")
    return metrics, samples


def per_layer(rounds: list[dict]) -> tuple[dict, dict, list[str]]:
    """Medians over traced rounds of each layer metric, plus
    trace_overhead: traced over untraced wall time on the same inputs."""
    traced = [r["traced"] for r in rounds]
    names = traced[0]["layers"]
    metrics = {
        k: (statistics.median(t["layers"][k] for t in traced), _unit(k)) for k in names
    }
    metrics["trace_overhead"] = (
        statistics.median(r["traced"]["wall_s"] / r["plain"]["wall_s"] for r in rounds),
        "ratio",
    )
    metrics["traced_wall_s"] = (statistics.median(t["wall_s"] for t in traced), "s")
    samples = {
        "traced_rounds": len(traced),
        "absent_names": sorted({a for t in traced for a in t["absent_names"]}),
        "accounting": [_accounting(t) for t in traced],
    }
    return metrics, samples, sorted({a for t in traced for a in t["absent"]})


def _accounting(traced: dict) -> dict:
    """Where one traced round's wall time went; the parts sum to wall_s."""
    layers = traced["layers"]
    library = sum(
        v for k, v in layers.items()
        if k.endswith(".s") and not k.startswith(("trace.", "bench."))
    )
    return {
        "wall_s": traced["wall_s"],
        "library_self_s": library,
        "bench.own_s": layers["bench.own_s"],
        "trace.counters.s": layers["trace.counters.s"],
        "trace.leftover_s": layers["trace.leftover_s"],
    }


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _declared(trace: int) -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "hyperhom" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # An installed package ships compiled bytecode. Compile once, so that
    # every round imports bytecode whatever PYTHONDONTWRITEBYTECODE says.
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    if build.returncode != 0:
        print(f"error: cannot compile src: {build.stdout}{build.stderr}", file=sys.stderr)
        return 2
    out_dir = HERE / "_out"
    work = out_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rounds = run_rounds(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, reasons = failures(rounds)
    ok_rounds = [
        r for r in rounds
        if "error" not in r["plain"] and "error" not in r.get("traced", {})
    ]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": SIZES[args.size][args.workload],
        "round_seeds": [r["seed"] for r in rounds],
        **provenance(),
        "hyperhom_file": next(
            (r["plain"]["hyperhom_file"] for r in ok_rounds), None
        ),
    }
    metrics: dict = {}
    absent: list[str] = []
    if ok_rounds:
        if args.trace:
            metrics, samples, absent = per_layer(ok_rounds)
        else:
            metrics, samples = end_to_end([r["plain"] for r in ok_rounds])
        report.update(samples)
    report["fail_ratio"] = failed / attempted
    report["absent"] = absent

    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_ms.tail":
            note = f" (p{report['op_ms.tail_percentile']} of {report['operations']} operations)"
        print(f"{name:40s} {value:16.6f} {unit}{note}")
    for name in absent:
        print(f"{name:40s} {'absent':>16s}")
    if not args.trace:
        if "op_ms.tail" not in metrics:
            print(f"{'op_ms.tail':40s} {'absent':>16s} ms (fewer than 21 operations)")
        print(f"{'fail_ratio':40s} {report['fail_ratio']:16.6f} ratio ({failed}/{attempted})")
    for reason in reasons:
        print(f"FAILED {reason}")
    print("provenance " + json.dumps(report))

    declared = _declared(args.trace)
    result = {
        "correct": failed == 0 and len(ok_rounds) == len(rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k][0], "unit": metrics[k][1]}
            for k in declared
            if k in metrics
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
