"""One cold round of one workload, in a fresh process.

Imports the library from the checkout's ``src``, draws and writes the
round's inputs, then runs the operations in a closed loop and checks
each answer. Prints one JSON object as its last line of output.

    python3 perfbench/child.py --root . --workload campaign --seed 7 --work DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

import tracing
from workloads import SIZES, WORKLOADS


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout whose src/ is measured")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--work", required=True, help="empty directory for the inputs")
    p.add_argument("--spans", default=None, help="traced rounds write spans here")
    p.add_argument("--plant-wrong", action="store_true", help="expect a wrong answer")
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import hyperhom
    import hyperhom.cli

    origin = Path(hyperhom.__file__).resolve()
    if src not in origin.parents:
        print(f"error: hyperhom resolves to {origin}, outside {src}", file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload](
        hyperhom,
        random.Random(args.seed),
        SIZES[args.size][args.workload],
        Path(args.work),
        args.plant_wrong,
    )
    setup_s = time.perf_counter() - start

    rec = None
    if args.trace:
        rec = tracing.Recorder()
        tracing.install(rec)
    latencies: list[float] = []
    answers: list[str] = []
    failures: list[str] = []

    def run(op) -> None:
        t = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a crash is a failed operation, not a failed run
            latencies.append(time.perf_counter() - t)
            answers.append(f"{type(exc).__name__}: {exc}")
            failures.append(f"{op.label}: {answers[-1]}")
            return
        latencies.append(time.perf_counter() - t)
        try:
            answer, failure = op.check(result)
        except Exception as exc:
            answer, failure = "", f"unreadable answer: {type(exc).__name__}: {exc}"
        answers.append(answer)
        if failure:
            failures.append(f"{op.label}: {failure}")

    first = time.perf_counter()
    for op in ops:
        if rec is None:
            run(op)
        else:
            rec.span("bench.op", run, op)
            rec.end_op()
    wall_s = time.perf_counter() - first

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": latencies,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256("\n\0".join(answers).encode()).hexdigest(),
        "hyperhom_file": str(origin),
    }
    if rec is not None:
        out["layers"], out["absent"] = tracing.layer_metrics(rec, wall_s)
        out["absent_names"] = rec.absent
        if args.spans:
            rec.write(Path(args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
