#!/usr/bin/env python3
"""Long-running randomized verification campaign.

Thin wrapper over hyperhom.fuzz for soak runs beyond what the test
suite exercises. A fixed seed reproduces the identical report; failing
instances are shrunk to minimal witnesses before reporting.
"""

from __future__ import annotations

import argparse
import sys
import time

from hyperhom.fuzz import FuzzConfig, run_fuzz


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=1000, help="instance pairs to check")
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument("--max-vertices", type=int, help="vertex bound per factor")
    parser.add_argument("--max-dim", type=int, help="dimension bound per factor")
    parser.add_argument("--out", default=None, help="also write the report to this path")
    args = parser.parse_args()

    # bounds left out take their defaults from FuzzConfig
    bounds = {"max_vertices": args.max_vertices, "max_dim": args.max_dim}
    config = FuzzConfig(
        args.count, args.seed, **{k: v for k, v in bounds.items() if v is not None}
    )
    start = time.monotonic()
    report = run_fuzz(config)
    elapsed = time.monotonic() - start

    text = report.to_text()
    sys.stdout.write(text)
    print(f"elapsed: {elapsed:.2f}s")
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
