#!/usr/bin/env python3
"""Torsion showcase: the projective plane squared.

Builds the lattice-path product of the 6-vertex projective plane with
itself, prints the embedded homology over several coefficient rings,
and closes the Kunneth ledger degree by degree. Degree 3 is the
interesting row: both factor summands vanish there and the whole group
is a single Z/2 coming from the torsion correction term.
"""

from __future__ import annotations

import argparse
import time

from hyperhom import (
    INTEGERS,
    RATIONALS,
    classical_homology,
    embedded_homology,
    kunneth_check,
    mod_p,
    product_boxtimes,
)
from hyperhom.examples import projective_plane


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-classical",
        action="store_true",
        help="skip the independent full-chain-complex cross-check",
    )
    args = parser.parse_args()

    start = time.monotonic()
    rp2 = projective_plane()
    box = product_boxtimes(rp2, rp2)
    closed = box.closure
    print(f"factor: {rp2.n_vertices} vertices, {len(rp2.edges)} simplices")
    print(f"product: {box.n_vertices} vertices, {len(box.edges)} hyperedges")
    print(f"closure: {len(closed.edges)} simplices")

    print("\nembedded homology of the product over Z")
    for n, g in enumerate(embedded_homology(box, INTEGERS, verify=True)):
        print(f"  H_{n} = {g}")

    print("\nkunneth ledger over Z")
    print(kunneth_check(rp2, rp2, INTEGERS).to_text(), end="")

    for coeff in (RATIONALS, mod_p(2)):
        report = kunneth_check(rp2, rp2, coeff)
        verdict = "ok" if report.ok else "MISMATCH"
        betti = [r.product_value for r in report.rows]
        print(f"\nBetti numbers over {coeff}: {betti} [{verdict}]")

    if not args.skip_classical:
        classical = classical_homology(closed, INTEGERS)
        embedded = embedded_homology(box, INTEGERS)
        agree = list(classical) == list(embedded)
        print(f"\nclassical homology of the closure agrees: {agree}")
        if not agree:
            return 1

    print(f"\ntotal time: {time.monotonic() - start:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
