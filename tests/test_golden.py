"""Command outputs held byte for byte against the files in tests/golden/.

The Kunneth check over every ring, with ``--verify``, on the projective
plane times the 7-vertex torus (both closed, vertices as named below),
and the shuffle and front/back-face tables in both formats. A change
meant to alter these outputs rewrites the files by running this module
as a script (``PYTHONPATH=src python tests/test_golden.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from hyperhom import cli
from hyperhom.examples import PROJECTIVE_PLANE_FACETS
from hyperhom.hypergraph import associated_complex, hypergraph_from_edges, to_text

GOLDEN = Path(__file__).parent / "golden"

# Moebius-Csaszar torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS_FACETS = [
    (f"t{i}", f"t{(i + a) % 7}", f"t{(i + 3) % 7}") for i in range(7) for a in (1, 2)
]
FACETS = {"RP2": PROJECTIVE_PLANE_FACETS, "TORUS": TORUS_FACETS}

CASES = {
    f"kunneth-verify-{ring.replace(':', '')}.json": [
        "kunneth", "--verify", "--format", "structured", "--coeff", ring, "RP2", "TORUS",
    ]
    for ring in ("z", "q", "zp:2", "zp:3")
} | {
    "ez-aw-demo.txt": ["ez-aw-demo"],
    "ez-aw-demo.json": ["ez-aw-demo", "--format", "structured"],
}


def render(name: str, work: Path) -> bytes:
    """The output of case ``name``; its input files go to ``work``."""
    paths = {}
    for key, facets in FACETS.items():
        paths[key] = work / f"{key.lower()}.txt"
        paths[key].write_text(to_text(associated_complex(hypergraph_from_edges(facets))))
    out = work / name
    argv = [str(paths.get(arg, arg)) for arg in CASES[name]]
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert render(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            (GOLDEN / name).write_bytes(render(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
