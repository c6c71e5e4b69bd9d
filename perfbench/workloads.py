"""Seeded inputs, operations and known answers for the benchmark workloads.

Inputs are drawn here with the standard library only. The library under
test never generates or checks an input, so a change to its own random
generators cannot move a workload.

Each workload is a closed loop with one client: ``ops`` is run in order,
and the next operation starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# ------------------------------------------------------------ fixed inputs

# 6-vertex projective plane: 10 triangles.
RP2_FACETS = (
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
)
# 7-vertex torus (Moebius-Csaszar): triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.
TORUS_FACETS = tuple(
    tuple(sorted((i, (i + a) % 7, (i + 3) % 7))) for i in range(7) for a in (1, 2)
)
# 3-vertex circle: the tiny stand-in for both pair-verify factors.
CIRCLE_FACETS = ((0, 1), (1, 2), (0, 2))

# Textbook integral homology, degrees 0.., as (rank, torsion prime powers).
RP2_GROUPS = ((1, ()), (0, (2,)), (0, ()))
TORUS_GROUPS = ((1, ()), (2, ()), (1, ()))
CIRCLE_GROUPS = ((1, ()), (1, ()))


# ------------------------------------------------- abelian group arithmetic
# A group is (rank, torsion) with torsion a sorted tuple of prime powers.


def _prime_powers(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            q = 1
            while n % f == 0:
                q *= f
                n //= f
            out.append(q)
        f += 1
    if n > 1:
        out.append(n)
    return out


def group(rank: int, torsion=()) -> tuple[int, tuple[int, ...]]:
    return rank, tuple(sorted(q for t in torsion for q in _prime_powers(t)))


def _tensor(a, b):
    (r, s), (r2, s2) = a, b
    torsion = list(s) * r2 + list(s2) * r + [math.gcd(x, y) for x in s for y in s2]
    return group(r * r2, [t for t in torsion if t > 1])


def _tor(a, b):
    return group(0, [g for x in a[1] for y in b[1] if (g := math.gcd(x, y)) > 1])


def _sum(groups):
    groups = list(groups)
    return group(sum(g[0] for g in groups), [t for g in groups for t in g[1]])


def kunneth_groups(left, right, degrees: int):
    """H_n of a product from the factor groups: tensor plus Tor terms."""
    zero = (0, ())

    def at(gs, n):
        return gs[n] if 0 <= n < len(gs) else zero

    return [
        _sum(
            [_tensor(at(left, p), at(right, n - p)) for p in range(n + 1)]
            + [_tor(at(left, p), at(right, n - 1 - p)) for p in range(n)]
        )
        for n in range(degrees)
    ]


def parse_group(text: str):
    """Read the library's rendering, e.g. ``Z^2 + Z/2`` or ``0``."""
    rank, torsion = 0, []
    for part in text.split(" + "):
        part = part.strip()
        if part == "0":
            continue
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"unreadable group: {text!r}")
    return group(rank, torsion)


# ----------------------------------------------------------- input drawing


def closure(facets) -> list[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            out.update(itertools.combinations(f, k))
    return sorted(out)


def relabel(edges, n: int, prefix: str, rng: random.Random) -> list[list[str]]:
    """Give vertex i a shuffled token. The library orders vertices by
    token, so the shuffle changes every matrix but not the homology."""
    width = len(str(n - 1))
    tokens = [f"{prefix}{i:0{width}d}" for i in range(n)]
    rng.shuffle(tokens)
    return [[tokens[v] for v in e] for e in edges]


def to_text(edges) -> str:
    return "".join(" ".join(e) + "\n" for e in edges)


def lattice_path_edges(a, b) -> int:
    """Hyperedges the lattice-path product can make: sum of C(p+q, p)."""
    return sum(math.comb(len(e) + len(f) - 2, len(e) - 1) for e in a for f in b)


def draw_factor(rng: random.Random, max_vertices: int, max_dim: int):
    """One factor with the fuzz campaign's distribution: each subset of
    1..max_dim+1 of n vertices kept with one density; unused vertices drop out."""
    n = rng.randint(1, max_vertices)
    top = min(rng.randint(0, max_dim), n - 1)
    density = rng.uniform(0.15, 0.65)
    candidates = [
        c for k in range(1, top + 2) for c in itertools.combinations(range(n), k)
    ]
    chosen = [c for c in candidates if rng.random() < density]
    return chosen or [rng.choice(candidates)]


def draw_wide(rng: random.Random, width_lo: int, width_hi: int):
    """A sparse wide hypergraph: one hyperedge of width_lo..width_hi
    vertices and a few small hyperedges, some on extra vertices."""
    width = rng.randint(width_lo, width_hi)
    n = width + rng.randint(1, 3)
    edges = {tuple(range(width))}
    for _ in range(rng.randint(3, 6)):
        k = rng.randint(1, 3)
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    for v in range(width, n):  # every extra vertex lies on some hyperedge
        edges.add((rng.randrange(width), v))
    return n, sorted(edges)


# --------------------------------------------------------------- workloads


@dataclass
class Op:
    """One timed call into the library. ``check`` turns its result into
    (answer, failure): the answer as text, and an error or None."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]


def _cli(hyperhom, argv: list[str], out: Path):
    """Run the command line entry point; its report goes to ``out``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = hyperhom.cli.main(argv + ["--out", str(out)])
    return code, err.getvalue()


def _cli_answer(result, out: Path) -> tuple[str, str | None]:
    code, err = result
    answer = f"exit {code}\n" + (out.read_text() if out.exists() else "")
    return answer, (f"exit code {code}: {err.strip()}" if code != 0 else None)


SIZES = {
    "full": {
        "pair-verify": {"left": "rp2", "right": "torus"},
        "campaign": {"pairs": 300, "max_vertices": 6, "max_dim": 3, "max_product_edges": 300},
        "wide-edge": {"sphere_vertices": 16, "wide": 3, "width": [14, 14]},
    },
    "tiny": {
        "pair-verify": {"left": "circle", "right": "circle"},
        "campaign": {"pairs": 10, "max_vertices": 4, "max_dim": 2, "max_product_edges": 40},
        "wide-edge": {"sphere_vertices": 6, "wide": 1, "width": [5, 6]},
    },
}

_FACTORS = {
    "rp2": (6, RP2_FACETS, RP2_GROUPS),
    "torus": (7, TORUS_FACETS, TORUS_GROUPS),
    "circle": (3, CIRCLE_FACETS, CIRCLE_GROUPS),
}


def pair_verify(hyperhom, rng, params, work: Path, plant_wrong: bool) -> list[Op]:
    (n, facets, left), (n2, facets2, right) = (
        _FACTORS[params["left"]],
        _FACTORS[params["right"]],
    )
    a, b, out = work / "a.txt", work / "b.txt", work / "kunneth.json"
    a.write_text(to_text(relabel(closure(facets), n, "a", rng)))
    b.write_text(to_text(relabel(closure(facets2), n2, "b", rng)))
    # closed factors of dimensions d, d2 give product degrees 0..d+d2+1
    degrees = max(map(len, facets)) + max(map(len, facets2))
    expected = kunneth_groups(left, right, degrees)
    if plant_wrong:
        expected[1] = _sum([expected[1], (1, ())])

    def check(result):
        answer, failure = _cli_answer(result, out)
        if failure:
            return answer, failure
        report = json.loads(out.read_text())
        if not report["ok"]:
            return answer, "kunneth report is not ok"
        got = [parse_group(row["product"]) for row in report["degrees"]]
        if got != expected:
            return answer, f"product groups {got} differ from the known answer {expected}"
        return answer, None

    argv = ["kunneth", str(a), str(b), "--verify", "--format", "structured"]
    return [Op("kunneth", lambda: _cli(hyperhom, argv, out), check)]


def campaign(hyperhom, rng, params, work: Path, plant_wrong: bool) -> list[Op]:
    pairs = []
    while len(pairs) < params["pairs"]:
        a = draw_factor(rng, params["max_vertices"], params["max_dim"])
        b = draw_factor(rng, params["max_vertices"], params["max_dim"])
        if lattice_path_edges(a, b) <= params["max_product_edges"]:
            pairs.append(
                (to_text([[f"v{i}" for i in e] for e in a]),
                 to_text([[f"w{i}" for i in e] for e in b]))
            )
    (work / "pairs.json").write_text(json.dumps(pairs))
    expected = ("planted", "failure") if plant_wrong else None

    def op(text, text2):
        def call():
            parse = hyperhom.parse_hypergraph
            return hyperhom.check_pair(parse(text), parse(text2))

        def check(result):
            if result != expected:
                return repr(result), f"check_pair returned {result!r}, expected {expected!r}"
            return repr(result), None

        return Op("check_pair", call, check)

    return [op(text, text2) for text, text2 in pairs]


def wide_edge(hyperhom, rng, params, work: Path, plant_wrong: bool) -> list[Op]:
    k = params["sphere_vertices"]
    sphere = [(v,) for v in range(k)] + list(itertools.combinations(range(k), k - 1))
    inputs = [("sphere", relabel(sphere, k, "s", rng))]
    for i in range(params["wide"]):
        n, edges = draw_wide(rng, *params["width"])
        inputs.append((f"wide{i}", relabel(edges, n, "w", rng)))
    # the vertices are k points; the (k-1)-vertex faces bound the (k-1)-simplex
    sphere_expected = {0: group(k), k - 2: group(2 if plant_wrong else 1)}

    def op(name, edges):
        src, out = work / f"{name}.txt", work / f"{name}.json"
        src.write_text(to_text(edges))
        argv = ["homology", str(src), "--verify", "--format", "structured"]

        def check(result):
            answer, failure = _cli_answer(result, out)
            if failure or name != "sphere":
                return answer, failure
            table = {
                row["degree"]: parse_group(row["value"])
                for row in json.loads(out.read_text())["homology"]
            }
            for n, want in sphere_expected.items():
                if table.get(n) != want:
                    return answer, f"sphere H_{n} = {table.get(n)}, expected {want}"
            if any(v != (0, ()) for n, v in table.items() if n not in sphere_expected):
                return answer, f"sphere homology {table} has extra classes"
            return answer, None

        return Op(name, lambda: _cli(hyperhom, argv, out), check)

    return [op(name, edges) for name, edges in inputs]


WORKLOADS = {"pair-verify": pair_verify, "campaign": campaign, "wide-edge": wide_edge}
