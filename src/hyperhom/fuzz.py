"""Randomized verification campaigns over pairs of hypergraphs.

Every instance is reproducible from (seed, index). Each pair runs the
whole battery, and a failure is reported under its category:

- ``closure``: the closure of the product equals the product of the
  closures;
- ``inf-sup``: infimum and supremum homology agree on both factors and
  the product;
- ``chain-map``: the shuffle and front/back-face identities hold on the
  infimum bases;
- ``kunneth``: the Kunneth ledger closes over the integers, the
  rationals, Z/2 and Z/3;
- ``universal-coefficients``: on both factors and the product, the
  rational and Z/p Betti numbers follow from the integral homology;
- ``crash``: any other exception.

A failing pair is shrunk by greedily deleting hyperedges while the same
category of failure persists, so reports end with a small witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import IntegrityError
from .homology import INTEGERS, RATIONALS, embedded_homology, mod_p
from .hypergraph import (
    Hypergraph,
    hypergraph_from_edges,
    product_boxtimes,
    product_complex,
    random_hypergraph,
    to_text,
)
from .kunneth import kunneth_check, restricted_chainmap_check

_INDEX_STRIDE = 2_000_003

FUZZ_COEFFS = (INTEGERS, RATIONALS, mod_p(2), mod_p(3))


@dataclass(frozen=True)
class FuzzConfig:
    count: int
    seed: int
    max_vertices: int = 6
    max_dim: int = 3

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.max_vertices < 1 or self.max_dim < 0:
            raise ValueError("size bounds must be positive")


def instance_pair(config: FuzzConfig, index: int) -> tuple[Hypergraph, Hypergraph]:
    """The deterministic pair for one campaign slot."""
    rng = random.Random(config.seed * _INDEX_STRIDE + index)

    def draw() -> Hypergraph:
        n = rng.randint(1, config.max_vertices)
        d = rng.randint(0, config.max_dim)
        density = rng.uniform(0.15, 0.65)
        return random_hypergraph(n, d, density, rng.randrange(2**30))

    return draw(), draw()


def _uct_mismatch(g: Hypergraph) -> str | None:
    """Where the field Betti numbers of g break the universal coefficient
    theorem: Betti_n over Q is the rank of H_n, over Z/p it is
    betti_mod_p(H_n) plus the p-divisible invariant factors of H_{n-1}."""
    integral = embedded_homology(g, INTEGERS)
    for coeff in FUZZ_COEFFS[1:]:
        for n, betti in enumerate(embedded_homology(g, coeff)):
            if coeff.p is None:
                want = integral[n].rank
            else:
                below = integral[n - 1].invariants if n else ()
                want = integral[n].betti_mod_p(coeff.p) + sum(
                    1 for t in below if t % coeff.p == 0
                )
            if betti != want:
                return f"degree {n} over {coeff}: betti {betti}, integral homology gives {want}"
    return None


def check_pair(h: Hypergraph, h2: Hypergraph) -> tuple[str, str] | None:
    """Run the battery; None when everything holds, else a (category,
    detail) description of the first failure."""
    try:
        box = product_boxtimes(h, h2)
        closed = product_complex(h.closure, h2.closure)
        if box.closure != closed:
            return ("closure", "closure of the product differs from the product of closures")
        for tag, g in (("left", h), ("right", h2), ("product", box)):
            try:
                embedded_homology(g, INTEGERS, verify=True)
            except IntegrityError as exc:
                return ("inf-sup", f"{tag} factor: {exc}")
        try:
            restricted_chainmap_check(h, h2)
        except IntegrityError as exc:
            return ("chain-map", str(exc))
        for coeff in FUZZ_COEFFS:
            if not kunneth_check(h, h2, coeff).ok:
                return ("kunneth", f"kunneth mismatch over {coeff}")
        for tag, g in (("left", h), ("right", h2), ("product", box)):
            mismatch = _uct_mismatch(g)
            if mismatch is not None:
                return ("universal-coefficients", f"{tag} factor: {mismatch}")
    except Exception as exc:  # any crash is itself a reportable failure
        return ("crash", f"{type(exc).__name__}: {exc}")
    return None


def _without_edge(g: Hypergraph, idx: int) -> Hypergraph | None:
    kept = [g.edge_tokens(e) for i, e in enumerate(g.edges) if i != idx]
    if not kept:
        return None
    return hypergraph_from_edges(kept)


def shrink_pair(
    h: Hypergraph, h2: Hypergraph, category: str
) -> tuple[Hypergraph, Hypergraph]:
    """Greedy hyperedge removal keeping the same failure category."""
    pair = [h, h2]
    changed = True
    while changed:
        changed = False
        for side in (0, 1):
            g = pair[side]
            for idx in range(len(g.edges)):
                candidate = _without_edge(g, idx)
                if candidate is None:
                    continue
                trial = list(pair)
                trial[side] = candidate
                outcome = check_pair(trial[0], trial[1])
                if outcome is not None and outcome[0] == category:
                    pair = trial
                    changed = True
                    break
            if changed:
                break
    return pair[0], pair[1]


@dataclass(frozen=True)
class FuzzFailure:
    index: int
    category: str
    detail: str
    left: Hypergraph
    right: Hypergraph


@dataclass(frozen=True)
class FuzzReport:
    config: FuzzConfig
    checked: int
    failures: tuple[FuzzFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "count": self.config.count,
            "max_vertices": self.config.max_vertices,
            "max_dim": self.config.max_dim,
            "checked": self.checked,
            "ok": self.ok,
            "failures": [
                {
                    "index": f.index,
                    "category": f.category,
                    "detail": f.detail,
                    "left": to_text(f.left).splitlines(),
                    "right": to_text(f.right).splitlines(),
                }
                for f in self.failures
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.config.seed} count={self.config.count} "
            f"max_vertices={self.config.max_vertices} max_dim={self.config.max_dim}",
            f"checked {self.checked} instance pairs: "
            + ("all passed" if self.ok else f"{len(self.failures)} FAILED"),
        ]
        for f in self.failures:
            lines.append(f"failure at index {f.index} [{f.category}]: {f.detail}")
            lines.append("  left factor (minimized):")
            lines.extend(f"    {row}" for row in to_text(f.left).splitlines())
            lines.append("  right factor (minimized):")
            lines.extend(f"    {row}" for row in to_text(f.right).splitlines())
        return "\n".join(lines) + "\n"


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the campaign; results are aggregated in index order so a
    fixed config always produces the identical report."""
    failures = []
    for index in range(config.count):
        h, h2 = instance_pair(config, index)
        outcome = check_pair(h, h2)
        if outcome is not None:
            category, detail = outcome
            small_h, small_h2 = shrink_pair(h, h2, category)
            failures.append(FuzzFailure(index, category, detail, small_h, small_h2))
    return FuzzReport(config, config.count, tuple(failures))
