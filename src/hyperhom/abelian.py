"""Finitely generated abelian groups as canonical values.

A group is stored as a free rank plus an ascending chain of invariant
factors (each at least 2, each dividing the next), so equality of
values is isomorphism of groups. Tensor and Tor are computed per prime:

    Z/p^a (x) Z/p^b  = Z/p^min(a,b)     Tor(Z/p^a, Z/p^b) = Z/p^min(a,b)
    Z     (x) G      = G                Tor(free, G)      = 0

>>> FGAbelianGroup.from_parts(0, [2, 3])
FGAbelianGroup(rank=0, invariants=(6,))
>>> str(FGAbelianGroup.from_parts(1, [4, 6]))
'Z + Z/2 + Z/12'
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .intlinalg import SparseIntMatrix, invariant_factors


def _prime_power_factors(n: int) -> dict[int, int]:
    """Factor n >= 2 into {prime: exponent} by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _regroup(torsion: Iterable[int]) -> tuple[int, ...]:
    """Turn arbitrary cyclic torsion orders into the invariant factor chain."""
    by_prime: dict[int, list[int]] = {}
    for t in torsion:
        if t < 2:
            raise ValueError(f"torsion order must be >= 2, got {t}")
        for p, e in _prime_power_factors(t).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    width = max(len(es) for es in by_prime.values())
    factors = [1] * width
    for p, es in by_prime.items():
        es.sort(reverse=True)
        # largest exponent goes into the last invariant factor
        for slot, e in enumerate(es):
            factors[width - 1 - slot] *= p**e
    return tuple(factors)


@dataclass(frozen=True)
class FGAbelianGroup:
    """Isomorphism class of a finitely generated abelian group.

    ``rank`` is the free rank; ``invariants`` is the ascending
    divisibility chain of torsion orders. Instances are values: build
    them through :meth:`from_parts` or :func:`from_presentation` so the
    canonical form is enforced.
    """

    rank: int
    invariants: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        prev = 1
        for t in self.invariants:
            if t < 2 or t % prev:
                raise ValueError(f"not an invariant factor chain: {self.invariants}")
            prev = t

    @classmethod
    def from_parts(cls, rank: int, torsion: Iterable[int] = ()) -> "FGAbelianGroup":
        """Build from free rank and any list of cyclic torsion orders."""
        return cls(rank, _regroup(torsion))

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def cyclic(cls, order: int) -> "FGAbelianGroup":
        """Z/order for order >= 2; order 1 gives the trivial group."""
        if order == 1:
            return cls.trivial()
        return cls.from_parts(0, [order])

    def betti_mod_p(self, p: int) -> int:
        """dim over Z/p of (self tensor Z/p): rank + p-divisible invariants."""
        return self.rank + sum(1 for t in self.invariants if t % p == 0)

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        return FGAbelianGroup.from_parts(
            self.rank + other.rank, self.invariants + other.invariants
        )

    def tensor(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        """Tensor product over Z.

        >>> FGAbelianGroup.cyclic(2).tensor(FGAbelianGroup.cyclic(4))
        FGAbelianGroup(rank=0, invariants=(2,))
        """
        torsion: list[int] = []
        torsion.extend(t for t in self.invariants for _ in range(other.rank))
        torsion.extend(t for t in other.invariants for _ in range(self.rank))
        for s in self.invariants:
            for t in other.invariants:
                g = gcd(s, t)
                if g > 1:
                    torsion.append(g)
        return FGAbelianGroup.from_parts(self.rank * other.rank, torsion)

    def tor(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        """Torsion product Tor_1 over Z; free parts contribute nothing.

        >>> FGAbelianGroup.cyclic(2).tor(FGAbelianGroup.cyclic(2))
        FGAbelianGroup(rank=0, invariants=(2,))
        """
        torsion = []
        for s in self.invariants:
            for t in other.invariants:
                g = gcd(s, t)
                if g > 1:
                    torsion.append(g)
        return FGAbelianGroup.from_parts(0, torsion)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.invariants)
        return " + ".join(parts) if parts else "0"


def direct_sum(groups: Iterable[FGAbelianGroup]) -> FGAbelianGroup:
    """Direct sum of any number of groups (empty sum is trivial)."""
    total = FGAbelianGroup.trivial()
    for g in groups:
        total = total.direct_sum(g)
    return total


def from_presentation(
    relations: SparseIntMatrix, ambient_rank: int | None = None
) -> FGAbelianGroup:
    """Cokernel Z^ambient / (column lattice of relations).

    Columns of ``relations`` are relation vectors in Z^ambient_rank
    (defaults to the matrix's row count). Invariant factors equal to 1
    kill generators; the rest survive as torsion.
    """
    if ambient_rank is None:
        ambient_rank = relations.nrows
    if ambient_rank != relations.nrows:
        raise ValueError("ambient rank does not match relation vector length")
    d = invariant_factors(relations)
    return FGAbelianGroup(ambient_rank - len(d), tuple(t for t in d if t >= 2))
