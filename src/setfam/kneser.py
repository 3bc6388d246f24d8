"""The disjointness graph view: vertices are k-sets, edges are disjoint pairs.

Counting disjoint pairs inside a family is counting edges induced by the
corresponding vertex set, so minimizing disjoint pairs at size s is finding
the s vertices inducing the fewest edges, equivalently the largest bipartite
subgraph with one part of size s.  The graph is d-regular with d =
C(n-k, k), its spectrum is known in closed form, and the standard
eigenvalue bound for induced subgraphs of regular graphs gives an exact
rational lower bound on the minimum.

The closed-form spectrum is the production path; numpy diagonalization
exists only as a test oracle guarding the transcription.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import IO, Iterator

import numpy as np

from .core import KSet, RangeError, SetFamily, all_kset_masks, binom
from .counting import _t_disjoint_rows, disjoint_pairs

_EDGE_LIST_CAP = 10**5
_NUMERIC_CAP = 2000


@dataclass(frozen=True)
class KneserGraph:
    """K(n, k): one vertex per k-subset of [n], edges between disjoint sets."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise RangeError(f"need 1 <= k <= n, got n={self.n} k={self.k}")

    @property
    def vertex_count(self) -> int:
        return binom(self.n, self.k)

    @property
    def degree(self) -> int:
        return binom(self.n - self.k, self.k)

    @property
    def edge_count(self) -> int:
        return self.vertex_count * self.degree // 2

    def adjacent(self, a: KSet, b: KSet) -> bool:
        if (a.n, a.k) != (self.n, self.k) or (b.n, b.k) != (self.n, self.k):
            raise RangeError(f"vertex context does not match K({self.n},{self.k})")
        return not a.mask & b.mask

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        return tuple(all_kset_masks(self.n, self.k))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as lex-rank pairs (u, v) with u < v, in sorted order."""
        masks = self._masks
        rank_of = {m: i for i, m in enumerate(masks)}
        for u, mu in enumerate(masks):
            # neighbors are exactly the k-subsets of the complement of u;
            # combinations of an ascending alphabet come out in lex order
            others = [e for e in range(1, self.n + 1) if not mu & (1 << (e - 1))]
            for combo in combinations(others, self.k):
                v = rank_of[sum(1 << (e - 1) for e in combo)]
                if v > u:
                    yield (u, v)

    def edge_list(self) -> list[tuple[int, int]]:
        """Materialized edge list; refused beyond 10^5 vertices."""
        if self.vertex_count > _EDGE_LIST_CAP:
            raise RangeError(f"vertex count {self.vertex_count} exceeds the {_EDGE_LIST_CAP} cap")
        return list(self.edges())


def induced_edges(g: KneserGraph, f: SetFamily) -> int:
    """Edges of the graph with both ends in f: the disjoint pairs of f, from
    the counting pair kernel (a loop below its crossover size, bitsets above)."""
    if (f.n, f.k) != (g.n, g.k):
        raise RangeError(f"family context (n={f.n}, k={f.k}) does not match K({g.n},{g.k})")
    return disjoint_pairs(f).value


@dataclass(frozen=True)
class Spectrum:
    """Closed-form adjacency spectrum of K(n, k).

    pairs lists (eigenvalue, multiplicity) for i = 0..k in that order:
    eigenvalue (-1)^i C(n-k-i, k-i) with multiplicity C(n,i) - C(n,i-1).
    """

    n: int
    k: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def lam_min(self) -> int:
        return min(lam for lam, _ in self.pairs)

    @property
    def lam_max(self) -> int:
        return max(lam for lam, _ in self.pairs)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pairs": [{"eigenvalue": str(lam), "multiplicity": str(mult)} for lam, mult in self.pairs],
        }


def spectrum(n: int, k: int) -> Spectrum:
    """Eigenvalues of K(n, k) with multiplicities, exactly."""
    if n < 2 * k:
        raise RangeError(f"need n >= 2k, got n={n} k={k}")
    pairs = tuple(
        ((-1) ** i * binom(n - k - i, k - i), binom(n, i) - binom(n, i - 1))
        for i in range(k + 1)
    )
    return Spectrum(n, k, pairs)


def adjacency_matrix(n: int, k: int) -> np.ndarray:
    """Dense adjacency matrix in lex-rank order; test-oracle sizes only."""
    N = binom(n, k)
    if N > _NUMERIC_CAP:
        raise RangeError(f"vertex count {N} exceeds the {_NUMERIC_CAP} numeric cap")
    rows = _t_disjoint_rows(list(all_kset_masks(n, k)), n, 1)
    width = (N + 7) // 8
    bits = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), dtype=np.uint8)
    return np.unpackbits(bits.reshape(N, width), axis=1, bitorder="little")[:, :N].astype(np.float64)


def numeric_eigenvalues(n: int, k: int) -> np.ndarray:
    """Numerically diagonalized spectrum, ascending; a test oracle only."""
    return np.linalg.eigvalsh(adjacency_matrix(n, k))


def spectral_lower_bound(n: int, k: int, s: int) -> Fraction:
    """Exact rational lower bound on the edges induced by any s vertices.

    The regular-graph bound e(S) >= (s/2)(d s/N + lam_min (1 - s/N)),
    clamped at 0.  For n < 2k the graph has no edges and the bound is 0.
    """
    N = binom(n, k)
    if not 0 <= s <= N:
        raise RangeError(f"s={s} outside [0, {N}]")
    if n < 2 * k:
        return Fraction(0)
    d = binom(n - k, k)
    lam_min = spectrum(n, k).lam_min
    val = Fraction(s, 2) * (Fraction(d * s, N) + lam_min * (1 - Fraction(s, N)))
    return max(Fraction(0), val)


def bipartite_part_value(n: int, k: int, f: SetFamily) -> int:
    """Edges from f to its complement: s*d - 2*(induced edges)."""
    if (f.n, f.k) != (n, k):
        raise RangeError(f"family context (n={f.n}, k={f.k}) does not match (n={n}, k={k})")
    s = len(f)
    d = binom(n - k, k)
    return s * d - 2 * disjoint_pairs(f).value


def export_edge_list(g: KneserGraph, out: IO[str]) -> int:
    """Write 'u v' per edge (lex ranks, u < v); returns the edge count."""
    count = 0
    for u, v in g.edges():
        out.write(f"{u} {v}\n")
        count += 1
    return count
