"""Reference values for the benchmark's output checks, computed without setfam.

Nothing here imports the package.  Small families are frozensets of 1-based
elements; the large families of the `large-families` workload are 0/1 numpy
rows.  Agreement between these values and the package's outputs is therefore
evidence, not a tautology.  The one shared convention is the documented
bitmask encoding of a k-set (bit i-1 holds element i), which `decode` reads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

# rows of the intersection matrix built at a time, to keep check memory small
_BLOCK = 256


def decode(mask: int) -> frozenset:
    """Elements of a bitmask k-set: bit i-1 holds element i."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return frozenset(out)


def ksets(n: int, k: int) -> list[frozenset]:
    """All k-subsets of [n] in lex order of their sorted tuples."""
    return [frozenset(c) for c in combinations(range(1, n + 1), k)]


def is_family(sets, n: int, k: int, s: int) -> bool:
    """True when ``sets`` holds exactly s distinct k-subsets of [n]."""
    ground = frozenset(range(1, n + 1))
    return len(sets) == s and len(set(sets)) == s and all(len(a) == k and a <= ground for a in sets)


def pair_profile(sets, t: int) -> tuple[int, int, list[int]]:
    """(disjoint pairs, pairs meeting in < t, per-member count meeting in >= t).

    The per-member count includes the member itself, the convention of
    t_intersecting_with(include_self=True).
    """
    s = len(sets)
    disj = below = 0
    meet = [1] * s
    for i in range(s):
        a = sets[i]
        for j in range(i + 1, s):
            m = len(a & sets[j])
            if m == 0:
                disj += 1
            if m < t:
                below += 1
            else:
                meet[i] += 1
                meet[j] += 1
    return disj, below, meet


def q_matchings(sets, q: int) -> int:
    """Pairwise-disjoint q-subfamilies, by depth-first search over the list."""
    sets = list(sets)

    def rec(start: int, used: frozenset, need: int) -> int:
        if need == 0:
            return 1
        return sum(
            rec(i + 1, used | sets[i], need - 1)
            for i in range(start, len(sets) - need + 1)
            if not used & sets[i]
        )

    return rec(0, frozenset(), q)


def statistic(sets, stat: str, t: int = 1, q: int = 2) -> int:
    """One of the three searched statistics, counted directly."""
    if stat == "disjoint_pairs":
        return pair_profile(sets, 1)[0]
    if stat == "t_disjoint_pairs":
        return pair_profile(sets, t)[1]
    if stat == "q_matchings":
        return q_matchings(sets, q)
    raise ValueError(f"unknown statistic {stat!r}")


@lru_cache(maxsize=None)
def lex_value(n: int, k: int, s: int, stat: str, t: int = 1, q: int = 2) -> int:
    """The statistic on the s lexicographically first k-subsets of [n]."""
    return statistic(ksets(n, k)[:s], stat, t, q)


def lex_disjoint_counts(n: int, k: int) -> list[int]:
    """Disjoint pairs of every lex segment, s = 0 .. C(n, k), by a running count."""
    sets = ksets(n, k)
    out = [0]
    for s in range(1, len(sets) + 1):
        new = sets[s - 1]
        out.append(out[-1] + sum(1 for a in sets[: s - 1] if not a & new))
    return out


@lru_cache(maxsize=None)
def kneser_eigenvalues(n: int, k: int) -> tuple[float, ...]:
    """Eigenvalues of the disjointness graph on k-subsets of [n], numerically."""
    sets = ksets(n, k)
    adj = np.array([[0.0 if a & b else 1.0 for b in sets] for a in sets])
    return tuple(float(x) for x in np.linalg.eigvalsh(adj))


def spectral_bound(n: int, k: int, s: int) -> float:
    """The eigenvalue lower bound on edges induced by s vertices of a regular graph.

    e(S) >= (s/2)(d s/N + lam_min (1 - s/N)), clamped at 0, with lam_min taken
    from a numerical diagonalization rather than the closed-form spectrum.
    """
    N = comb(n, k)
    if n < 2 * k or s == 0:
        return 0.0
    d = comb(n - k, k)
    lam = min(kneser_eigenvalues(n, k))
    return max(0.0, s / 2 * (d * s / N + lam * (1 - s / N)))


def star_union_sizes(n: int, k: int, t: int, r: int) -> list[int]:
    """Union size of the full t-stars for every r-tuple of t-set centers."""
    sets = ksets(n, k)
    stars = [frozenset(i for i, a in enumerate(sets) if frozenset(c) <= a) for c in combinations(range(1, n + 1), t)]
    return [len(frozenset().union(*tup)) for tup in combinations(stars, r)]


def slice_index(n: int, k: int, s: int) -> int:
    """Least r with s <= C(n,k) - C(n-r,k): the lex slice holding the s-th set."""
    r = 0
    while s > comb(n, k) - comb(n - r, k):
        r += 1
    return r


def full_family_pairs(n: int, k: int, t: int) -> int:
    """Unordered pairs of k-subsets of [n] meeting in fewer than t elements."""
    partners = sum(comb(k, i) * comb(n - k, k - i) for i in range(t))
    return comb(n, k) * partners // 2


def incidence(sets, n: int) -> np.ndarray:
    """0/1 membership matrix, one row per set, one column per element."""
    rows = np.zeros((len(sets), n), dtype=np.int32)
    for i, a in enumerate(sets):
        rows[i, [e - 1 for e in a]] = 1
    return rows


def dense_profile(rows: np.ndarray, t: int) -> dict:
    """Pair counts of a large family from its incidence matrix, in row blocks.

    Returns the disjoint pairs, the pairs meeting in fewer than t elements,
    and the disjoint pairs with a later member for each row (the *_by_first
    partition).
    """
    s = rows.shape[0]
    disj = below = 0
    by_first = np.zeros(s, dtype=np.int64)
    for lo in range(0, s, _BLOCK):
        meet = rows[lo : lo + _BLOCK] @ rows.T
        later = np.arange(s)[None, :] > np.arange(lo, lo + meet.shape[0])[:, None]
        zero = (meet == 0) & later
        by_first[lo : lo + meet.shape[0]] = zero.sum(axis=1)
        disj += int(zero.sum())
        below += int(((meet < t) & later).sum())
    return {"disjoint": disj, "below_t": below, "by_first": tuple(int(x) for x in by_first)}


def spectrum_consistent(n: int, k: int, pairs) -> bool:
    """(eigenvalue, multiplicity) pairs match a numerical diagonalization."""
    listed = sorted(lam for lam, mult in pairs for _ in range(mult))
    numeric = kneser_eigenvalues(n, k)
    return len(listed) == len(numeric) and all(abs(a - b) < 1e-6 for a, b in zip(listed, numeric))
