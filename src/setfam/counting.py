"""Exact disjointness statistics of k-uniform families.

Every pair statistic asks which pairs of members meet in fewer than t
elements (t = 1 is plain disjointness), and one private kernel answers it
for the counts here, the search's adjacency rows and the Kneser view.  Small
families scan their pairs.  From a crossover size on (_bitset_pays) the
kernel keeps one bitset per element, holding the indices of the members
that contain it.  The members meeting A in at least t elements are the OR
of A's k element bitsets for t = 1, and a saturating bit-sliced counter over
them for t > 1: O(k*t) big-int operations per member, not s mask tests.
A's t-disjoint partners are the rest, and A is never its own partner, since
it meets itself in k >= t elements.  q-matchings are counted by lex-order
DFS with a remaining-capacity prune.  Counts are exact Python integers.

Pair counters and the matching DFS partition deterministically by the rank
of the first (lex-least) involved member; the *_by_first variants expose
that partition so callers can spread blocks over workers and sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .core import (
    KSet,
    NotACoverError,
    Params,
    RangeError,
    SetFamily,
    ShapeError,
    _elements_mask,
    _mask_elements,
    binom,
    complement_family,
)

# statistic names used by reports, the search module and the CLI
DISJOINT_PAIRS = "disjoint_pairs"
T_DISJOINT_PAIRS = "t_disjoint_pairs"
T_INTERSECTING_PAIRS = "t_intersecting_pairs"
Q_MATCHINGS = "q_matchings"

STATISTICS = (DISJOINT_PAIRS, T_DISJOINT_PAIRS, Q_MATCHINGS)


@dataclass(frozen=True)
class CountReport:
    """An exact count together with how it was obtained."""

    statistic: str
    value: int
    method: str
    params: Params

    def __post_init__(self):
        if self.value < 0:
            raise RangeError(f"negative count {self.value}")
        s = self.params.s
        if self.statistic in (DISJOINT_PAIRS, T_DISJOINT_PAIRS, T_INTERSECTING_PAIRS):
            if self.value > binom(s, 2):
                raise RangeError(f"pair count {self.value} exceeds C({s},2)")
        elif self.statistic == Q_MATCHINGS:
            if self.value > binom(s, self.params.q):
                raise RangeError(f"matching count {self.value} exceeds C({s},{self.params.q})")

    def to_json_obj(self) -> dict:
        return {
            "statistic": self.statistic,
            "value": str(self.value),
            "method": self.method,
            "n": self.params.n,
            "k": self.params.k,
            "s": self.params.s,
            "t": self.params.t,
            "q": self.params.q,
        }


def _pair_report(f: SetFamily, statistic: str, value: int, t: int = 1, q: int = 2) -> CountReport:
    params = Params(f.n, f.k, len(f), t=t, q=q)
    return CountReport(statistic, value, "direct", params)


def _bitset_pays(s: int, t: int) -> bool:
    """Whether the bitset kernel beats the pair loop on s members.

    The loop makes s^2/2 mask tests, the kernel about s*k*t big-int
    operations.  Pair counts, loop / kernel in us per random family (CPython
    3.11, 2-core Xeon VM): t = 1 at (20,4), s = 48 101/124, 64 196/182, 96
    481/313; t = 2 at (16,5), s = 64 214/272, 96 498/355; t = 3 at (12,5),
    s = 96 483/509, 128 841/644.  Rows cost the loop more (t = 2, s = 48:
    194/166), so the rule errs towards the loop there.
    """
    return s >= 32 * (t + 1)


def _incidence(masks: Sequence[int], n: int) -> list[int]:
    """bits[e] = index bitset of the members containing element e + 1.

    Written as binary digit strings, last member first, so the cost stays
    linear in the family size (OR-ing in 1 << i would make it quadratic)."""
    s = len(masks)
    digits = [bytearray(b"0" * (s + 1)) for _ in range(n)]
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            digits[low.bit_length() - 1][s - i] = 49  # ord("1")
            m ^= low
    return [int(d, 2) for d in digits]


def _meeting(bits: Sequence[int], mask: int, t: int) -> int:
    """Index bitset of the members meeting ``mask`` in at least t elements;
    levels[j] holds the members met by more than j of mask's elements so far."""
    levels = [0] * t
    down = range(t - 1, 0, -1)
    while mask:
        low = mask & -mask
        mask ^= low
        b = bits[low.bit_length() - 1]
        for j in down:
            levels[j] |= levels[j - 1] & b
        levels[0] |= b
    return levels[-1]


def _partner_counter(pool: Sequence[int], n: int, t: int) -> Callable[[int], int]:
    """mask -> how many members of pool meet it in fewer than t elements.

    A query costs a scan of pool or about k*t bitset operations, so bitsets
    pay from a quarter of the pair crossover: per query at (9,4), loop /
    bitsets, 4.6 / 2.9 us over 36 members at t = 2, 2.4 / 3.0 us over 11 at
    t = 3."""
    if not _bitset_pays(4 * len(pool), t):
        return lambda mask: sum(1 for m in pool if (mask & m).bit_count() < t)
    bits, size = _incidence(pool, n), len(pool)
    return lambda mask: size - _meeting(bits, mask, t).bit_count()


def _t_disjoint_count(masks: Sequence[int], n: int, t: int) -> int:
    """Unordered pairs of masks meeting in fewer than t elements."""
    s = len(masks)
    if not _bitset_pays(s, t):
        count = 0
        for a, b in combinations(masks, 2):
            if (a & b).bit_count() < t:
                count += 1
        return count
    bits = _incidence(masks, n)
    # s - |meeting set| partners per member, each pair counted from both ends
    return (s * s - sum(_meeting(bits, m, t).bit_count() for m in masks)) // 2


def _t_disjoint_rows(masks: Sequence[int], n: int, t: int) -> list[int]:
    """rows[i] = index bitset of the members meeting masks[i] in fewer than t elements."""
    s = len(masks)
    if not _bitset_pays(s, t):
        # t = 1 skips the popcount: every certificate builds small rows
        rows = [0] * s
        for i, a in enumerate(masks):
            if t == 1:
                for j in range(i + 1, s):
                    if not a & masks[j]:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            else:
                for j in range(i + 1, s):
                    if (a & masks[j]).bit_count() < t:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
        return rows
    bits, full = _incidence(masks, n), (1 << s) - 1
    return [full ^ _meeting(bits, m, t) for m in masks]


def _by_first(rows: Sequence[int]) -> tuple[int, ...]:
    return tuple((row >> (i + 1)).bit_count() for i, row in enumerate(rows))


def disjoint_pairs(f: SetFamily) -> CountReport:
    """Number of unordered pairs {F, G} in f with F and G disjoint."""
    return _pair_report(f, DISJOINT_PAIRS, _t_disjoint_count(f.masks, f.n, 1))


def disjoint_pairs_by_first(f: SetFamily) -> tuple[int, ...]:
    """Per-member partition of disjoint_pairs by the lex-smaller index."""
    return _by_first(_t_disjoint_rows(f.masks, f.n, 1))


def cross_disjoint_pairs(f: SetFamily, g: SetFamily) -> int:
    """Ordered disjoint pairs (F, G) with F in f and G in g.

    f and g may overlap; when f == g this is twice the unordered count,
    since no k-set is disjoint from itself.
    """
    f.check_context(g)
    # the count is symmetric: bitsets (or the scan) over the larger family,
    # one query per member of the smaller
    pool, queries = (g.masks, f.masks) if len(g) >= len(f) else (f.masks, g.masks)
    if not queries:
        return 0
    return sum(map(_partner_counter(pool, f.n, 1), queries))


def t_disjoint_pairs(f: SetFamily, t: int) -> CountReport:
    """Unordered pairs meeting in fewer than t elements."""
    _check_t(f, t)
    return _pair_report(f, T_DISJOINT_PAIRS, _t_disjoint_count(f.masks, f.n, t), t=t)


def t_disjoint_pairs_by_first(f: SetFamily, t: int) -> tuple[int, ...]:
    """Per-member partition of t_disjoint_pairs by the lex-smaller index."""
    _check_t(f, t)
    return _by_first(_t_disjoint_rows(f.masks, f.n, t))


def t_intersecting_pairs(f: SetFamily, t: int) -> CountReport:
    """Unordered pairs of distinct sets meeting in at least t elements."""
    _check_t(f, t)
    s = len(f)
    value = s * (s - 1) // 2 - _t_disjoint_count(f.masks, f.n, t)
    return _pair_report(f, T_INTERSECTING_PAIRS, value, t=t)


def statistic_report(f: SetFamily, statistic: str, t: int = 1, q: int = 2) -> CountReport:
    """One of the three statistics; t-disjointness with t = 1 is plain disjointness."""
    if statistic == DISJOINT_PAIRS or (statistic == T_DISJOINT_PAIRS and t == 1):
        return disjoint_pairs(f)
    if statistic == T_DISJOINT_PAIRS:
        return t_disjoint_pairs(f, t)
    if statistic == Q_MATCHINGS:
        return q_matchings(f, q)
    raise RangeError(f"unknown statistic {statistic!r}")


def t_intersecting_with(f: SetFamily, target: KSet, t: int, include_self: bool = True) -> int:
    """How many members of f meet ``target`` in at least t elements.

    With include_self=True (the default) the target counts itself when it is
    a member, matching the convention under which summing over all members
    gives twice the distinct t-intersecting pairs plus the family size.
    """
    _check_t(f, t)
    if target.n != f.n or target.k != f.k:
        raise RangeError(f"target context (n={target.n}, k={target.k}) does not match family")
    tm = target.mask
    count = 0
    for m in f.masks:
        if (m & tm).bit_count() >= t:
            if m == tm and not include_self:
                continue
            count += 1
    return count


def _check_t(f: SetFamily, t: int) -> None:
    if not 1 <= t < f.k:
        raise RangeError(f"need 1 <= t < k, got t={t} k={f.k}")


def _count_matchings(masks: Sequence[int], q: int, n: int, k: int) -> int:
    """Pairwise-disjoint q-subsets of the given masks, DFS in list order."""
    if q == 0:
        return 1
    s = len(masks)
    count = 0

    def rec(start: int, used: int, need: int) -> None:
        nonlocal count
        if n - used.bit_count() < k * need:
            return
        last = s - need
        if need == 1:
            for i in range(start, s):
                if not masks[i] & used:
                    count += 1
            return
        for i in range(start, last + 1):
            m = masks[i]
            if not m & used:
                rec(i + 1, used | m, need - 1)

    rec(0, 0, q)
    return count


def q_matchings(f: SetFamily, q: int) -> CountReport:
    """Number of q-element subfamilies of f that are pairwise disjoint."""
    if q < 1:
        raise RangeError(f"need q >= 1, got q={q}")
    value = _count_matchings(f.masks, q, f.n, f.k)
    params = Params(f.n, f.k, len(f), q=q)
    return CountReport(Q_MATCHINGS, value, "direct", params)


def q_matchings_by_first(f: SetFamily, q: int) -> tuple[int, ...]:
    """Per-member partition of q_matchings by the lex-least matched index."""
    if q < 1:
        raise RangeError(f"need q >= 1, got q={q}")
    masks = f.masks
    out = []
    for i, mi in enumerate(masks):
        # matchings whose lex-least member is i: choose q-1 more from later sets
        out.append(_count_matchings([m for m in masks[i + 1 :] if not m & mi], q - 1, f.n - f.k, f.k))
    return tuple(out)


def matchings_meeting(f: SetFamily, target: KSet, j: int, include_target: bool = False) -> int:
    """j-matchings in f whose union meets ``target``.

    By default matchings are drawn from f minus the target itself; with
    include_target=True the target may appear as one of the j sets (any
    matching containing it trivially meets it).  Computed as all j-matchings
    minus those avoiding the target entirely.
    """
    if j < 1:
        raise RangeError(f"need j >= 1, got j={j}")
    if target.n != f.n or target.k != f.k:
        raise RangeError(f"target context (n={target.n}, k={target.k}) does not match family")
    tm = target.mask
    pool = list(f.masks) if include_target else [m for m in f.masks if m != tm]
    total = _count_matchings(pool, j, f.n, f.k)
    avoiding = _count_matchings([m for m in pool if not m & tm], j, f.n, f.k)
    return total - avoiding


@dataclass(frozen=True)
class DegreeProfile:
    """Element degrees of a family, optionally with all t-set degrees."""

    n: int
    k: int
    size: int
    element_degrees: tuple[int, ...]
    t: int | None = None
    t_degrees: dict | None = None

    def degree(self, e: int) -> int:
        if not 1 <= e <= self.n:
            raise RangeError(f"element {e} outside [{self.n}]")
        return self.element_degrees[e - 1]

    def t_degree(self, center: Iterable[int]) -> int:
        if self.t_degrees is None:
            raise RangeError("profile was built without t-set degrees")
        return self.t_degrees.get(tuple(sorted(center)), 0)

    def full_star_centers(self) -> tuple[int, ...]:
        """Elements whose full star is contained in the family."""
        cap = binom(self.n - 1, self.k - 1)
        return tuple(e for e in range(1, self.n + 1) if self.element_degrees[e - 1] == cap)


_T_DEGREE_MATERIALIZE_CAP = 10**6


def degree_profile(f: SetFamily, t: int | None = None) -> DegreeProfile:
    """Degrees of every element, and of every t-subset of [n] when t is given.

    The dense t-degree map lists all C(n, t) centers, zeros included; it is
    refused when C(n, t) exceeds 10^6.
    """
    degs = [bits.bit_count() for bits in _incidence(f.masks, f.n)]
    t_degrees = None
    if t is not None:
        if not 1 <= t <= f.k:
            raise RangeError(f"need 1 <= t <= k, got t={t} k={f.k}")
        if binom(f.n, t) > _T_DEGREE_MATERIALIZE_CAP:
            raise RangeError(f"C({f.n},{t}) t-degree map exceeds the {_T_DEGREE_MATERIALIZE_CAP} cap")
        t_degrees = {combo: 0 for combo in combinations(range(1, f.n + 1), t)}
        for m in f.masks:
            for combo in combinations(_mask_elements(m), t):
                t_degrees[combo] += 1
    return DegreeProfile(f.n, f.k, len(f), tuple(degs), t, t_degrees)


@dataclass(frozen=True)
class CoverWitness:
    """Outcome of a cover search: the cover found, or is_cover=False."""

    cover: tuple
    is_cover: bool
    t: int | None = None

    @property
    def size(self) -> int:
        return len(self.cover)


def find_min_cover(f: SetFamily, t: int | None = None, limit: int = 6) -> CoverWitness:
    """Smallest cover of f up to the size limit, lex-least among ties.

    With t=None a cover is a set of elements meeting every member; with t
    given it is a set of t-sets such that every member contains one of them.
    The empty family is covered by the empty cover.
    """
    if limit < 0:
        raise RangeError(f"need limit >= 0, got limit={limit}")
    if len(f) == 0:
        return CoverWitness((), True, t)
    if t is None:
        candidates = [e for e in range(1, f.n + 1)]
        cand_masks = [1 << (e - 1) for e in candidates]

        def covers(idx: tuple[int, ...]) -> bool:
            cm = 0
            for i in idx:
                cm |= cand_masks[i]
            return all(m & cm for m in f.masks)

    else:
        if not 1 <= t <= f.k:
            raise RangeError(f"need 1 <= t <= k, got t={t} k={f.k}")
        # only t-sets contained in some member can appear in a minimum cover
        useful = sorted({c for m in f.masks for c in combinations(_mask_elements(m), t)})
        candidates = useful
        cand_masks = [_elements_mask(c) for c in candidates]

        def covers(idx: tuple[int, ...]) -> bool:
            cms = [cand_masks[i] for i in idx]
            return all(any(m & cm == cm for cm in cms) for m in f.masks)

    for size in range(1, limit + 1):
        for idx in combinations(range(len(candidates)), size):
            if covers(idx):
                return CoverWitness(tuple(candidates[i] for i in idx), True, t)
    return CoverWitness((), False, t)


def partition_by_min_in_cover(f: SetFamily, cover: Sequence[int]) -> list[SetFamily]:
    """Split f into blocks by the first cover element each member contains.

    Blocks come back in cover order and concatenate to f.  A member containing
    no cover element makes the cover invalid and raises NotACoverError with
    that member as witness.
    """
    cover = list(cover)
    if len(set(cover)) != len(cover):
        raise ShapeError(f"repeated element in cover {cover}")
    for e in cover:
        if not 1 <= e <= f.n:
            raise ShapeError(f"cover element {e} outside [{f.n}]")
    cover_bits = [1 << (e - 1) for e in cover]
    blocks: list[list[int]] = [[] for _ in cover]
    for m in f.masks:
        for slot, bit in enumerate(cover_bits):
            if m & bit:
                blocks[slot].append(m)
                break
        else:
            raise NotACoverError(
                f"{cover} does not cover the family", KSet(f.n, f.k, m)
            )
    return [SetFamily(f.n, f.k, b) for b in blocks]


def is_intersecting(f: SetFamily) -> bool:
    """True when every two members share an element."""
    return _t_disjoint_count(f.masks, f.n, 1) == 0


@dataclass(frozen=True)
class StructureReport:
    """Which near-extremal structure class a family falls into.

    class (i): r-1 full stars plus an intersecting remainder.
    class (ii): a cover X of size r such that the missing sets meeting X
    form an intersecting system, each meeting X in exactly one element.
    """

    r: int
    class_i: bool
    star_centers: tuple[int, ...] | None
    class_ii: bool
    cover: tuple[int, ...] | None
    classification: str


def structure_check(f: SetFamily, r: int | None = None) -> StructureReport:
    """Classify f against the two structure classes at its slice index r.

    Witnesses are lex-least: the first (r-1)-tuple of full-star centers whose
    removal leaves an intersecting remainder, and the first size-r cover whose
    gap family passes.  classification is 'i', 'ii', 'both' or 'neither'.
    """
    if r is None:
        r = Params(f.n, f.k, len(f)).r
        if r is None:
            raise RangeError("no slice index for this family size")
    if r == 0:
        # empty family: zero stars plus a vacuously intersecting remainder
        return StructureReport(0, True, (), False, None, "i")
    # class (i): r-1 full stars, remainder intersecting
    class_i = False
    star_witness = None
    centers = degree_profile(f).full_star_centers()
    if r >= 1 and len(centers) >= r - 1:
        for choice in combinations(centers, r - 1):
            cm = _elements_mask(choice)
            rest = SetFamily(f.n, f.k, (m for m in f.masks if not m & cm))
            if is_intersecting(rest):
                class_i = True
                star_witness = choice
                break
    # class (ii): a size-r cover whose gap family is intersecting and
    # meets the cover in single elements
    class_ii = False
    cover_witness = None
    if r >= 1:
        missing = complement_family(f)
        for choice in combinations(range(1, f.n + 1), r):
            cm = _elements_mask(choice)
            if not all(m & cm for m in f.masks):
                continue
            gap = [m for m in missing.masks if m & cm]
            if all((m & cm).bit_count() == 1 for m in gap) and is_intersecting(
                SetFamily(f.n, f.k, gap)
            ):
                class_ii = True
                cover_witness = choice
                break
    if class_i and class_ii:
        classification = "both"
    elif class_i:
        classification = "i"
    elif class_ii:
        classification = "ii"
    else:
        classification = "neither"
    return StructureReport(r, class_i, star_witness, class_ii, cover_witness, classification)
