"""Exact machinery for k-element subsets of {1, ..., n} and families of them.

A k-set is a bitmask: bit i-1 holds element i, so {1, ..., k} is the mask
with the k lowest bits set.  Python integers are arbitrary width, which keeps
every operation exact; ground sets are capped at n <= 128 as a sanity bound,
not an arithmetic one.

The order used throughout is lexicographic on the sorted element tuples:
A < B  iff  min(A symm-diff B) lies in A.  Families are kept sorted in this
order and duplicate-free, so equality, ranking and work partitions are
deterministic.  Colexicographic order (A < B iff max(A symm-diff B) in B)
appears only as a test aid; on bitmasks it coincides with numeric order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable, Iterator, Sequence

MAX_GROUND_SET = 128


class ContextError(ValueError):
    """Two objects live on different ground sets or uniformities."""


class RangeError(ValueError):
    """A parameter is outside its documented range."""


class ShapeError(ValueError):
    """A center or cover has the wrong cardinality."""


class NotACoverError(ValueError):
    """A claimed cover misses at least one member; carries a witness."""

    def __init__(self, message: str, witness: "KSet"):
        super().__init__(message)
        self.witness = witness


class FamilyFormatError(ValueError):
    """A family file is malformed; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _mask_elements(mask: int) -> tuple[int, ...]:
    """Decode a bitmask into its ascending 1-based element tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _elements_mask(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << (e - 1)
    return mask


@dataclass(frozen=True)
class KSet:
    """A k-element subset of {1, ..., n}, stored as a bitmask."""

    n: int
    k: int
    mask: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n <= MAX_GROUND_SET:
            raise RangeError(f"need 1 <= k <= n <= {MAX_GROUND_SET}, got n={self.n} k={self.k}")
        if self.mask < 0 or self.mask >> self.n:
            raise RangeError(f"mask {self.mask:#x} has elements outside [{self.n}]")
        if self.mask.bit_count() != self.k:
            raise RangeError(f"mask has {self.mask.bit_count()} elements, expected {self.k}")

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "KSet":
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise RangeError(f"repeated element in {elems}")
        for e in elems:
            if not 1 <= e <= n:
                raise RangeError(f"element {e} outside ground set [{n}]")
        return cls(n, len(elems), _elements_mask(elems))

    @property
    def elements(self) -> tuple[int, ...]:
        return _mask_elements(self.mask)

    def _check_context(self, other: "KSet") -> None:
        if self.n != other.n or self.k != other.k:
            raise ContextError(
                f"mixed contexts: (n={self.n}, k={self.k}) vs (n={other.n}, k={other.k})"
            )

    def __lt__(self, other: "KSet") -> bool:
        self._check_context(other)
        return lex_compare_masks(self.mask, other.mask) < 0

    def __le__(self, other: "KSet") -> bool:
        self._check_context(other)
        return lex_compare_masks(self.mask, other.mask) <= 0

    def __gt__(self, other: "KSet") -> bool:
        return not self.__le__(other)

    def __ge__(self, other: "KSet") -> bool:
        return not self.__lt__(other)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


def lex_compare_masks(a: int, b: int) -> int:
    """-1, 0 or +1 ordering two equal-size masks by min of the symmetric difference."""
    d = a ^ b
    if d == 0:
        return 0
    return -1 if a & (d & -d) else 1


def lex_compare(a: KSet, b: KSet) -> int:
    """Lexicographic three-way comparison; context mismatch is an error."""
    a._check_context(b)
    return lex_compare_masks(a.mask, b.mask)


def lex_rank(ks: KSet) -> int:
    """0-based position of ``ks`` in the lex order on all k-subsets of [n]."""
    n, k = ks.n, ks.k
    rank = 0
    prev = 0
    for i, e in enumerate(ks.elements):
        # sets agreeing so far whose next element is some skipped value v < e
        for v in range(prev + 1, e):
            rank += binom(n - v, k - i - 1)
        prev = e
    return rank


def lex_unrank(n: int, k: int, rank: int) -> KSet:
    """Inverse of lex_rank."""
    total = binom(n, k)
    if not 0 <= rank < total:
        raise RangeError(f"rank {rank} outside [0, {total})")
    elements = []
    v = 1
    for i in range(k):
        while True:
            below = binom(n - v, k - i - 1)
            if rank < below:
                break
            rank -= below
            v += 1
        elements.append(v)
        v += 1
    return KSet.from_elements(n, elements)


def colex_key(mask: int) -> int:
    """Sort key realizing colex order; on bitmasks that is plain numeric order."""
    return mask


class SetFamily:
    """A duplicate-free family of k-subsets of [n], sorted in lex order."""

    __slots__ = ("n", "k", "masks", "__dict__")

    def __init__(self, n: int, k: int, masks: Iterable[int]):
        if not 1 <= k <= n <= MAX_GROUND_SET:
            raise RangeError(f"need 1 <= k <= n <= {MAX_GROUND_SET}, got n={n} k={k}")
        seen = set()
        clean = []
        for m in masks:
            if m in seen:
                continue
            if m < 0 or m >> n or m.bit_count() != k:
                raise RangeError(f"mask {m:#x} is not a {k}-subset of [{n}]")
            seen.add(m)
            clean.append(m)
        self.n, self.k, self.masks = n, k, tuple(sorted(clean, key=_mask_elements))

    @classmethod
    def _from_checked(cls, n: int, k: int, masks: list[int]) -> "SetFamily":
        """A family from distinct masks its caller has already checked to be
        k-subsets of [n], with 1 <= k <= n <= MAX_GROUND_SET."""
        fam = cls.__new__(cls)
        fam.n, fam.k, fam.masks = n, k, tuple(sorted(masks, key=_mask_elements))
        return fam

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(n, k, (_elements_mask(s) for s in sets))

    @classmethod
    def empty(cls, n: int, k: int) -> "SetFamily":
        return cls(n, k, ())

    @classmethod
    def full(cls, n: int, k: int) -> "SetFamily":
        return cls(n, k, all_kset_masks(n, k))

    @cached_property
    def members(self) -> tuple[KSet, ...]:
        return tuple(KSet(self.n, self.k, m) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[KSet]:
        return iter(self.members)

    def __contains__(self, item) -> bool:
        if isinstance(item, KSet):
            if item.n != self.n or item.k != self.k:
                raise ContextError("membership test across different contexts")
            return item.mask in self._mask_set
        return item in self._mask_set

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        return frozenset(self.masks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return (self.n, self.k, self.masks) == (other.n, other.k, other.masks)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.masks))

    def __repr__(self) -> str:
        shown = ", ".join(str(m) for m in islice(self.members, 6))
        more = "" if len(self) <= 6 else f", ... ({len(self)} sets)"
        return f"SetFamily(n={self.n}, k={self.k}, {{{shown}{more}}})"

    def check_context(self, other: "SetFamily") -> None:
        if self.n != other.n or self.k != other.k:
            raise ContextError(
                f"mixed contexts: (n={self.n}, k={self.k}) vs (n={other.n}, k={other.k})"
            )

    def to_text(self) -> str:
        lines = [f"n={self.n} k={self.k}"]
        lines.extend(",".join(map(str, _mask_elements(m))) for m in self.masks)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SetFamily":
        lines = text.splitlines()
        header_at = None
        for idx, raw in enumerate(lines):
            if raw.strip():
                header_at = idx
                break
        if header_at is None:
            raise FamilyFormatError("empty input, expected a 'n=<n> k=<k>' header")
        header = lines[header_at].strip()
        parts = header.split()
        if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("k="):
            raise FamilyFormatError(f"bad header {header!r}, expected 'n=<n> k=<k>'", header_at + 1)
        try:
            n = int(parts[0][2:])
            k = int(parts[1][2:])
        except ValueError:
            raise FamilyFormatError(f"non-integer n or k in header {header!r}", header_at + 1) from None
        if not 1 <= k <= n <= MAX_GROUND_SET:
            raise FamilyFormatError(f"need 1 <= k <= n <= {MAX_GROUND_SET} in header", header_at + 1)
        masks = []
        seen = set()
        for idx in range(header_at + 1, len(lines)):
            raw = lines[idx].strip()
            if not raw:
                continue
            try:
                elems = [int(tok) for tok in raw.split(",")]
            except ValueError:
                raise FamilyFormatError(f"non-integer element in {raw!r}", idx + 1) from None
            if len(elems) != k:
                raise FamilyFormatError(f"set {raw!r} has {len(elems)} elements, expected {k}", idx + 1)
            if any(not 1 <= e <= n for e in elems):
                raise FamilyFormatError(f"element outside [{n}] in {raw!r}", idx + 1)
            if sorted(elems) != elems:
                raise FamilyFormatError(f"elements not ascending in {raw!r}", idx + 1)
            if len(set(elems)) != k:
                raise FamilyFormatError(f"repeated element in {raw!r}", idx + 1)
            m = _elements_mask(elems)
            if m in seen:
                raise FamilyFormatError(f"duplicate set {raw!r}", idx + 1)
            seen.add(m)
            masks.append(m)
        return cls._from_checked(n, k, masks)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "sets": [list(_mask_elements(m)) for m in self.masks],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SetFamily":
        if not isinstance(obj, dict) or not {"n", "k", "sets"} <= set(obj):
            raise FamilyFormatError("expected an object with keys n, k, sets")
        n, k, sets = obj["n"], obj["k"], obj["sets"]
        if not (isinstance(n, int) and isinstance(k, int)):
            raise FamilyFormatError("n and k must be integers")
        if not 1 <= k <= n <= MAX_GROUND_SET:
            raise FamilyFormatError(f"need 1 <= k <= n <= {MAX_GROUND_SET}")
        masks = []
        seen = set()
        for i, s in enumerate(sets):
            elems = list(s)
            if len(elems) != k or len(set(elems)) != k:
                raise FamilyFormatError(f"sets[{i}] is not a {k}-set: {s!r}")
            if any(not (isinstance(e, int) and 1 <= e <= n) for e in elems):
                raise FamilyFormatError(f"sets[{i}] has an element outside [{n}]: {s!r}")
            m = _elements_mask(elems)
            if m in seen:
                raise FamilyFormatError(f"sets[{i}] duplicates an earlier set: {s!r}")
            seen.add(m)
            masks.append(m)
        return cls._from_checked(n, k, masks)


def all_kset_masks(n: int, k: int) -> Iterator[int]:
    """All k-subset masks of [n] in lex order (combinations emits exactly that)."""
    for combo in combinations(range(1, n + 1), k):
        yield _elements_mask(combo)


def lex_segment(n: int, k: int, s: int) -> SetFamily:
    """The s lexicographically smallest k-subsets of [n]."""
    if not 0 <= s <= binom(n, k):
        raise RangeError(f"s={s} outside [0, {binom(n, k)}]")
    return SetFamily(n, k, islice(all_kset_masks(n, k), s))


def ell_ball(n: int, k: int, r: int, ell: int) -> SetFamily:
    """All k-sets meeting {1, ..., r} in at least ell elements.

    For ell = 1 this is the union of the first r full 1-stars; the family
    interpolates between that and the r-clique-style system at ell = k.
    """
    if not (1 <= ell <= min(r, k) and r <= n):
        raise RangeError(f"need 1 <= ell <= min(r, k) and r <= n, got r={r} ell={ell}")
    head = (1 << r) - 1
    return SetFamily(
        n, k, (m for m in all_kset_masks(n, k) if (m & head).bit_count() >= ell)
    )


def t_star_union(n: int, k: int, centers: Sequence[Iterable[int]]) -> SetFamily:
    """Union of the full t-stars with the given t-set centers.

    Every center must have the same size t with 1 <= t < k; centers must be
    distinct.  The result is every k-set containing at least one center.
    """
    center_masks = []
    t = None
    for c in centers:
        elems = tuple(c)
        if t is None:
            t = len(elems)
            if not 1 <= t < k:
                raise ShapeError(f"center size must satisfy 1 <= t < k, got t={t} k={k}")
        elif len(elems) != t:
            raise ShapeError(f"center {elems} has size {len(elems)}, expected {t}")
        if len(set(elems)) != len(elems) or any(not 1 <= e <= n for e in elems):
            raise ShapeError(f"center {elems} is not a subset of [{n}]")
        m = _elements_mask(elems)
        if m in center_masks:
            raise ShapeError(f"duplicate center {elems}")
        center_masks.append(m)
    if not center_masks:
        raise ShapeError("need at least one center")
    masks = set()
    rest = list(range(1, n + 1))
    for cm in center_masks:
        others = [e for e in rest if not cm & (1 << (e - 1))]
        for combo in combinations(others, k - t):
            masks.add(cm | _elements_mask(combo))
    return SetFamily(n, k, masks)


def complement_family(f: SetFamily) -> SetFamily:
    """All k-subsets of [n] not in f."""
    present = f._mask_set
    return SetFamily(f.n, f.k, (m for m in all_kset_masks(f.n, f.k) if m not in present))


def random_family(n: int, k: int, s: int, rng) -> SetFamily:
    """Uniformly random family of s distinct k-sets, via rank sampling."""
    total = binom(n, k)
    if not 0 <= s <= total:
        raise RangeError(f"s={s} outside [0, {total}]")
    ranks = rng.sample(range(total), s)
    return SetFamily(n, k, (lex_unrank(n, k, r).mask for r in ranks))


def derive_r(n: int, k: int, s: int, t: int = 1) -> int | None:
    """Index r of the lex slice containing the s-th set.

    r satisfies  B(r-1) < s <= B(r)  where B(r) = C(n-t+1, k-t+1) -
    C(n-t-r+1, k-t+1) is the size of the union of the first r full t-stars
    sharing the core {1, ..., t-1}.  By convention r = 0 for s = 0.  For
    t > 1 sizes beyond the block of sets containing {1, ..., t-1} have no
    slice index; None is returned.
    """
    if s < 0:
        raise RangeError(f"s={s} is negative")
    if s == 0:
        return 0
    block = binom(n - t + 1, k - t + 1)
    if s > block:
        if t == 1:
            raise RangeError(f"s={s} exceeds C({n},{k})")
        return None
    r = 1
    while s > block - binom(n - t - r + 1, k - t + 1):
        r += 1
    return r


@dataclass(frozen=True)
class Params:
    """Problem parameters (n, k, s) plus the thresholds t, q and star budget ell.

    r is derived on construction: the slice index of the last lex set, or 0
    for the empty family, or None when t > 1 and s exceeds the block of sets
    containing the common core.
    """

    n: int
    k: int
    s: int
    t: int = 1
    q: int = 2
    ell: int | None = None
    r: int | None = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n <= MAX_GROUND_SET:
            raise RangeError(f"need 1 <= k <= n <= {MAX_GROUND_SET}")
        if not 0 <= self.s <= binom(self.n, self.k):
            raise RangeError(f"s={self.s} outside [0, {binom(self.n, self.k)}]")
        if self.t < 1 or (self.t > 1 and self.t >= self.k):
            raise RangeError(f"need t=1 or 1 < t < k, got t={self.t} k={self.k}")
        if self.q < 1:
            raise RangeError(f"need q >= 1, got q={self.q}")
        if self.ell is not None and not 1 <= self.ell <= self.n:
            raise RangeError(f"need 1 <= ell <= n, got ell={self.ell}")
        object.__setattr__(self, "r", derive_r(self.n, self.k, self.s, self.t))

    @property
    def ell_effective(self) -> int:
        """The star budget: ell when given, else the derived r (1 for s = 0)."""
        if self.ell is not None:
            return self.ell
        return max(self.r or 1, 1)
