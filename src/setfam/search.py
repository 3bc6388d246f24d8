"""Certified minimization of disjointness statistics over all size-s families.

Families are enumerated as strictly increasing chains of lex ranks, so the
tree below a partial chain is exactly the set of families extending it.  Two
facts make pruning sound: every statistic here is monotone under adding sets
(a partial count never overstates a completion), and all three statistics
are invariant under relabeling the ground set, so the search may fix the
first chosen set to {1, ..., k}: any family maps under some relabeling to
one containing the overall lex-least k-set, and the lex-least minimizer
always contains it.

The search is seeded with the lex segment, so the reported minimum never
exceeds the lex value even on budget exhaustion, and the witness is the
lex-least minimizer: chains are visited in lex order and only strict
improvements replace the incumbent.  Exhaustive mode prunes nothing and
visits every chain.  Branch-and-bound adds the rules below; each leaves both
the minimum and the lex-least witness unchanged.

Partial count.  A chain whose partial count already reaches the incumbent is
dropped: completions add at least zero, so it can only tie.

Sum of the smallest increments (disjoint and t-disjoint pairs).  With
``need`` slots left after ranks below ``start``, the completion adds one
distinct candidate c >= start per slot, and c adds at least inc(c), the
pairs it forms with the current members: the members only grow, so its
increment when it is finally added is no smaller.  The completion therefore
adds at least the sum of the ``need`` smallest inc(c) over c in [start, N),
and a node whose partial count plus that sum reaches the incumbent is
dropped.  It is evaluated at nodes where one pair per remaining slot would
already reach the incumbent.  q-matchings keep only the partial-count rule.

Complement reduction (disjoint and t-disjoint pairs, 2s > N).  Both graphs
are d-regular (every k-set has d = sum_{i<t} C(k,i) C(n-k,k-i) partners), so
summing degrees over a family F and over its complement gives
e(F) = e(F^c) + d(2s - N)/2: F minimizes at size s exactly when F^c
minimizes at size N - s.  The search first certifies the minimum m' at size
N - s.  Among sets of one size, F is lex-least exactly when F^c is
lex-greatest, since the least rank in their symmetric difference decides
both comparisons.  A second search at size N - s therefore tries
candidates in descending order at every slot, drops chains whose value
exceeds m', and stops at its first leaf: the lex-greatest complement
minimizer, whose complement is the lex-least minimizer at size s.  When
m' + d(2s - N)/2 equals the lex value the lex segment, the least family of
all, is the witness and the second search is skipped.  On budget
exhaustion the better of the lex segment and the complement of the best
chain found comes back, with complete=False.  This path neither reads nor
writes a checkpoint.

Closed gap.  A search stops once its incumbent equals a proven lower bound:
0 for a minimum, m' for the witness search.  Chains not yet visited come
later in the visiting order and can at best tie, so the witness stands.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterable, Sequence

from .core import (
    Params,
    RangeError,
    SetFamily,
    _elements_mask,
    _mask_elements,
    all_kset_masks,
    binom,
    ell_ball,
    lex_segment,
    t_star_union,
)
from .counting import (
    DISJOINT_PAIRS,
    Q_MATCHINGS,
    T_DISJOINT_PAIRS,
    _incidence,
    _partner_counter,
    _t_disjoint_rows,
    statistic_report,
)

MODES = ("exhaustive", "branch_and_bound", "local_search")
DEFAULT_NODE_BUDGET = 10**8
_ENUMERATION_CAP = 4 * 10**6


def statistic_value(f: SetFamily, statistic: str, t: int = 1, q: int = 2) -> int:
    """Evaluate one of the three statistics on a family."""
    return statistic_report(f, statistic, t, q).value


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for certify_minimum and the local-search fallback."""

    mode: str = "branch_and_bound"
    symmetry_pruning: bool = True
    node_budget: int = DEFAULT_NODE_BUDGET
    seed: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise RangeError(f"unknown mode {self.mode!r}")
        if self.node_budget <= 0:
            raise RangeError(f"need node_budget > 0, got {self.node_budget}")


@dataclass(frozen=True)
class SearchCertificate:
    """Outcome of a minimization run; complete=True means fully certified.

    The witness is re-counted on construction, so a certificate that exists
    is sound: its minimum is achieved by its witness, never exceeds the lex
    value, and lex_optimal says whether they coincide.
    """

    params: Params
    statistic: str
    minimum: int
    witness: SetFamily
    lex_value: int
    lex_optimal: bool
    nodes_visited: int
    complete: bool

    def __post_init__(self):
        recount = statistic_value(self.witness, self.statistic, self.params.t, self.params.q)
        if recount != self.minimum:
            raise RangeError(f"witness recount {recount} does not match minimum {self.minimum}")
        if self.minimum > self.lex_value:
            raise RangeError(f"minimum {self.minimum} exceeds lex value {self.lex_value}")
        if self.lex_optimal != (self.minimum == self.lex_value):
            raise RangeError("lex_optimal flag contradicts the values")

    def to_json_obj(self) -> dict:
        return {
            "params": {
                "n": self.params.n,
                "k": self.params.k,
                "s": self.params.s,
                "t": self.params.t,
                "q": self.params.q,
                "r": self.params.r,
            },
            "statistic": self.statistic,
            "minimum": str(self.minimum),
            "witness": [list(_mask_elements(m)) for m in self.witness.masks],
            "lex_value": str(self.lex_value),
            "lex_optimal": self.lex_optimal,
            "nodes_visited": self.nodes_visited,
            "complete": self.complete,
        }


class _BudgetExhausted(Exception):
    pass


class _GapClosed(Exception):
    pass


def _pair_rows(masks: Sequence[int], n: int, statistic: str, t: int) -> list[int]:
    """rows[i] = index bitmask of the j whose pair with i counts as an edge.

    Edges are t-disjoint pairs for t-disjointness, else disjoint pairs (which
    matchings are built from).  Above the counting kernel's crossover N the
    rows cost O(N*k*t) big-int operations rather than N^2/2 pair tests.
    rows[i] never holds i: a set meets itself in k >= t elements.
    """
    return _t_disjoint_rows(masks, n, t if statistic == T_DISJOINT_PAIRS else 1)


def _matchings_in(index_bits: int, j: int, rows: Sequence[int]) -> int:
    """Pairwise-adjacent j-subsets inside an index set, via its least member."""
    if j == 0:
        return 1
    if j == 1:
        return index_bits.bit_count()
    total = 0
    S = index_bits
    while S:
        low = S & -S
        i = low.bit_length() - 1
        S ^= low
        sub = S & rows[i]
        if sub:
            total += _matchings_in(sub, j - 1, rows)
    return total


@dataclass
class _SearchState:
    best_value: int
    best_chain: tuple[int, ...]
    nodes: int
    last_first_rank: int


def _checkpoint_payload(params: Params, statistic: str, config: SearchConfig, state: _SearchState) -> dict:
    return {
        "n": params.n,
        "k": params.k,
        "s": params.s,
        "t": params.t,
        "q": params.q,
        "statistic": statistic,
        "mode": config.mode,
        "symmetry_pruning": config.symmetry_pruning,
        "last_first_rank": state.last_first_rank,
        "best_value": str(state.best_value),
        "best_chain": list(state.best_chain),
        "nodes": state.nodes,
    }


def _load_checkpoint(path: str, params: Params, statistic: str, config: SearchConfig) -> _SearchState | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        obj = json.load(fh)
    key = ("n", "k", "s", "t", "q", "statistic", "mode", "symmetry_pruning")
    want = (params.n, params.k, params.s, params.t, params.q, statistic, config.mode, config.symmetry_pruning)
    if tuple(obj.get(f) for f in key) != want:
        raise RangeError(f"checkpoint {path} was written for different parameters")
    return _SearchState(
        best_value=int(obj["best_value"]),
        best_chain=tuple(obj["best_chain"]),
        nodes=int(obj["nodes"]),
        last_first_rank=int(obj["last_first_rank"]),
    )


def _smallest_sum_reaches(vals: list[int], need: int, gap: int) -> bool:
    """Whether the ``need`` smallest entries of vals sum to at least gap.

    The entries are small non-negative counts, so they are taken level by
    level with list.count instead of a sort.  total + need * v is a lower
    bound on the sum at every step (the entries not yet taken are >= v); the
    first step is the cheap bound need * min(vals), and the loop ends as soon
    as the bound reaches gap or a level holds every entry still needed.
    """
    v = min(vals)
    total = 0
    while total + need * v < gap:
        c = vals.count(v)
        if c >= need:
            return False
        total += c * v
        need -= c
        v += 1
    return True


def _chain_search(rows: Sequence[int], statistic: str, q: int, prune: bool, budget: int):
    """A depth-first search over increasing rank chains, with the rules above.

    search(state, size, floor, first_ranks, descending, after_rank) walks the
    chains of ``size`` ranks whose first rank is in first_ranks, improving
    state.best_value/best_chain on strict improvements and charging every
    candidate tried to state.nodes.  It stops early once the incumbent is at
    most floor (pass -1 to disable), raises _BudgetExhausted when
    state.nodes passes budget, and calls after_rank(f0) after each fully
    explored first rank.  With descending=True every slot tries its
    candidates from the highest rank down.
    """
    N = len(rows)
    strong = prune and statistic != Q_MATCHINGS
    if statistic == Q_MATCHINGS:

        def inc(c: int, bits: int) -> int:
            return _matchings_in(rows[c] & bits, q - 1, rows)

    else:

        def inc(c: int, bits: int) -> int:
            return (rows[c] & bits).bit_count()

    def search(state, size, floor, first_ranks, descending=False, after_rank=None) -> None:
        best, best_chain, nodes = state.best_value, state.best_chain, state.nodes
        chosen: list[int] = []

        def rec(start: int, bits: int, cnt: int, need: int) -> None:
            nonlocal best, best_chain, nodes
            # as with the cheap bound it replaces, only where one pair per
            # remaining slot would reach the incumbent (ROADMAP item 3 has
            # the measured ungated variant)
            if strong and need >= 2 and cnt + need > best:
                vals = [(r & bits).bit_count() for r in rows[start:]]
                if _smallest_sum_reaches(vals, need, best - cnt):
                    return
            for c in range(N - need, start - 1, -1) if descending else range(start, N - need + 1):
                nodes += 1
                if nodes > budget:
                    raise _BudgetExhausted
                v = cnt + inc(c, bits)
                if prune and v >= best:
                    continue
                if need == 1:
                    if v < best:
                        best, best_chain = v, (*chosen, c)
                        if best <= floor:
                            raise _GapClosed
                else:
                    chosen.append(c)
                    rec(c + 1, bits | (1 << c), v, need - 1)
                    chosen.pop()

        def sync() -> None:
            state.best_value, state.best_chain, state.nodes = best, best_chain, nodes

        try:
            for f0 in first_ranks:
                if best <= floor:
                    return
                chosen = [f0]
                try:
                    rec(f0 + 1, 1 << f0, 0, size - 1)
                except _GapClosed:
                    pass
                if after_rank:
                    sync()
                    after_rank(f0)
        finally:
            sync()

    return search


def certify_minimum(params: Params, statistic: str, config: SearchConfig | None = None) -> SearchCertificate:
    """Minimum of the statistic over all families of size s, with certificate.

    Exhaustive and branch_and_bound modes certify (complete=True) unless the
    node budget runs out, in which case the best family found so far comes
    back with complete=False.  Every search phase draws on the one node
    budget, and nodes_visited is their total.  local_search mode descends
    from the lex segment and from seeded random restarts and never
    certifies.  The checkpoint file, when configured, records the last fully
    explored first-member rank and lets an interrupted run resume past it;
    budget accounting is cumulative across resumed runs.  The complement
    path of branch_and_bound (pair statistics with 2s > N) writes no
    checkpoint.
    """
    config = config or SearchConfig()
    n, k, s = params.n, params.k, params.s
    t, q = params.t, params.q
    lex = lex_segment(n, k, s)
    lex_value = statistic_value(lex, statistic, t, q)

    if config.mode == "local_search":
        best_fam, moves = _local_search_best(params, statistic, config)
        best_val = statistic_value(best_fam, statistic, t, q)
        if best_val >= lex_value:
            best_fam, best_val = lex, lex_value
        return SearchCertificate(
            params, statistic, best_val, best_fam, lex_value, best_val == lex_value, moves, False
        )

    masks = list(all_kset_masks(n, k))
    N = len(masks)
    if s <= 1 or s == N:
        # every family of this size has the same statistic value
        return SearchCertificate(params, statistic, lex_value, lex, lex_value, True, 0, True)
    if statistic == Q_MATCHINGS and q == 1:
        return SearchCertificate(params, statistic, s, lex, s, True, 0, True)

    rows = _pair_rows(masks, n, statistic, t)
    prune = config.mode == "branch_and_bound"
    search = _chain_search(rows, statistic, q, prune, config.node_budget)

    def certificate(value: int, chain: Iterable[int], nodes: int, complete: bool) -> SearchCertificate:
        witness = SetFamily(n, k, (masks[i] for i in chain))
        return SearchCertificate(
            params, statistic, value, witness, lex_value, value == lex_value, nodes, complete
        )

    if prune and statistic != Q_MATCHINGS and 2 * s > N:
        size = N - s
        shift = rows[0].bit_count() * (2 * s - N) // 2  # e(F) - e(F^c), the graph being regular
        state = _SearchState(lex_value - shift, tuple(range(s, N)), 0, -1)  # lex^c

        def complement(chain: tuple[int, ...]) -> list[int]:
            taken = set(chain)
            return [i for i in range(N) if i not in taken]

        try:
            search(state, size, 0, (0,) if config.symmetry_pruning else range(N - size + 1))
        except _BudgetExhausted:
            if state.best_value + shift < lex_value:
                return certificate(state.best_value + shift, complement(state.best_chain), state.nodes, False)
            return certificate(lex_value, range(s), state.nodes, False)
        target = state.best_value
        if target + shift == lex_value:
            return certificate(lex_value, range(s), state.nodes, True)
        # witness search: the first chain within target, visited from the top
        state.best_value = target + 1
        complete = True
        try:
            search(state, size, target, range(N - size, -1, -1), descending=True)
        except _BudgetExhausted:
            complete = False
        return certificate(target + shift, complement(state.best_chain), state.nodes, complete)

    state = None
    if config.checkpoint_path:
        state = _load_checkpoint(config.checkpoint_path, params, statistic, config)
    if state is None:
        state = _SearchState(lex_value, tuple(range(s)), 0, -1)

    def after_rank(f0: int) -> None:
        state.last_first_rank = f0
        if config.checkpoint_path:
            with open(config.checkpoint_path, "w") as fh:
                json.dump(_checkpoint_payload(params, statistic, config, state), fh)

    first_ranks = (0,) if config.symmetry_pruning else range(N - s + 1)
    floor = 0 if prune else -1  # exhaustive mode visits every chain
    complete = True
    try:
        search(state, s, floor, [f0 for f0 in first_ranks if f0 > state.last_first_rank], after_rank=after_rank)
    except _BudgetExhausted:
        complete = False
    return certificate(state.best_value, state.best_chain, state.nodes, complete)


@dataclass(frozen=True)
class BallValue:
    """One comparison family: the (r, ell)-ball of matching size and its value."""

    r: int
    ell: int
    value: int
    optimal: bool


@dataclass(frozen=True)
class ConjectureEntry:
    """Per-size verdict: certificate plus every size-matching ball family."""

    certificate: SearchCertificate
    ball_values: tuple[BallValue, ...]
    lex_optimal: bool
    ball_optimal: bool

    def to_json_obj(self) -> dict:
        return {
            "certificate": self.certificate.to_json_obj(),
            "balls": [
                {"r": b.r, "ell": b.ell, "value": str(b.value), "optimal": b.optimal}
                for b in self.ball_values
            ],
            "lex_optimal": self.lex_optimal,
            "ball_optimal": self.ball_optimal,
        }


def verify_lex_conjecture(
    n: int,
    k: int,
    statistic: str,
    s_range: Iterable[int],
    t: int = 1,
    q: int = 2,
    config: SearchConfig | None = None,
) -> list[ConjectureEntry]:
    """Certify each size and compare against every ball of exactly that size.

    Balls are the families {A : |A meet [r]| >= ell}; only exact size
    matches are evaluated, nothing is padded or truncated.
    """
    entries = []
    for s in s_range:
        params = Params(n, k, s, t=t, q=q)
        cert = certify_minimum(params, statistic, config)
        balls = []
        for r in range(1, n + 1):
            for ell in range(1, min(r, k) + 1):
                ball = ell_ball(n, k, r, ell)
                if len(ball) != s:
                    continue
                value = statistic_value(ball, statistic, t, q)
                balls.append(BallValue(r, ell, value, value == cert.minimum))
        entries.append(
            ConjectureEntry(cert, tuple(balls), cert.lex_optimal, any(b.optimal for b in balls))
        )
    return entries


def _center_tuples(n: int, t: int, r: int):
    centers = list(combinations(range(1, n + 1), t))
    if binom(len(centers), r) > _ENUMERATION_CAP:
        raise RangeError(
            f"C({len(centers)},{r}) center tuples exceed the {_ENUMERATION_CAP} enumeration cap"
        )
    return centers, combinations(centers, r)


def _common_core_size(center_masks: Sequence[int]) -> int:
    return reduce(and_, center_masks).bit_count()


@dataclass(frozen=True)
class StarUnionMinimumReport:
    """Exhaustive check that nested center tuples give the smallest union.

    Enumerates every r-tuple of distinct t-set centers, records the minimum
    union size, and checks it equals C(n-t+1,k-t+1) - C(n-t-r+1,k-t+1) with
    the minimizers exactly the tuples whose centers share t-1 common
    elements.
    """

    n: int
    k: int
    t: int
    r: int
    tuples_checked: int
    min_union_size: int
    expected_min: int
    minimizer_count: int
    min_matches: bool
    minimizers_are_common_core: bool

    @property
    def ok(self) -> bool:
        return self.min_matches and self.minimizers_are_common_core

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "r": self.r,
            "tuples_checked": self.tuples_checked,
            "min_union_size": str(self.min_union_size),
            "expected_min": str(self.expected_min),
            "minimizer_count": self.minimizer_count,
            "min_matches": self.min_matches,
            "minimizers_are_common_core": self.minimizers_are_common_core,
            "ok": self.ok,
        }


def verify_lemma_42(n: int, k: int, t: int, r: int) -> StarUnionMinimumReport:
    """Check the minimum-size claim for unions of r full t-stars, exhaustively."""
    if not 1 <= t < k <= n:
        raise RangeError(f"need 1 <= t < k <= n, got n={n} k={k} t={t}")
    if r < 1:
        raise RangeError(f"need r >= 1, got r={r}")
    centers, tuples_iter = _center_tuples(n, t, r)
    # per center, the index bitmask of k-sets containing it: the AND of its
    # elements' incidence bitsets
    incidence = _incidence(list(all_kset_masks(n, k)), n)
    contain = {c: reduce(and_, [incidence[e - 1] for e in c]) for c in centers}
    expected = binom(n - t + 1, k - t + 1) - binom(n - t - r + 1, k - t + 1)
    min_union = None
    minimizers = []
    checked = 0
    for tup in tuples_iter:
        checked += 1
        size = reduce(or_, [contain[c] for c in tup]).bit_count()
        if min_union is None or size < min_union:
            min_union = size
            minimizers = [tup]
        elif size == min_union:
            minimizers.append(tup)
    core_ok = all(
        _common_core_size([_elements_mask(c) for c in tup]) >= t - 1 for tup in minimizers
    )
    # and conversely: every common-core tuple must achieve the minimum
    if core_ok:
        for tup in _center_tuples(n, t, r)[1]:
            if _common_core_size([_elements_mask(c) for c in tup]) >= t - 1:
                if reduce(or_, [contain[c] for c in tup]).bit_count() != min_union:
                    core_ok = False
                    break
    return StarUnionMinimumReport(
        n, k, t, r, checked, min_union, expected, len(minimizers), min_union == expected, core_ok
    )


@dataclass(frozen=True)
class StarUnionPairsReport:
    """Exhaustive check of the two star-union comparison claims.

    addset: adding any outside k-set F to any union of r full t-stars
    creates at least as many t-disjoint pairs as the reference
    configuration, with equality exactly when the centers share a common
    (t-1)-set Y and F meets the center union in exactly Y.  fullstars: the
    union of r full t-stars has at least as many t-disjoint pairs as the
    lex segment of its size, with equality exactly for common-core tuples.
    """

    n: int
    k: int
    t: int
    r: int
    addset_configs_checked: int
    addset_baseline: int
    addset_inequality_ok: bool
    addset_equality_ok: bool
    fullstars_tuples_checked: int
    fullstars_inequality_ok: bool
    fullstars_equality_ok: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.addset_inequality_ok
            and self.addset_equality_ok
            and self.fullstars_inequality_ok
            and self.fullstars_equality_ok
        )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "r": self.r,
            "addset_configs_checked": self.addset_configs_checked,
            "addset_baseline": str(self.addset_baseline),
            "addset_inequality_ok": self.addset_inequality_ok,
            "addset_equality_ok": self.addset_equality_ok,
            "fullstars_tuples_checked": self.fullstars_tuples_checked,
            "fullstars_inequality_ok": self.fullstars_inequality_ok,
            "fullstars_equality_ok": self.fullstars_equality_ok,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def verify_lemma_43_44(n: int, k: int, t: int, r: int) -> StarUnionPairsReport:
    """Exhaustively compare every r-tuple of full t-stars with the nested one."""
    if not 1 <= t < k <= n:
        raise RangeError(f"need 1 <= t < k <= n, got n={n} k={k} t={t}")
    if r < 1:
        raise RangeError(f"need r >= 1, got r={r}")
    if n < k + r:
        raise RangeError(f"need n >= k + r for the reference added set, got n={n}")
    # reference: centers {1..t-1} + {t-1+i}, added set avoiding {t..t+r-1}
    ref_centers = [tuple(range(1, t)) + (t - 1 + i,) for i in range(1, r + 1)]
    ref_fam = t_star_union(n, k, ref_centers)
    ref_added = tuple(range(1, t)) + tuple(range(t + r, t + r + (k - t + 1)))
    baseline = _partner_counter(ref_fam.masks, n, t)(_elements_mask(ref_added))

    all_masks = list(all_kset_masks(n, k))
    violations: list[str] = []
    addset_checked = 0
    addset_ineq = True
    addset_eq = True
    full_checked = 0
    full_ineq = True
    full_eq = True
    stat = T_DISJOINT_PAIRS if t > 1 else DISJOINT_PAIRS
    lex_values: dict[int, int] = {}  # by size: few sizes occur among the tuples
    for tup in _center_tuples(n, t, r)[1]:
        center_masks = [_elements_mask(c) for c in tup]
        union_mask = reduce(or_, center_masks)
        inter = reduce(and_, center_masks)
        common_core = inter.bit_count() >= t - 1
        fam = t_star_union(n, k, tup)
        member_set = fam._mask_set
        created_by = _partner_counter(fam.masks, n, t)

        # full-stars comparison at this tuple's size
        full_checked += 1
        fam_value = statistic_value(fam, stat, t)
        if len(fam) not in lex_values:
            lex_values[len(fam)] = statistic_value(lex_segment(n, k, len(fam)), stat, t)
        lex_value = lex_values[len(fam)]
        if fam_value < lex_value:
            full_ineq = False
            violations.append(f"fullstars: centers {tup} give {fam_value} < lex {lex_value}")
        if (fam_value == lex_value) != common_core:
            full_eq = False
            violations.append(
                f"fullstars equality mismatch at centers {tup}: value {fam_value}, lex {lex_value}"
            )

        # added-set comparison against every k-set outside the union
        for fm in all_masks:
            if fm in member_set:
                continue
            addset_checked += 1
            created = created_by(fm)
            if created < baseline:
                addset_ineq = False
                violations.append(
                    f"addset: centers {tup}, F {_mask_elements(fm)} creates {created} < {baseline}"
                )
            meet = fm & union_mask
            iso = common_core and meet & ~inter == 0 and meet.bit_count() == t - 1
            if (created == baseline) != iso:
                addset_eq = False
                violations.append(
                    f"addset equality mismatch: centers {tup}, F {_mask_elements(fm)}, created {created}"
                )
    return StarUnionPairsReport(
        n,
        k,
        t,
        r,
        addset_checked,
        baseline,
        addset_ineq,
        addset_eq,
        full_checked,
        full_ineq,
        full_eq,
        tuple(violations[:20]),
    )


def _local_search_best(params: Params, statistic: str, config: SearchConfig) -> tuple[SetFamily, int]:
    import random

    from .core import random_family

    n, k, s = params.n, params.k, params.s
    rng = random.Random(config.seed)
    moves = 0
    best = None
    best_val = None
    starts = [lex_segment(n, k, s)]
    for _ in range(3):
        starts.append(random_family(n, k, s, rng))
    for start in starts:
        fam, m = _descend(start, statistic, params.t, params.q)
        moves += m
        val = statistic_value(fam, statistic, params.t, params.q)
        if best_val is None or val < best_val or (val == best_val and fam.masks < best.masks):
            best, best_val = fam, val
    return best, moves


def _descend(f: SetFamily, statistic: str, t: int, q: int) -> tuple[SetFamily, int]:
    """First-improvement single-swap descent; deterministic scan order."""
    n, k = f.n, f.k
    current = f
    value = statistic_value(current, statistic, t, q)
    moves = 0
    improved = True
    while improved:
        improved = False
        outside = [m for m in all_kset_masks(n, k) if m not in current._mask_set]
        for out_mask in current.masks:
            kept = [m for m in current.masks if m != out_mask]
            for in_mask in outside:
                moves += 1
                cand = SetFamily(n, k, kept + [in_mask])
                cand_val = statistic_value(cand, statistic, t, q)
                if cand_val < value:
                    current, value = cand, cand_val
                    improved = True
                    break
            if improved:
                break
    return current, moves


def local_search_improve(
    f: SetFamily, statistic: str, config: SearchConfig | None = None, t: int = 1, q: int = 2
) -> SetFamily:
    """Single-swap descent from f; returns a family whose statistic is <= f's."""
    del config  # the descent is deterministic regardless of seed
    fam, _ = _descend(f, statistic, t, q)
    return fam
