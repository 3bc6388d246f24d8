"""The pair kernel behind every pair statistic, checked against the oracles.

Every kernel-backed function is compared with tests/oracles.py on random
families of k-subsets of [n], n <= 12, with sizes drawn on both sides of the
crossover between the pair loop and the element-bitset kernel.  Each example
is also run with the dispatch forced to either path, so both paths are
checked at every drawn size, not only on their own side of the crossover.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import setfam
from setfam import (
    DISJOINT_PAIRS,
    T_DISJOINT_PAIRS,
    KneserGraph,
    adjacency_matrix,
    cross_disjoint_pairs,
    disjoint_pairs,
    disjoint_pairs_by_first,
    induced_edges,
    is_intersecting,
    t_disjoint_pairs,
    t_disjoint_pairs_by_first,
    t_intersecting_pairs,
)
from setfam import counting
from setfam.search import _pair_rows

# sizes reach past the largest crossover the drawn t can have (t <= 3)
MAX_S = 200
PATHS = ("dispatch", "loop", "bitsets")


@contextmanager
def forced(path):
    """Run with the size dispatch as shipped, or forced to one path."""
    if path == "dispatch":
        yield
        return
    with mock.patch.object(counting, "_bitset_pays", lambda s, t: path == "bitsets"):
        yield


@st.composite
def families(draw, min_k=1):
    """(n, k, t, lex-ordered oracle sets) with 1 <= t < k when k >= 2."""
    n = draw(st.integers(max(2, min_k + 1), 12))
    k = draw(st.integers(min_k, n - 1))
    t = draw(st.integers(1, max(1, k - 1)))
    pool = oracles.ksets(n, k)
    if draw(st.booleans()):
        # a star, so intersecting families are drawn as often as not
        pool = [a for a in pool if 1 in a]
    s = draw(st.integers(0, min(len(pool), MAX_S)))
    rng = draw(st.randoms(use_true_random=False))
    sets = sorted(rng.sample(pool, s), key=oracles.lex_key)
    return n, k, t, sets


def build(n, k, sets):
    fam = oracles.to_family(setfam, n, k, sets)
    assert [frozenset(m.elements) for m in fam] == sets  # members keep lex order
    return fam


def oracle_by_first(sets, t):
    """Pairs counted from their lex-smaller member, via the oracle's counts."""
    return tuple(
        oracles.t_disjoint_pairs(sets[i:], t) - oracles.t_disjoint_pairs(sets[i + 1 :], t)
        for i in range(len(sets))
    )


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(families(min_k=2))
def test_pair_counts_vs_oracle(case):
    n, k, t, sets = case
    fam = build(n, k, sets)
    disj = oracles.disjoint_pairs(sets)
    below = oracles.t_disjoint_pairs(sets, t)
    meet = oracles.t_intersecting_pairs(sets, t)
    for path in PATHS:
        with forced(path):
            assert disjoint_pairs(fam).value == disj, path
            assert t_disjoint_pairs(fam, t).value == below, path
            assert t_intersecting_pairs(fam, t).value == meet, path
            assert induced_edges(KneserGraph(n, k), fam) == disj, path
            assert is_intersecting(fam) == (disj == 0), path


@SETTINGS
@given(families(min_k=2))
def test_by_first_partitions_vs_oracle(case):
    n, k, t, sets = case
    fam = build(n, k, sets)
    want_disj = oracle_by_first(sets, 1)
    want_t = oracle_by_first(sets, t)
    for path in PATHS:
        with forced(path):
            assert disjoint_pairs_by_first(fam) == want_disj, path
            assert t_disjoint_pairs_by_first(fam, t) == want_t, path


@SETTINGS
@given(families(), st.randoms(use_true_random=False))
def test_cross_disjoint_pairs_vs_oracle(case, rng):
    n, k, _, f_sets = case
    pool = oracles.ksets(n, k)
    g_sets = sorted(rng.sample(pool, rng.randint(0, min(len(pool), MAX_S))), key=oracles.lex_key)
    f, g = build(n, k, f_sets), build(n, k, g_sets)
    for path in PATHS:
        with forced(path):
            assert cross_disjoint_pairs(f, g) == oracles.cross_disjoint_pairs(f_sets, g_sets), path
            assert cross_disjoint_pairs(g, f) == oracles.cross_disjoint_pairs(g_sets, f_sets), path


@SETTINGS
@given(families(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_cross_disjoint_pairs_small_side(case, size, rng):
    # an empty or tiny g against a family of up to MAX_S members, both ways
    n, k, _, f_sets = case
    pool = oracles.ksets(n, k)
    g_sets = sorted(rng.sample(pool, min(size, len(pool))), key=oracles.lex_key)
    f, g = build(n, k, f_sets), build(n, k, g_sets)
    want = oracles.cross_disjoint_pairs(f_sets, g_sets)
    for path in PATHS:
        with forced(path):
            assert cross_disjoint_pairs(f, g) == want, path
            assert cross_disjoint_pairs(g, f) == want, path


def brute_rows(sets, t):
    rows = []
    for a in sets:
        row = 0
        for j, b in enumerate(sets):
            if len(a & b) < t:
                row |= 1 << j
        rows.append(row)
    return rows


@pytest.mark.parametrize("statistic,t", [(DISJOINT_PAIRS, 1), (T_DISJOINT_PAIRS, 2), (T_DISJOINT_PAIRS, 3)])
@SETTINGS
@given(data=st.data())
def test_pair_rows_vs_brute_force(statistic, t, data):
    n, k, _, sets = data.draw(families(min_k=t + 1))
    masks = [m.mask for m in build(n, k, sets)]
    want = brute_rows(sets, t)
    for path in PATHS:
        with forced(path):
            assert _pair_rows(masks, n, statistic, t) == want, path


@SETTINGS
@given(families(min_k=2), st.randoms(use_true_random=False))
def test_partner_counter_vs_oracle(case, rng):
    # the one-against-many count behind the star-union lemma checks
    n, k, t, pool = case
    everything = oracles.ksets(n, k)
    targets = rng.sample(everything, min(5, len(everything)))
    for path in PATHS:
        with forced(path):
            count = counting._partner_counter([m.mask for m in build(n, k, pool)], n, t)
            for target in targets:
                want = oracles.t_disjoint_pairs([target] + pool, t) - oracles.t_disjoint_pairs(pool, t)
                assert count(sum(1 << (e - 1) for e in target)) == want, path


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (8, 4), (9, 3), (10, 2)])
def test_adjacency_matrix_vs_brute_force(n, k):
    sets = oracles.ksets(n, k)
    want = np.array([[float(not a & b) for b in sets] for a in sets])
    for path in PATHS:
        with forced(path):
            assert np.array_equal(adjacency_matrix(n, k), want), path


def test_crossover_sizes_reach_both_paths():
    # the drawn sizes straddle the crossover for every t the tests draw
    for t in (1, 2, 3):
        assert not counting._bitset_pays(12, t)
        assert counting._bitset_pays(MAX_S, t)
