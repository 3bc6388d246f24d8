"""Acceptance gate: one test per criterion, run with -v for per-line results.

Each test is self-contained and asserts both the mathematical claim and the
stated resource limit.  Counterexample families found by the search are data,
not failures: they are printed and the claims are asserted only where the
certified results support them.  Criterion 4 pins the exact minimum number of
3-matchings at (6, 2) for every s <= 12, checked against full enumeration in
tests/oracles.py, including the two sizes where the lex segment loses.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

import oracles
from setfam import (
    DISJOINT_PAIRS,
    Q_MATCHINGS,
    Params,
    SearchConfig,
    SetFamily,
    binom,
    certify_minimum,
    complement_family,
    derive_r,
    disjoint_pairs,
    lex_disj_formula,
    lex_segment,
    numeric_eigenvalues,
    q_matchings,
    spectral_lower_bound,
    spectrum,
    t_disjoint_pairs,
    t_intersecting_pairs,
    t_intersecting_with,
    verify_lemma_42,
    verify_lemma_43_44,
)

_CERT_GRID = {}


def _certified_grid():
    """Certify every (n, k, s) with n in 5..7, k in 2..3, r(s) <= 2, once."""
    if _CERT_GRID:
        return _CERT_GRID
    cfg = SearchConfig(mode="branch_and_bound", node_budget=3 * 10**6)
    for n in (5, 6, 7):
        for k in (2, 3):
            s = 0
            while derive_r(n, k, s) is not None and derive_r(n, k, s) <= 2:
                cert = certify_minimum(Params(n, k, s), DISJOINT_PAIRS, cfg)
                _CERT_GRID[(n, k, s)] = cert
                s += 1
                if s > binom(n, k):
                    break
    return _CERT_GRID


def test_01_closed_form_matches_direct_count():
    # every lex segment with n <= 9, k <= 4, across the full size range
    start = time.monotonic()
    for n in range(1, 10):
        for k in range(1, min(n, 4) + 1):
            masks = lex_segment(n, k, binom(n, k)).masks
            running = 0
            assert lex_disj_formula(n, k, 0) == 0
            for s in range(1, len(masks) + 1):
                new = masks[s - 1]
                running += sum(1 for m in masks[: s - 1] if not m & new)
                assert lex_disj_formula(n, k, s) == running, (n, k, s)
    elapsed = time.monotonic() - start
    print(f"criterion 1: all segments verified in {elapsed:.1f}s")
    assert elapsed < 60


def test_02_exhaustive_certification_small():
    cfg = SearchConfig(mode="exhaustive", symmetry_pruning=True)
    for n, k, s in [(5, 2, 5), (6, 3, 11)]:
        start = time.monotonic()
        cert = certify_minimum(Params(n, k, s), DISJOINT_PAIRS, cfg)
        elapsed = time.monotonic() - start
        assert cert.complete
        assert cert.minimum == binom(n - k - 1, k - 1), (n, k, s)
        assert cert.lex_optimal
        print(
            f"criterion 2: ({n},{k},{s}) minimum {cert.minimum}, "
            f"{cert.nodes_visited} nodes, {elapsed:.1f}s"
        )
        assert elapsed < 300


def test_03_certification_grid_r_le_2():
    # families beating the lex segment are recorded and printed as data;
    # the hard requirements are witness validity and a complete certificate
    # for every instance of the grid
    grid = _certified_grid()
    assert grid
    counterexamples = []
    for (n, k, s), cert in sorted(grid.items()):
        # the witness certifies minimum <= lex even when the run is partial
        assert cert.minimum <= cert.lex_value, (n, k, s)
        assert cert.complete, (n, k, s)
        if cert.minimum < cert.lex_value:
            counterexamples.append((n, k, s, cert.minimum, cert.lex_value, cert.complete))
        elif cert.complete:
            assert cert.lex_optimal, (n, k, s)
    for n, k, s, best, lexv, complete in counterexamples:
        tag = "certified" if complete else "witnessed"
        print(
            f"criterion 3: lex segment beaten at ({n},{k},{s}): "
            f"{best} < {lexv} ({tag})"
        )
    print(
        f"criterion 3: {len(grid)} instances, "
        f"{sum(c.complete for c in grid.values())} certified, "
        f"{len(counterexamples)} beat the lex segment"
    )


def test_04_triple_matchings():
    # At (n, k, q) = (6, 2, 3) a 3-matching is a perfect matching of K6, so
    # it uses all 6 vertices and the 10 edges of the clique on {1..5} hold
    # none, while lex_segment(6,2,10) holds 2 ({16,25,34} and {15,26,34}).
    # Ten is the Erdos-Gallai number max(C(5,2), C(6,2) - C(4,2)), the most
    # edges a graph on 6 vertices can have without a 3-matching, so the
    # minimum is 0 exactly when s <= 10.  Each edge lies in 3 of the 15
    # perfect matchings, so at s = 11 the 4 missing edges lie in at most 12
    # of them (a star at one vertex reaches 12) and at least 3 remain,
    # against the lex segment's 4.  Lex segments therefore minimise
    # 3-matchings for every s <= 12 except s = 10 and s = 11; the exact
    # minima are pinned below against full enumeration and a literal table.
    assert q_matchings(SetFamily.full(6, 2), 3).value == 15
    clique = SetFamily.from_sets(6, 2, itertools.combinations(range(1, 6), 2))
    assert q_matchings(clique, 3).value == 0
    assert q_matchings(lex_segment(6, 2, 10), 3).value == 2

    def count(sets):
        return oracles.q_matchings(sets, 3)

    expected_minima = (0,) * 11 + (3, 6)
    edges = oracles.ksets(6, 2)
    cfg = SearchConfig(mode="exhaustive")
    results = []
    for s in range(13):
        cert = certify_minimum(Params(6, 2, s, q=3), Q_MATCHINGS, cfg)
        assert cert.complete, s
        assert cert.minimum == oracles.min_statistic(6, 2, s, count), s
        assert cert.minimum == expected_minima[s], s
        assert cert.lex_value == count(edges[:s]), s
        witness = [frozenset(m.elements) for m in cert.witness.members]
        assert len(witness) == s and count(witness) == cert.minimum, s
        assert cert.lex_optimal == (s not in (10, 11)), s
        assert (cert.minimum == 0) == (s <= 10), s
        results.append((s, cert.minimum, cert.lex_value, cert.lex_optimal))
    for s, best, lexv, ok in results:
        if not ok:
            print(f"criterion 4: lex segment beaten at (6,2,{s}) q=3: {best} < {lexv}")


def test_05_star_union_lemmas():
    start = time.monotonic()
    rep = verify_lemma_42(8, 3, 2, 2)
    assert rep.min_union_size == 11
    assert rep.min_matches and rep.minimizers_are_common_core
    assert rep.ok
    elapsed = time.monotonic() - start
    assert elapsed < 600

    start = time.monotonic()
    rep = verify_lemma_42(8, 3, 2, 3)
    assert rep.min_union_size == binom(7, 2) - binom(4, 2)
    assert rep.ok
    elapsed = time.monotonic() - start
    assert elapsed < 600

    start = time.monotonic()
    rep = verify_lemma_43_44(8, 3, 2, 2)
    assert rep.addset_inequality_ok and rep.addset_equality_ok
    assert rep.fullstars_inequality_ok and rep.fullstars_equality_ok
    assert rep.ok
    elapsed = time.monotonic() - start
    print(f"criterion 5: pair comparisons over {rep.addset_configs_checked} configs, {elapsed:.1f}s")
    assert elapsed < 600


def test_06_complement_identity():
    # disj(F) - disj(complement F) = (s - C(n,k)/2) * C(n-k,k), exactly
    def check(fam):
        n, k, s = fam.n, fam.k, len(fam)
        diff = disjoint_pairs(fam).value - disjoint_pairs(complement_family(fam)).value
        rhs = (Fraction(s) - Fraction(binom(n, k), 2)) * binom(n - k, k)
        assert Fraction(diff) == rhs, (n, k, s)

    rng = random.Random(1234)
    pool = lex_segment(8, 3, binom(8, 3)).masks
    for _ in range(10**4):
        s = rng.randint(0, len(pool))
        fam = SetFamily(8, 3, rng.sample(pool, s))
        check(fam)
    # and exhaustively at (5, 2) over all 2^10 families
    masks52 = lex_segment(5, 2, 10).masks
    for bits in range(1 << 10):
        fam = SetFamily(5, 2, (masks52[i] for i in range(10) if bits >> i & 1))
        check(fam)


def test_07_spectral_bound_consistent():
    for (n, k, s), cert in sorted(_certified_grid().items()):
        if not cert.complete:
            continue
        assert spectral_lower_bound(n, k, s) <= cert.minimum, (n, k, s)
    for n, k, s in [(5, 2, 5), (6, 3, 11)]:
        cert = certify_minimum(Params(n, k, s), DISJOINT_PAIRS)
        assert spectral_lower_bound(n, k, s) <= cert.minimum
    sp = spectrum(5, 2)
    assert dict(sp.pairs) == {3: 1, -2: 4, 1: 5}
    closed = sorted(float(lam) for lam, mult in sp.pairs for _ in range(mult))
    assert np.allclose(closed, np.sort(numeric_eigenvalues(5, 2)), atol=1e-8)


def test_08_identity_suite_random_families():
    rng = random.Random(20240817)
    pools = {}
    checked = 0
    for i in range(10**5):
        n = rng.randint(4, 9)
        k = rng.randint(2, min(4, n - 1))
        if (n, k) not in pools:
            pools[(n, k)] = lex_segment(n, k, binom(n, k)).masks
        pool = pools[(n, k)]
        s = rng.randint(0, min(len(pool), 12))
        fam = SetFamily(n, k, rng.sample(pool, s))
        d = disjoint_pairs(fam).value
        # pair statistics partition all pairs, at a rotating threshold
        t = 1 + i % (k - 1) if k > 2 else 1
        td = t_disjoint_pairs(fam, t).value
        ti = t_intersecting_pairs(fam, t).value
        assert td + ti == binom(s, 2), (n, k, s, t)
        # summing per-member partner counts double counts each pair and
        # sees every member once through its self term
        inc = sum(t_intersecting_with(fam, m, t, include_self=True) for m in fam)
        assert inc == 2 * ti + s, (n, k, s, t)
        # pairs of disjoint sets are exactly the 2-matchings
        assert q_matchings(fam, 2).value == d, (n, k, s)
        # threshold 1 pair-disjointness is plain disjointness
        assert t_disjoint_pairs(fam, 1).value == d, (n, k, s)
        checked += 1
    assert checked == 10**5
