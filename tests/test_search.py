"""Certified minimization checked against full enumeration on small instances."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from setfam import (
    DISJOINT_PAIRS,
    Q_MATCHINGS,
    T_DISJOINT_PAIRS,
    Params,
    RangeError,
    SearchCertificate,
    SearchConfig,
    SetFamily,
    binom,
    certify_minimum,
    disjoint_pairs,
    lex_disj_formula,
    lex_rank,
    lex_segment,
    lex_unrank,
    local_search_improve,
    q_matchings,
    statistic_value,
    t_disjoint_pairs,
    verify_lemma_42,
    verify_lemma_43_44,
    verify_lex_conjecture,
)


def exhaustive(n, k, s, statistic, t=1, q=2, **kw):
    cfg = SearchConfig(mode="exhaustive", **kw)
    return certify_minimum(Params(n, k, s, t=t, q=q), statistic, cfg)


def oracle_min(n, k, s, value_fn):
    return oracles.min_statistic(n, k, s, value_fn)


def test_statistic_value_dispatch():
    fam = lex_segment(6, 3, 11)
    assert statistic_value(fam, DISJOINT_PAIRS) == disjoint_pairs(fam).value
    assert statistic_value(fam, T_DISJOINT_PAIRS, t=2) == t_disjoint_pairs(fam, 2).value
    assert statistic_value(fam, Q_MATCHINGS, q=3) == q_matchings(fam, 3).value
    with pytest.raises(RangeError):
        statistic_value(fam, "bogus")


def test_exhaustive_matches_oracle_disj():
    for n, k, smax in [(5, 2, 10), (6, 2, 6), (5, 3, 6)]:
        for s in range(smax + 1):
            cert = exhaustive(n, k, s, DISJOINT_PAIRS)
            want = oracle_min(n, k, s, oracles.disjoint_pairs)
            assert cert.minimum == want, (n, k, s)
            assert cert.complete
            # the witness must actually attain the reported minimum
            assert statistic_value(cert.witness, DISJOINT_PAIRS) == cert.minimum
            assert cert.lex_value == lex_disj_formula(n, k, s)
            assert cert.lex_optimal == (cert.minimum == cert.lex_value)


def test_exhaustive_matches_oracle_qmatch():
    for s in range(7):
        cert = exhaustive(6, 2, s, Q_MATCHINGS, q=3)
        want = oracle_min(6, 2, s, lambda sets: oracles.q_matchings(sets, 3))
        assert cert.minimum == want, s
        assert statistic_value(cert.witness, Q_MATCHINGS, q=3) == cert.minimum


def test_exhaustive_matches_oracle_tdisj():
    for s in range(7):
        cert = exhaustive(6, 3, s, T_DISJOINT_PAIRS, t=2)
        want = oracle_min(6, 3, s, lambda sets: oracles.t_disjoint_pairs(sets, 2))
        assert cert.minimum == want, s


def test_branch_and_bound_agrees_with_exhaustive():
    for n, k, statistic, t, q in [
        (6, 3, DISJOINT_PAIRS, 1, 2),
        (6, 2, Q_MATCHINGS, 1, 3),
        (6, 3, T_DISJOINT_PAIRS, 2, 2),
    ]:
        for s in range(0, binom(n, k) + 1, 3):
            a = exhaustive(n, k, s, statistic, t=t, q=q)
            cfg = SearchConfig(mode="branch_and_bound")
            b = certify_minimum(Params(n, k, s, t=t, q=q), statistic, cfg)
            assert a.minimum == b.minimum, (n, k, s, statistic)
            assert b.complete
            # pruning keeps the same lex-least witness
            assert a.witness.masks == b.witness.masks, (n, k, s, statistic)


# every (n, k) with at most 21 k-sets and at least one pair of them; the
# k >= 3 ones also take t = 2
SMALL_GRIDS = [(n, k) for n in range(3, 8) for k in range(1, n) if binom(n, k) <= 21]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_GRIDS), st.booleans(), st.booleans())
@example((6, 4), True, True)  # 2-intersecting families beat the star of {1,2}
@example((6, 3), True, False)
@example((7, 2), False, True)
def test_bound_and_complement_agree_with_exhaustive(nk, tdisj, symmetry):
    # the increment-sum bound, the complement reduction (every s > N/2) and
    # the closed gap keep the exhaustive minimum and its lex-least witness;
    # the exhaustive reference is symmetry-independent (checked below)
    n, k = nk
    statistic, t = (T_DISJOINT_PAIRS, 2) if tdisj and k >= 3 else (DISJOINT_PAIRS, 1)
    cfg = SearchConfig(mode="branch_and_bound", symmetry_pruning=symmetry)
    for s in range(binom(n, k) + 1):
        want = exhaustive(n, k, s, statistic, t=t)
        got = certify_minimum(Params(n, k, s, t=t), statistic, cfg)
        assert got.complete, (n, k, s, statistic)
        assert got.minimum == want.minimum, (n, k, s, statistic)
        assert got.witness.masks == want.witness.masks, (n, k, s, statistic)


def test_complement_identity_of_minima():
    # the disjointness graph is d-regular with d = C(n-k, k), so the exact
    # minima at s and N - s differ by d(2s - N)/2; exhaustive mode never
    # uses the complement, so this checks the identity the reduction rests on
    for n, k in [(6, 3), (7, 2)]:
        N, d = binom(n, k), binom(n - k, k)
        minima = [exhaustive(n, k, s, DISJOINT_PAIRS).minimum for s in range(N + 1)]
        for s in range(N + 1):
            assert 2 * (minima[s] - minima[N - s]) == d * (2 * s - N), (n, k, s)


def test_k3_grid_past_the_star_certifies():
    # (7,3,16..25), every size past the full star of 15 sets, certifies within
    # the acceptance grid's budget.  For s >= 20 the values follow by hand:
    # the complement has at most 15 sets, fits in a star and so has no
    # disjoint pair, and the Kneser graph is 4-regular, so the minimum is
    # 4(2s - 35)/2.  s = 18 and 19 beat the lex segment (9 and 12).
    cfg = SearchConfig(mode="branch_and_bound", node_budget=3 * 10**6)
    minima = []
    for s in range(16, 26):
        cert = certify_minimum(Params(7, 3, s), DISJOINT_PAIRS, cfg)
        assert cert.complete, s
        assert cert.nodes_visited <= 3 * 10**6
        minima.append(cert.minimum)
    assert minima == [3, 6, 8, 9, 10, 14, 18, 22, 26, 30]
    assert minima[4:] == [2 * (2 * s - 35) for s in range(20, 26)]


def test_leaf_ties_take_the_least_rank():
    # at (7,4,14) with t = 2 (a 2-intersecting family larger than the star
    # of {1,2}, so below the lex value) two sets complete the witness's
    # prefix at the minimum; the lex-least witness ends in the lower one
    cert = certify_minimum(Params(7, 4, 14, t=2), T_DISJOINT_PAIRS)
    assert cert.complete and cert.minimum == 0 < cert.lex_value
    head = cert.witness.masks[:-1]
    ranks = [lex_rank(m) for m in cert.witness]

    def completes(rank):
        fam = SetFamily(7, 4, [*head, lex_unrank(7, 4, rank).mask])
        return t_disjoint_pairs(fam, 2).value == cert.minimum

    assert not any(completes(r) for r in range(ranks[-2] + 1, ranks[-1]))
    assert any(completes(r) for r in range(ranks[-1] + 1, binom(7, 4)))


def test_budget_exhaustion_past_half():
    # s = 19 > 35/2 runs the complement certification, then the witness
    # search; a budget that stops either phase gives an incomplete but
    # valid certificate, and one that covers the certification gives the
    # proven minimum with the witness that phase found
    params = Params(7, 3, 19)
    full = certify_minimum(params, DISJOINT_PAIRS)
    assert full.complete and full.minimum == 9 < full.lex_value
    for budget in (1, 100, full.nodes_visited // 2, full.nodes_visited - 1):
        cfg = SearchConfig(mode="branch_and_bound", node_budget=budget)
        cert = certify_minimum(params, DISJOINT_PAIRS, cfg)
        assert not cert.complete, budget
        assert len(cert.witness) == 19
        assert statistic_value(cert.witness, DISJOINT_PAIRS) == cert.minimum
        assert full.minimum <= cert.minimum <= cert.lex_value
        assert cert.nodes_visited == budget + 1
    assert cert.minimum == full.minimum  # the last budget stops the witness search
    cfg = SearchConfig(mode="branch_and_bound", node_budget=full.nodes_visited)
    assert certify_minimum(params, DISJOINT_PAIRS, cfg) == full


def test_symmetry_pruning_sound():
    for s in (4, 7, 11, 15):
        on = exhaustive(6, 3, s, DISJOINT_PAIRS, symmetry_pruning=True)
        off = exhaustive(6, 3, s, DISJOINT_PAIRS, symmetry_pruning=False)
        assert on.minimum == off.minimum
        assert on.witness.masks == off.witness.masks
        assert on.nodes_visited <= off.nodes_visited


def test_budget_exhaustion_reports_partial():
    cfg = SearchConfig(mode="branch_and_bound", node_budget=50)
    cert = certify_minimum(Params(7, 3, 17), DISJOINT_PAIRS, cfg)
    assert not cert.complete
    # seeded with the lex chain, so the partial answer never loses to it
    assert cert.minimum <= cert.lex_value
    assert statistic_value(cert.witness, DISJOINT_PAIRS) == cert.minimum


def test_trivial_sizes():
    for s in (0, 1):
        cert = exhaustive(6, 3, s, DISJOINT_PAIRS)
        assert cert.minimum == 0 and cert.complete and len(cert.witness) == s
    full = exhaustive(5, 2, 10, DISJOINT_PAIRS)
    assert full.minimum == oracles.disjoint_pairs(oracles.ksets(5, 2))
    assert full.complete


def test_known_minima():
    # one past a full star forces exactly C(n-k-1, k-1) disjoint pairs
    cert = exhaustive(5, 2, 5, DISJOINT_PAIRS)
    assert cert.minimum == 2 and cert.lex_optimal
    cfg = SearchConfig(mode="branch_and_bound")
    cert = certify_minimum(Params(6, 3, 11), DISJOINT_PAIRS, cfg)
    assert cert.minimum == 1 and cert.lex_optimal


def test_lex_not_always_optimal_for_k3():
    # at (7,3,18) some family beats the lex segment; even without full
    # certification the witness proves min <= 8 < 9 = lex value
    cfg = SearchConfig(mode="branch_and_bound", node_budget=2 * 10**6)
    cert = certify_minimum(Params(7, 3, 18), DISJOINT_PAIRS, cfg)
    assert cert.lex_value == 9
    assert cert.minimum == 8
    assert statistic_value(cert.witness, DISJOINT_PAIRS) == 8
    assert not cert.lex_optimal


def test_certificate_invariants_enforced():
    good = exhaustive(5, 2, 5, DISJOINT_PAIRS)
    with pytest.raises(RangeError):
        SearchCertificate(
            good.params,
            good.statistic,
            good.minimum + 1,  # witness no longer attains the claimed value
            good.witness,
            good.lex_value,
            good.lex_optimal,
            good.nodes_visited,
            good.complete,
        )
    with pytest.raises(RangeError):
        SearchCertificate(
            good.params,
            good.statistic,
            good.minimum,
            good.witness,
            good.lex_value,
            not good.lex_optimal,  # flag contradicts the values
            good.nodes_visited,
            good.complete,
        )


def test_certificate_json():
    cert = exhaustive(5, 2, 5, DISJOINT_PAIRS)
    obj = cert.to_json_obj()
    assert obj["minimum"] == "2"
    assert obj["complete"] is True
    assert len(obj["witness"]) == 5
    assert all(isinstance(m, list) for m in obj["witness"])
    json.dumps(obj)  # must be serializable as-is


def test_checkpoint_resume(tmp_path):
    # symmetry off so the search walks several first-set ranks; budget 2000
    # finishes rank 0 (checkpointed) and dies partway into rank 1
    path = tmp_path / "ck.json"
    params = Params(6, 2, 5)
    kw = dict(symmetry_pruning=False, checkpoint_path=str(path))
    partial = certify_minimum(
        params, DISJOINT_PAIRS, SearchConfig(mode="exhaustive", node_budget=2000, **kw)
    )
    assert not partial.complete
    assert path.exists()
    saved = json.loads(path.read_text())
    assert saved["last_first_rank"] >= 0
    assert 0 < saved["nodes"] < 2000
    resumed = certify_minimum(
        params, DISJOINT_PAIRS, SearchConfig(mode="exhaustive", node_budget=10**8, **kw)
    )
    straight = certify_minimum(
        params, DISJOINT_PAIRS, SearchConfig(mode="exhaustive", symmetry_pruning=False)
    )
    assert resumed.complete
    assert resumed.minimum == straight.minimum
    assert resumed.witness.masks == straight.witness.masks
    # the resumed counter starts at the checkpoint and replays only the
    # remaining ranks, landing on the straight-run total
    assert resumed.nodes_visited == straight.nodes_visited


def test_checkpoint_param_mismatch(tmp_path):
    path = tmp_path / "ck.json"
    kw = dict(symmetry_pruning=False, checkpoint_path=str(path))
    certify_minimum(
        Params(6, 2, 5), DISJOINT_PAIRS, SearchConfig(mode="exhaustive", node_budget=2000, **kw)
    )
    with pytest.raises(RangeError):
        certify_minimum(
            Params(6, 2, 6), DISJOINT_PAIRS, SearchConfig(mode="exhaustive", **kw)
        )


def test_search_config_validation():
    with pytest.raises(RangeError):
        SearchConfig(mode="annealing")
    with pytest.raises(RangeError):
        SearchConfig(mode="exhaustive", node_budget=0)


def test_verify_lex_conjecture_entries():
    entries = verify_lex_conjecture(6, 2, DISJOINT_PAIRS, range(4, 8))
    assert len(entries) == 4
    for e in entries:
        assert e.certificate.complete
        assert e.lex_optimal  # k = 2 never beats the lex segment here
        for bv in e.ball_values:
            assert bv.value >= e.certificate.minimum
            assert bv.optimal == (bv.value == e.certificate.minimum)
        obj = e.to_json_obj()
        json.dumps(obj)


def test_verify_lemma_42():
    rep = verify_lemma_42(6, 3, 2, 2)
    assert rep.ok
    assert rep.min_union_size == rep.expected_min
    rep = verify_lemma_42(7, 3, 2, 2)
    assert rep.ok
    assert rep.min_union_size == binom(6, 2) - binom(4, 2)
    # minimizers are exactly the center tuples sharing t-1 elements
    assert rep.minimizers_are_common_core
    assert rep.minimizer_count == 7 * binom(6, 2)
    with pytest.raises(RangeError):
        verify_lemma_42(6, 3, 3, 2)


def test_verify_lemma_43_44():
    rep = verify_lemma_43_44(7, 3, 2, 2)
    assert rep.addset_inequality_ok and rep.addset_equality_ok
    assert rep.fullstars_inequality_ok and rep.fullstars_equality_ok
    assert rep.violations == ()
    assert rep.ok


def test_local_search_never_worse():
    import random

    rng = random.Random(42)
    for _ in range(15):
        sets = oracles.random_sets(rng, 7, 3, rng.randint(2, 10))
        fam = SetFamily.from_sets(7, 3, [sorted(x) for x in sets])
        better = local_search_improve(fam, DISJOINT_PAIRS)
        assert len(better) == len(fam)
        assert (
            statistic_value(better, DISJOINT_PAIRS)
            <= statistic_value(fam, DISJOINT_PAIRS)
        )


def test_local_search_mode_is_heuristic():
    cfg = SearchConfig(mode="local_search", seed=3)
    cert = certify_minimum(Params(7, 3, 12), DISJOINT_PAIRS, cfg)
    assert not cert.complete  # heuristic results are never certificates
    assert cert.minimum <= cert.lex_value
    assert statistic_value(cert.witness, DISJOINT_PAIRS) == cert.minimum
