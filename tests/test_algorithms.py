import random
from fractions import Fraction
from functools import partial

import pytest

from matoracle import (
    GroundSet,
    OraclePair,
    PartitionMatroid,
    UniformMatroid,
    binary_search_smallest_dependent_prefix,
    ceil_log2,
    compute_eta,
    costly_strategies,
    default_k,
    error_dependent_basis,
    greedy_basis,
    greedy_native,
    pair_query_basis,
    rank_oracle_basis,
    robust_basis,
    robust_weighted_basis,
    simple_basis,
    weighted_basis,
)
from matoracle import algorithms
from matoracle.algorithms import COSTLY_A, COSTLY_B
from matoracle.bench import bound, family_instance, generate
from matoracle.oracles import ROLE_CLEAN, ROLE_DIRTY, QueryLedger

from conftest import fresh, make_pair, masks, random_pairs


def run_family(tag, **params):
    gen = generate(family_instance(tag, **params))
    pair0 = gen.fresh_pair()
    bd = greedy_basis(pair0)
    return pair0.with_dirty_basis(bd.mask), bd


class TestBinarySearch:
    def test_adjacent_bounds_need_no_probe(self):
        probes = []
        pos = binary_search_smallest_dependent_prefix(
            [4, 9], lambda p: probes.append(p) or True, 0, 1
        )
        assert pos == 9 and probes == []

    @pytest.mark.parametrize("answer", range(8))
    def test_domain_eight(self, answer):
        positions = list(range(8))
        probes = []

        def probe(p):
            probes.append(p)
            return p >= answer

        # linear-scan oracle defines the target; empty prefix independent
        got = binary_search_smallest_dependent_prefix(positions, probe, -1, 7)
        assert got == answer
        assert len(probes) <= 3

    def test_probe_count_at_last_position(self):
        for m in (1, 2, 3, 5, 8, 13, 64):
            probes = []
            got = binary_search_smallest_dependent_prefix(
                list(range(m)), lambda p: probes.append(p) or p >= m - 1, -1, m - 1
            )
            assert got == m - 1
            assert len(probes) <= ceil_log2(m)


class TestSimple:
    def test_consistent_dirty_basis(self):
        pair, bd = make_pair({"kind": "uniform", "k": 2}, n=5)
        assert sorted(bd) == [0, 1]
        basis, led = simple_basis(bd.mask, pair)
        assert basis == bd
        assert led.clean_independence_count == 4 == 5 - 2 + 1

    def test_dirty_basis_dependent(self):
        pair, bd = make_pair({"kind": "uniform", "k": 1}, {"kind": "uniform", "k": 3}, n=3)
        basis, led = simple_basis(bd.mask, pair)
        assert led.clean_independence_count == 4 == 3 + 1
        assert len(basis) == 1

    def test_singleton(self):
        pair, bd = make_pair({"kind": "uniform", "k": 1}, n=1)
        basis, led = simple_basis(bd.mask, pair)
        assert led.clean_independence_count == 1 and len(basis) == 1


class TestErrorDependent:
    def test_no_removal_case(self):
        pair, bd = make_pair(
            {"kind": "partition", "classes": [[0, 1, 2], [3, 4]], "caps": [2, 1]}, n=5
        )
        basis, led = error_dependent_basis(bd.mask, pair)
        assert led.clean_independence_count == 1 + (5 - len(bd))

    def test_two_removals_trace(self):
        pair, bd = make_pair({"kind": "uniform", "k": 1}, {"kind": "uniform", "k": 3}, n=4)
        assert sorted(bd) == [0, 1, 2]
        basis, led = error_dependent_basis(bd.mask, pair)
        assert sorted(basis) == [0]
        assert led.clean_independence_count == 7 <= 4 - 1 + 1 + 0 + 2 * 2

    def test_removal_indices_strictly_increase(self, small_random_pairs, removals):
        for pair, bd in small_random_pairs:
            p2 = fresh(pair)
            removals.clear()
            basis, _ = error_dependent_basis(bd.mask, p2)
            assert set(removals) == set(bd) - set(basis)
            removed_pos = [p2.ground.pos[e] for e in removals]
            assert removed_pos == sorted(removed_pos)
            assert len(removed_pos) == len(set(removed_pos))


class TestRobust:
    def test_consistency_at_k1(self):
        pair, bd = make_pair({"kind": "uniform", "k": 2}, n=6)
        basis, led = robust_basis(bd.mask, pair, 1)
        assert led.clean_independence_count <= 6 - 2 + 1

    def test_adversarial_robustness_cap(self):
        n, k = 64, 2
        pair, bd = make_pair({"kind": "uniform", "k": 0}, {"kind": "uniform", "k": n}, n=n)
        assert len(bd) == n
        basis, led = robust_basis(bd.mask, pair, k)
        assert basis.mask == 0
        assert led.clean_independence_count <= (1 + Fraction(1, k)) * n == 96

    def test_k_sweep_respects_specific_bounds(self):
        pair0, bd = make_pair(
            {"kind": "partition", "classes": [[0, 1, 2, 3], [4, 5, 6, 7]], "caps": [2, 1]},
            {"kind": "partition", "classes": [[0, 1, 2, 3, 4], [5, 6, 7]], "caps": [3, 2]},
            n=8,
        )
        rep = compute_eta(pair0)
        r = pair0.clean.full_rank()
        r_d = pair0.dirty.full_rank()
        lg = ceil_log2(r_d)
        for k in (1, 2, 4, 8):
            p2 = fresh(pair0)
            basis, led = robust_basis(bd.mask, p2, k)
            bound = min(
                Fraction(8 - r + k + rep.eta_A + rep.eta_R * (k + 1) * lg),
                Fraction(k + 1, k) * 8,
            )
            assert Fraction(led.clean_independence_count) <= bound
            assert p2.clean.rank_mask(basis.mask) == len(basis) == r


class TestWeighted:
    def test_identity_trace_count(self):
        pair, bd = make_pair({"kind": "uniform", "k": 2}, n=5)
        basis, led = weighted_basis(bd.mask, pair)
        assert led.clean_independence_count == (5 - len(bd)) + 1

    def test_figure_shaped_trace(self, removals):
        g_weights = [9 - i for i in range(9)]
        pair, bd = make_pair(
            {"kind": "partition", "classes": [[0, 5], [1, 2, 3, 4], [6, 7], [8]], "caps": [0, 3, 2, 0]},
            {"kind": "predicted_basis", "basis": [2, 3, 4, 7, 8]},
            weights=g_weights,
        )
        assert sorted(bd) == [2, 3, 4, 7, 8]
        basis, led = weighted_basis(bd.mask, pair)
        assert sorted(basis) == [1, 2, 3, 6, 7]
        assert removals == [8, 4]
        assert set(basis) - set(bd) == {1, 6}

    def test_matches_greedy_on_random_weighted(self):
        for pair, bd in random_pairs(150, seed=5, n_range=(1, 12), weight_mode="int"):
            p2 = fresh(pair)
            basis, _ = weighted_basis(bd.mask, p2)
            g = p2.ground
            assert g.weight(basis.mask) == g.weight(greedy_native(p2.clean, g))

    def test_no_element_removed_twice_and_disjoint(self, small_random_pairs, removals):
        for pair, bd in small_random_pairs:
            p2 = fresh(pair)
            removals.clear()
            basis, _ = weighted_basis(bd.mask, p2)
            assert len(removals) == len(set(removals))
            # a removed element is never added back
            assert set(removals) == set(bd) - set(basis)

    def test_modification_counts_bounded_by_eta(self, small_random_pairs):
        for pair, bd in small_random_pairs:
            rep = compute_eta(pair)
            p2 = fresh(pair)
            basis, _ = weighted_basis(bd.mask, p2)
            assert len(set(basis) - set(bd)) <= rep.eta_A
            assert len(set(bd) - set(basis)) <= rep.eta_R


    @pytest.mark.parametrize("weight_mode", ["unit", "int"])
    def test_transcript_matches_the_per_query_walk(self, weight_mode, removals):
        # same records, in the same order, as one billed query per element
        # outside the dirty basis; removals included
        removed = 0
        for pair, bd in random_pairs(150, seed=8, n_range=(1, 16), weight_mode=weight_mode):
            ref = fresh(pair)
            want = _per_query_weighted(bd.mask, ref)
            p2 = fresh(pair)
            removals.clear()
            basis, led = weighted_basis(bd.mask, p2)
            removed += len(removals)
            assert basis.mask == want
            assert led.export_lines() == ref.ledger.export_lines()
            assert led.clean_independence_count == ref.ledger.clean_independence_count
        assert removed > 0

    def test_one_ledger_append_per_run(self, monkeypatch):
        # each run of queries up to an addition is one append, so a walk
        # makes one pass per addition plus the last; billed one query at a
        # time, it would make one append per record
        appends = []
        for name in ("record", "record_scan", "record_prefix_pass"):
            inner = getattr(QueryLedger, name)

            def spy(self, *args, name=name, inner=inner):
                appends.append(name)
                return inner(self, *args)

            monkeypatch.setattr(QueryLedger, name, spy)
        rng = random.Random(3)
        # U(20, 60) against U(12, 60): no removal, eight additions
        pair, bd = make_pair({"kind": "uniform", "k": 20}, {"kind": "uniform", "k": 12},
                             weights=[rng.randint(0, 120) for _ in range(60)])
        appends.clear()
        basis, led = weighted_basis(bd.mask, pair)
        assert len(basis) - len(bd) == 8
        # the strip's check of the dirty basis, then one check per addition
        assert appends == ["record"] + ["record_prefix_pass", "record"] * 8 + ["record_prefix_pass"]
        assert led.clean_independence_count == 60 - 20 + 1 + 2 * 8
        for pair, bd in random_pairs(60, seed=4, n_range=(2, 16), weight_mode="int"):
            p2 = fresh(pair)
            appends.clear()
            basis, _ = weighted_basis(bd.mask, p2)
            assert appends.count("record_prefix_pass") == len(set(basis) - set(bd)) + 1


def _per_query_weighted(bd, pair):
    """Reference copy of the weighted walk billed one query at a time;
    returns the final mask."""
    g = pair.ground
    independent = partial(pair.query_independent, ROLE_CLEAN)
    a_mask = 0
    r_mask = bd & ~algorithms._strip_dirty_basis(independent, g, bd)
    pre = 0
    for p in range(g.n):
        e = g.order[p]
        pre |= 1 << e
        if bd >> e & 1:
            continue
        cur = (bd & ~r_mask) | a_mask
        if independent((cur | 1 << e) & pre):
            a_mask |= 1 << e
            cur |= 1 << e
            if not independent(cur):
                r_mask |= algorithms._remove_smallest_dependent(independent, g, bd, cur, p)
    return (bd & ~r_mask) | a_mask


class TestRobustWeighted:
    def test_identity_consistency(self):
        for k in (1, 2, 3, 7):
            pair, bd = make_pair({"kind": "uniform", "k": 2}, n=6)
            basis, led = robust_weighted_basis(bd.mask, pair, k)
            g = pair.ground
            assert g.weight(basis.mask) == g.weight(greedy_native(pair.clean, g))
            assert led.clean_independence_count <= 6 - 2 + k

    def test_adversarial_cap(self):
        n, k = 60, 3
        pair, bd = make_pair({"kind": "uniform", "k": 1}, {"kind": "uniform", "k": n}, n=n)
        basis, led = robust_weighted_basis(bd.mask, pair, k)
        assert len(basis) == 1
        assert led.clean_independence_count <= (1 + Fraction(1, k)) * n == 80

    def test_matches_greedy_on_random_weighted(self):
        rng = random.Random(11)
        for pair, bd in random_pairs(120, seed=6, n_range=(1, 12), weight_mode="int"):
            k = rng.choice([1, 2, 3, 8])
            p2 = fresh(pair)
            basis, _ = robust_weighted_basis(bd.mask, p2, k)
            g = p2.ground
            assert g.weight(basis.mask) == g.weight(greedy_native(p2.clean, g))


class TestRankOracle:
    def test_identity_two_calls(self):
        pair, bd = make_pair({"kind": "uniform", "k": 3}, n=6)
        basis, led = rank_oracle_basis(bd.mask, pair)
        assert basis == bd
        assert led.clean_rank_count == 2

    def test_removals_trace(self):
        pair, bd = make_pair({"kind": "uniform", "k": 1}, {"kind": "uniform", "k": 3}, n=8)
        basis, led = rank_oracle_basis(bd.mask, pair)
        assert len(basis) == 1
        assert led.clean_rank_count <= 2 + 2 * ceil_log2(3) + 0

    def test_removals_in_increasing_canonical_position(self, small_random_pairs, removals):
        # lb_rem at n = 16, r_d = 8 always takes the binary removal plan; the
        # random pairs may switch to a scan, which makes no removal searches
        families = [run_family("lb_rem", n=16, r_d=8, eta_R=er, seed=s) for er in (1, 2, 3) for s in range(3)]
        searched = 0
        for i, (pair, bd) in enumerate(families + small_random_pairs):
            p2 = fresh(pair)
            removals.clear()
            basis, _ = rank_oracle_basis(bd.mask, p2)
            if i < len(families) or removals:
                assert removals == sorted(set(bd) - set(basis), key=p2.ground.pos.__getitem__)
                searched += 1
        assert searched > len(families)

    def test_single_addition_binary_search(self):
        pair, bd = run_family("lb_add", n=36, r_d=4, eta_A=1, seed=2)
        basis, led = rank_oracle_basis(bd.mask, pair)
        # 2 upfront + one binary search over 32 outside candidates
        assert led.clean_rank_count <= 2 + ceil_log2(32)
        assert pair.clean.rank_mask(basis.mask) == len(basis) == pair.clean.full_rank()

    def test_large_removal_deficiency_switches_to_greedy(self):
        n = 8
        pair, bd = make_pair({"kind": "uniform", "k": 0}, {"kind": "uniform", "k": n}, n=n)
        basis, led = rank_oracle_basis(bd.mask, pair)
        assert basis.mask == 0
        assert led.clean_rank_count == n + 1

    def test_full_dirty_basis_skips_the_second_upfront_call(self):
        # B_d = E leaves no addition candidates and d_r = 2 removals, so
        # rank(E) equals rank(B_d) and is not asked a second time
        pair, bd = make_pair({"kind": "uniform", "k": 14}, {"kind": "uniform", "k": 16}, n=16)
        assert bd.mask == pair.ground.full_mask
        basis, led = rank_oracle_basis(bd.mask, pair)
        rank_sets = [r.mask for r in led.transcript if (r.role, r.kind) == (ROLE_CLEAN, "rank")]
        assert rank_sets.count(pair.ground.full_mask) == 1
        assert led.clean_rank_count == 8 <= bound("rank", n=16, r_d=16, eta_A=0, eta_R=2) == 10
        assert len(basis) == 14 and pair.clean.is_independent_mask(basis.mask)

    @pytest.mark.parametrize(
        "clean, dirty, n, full_rank_call",
        [
            # d_r = 7 removals at ceil(log2 8) = 3 probes each cost more than
            # scanning all 8 elements
            ({"kind": "partition", "classes": [list(range(8))], "caps": [1]}, {"kind": "uniform", "k": 8}, 8, False),
            # d_r = 4, d_a = 2: the binary plan 2 + 4*3 + 2*3 = 20 cannot beat
            # the scan's 17, which stops once rank 6 is reached
            (
                {"kind": "partition", "classes": [list(range(8)), list(range(8, 16))], "caps": [4, 2]},
                {"kind": "predicted_basis", "basis": list(range(8))},
                16,
                True,
            ),
        ],
    )
    def test_scan_branches_match_the_old_closure(self, clean, dirty, n, full_rank_call):
        pair0, bd = make_pair(clean, dirty, n=n)
        ref = fresh(pair0)
        ref.query_rank(ROLE_CLEAN, bd.mask)
        stop_rank = ref.query_rank(ROLE_CLEAN, ref.ground.full_mask) if full_rank_call else None
        ref_mask = _old_greedy_by_rank(ref, 0, 0, stop_rank)
        pair = fresh(pair0)
        basis, led = rank_oracle_basis(bd.mask, pair)
        assert basis.mask == ref_mask
        assert led.export_lines() == ref.ledger.export_lines()
        assert pair.clean.rank_mask(basis.mask) == len(basis) == pair.clean.full_rank()
        if full_rank_call:
            assert led.clean_rank_count < 2 + n  # the scan stopped early


def _old_greedy_by_rank(pair, cur, cur_rank, stop_rank=None):
    """Reference copy of the scan rank_oracle_basis once kept as a closure."""
    g = pair.ground
    for p in range(g.n):
        e = g.order[p]
        got = pair.query_rank(ROLE_CLEAN, cur | 1 << e)
        if got > cur_rank:
            cur |= 1 << e
            cur_rank = got
        if stop_rank is not None and cur_rank == stop_rank:
            break
    return cur


def is_clean_basis(pair, basis):
    """Clean-independent, and no element outside it can be added."""
    clean = pair.clean
    return clean.is_independent_mask(basis.mask) and not any(
        clean.is_independent_mask(basis.mask | 1 << e) for e in range(pair.ground.n) if e not in basis
    )


class TestPairQuery:
    def test_all_addable(self):
        for m in (4, 5):
            n = 3 + m
            pair, bd = make_pair(
                {"kind": "uniform", "k": n},
                {"kind": "uniform", "k": 3},
                n=n,
            )
            p2 = fresh(pair)
            basis, led = pair_query_basis(bd.mask, p2)
            assert is_clean_basis(p2, basis) and basis.mask == p2.ground.full_mask
            assert led.clean_independence_count == (m + 1) // 2

    def test_family_accounting(self):
        for gap in (8, 16, 32):
            ea = (3 * gap) // 4 + 1
            pair, bd = run_family("pairquery", n=4 + gap, r_d=4, eta_A=ea, seed=1)
            basis, led = pair_query_basis(bd.mask, pair)
            n, r = 4 + gap, 4 + ea
            assert is_clean_basis(pair, basis)
            assert led.clean_independence_count < n - r + ea

    def test_family_violation_flag(self):
        # dirty basis not clean-independent: output cannot be a clean basis
        pair, bd = make_pair({"kind": "uniform", "k": 1}, {"kind": "uniform", "k": 3}, n=5)
        basis, _ = pair_query_basis(bd.mask, pair)
        assert not is_clean_basis(pair, basis)


class TestCostly:
    def test_free_matroid_strategy_a(self):
        g = GroundSet.unit(6)
        spec = UniformMatroid(g, 6)
        pair = OraclePair(spec, spec, g, cost_p=5)
        basis, total, tag = costly_strategies(pair)
        assert tag == COSTLY_A and basis.mask == g.full_mask
        assert total == 5 + 5  # selector rank call + the single feasibility check

    def test_selector_arithmetic_example(self):
        pair, _ = _costly_pair(n=16, r=14, p=2)
        basis, total, tag = costly_strategies(pair)
        assert tag == COSTLY_A
        assert total == 18 + 2  # strategy cost + selector rank call

    def test_large_p_prefers_dirty_side(self):
        for n, r in ((16, 10), (12, 4)):
            pair, _ = _costly_pair(n=n, r=r, p=10 * n)
            cost = Fraction(10 * n)
            cost_a = cost * (n - r) * ceil_log2(n) + cost
            cost_b = n + cost * (n - r + 1)
            assert cost_b < cost_a
            basis, total, tag = costly_strategies(pair)
            assert tag == COSTLY_B
            assert total == cost_b + cost


def _costly_pair(n, r, p):
    gen = generate(family_instance("lb_basic", n=n, r=r))
    return gen.fresh_pair(cost_p=p), gen


class TestOracleHygiene:
    def test_dirty_before_clean_ordering(self, small_random_pairs):
        rng = random.Random(21)
        for pair, bd in small_random_pairs[:20]:
            p2 = fresh(pair)
            bd2 = greedy_basis(p2)  # dirty phase
            algo = rng.choice(
                [
                    lambda: simple_basis(bd2.mask, p2),
                    lambda: error_dependent_basis(bd2.mask, p2),
                    lambda: robust_basis(bd2.mask, p2, 2),
                    lambda: weighted_basis(bd2.mask, p2),
                ]
            )
            algo()
            roles = [rec.role for rec in p2.ledger.transcript]
            first_clean = roles.index(ROLE_CLEAN) if ROLE_CLEAN in roles else len(roles)
            assert all(role == ROLE_DIRTY for role in roles[:first_clean])
            assert all(role == ROLE_CLEAN for role in roles[first_clean:])


class TestStructuredLargeInstances:
    def test_grid_graph_spot_check(self):
        rows, cols = 16, 16
        edges = []
        vid = lambda r, c: r * cols + c
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((vid(r, c), vid(r, c + 1)))
                if r + 1 < rows:
                    edges.append((vid(r, c), vid(r + 1, c)))
        n = len(edges)
        g = GroundSet.unit(n)
        from matoracle import GraphicMatroid, make_dirty

        clean = GraphicMatroid(g, rows * cols, edges)
        dirty = make_dirty(clean, {"kind": "edge_rewire", "count": 3, "seed": 9})
        pair0 = OraclePair(clean, dirty, g)
        bd = greedy_basis(pair0)
        pair = pair0.with_dirty_basis(bd.mask)
        r = clean.full_rank()
        for fn in (simple_basis, error_dependent_basis):
            p2 = fresh(pair)
            basis, _ = fn(bd.mask, p2)
            assert p2.clean.rank_mask(basis.mask) == len(basis) == r

    def test_partition_tower_spot_check(self):
        sizes = [1 << i for i in range(9)]  # 511 elements
        classes, start = [], 0
        for s in sizes:
            classes.append(list(range(start, start + s)))
            start += s
        n = start
        g = GroundSet.unit(n)
        clean = PartitionMatroid(g, masks(*classes), [max(1, s // 2) for s in sizes])
        from matoracle import make_dirty

        dirty = make_dirty(clean, {"kind": "capacity_shift", "count": 4, "seed": 3})
        pair0 = OraclePair(clean, dirty, g)
        bd = greedy_basis(pair0)
        pair = pair0.with_dirty_basis(bd.mask)
        r = clean.full_rank()
        for k in (1, 4):
            p2 = fresh(pair)
            basis, led = robust_basis(bd.mask, p2, k)
            assert p2.clean.rank_mask(basis.mask) == len(basis) == r
            assert Fraction(led.clean_independence_count) <= Fraction(k + 1, k) * n


@pytest.mark.parametrize("fn", [robust_basis, robust_weighted_basis])
@pytest.mark.parametrize("k", [0, -2])
def test_k_below_one_rejected(fn, k):
    pair, bd = make_pair({"kind": "uniform", "k": 2}, n=5)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        fn(bd.mask, pair, k)
    assert pair.ledger.clean_count == 0


def test_default_k_exposed():
    assert default_k(1) == 1
    assert default_k(1024) == 5
