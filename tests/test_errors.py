import random

import pytest

from matoracle import (
    GroundSet,
    GuardExceeded,
    OraclePair,
    PartitionMatroid,
    UniformMatroid,
    compute_eta,
    compute_intersection_errors,
    modification_sets,
)
from matoracle.bench import family_instance, generate
from matoracle.core import ExplicitSystem, iter_bits, spec_from_config
from matoracle.errors import dirty_top_sets, independence_array

from conftest import make_pair, masks, random_pairs


class TestModificationSets:
    def test_already_optimal(self):
        g = GroundSet([5, 4, 3])
        spec = PartitionMatroid(g, masks([0, 1], [2]), [1, 1])
        a, r = modification_sets(0b101, spec, g)
        assert a == 0 and r == 0

    def test_oversized_set(self):
        g = GroundSet.unit(2)
        spec = UniformMatroid(g, 1)
        a, r = modification_sets(0b11, spec, g)
        assert a == 0 and r.bit_count() == 1

    def test_figure_shaped_instance(self):
        # n = 9, weights 9..1; the unique maximum-weight clean basis is
        # {e2,e3,e4,e7,e8} while the predicted basis is {e3,e4,e5,e8,e9}
        g = GroundSet([9 - i for i in range(9)])
        clean = PartitionMatroid(g, masks([0, 5], [1, 2, 3, 4], [6, 7], [8]), [0, 3, 2, 0])
        (s,) = masks([2, 3, 4, 7, 8])
        a, r = modification_sets(s, clean, g)
        assert (list(iter_bits(a)), list(iter_bits(r))) == ([1, 6], [4, 8])

    def test_guard(self):
        g = GroundSet.unit(21)
        with pytest.raises(GuardExceeded):
            modification_sets(0, UniformMatroid(g, 1), g)

    @pytest.mark.parametrize("seed", range(10))
    def test_minimality_exhaustive(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        inst = _random_clean(rng, n)
        tops = _clean_top_masks(inst, n)
        for _ in range(5):
            s = rng.randrange(1 << n)
            a, r = modification_sets(s, inst)
            # no strictly smaller addition set reaches a superset of a top set
            best_a = min(_count_missing(s, b) for b in tops)
            best_r = min(_count_extra(s, b) for b in tops)
            assert a.bit_count() == best_a and r.bit_count() == best_r

    @pytest.mark.parametrize("seed", range(4))
    def test_minimality_by_literal_subset_search(self, seed):
        # scan every A ⊆ E\S and R ⊆ S directly instead of reasoning per basis
        rng = random.Random(seed + 400)
        n = rng.randint(1, 7)
        inst = _random_clean(rng, n)
        tops = _clean_top_masks(inst, n)
        g = inst.ground
        for _ in range(4):
            s = rng.randrange(1 << n)
            a, r = modification_sets(s, inst, g)
            outside, inside = g.full_mask & ~s, s
            lit_a = min(
                (m.bit_count() for m in range(1 << n)
                 if m & ~outside == 0 and any(b & ~(s | m) == 0 for b in tops)),
            )
            lit_r = min(
                (m.bit_count() for m in range(1 << n)
                 if m & ~inside == 0 and any((s & ~m) & ~b == 0 for b in tops)),
            )
            assert a.bit_count() == lit_a and r.bit_count() == lit_r


def _random_clean(rng, n):
    g = GroundSet([rng.randint(0, 5) for _ in range(n)])
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for _ in range(n)]
    classes = [[e for e in range(n) if assignment[e] == i] for i in range(k)]
    classes = [c for c in classes if c]
    return PartitionMatroid(g, masks(*classes), [rng.randint(0, len(c)) for c in classes])


def _clean_top_masks(spec, n):
    g = spec.ground
    best_w = None
    tops = []
    for m in range(1 << n):
        if not spec.is_independent_mask(m):
            continue
        if any(spec.is_independent_mask(m | 1 << e) for e in range(n) if not m >> e & 1):
            continue
        w = g.weight(m)
        if best_w is None or w > best_w:
            best_w, tops = w, [m]
        elif w == best_w:
            tops.append(m)
    return tops


def _count_missing(s, b):
    return (b & ~s).bit_count()


def _count_extra(s, b):
    return (s & ~b).bit_count()


def _per_top_set(pair):
    """(|A(S)|, |R(S)|) for every dirty top set S, by modification sets."""
    out = {}
    for s in dirty_top_sets(pair).tolist():
        a_set, r_set = modification_sets(s, pair.clean, pair.ground)
        out[s] = (a_set.bit_count(), r_set.bit_count())
    return out


class TestComputeEta:
    def test_identity_pair(self):
        pair, _ = make_pair({"kind": "uniform", "k": 2}, n=5)
        rep = compute_eta(pair)
        assert (rep.eta_A, rep.eta_R) == (0, 0)

    def test_uniform_shortcut_example(self):
        pair, _ = make_pair({"kind": "uniform", "k": 1}, {"kind": "uniform", "k": 3}, n=3)
        rep = compute_eta(pair)
        assert (rep.eta_A, rep.eta_R) == (0, 2)

    def test_lb_rem_family_matches_construction(self):
        inst = family_instance("lb_rem", n=10, r_d=5, eta_R=2, seed=4)
        gen = generate(inst)
        rep = compute_eta(gen.fresh_pair())
        assert (rep.eta_A, rep.eta_R) == (0, 2)
        assert gen.pair.clean.full_rank() == 3

    def test_rank_identity_holds(self, small_random_pairs):
        for pair, _ in small_random_pairs:
            rep = compute_eta(pair)
            r = pair.clean.full_rank()
            r_d = pair.dirty.full_rank()
            assert r == r_d + rep.eta_A - rep.eta_R

    def test_monotone_alignment_across_dirty_bases(self):
        # |A(S1)| <= |A(S2)| iff |R(S1)| <= |R(S2)| over the dirty top sets
        for pair, _ in random_pairs(40, seed=77, n_range=(2, 10)):
            entries = list(_per_top_set(pair).values())
            for a1, r1 in entries:
                for a2, r2 in entries:
                    assert (a1 <= a2) == (r1 <= r2)

    def test_shortcut_equals_enumeration(self):
        # the overlap-table eta must agree with the explicit modification-set
        # minimization over the dirty top sets
        for pair, _ in random_pairs(25, seed=31, n_range=(2, 9)):
            rep = compute_eta(pair)
            entries = _per_top_set(pair).values()
            assert rep.eta_A == max(a for a, _ in entries)
            assert rep.eta_R == max(r for _, r in entries)

    def test_explicit_dirty_uses_maximal_sets(self):
        g = GroundSet.unit(4)
        clean = UniformMatroid(g, 2)
        dirty = ExplicitSystem(g, masks([0, 1, 2], [3]))
        pair = OraclePair(clean, dirty, g)
        tops = dirty_top_sets(pair)
        assert sorted(tops) == [0b0111, 0b1000]
        rep = compute_eta(pair)
        # {0,1,2} needs one removal; {3} needs one addition
        assert _per_top_set(pair) == {0b0111: (0, 1), 0b1000: (1, 0)}
        assert (rep.eta_A, rep.eta_R) == (1, 1)

    def test_guard(self):
        pair, _ = make_pair({"kind": "uniform", "k": 3}, n=21)
        with pytest.raises(GuardExceeded):
            compute_eta(pair)


class TestIndependenceArray:
    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "uniform", "k": 2},
            {"kind": "partition", "classes": [[0, 1, 4], [2, 3], [5]], "caps": [2, 1, 0]},
            {"kind": "graphic", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 0], [2, 3], [3, 0], [1, 3]]},
            {"kind": "predicted_basis", "basis": [0, 2, 5]},
            {"kind": "explicit", "maximal_sets": [[0, 1, 2], [3, 4], [5]]},
        ],
    )
    def test_matches_scalar(self, cfg):
        g = GroundSet.unit(6)
        spec = spec_from_config(g, cfg)
        arr = independence_array(spec)
        for m in range(1 << 6):
            assert bool(arr[m]) == spec.is_independent_mask(m)


class TestIntersectionErrors:
    def test_identical_pairs(self):
        g = GroundSet.unit(4)
        c1 = PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 1])
        c2 = UniformMatroid(g, 2)
        rep = compute_intersection_errors(c1, c2, c1, c2)
        assert (rep.eta_1, rep.eta_2, rep.eta_r) == (0, 0, 0)
        assert rep.s_d_star == 2

    def test_cap_lowered_counts_by_enumeration(self):
        g = GroundSet.unit(5)
        clean1 = PartitionMatroid(g, masks([0, 1, 2], [3, 4]), [1, 1])
        dirty1 = PartitionMatroid(g, masks([0, 1, 2], [3, 4]), [2, 1])
        clean2 = UniformMatroid(g, 3)
        rep = compute_intersection_errors(dirty1, clean2, clean1, clean2)
        expect = sum(
            1
            for m in range(1 << 5)
            if dirty1.is_independent_mask(m) and not clean1.is_independent_mask(m)
        )
        assert rep.eta_1 == expect > 0
        assert rep.eta_2 == 0

    def test_superset_violation_raises(self):
        g = GroundSet.unit(3)
        clean1 = UniformMatroid(g, 2)
        dirty1 = UniformMatroid(g, 1)  # dirty misses clean sets
        with pytest.raises(ValueError):
            compute_intersection_errors(dirty1, clean1, clean1, clean1)

    def test_eta_r_realized_by_some_dirty_optimum(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(2, 9)
            g = GroundSet.unit(n)
            c1 = _random_clean(rng, n).rebind(g)
            c2 = _random_clean(rng, n).rebind(g)
            d1 = PartitionMatroid(g, c1.class_masks, [c + 1 for c in c1.caps])
            d2 = PartitionMatroid(g, c2.class_masks, [c + 1 for c in c2.caps])
            rep = compute_intersection_errors(d1, d2, c1, c2)
            realized = set()
            for m in range(1 << n):
                if d1.is_independent_mask(m) and d2.is_independent_mask(m) and m.bit_count() == rep.s_d_star:
                    best = max(
                        (t.bit_count()
                         for t in range(1 << n)
                         if t & ~m == 0 and c1.is_independent_mask(t) and c2.is_independent_mask(t)),
                        default=0,
                    )
                    realized.add(rep.s_d_star - best)
            assert rep.eta_r == max(realized)
