import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matoracle import (
    ElementSet,
    ExplicitSystem,
    GraphicMatroid,
    GroundSet,
    GuardExceeded,
    PartitionMatroid,
    PredictedBasisOracle,
    UniformMatroid,
    ceil_log2,
    enumerate_max_weight_bases,
    greedy_native,
)
from matoracle.algorithms import _rank_additions, binary_search_smallest_dependent_prefix
from matoracle.core import elements_mask, iter_bits, mask_of, spec_from_config
from matoracle.errors import is_matroid
from matoracle.oracles import ROLE_CLEAN

from conftest import fresh, masks, random_pairs

K3 = {"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}


def brute_independent_masks(spec):
    return [m for m in range(1 << spec.n) if spec.is_independent_mask(m)]


def test_ceil_log2_convention():
    assert [ceil_log2(x) for x in (0, 1, 2, 3, 4, 5, 8, 9)] == [0, 0, 1, 2, 2, 3, 3, 4]


class TestElementSet:
    def test_cardinality_membership_and_equality(self):
        a = ElementSet(6, 0b10101)
        assert len(a) == 3 and list(a) == [0, 2, 4]
        assert 2 in a and 3 not in a
        assert a == ElementSet(6, 0b10101) and hash(a) == hash(ElementSet(6, 0b10101))
        assert a != ElementSet(7, 0b10101) and a != 0b10101
        assert repr(a) == "ElementSet(6, {0, 2, 4})"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ElementSet(3, 1 << 5)
        with pytest.raises(ValueError):
            ElementSet(3, -1)
        with pytest.raises(ValueError, match="outside 0..2"):
            elements_mask([0, 3], 3, "basis")

    def test_element_lists_read_as_masks(self):
        assert elements_mask([0, 2, 4, 2], 6, "basis") == 0b10101
        for bad in (5, [True], [0, 1.0], "01", None):
            with pytest.raises(ValueError, match="^basis: "):
                elements_mask(bad, 6, "basis")

    def test_immutable(self):
        s = ElementSet(4, 0b1010)
        with pytest.raises(AttributeError):
            s.mask = 0


class TestGroundSet:
    def test_order_sorts_by_weight(self):
        g = GroundSet([1, 5, 3, 5])
        weights_in_order = [g.weights[e] for e in g.order]
        assert weights_in_order == sorted(weights_in_order, reverse=True)

    def test_dirty_basis_breaks_ties_first(self):
        # equal weights: members of the designated basis come first
        g = GroundSet([2, 2, 2, 2], dirty_basis=0b1010)
        assert list(g.order) == [1, 3, 0, 2]

    def test_rebuild_deterministic(self):
        w = [Fraction(1, 3), 2, Fraction(1, 3), 7]
        assert GroundSet(w, 0b0101).order == GroundSet(w, 0b0101).order

    def test_prefix_masks(self):
        g = GroundSet([3, 1, 2])
        assert g.prefix_mask(-1) == 0
        assert g.prefix_mask(0) == 1 << 0
        assert g.prefix_mask(1) == 0b101
        # the prefix through the last position is the full set
        assert g.prefix_mask(g.n - 1) == g.full_mask

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            GroundSet([1, -1])

    @pytest.mark.parametrize(
        "weights, want",
        [
            ([3, 0, 2], (3, 0, 2)),
            ((w for w in [1, 2]), (1, 2)),
            (["2/4", "0"], (Fraction(1, 2), 0)),
            (["1/2", "3", 4], (Fraction(1, 2), 3, 4)),
            ([Fraction(2, 3), 1], (Fraction(2, 3), 1)),
            ([], ()),
        ],
    )
    def test_weights_accepted(self, weights, want):
        g = GroundSet(weights)
        assert g.weights == want
        assert list(map(type, g.weights)) == list(map(type, want))
        assert g.with_dirty_basis(g.full_mask).weights == want

    @pytest.mark.parametrize(
        "weights, error, match",
        [
            ([2, "-1/2"], ValueError, "weights must be non-negative"),
            ([Fraction(-1, 3)], ValueError, "weights must be non-negative"),
            ([1, 1.0], ValueError, "weights must be exact"),
            ([None], ValueError, "weights must be exact"),
            (["x"], ValueError, "invalid literal"),
            (["1/0"], ZeroDivisionError, None),
            ([True, 2, False], ValueError, "got bool"),
        ],
    )
    def test_weights_rejected(self, weights, error, match):
        with pytest.raises(error, match=match):
            GroundSet(weights)

    @pytest.mark.parametrize("n", [1, 7, 64, 65, 300])
    def test_positions_match_bit_walk(self, n):
        rng = random.Random(n)
        g = GroundSet([rng.choice([0, 3, Fraction(1, 3)]) for _ in range(n)])
        masks = [0, g.full_mask] + [rng.getrandbits(n) for _ in range(20)]
        for mask in masks:
            assert g.positions(mask) == sorted(g.pos[e] for e in iter_bits(mask))
            assert g.weight(mask) == sum(g.weights[e] for e in iter_bits(mask))

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130, 1000])
    def test_prefix_mask_is_running_or(self, n):
        rng = random.Random(n)
        fresh_ground = GroundSet([rng.randint(0, 2) for _ in range(n)], rng.getrandbits(n) if n else 0)
        for g in (fresh_ground, fresh_ground.with_dirty_basis(rng.getrandbits(n) if n else 0)):
            acc = 0
            assert g.prefix_mask(-1) == 0
            for p in range(n):
                acc |= 1 << g.order[p]
                assert g.prefix_mask(p) == acc

    @pytest.mark.parametrize("n", [0, 5, 63, 64, 128, 200])
    def test_prefix_checkpoints_are_built_on_first_use(self, n):
        # a ground set builds no checkpoint until prefix_mask is called;
        # then checkpoint j holds the first 64 j positions, and prefix_mask
        # is the running OR at every position
        rng = random.Random(n)
        g = GroundSet([rng.randint(0, 2) for _ in range(n)], rng.getrandbits(n) if n else 0)
        assert tuple(g._prefix_masks) == ()
        g.outside(0), g.positions(g.full_mask), g.weight(g.full_mask), g.prefix_mask(-1)
        assert tuple(g._prefix_masks) == ()
        acc = 0
        for p in range(n):
            acc |= 1 << g.order[p]
            assert g.prefix_mask(p) == acc
        if n:
            assert g._prefix_masks == tuple(mask_of(g.order[: 64 * j], n) for j in range(n // 64 + 1))

    def test_prefix_state_is_subquadratic(self):
        # every-position prefix masks took n^2 bits, about 36 MB here
        tracemalloc.start()
        try:
            GroundSet.unit(16384).prefix_mask(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestIndependence:
    def test_uniform_example(self):
        g = GroundSet.unit(4)
        assert not UniformMatroid(g, 2).is_independent_mask(0b0111)

    def test_graphic_triangle_example(self):
        g = GroundSet.unit(3)
        spec = spec_from_config(g, K3)
        assert not spec.is_independent_mask(0b111)
        assert spec.is_independent_mask(0b011)

    def test_partition_example(self):
        g = GroundSet.unit(4)
        spec = PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 1])
        assert spec.is_independent_mask(0b0101)
        assert not spec.is_independent_mask(0b0011)

    def test_malformed_specs_rejected_at_construction(self):
        g = GroundSet.unit(4)
        with pytest.raises(ValueError):
            PartitionMatroid(g, masks([0, 1], [1, 2, 3]), [1, 1])  # overlap
        with pytest.raises(ValueError):
            PartitionMatroid(g, masks([0, 1]), [1])  # no cover
        with pytest.raises(ValueError):
            GraphicMatroid(g, 2, [[0, 1], [0, 2], [0, 1], [1, 0]])  # vertex range


class TestRank:
    def test_examples(self):
        g4 = GroundSet.unit(4)
        assert UniformMatroid(g4, 2).rank_mask(0b1111) == 2
        g3 = GroundSet.unit(3)
        assert spec_from_config(g3, K3).rank_mask(0b111) == 2

    def test_partition_rank_against_enumeration(self):
        g = GroundSet.unit(4)
        spec = PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 1])
        s = 0b0111
        best = max(
            m.bit_count() for m in range(1 << 4) if m & ~s == 0 and spec.is_independent_mask(m)
        )
        assert spec.rank_mask(s) == best == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_is_max_independent_subset(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        spec = _random_spec(rng, n)
        for _ in range(20):
            s = rng.randrange(1 << n)
            best = max(
                (m.bit_count() for m in range(1 << n) if m & ~s == 0 and spec.is_independent_mask(m)),
                default=0,
            )
            assert spec.rank_mask(s) == best


def _random_spec(rng, n):
    kind = rng.choice(["uniform", "partition", "graphic", "predicted_basis"])
    g = GroundSet.unit(n)
    if kind == "uniform":
        return UniformMatroid(g, rng.randint(0, n))
    if kind == "predicted_basis":
        return PredictedBasisOracle(g, rng.randrange(1 << n))
    if kind == "graphic":
        nv = rng.randint(2, n + 1)
        edges = []
        for _ in range(n):
            u = rng.randrange(nv)
            v = rng.randrange(nv - 1)
            edges.append((u, v + 1 if v >= u else v))
        return GraphicMatroid(g, nv, edges)
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for _ in range(n)]
    classes = [[e for e in range(n) if assignment[e] == i] for i in range(k)]
    classes = [c for c in classes if c]
    return PartitionMatroid(g, masks(*classes), [rng.randint(0, len(c)) for c in classes])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 9))
def test_downward_closure_on_random_chains(seed, n):
    rng = random.Random(seed)
    spec = _random_spec(rng, n)
    full = rng.randrange(1 << n)
    chain = [full]
    while chain[-1]:
        bits = list(iter_bits(chain[-1]))
        chain.append(chain[-1] & ~(1 << rng.choice(bits)))
    for big, small in zip(chain, chain[1:]):
        if spec.is_independent_mask(big):
            assert spec.is_independent_mask(small)


@pytest.mark.parametrize("seed", range(12))
def test_augmentation_axiom_small(seed):
    rng = random.Random(seed + 1000)
    n = rng.randint(1, 8)
    spec = _random_spec(rng, n)
    ind = brute_independent_masks(spec)
    for a in ind:
        for b in ind:
            if a.bit_count() > b.bit_count():
                assert any(
                    spec.is_independent_mask(b | 1 << e) for e in iter_bits(a & ~b)
                ), f"augmentation fails for {bin(a)}, {bin(b)}"


def test_all_bases_share_cardinality():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 10)
        spec = _random_spec(rng, n)
        bases = {
            m.bit_count()
            for m in brute_independent_masks(spec)
            if not any(spec.is_independent_mask(m | 1 << e) for e in range(n) if not m >> e & 1)
        }
        assert len(bases) == 1


def _greedy(query, g):
    """Final mask of the per-query greedy pass over all of g."""
    cur = 0
    for e in g.order:
        if query(cur | 1 << e):
            cur |= 1 << e
    return cur


class TestGreedy:
    def test_uniform_unit(self):
        g = GroundSet.unit(5)
        spec = UniformMatroid(g, 3)
        calls = []

        def query(mask):
            calls.append(mask)
            return spec.is_independent_mask(mask)

        basis = _greedy(query, g)
        assert sorted(iter_bits(basis)) == [g.order[0], g.order[1], g.order[2]]
        assert len(calls) == 5

    def test_graphic_weighted(self):
        g = GroundSet([3, 2, 1])
        spec = spec_from_config(g, K3)
        calls = []
        basis = _greedy(lambda m: calls.append(m) or spec.is_independent_mask(m), g)
        assert basis == 0b011 and len(calls) == 3

    def test_partition_weighted_against_enumeration(self):
        g = GroundSet([5, 4, 3])
        spec = PartitionMatroid(g, masks([0, 1], [2]), [1, 1])
        basis = greedy_native(spec, g)
        assert basis == 0b101
        tops = enumerate_max_weight_bases(spec, g)
        assert max(g.weight(b) for b in tops) == g.weight(basis)

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_weight_matches_enumeration(self, seed):
        rng = random.Random(seed + 50)
        n = rng.randint(1, 9)
        weights = [rng.randint(0, 9) for _ in range(n)]
        g = GroundSet(weights)
        spec = _random_spec(rng, n).rebind(g)
        basis = _greedy(spec.is_independent_mask, g)
        tops = enumerate_max_weight_bases(spec, g)
        assert basis in tops and g.weight(basis) == g.weight(tops[0])


class TestEnumerateMaxWeightBases:
    def test_uniform_one(self):
        g = GroundSet.unit(3)
        tops = enumerate_max_weight_bases(UniformMatroid(g, 1), g)
        assert tops == [0b001, 0b010, 0b100]

    def test_triangle_unit(self):
        g = GroundSet.unit(3)
        tops = enumerate_max_weight_bases(spec_from_config(g, K3), g)
        assert tops == [0b011, 0b101, 0b110]

    def test_partition_weighted(self):
        g = GroundSet([5, 5, 3])
        tops = enumerate_max_weight_bases(PartitionMatroid(g, masks([0, 1], [2]), [1, 1]), g)
        assert tops == [0b101, 0b110]

    def test_guard(self):
        g = GroundSet.unit(21)
        with pytest.raises(GuardExceeded):
            enumerate_max_weight_bases(UniformMatroid(g, 2), g)


class TestExplicitSystem:
    def test_downward_closed_by_construction(self):
        g = GroundSet.unit(4)
        sys_ = ExplicitSystem(g, masks([0, 1], [2, 3]))
        assert sys_.is_independent_mask(0b0001)
        assert sys_.is_independent_mask(0b0011)
        assert not sys_.is_independent_mask(0b0101)

    def test_augmentation_flag(self):
        g = GroundSet.unit(3)
        # maximal sets of different sizes: not a matroid
        assert is_matroid(ExplicitSystem(g, masks([0, 1], [2]))) is False
        # uniform(1) disguised: a matroid
        assert is_matroid(ExplicitSystem(g, masks([0], [1], [2]))) is True

    def test_augmentation_matches_the_pairwise_loop(self):
        def has_augmentation(spec):
            # reference: the pairwise loop ExplicitSystem kept before is_matroid
            by_size = {}
            for m in range(1 << spec.n):
                if spec.is_independent_mask(m):
                    by_size.setdefault(m.bit_count(), []).append(m)
            for size, bigger in by_size.items():
                if size == 0:
                    continue
                for small in by_size.get(size - 1, []):
                    for big in bigger:
                        if not any(small >> e & 1 == 0 and spec.is_independent_mask(small | 1 << e)
                                   for e in iter_bits(big & ~small)):
                            return False
            return True

        rng = random.Random(9)
        seen = set()
        for _ in range(200):
            n = rng.randint(1, 8)
            g = GroundSet.unit(n)
            if rng.random() < 0.25:
                # a uniform matroid given by its maximal sets
                k = rng.randint(0, n)
                sets = [m for m in range(1 << n) if m.bit_count() == k]
            else:
                sets = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
            sys_ = ExplicitSystem(g, sets)
            want = has_augmentation(sys_)
            seen.add(want)
            assert is_matroid(sys_) is want
        assert seen == {False, True}
        for _ in range(20):
            assert is_matroid(_random_spec(rng, rng.randint(1, 8)))

    def test_augmentation_unknown_above_guard(self):
        # U(1, 21) as an explicit system: n = 21 is above the guard of 20
        sys_ = ExplicitSystem(GroundSet.unit(21), [1 << e for e in range(21)])
        with pytest.raises(GuardExceeded):
            is_matroid(sys_)

    def test_rank_mask_matches_the_old_scan(self):
        def old_rank(spec, mask):
            # reference copy of the loop rank_mask kept before greedy_scan
            cur = 0
            for p in range(spec.ground.n):
                e = spec.ground.order[p]
                if mask >> e & 1 and spec.is_independent_mask(cur | 1 << e):
                    cur |= 1 << e
            return cur.bit_count()

        rng = random.Random(8)
        systems = 0
        while systems < 40:
            n = rng.randint(2, 8)
            sets = [[e for e in range(n) if rng.random() < 0.5] for _ in range(rng.randint(2, 4))]
            g = GroundSet([rng.randint(0, 2) for _ in range(n)])
            sys_ = ExplicitSystem(g, masks(*sets)).rebind(g.with_dirty_basis(rng.getrandbits(n)))
            if is_matroid(sys_):
                continue  # only non-matroids, where the scan order changes the answer
            systems += 1
            assert [sys_.rank_mask(m) for m in range(1 << n)] == [old_rank(sys_, m) for m in range(1 << n)]

    def test_dominated_sets_dropped(self):
        g = GroundSet.unit(3)
        sys_ = ExplicitSystem(g, masks([0], [0, 1]))
        assert sys_.maximal_masks == (0b011,)

    def test_dominated_filter_matches_the_pairwise_filter(self):
        def pairwise(masks):
            # reference copy of the filter that compared every pair of sets
            return tuple(sorted(m for m in masks if not any(m != o and m & ~o == 0 for o in masks))) or (0,)

        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 10)
            sets = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
            # duplicates, subsets of listed sets and the empty set
            sets += rng.sample(sets, rng.randint(0, len(sets)))
            sets += [m & rng.getrandbits(n) for m in rng.choices(sets, k=rng.randint(0, 3))]
            if rng.random() < 0.3:
                sets.append(0)
            rng.shuffle(sets)
            assert ExplicitSystem(GroundSet.unit(n), sets).maximal_masks == pairwise(set(sets))

    def test_all_k_subsets_build_without_pairwise_comparison(self):
        # U(8, 16) as its 12870 maximal sets: an antichain, which the
        # pairwise filter took tens of seconds over
        sets = [m for m in range(1 << 16) if m.bit_count() == 8]
        assert ExplicitSystem(GroundSet.unit(16), sets).maximal_masks == tuple(sets)


def test_independence_matches_membership_bruteforce():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 9)
        spec = _random_spec(rng, n)
        ind = set(brute_independent_masks(spec))
        for m in range(1 << n):
            assert spec.is_independent_mask(m) == (m in ind)


def test_spec_config_round_trip():
    g = GroundSet.unit(4)
    for cfg in (
        {"kind": "uniform", "k": 2},
        {"kind": "partition", "classes": [[0, 1], [2, 3]], "caps": [1, 2]},
        {"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [2, 0], [0, 2]]},
        {"kind": "predicted_basis", "basis": [1, 3]},
        {"kind": "explicit", "maximal_sets": [[0, 1], [2, 3]]},
    ):
        spec = spec_from_config(g, cfg)
        again = spec_from_config(g, spec.to_config())
        for m in range(1 << 4):
            assert spec.is_independent_mask(m) == again.is_independent_mask(m)


def _rank_additions_cum(pair, g, cur, cur_rank, target_rank, outside_positions):
    """Reference: the rank additions with one cumulative candidate mask per
    position, as they were before the prefix checkpoints."""
    m = len(outside_positions)
    d_a = target_rank - cur_rank
    if d_a * ceil_log2(m) <= m:
        cum = []
        acc = 0
        for p in outside_positions:
            acc |= 1 << g.order[p]
            cum.append(acc)
        lo = -1
        while cur_rank < target_rank:
            hi = binary_search_smallest_dependent_prefix(
                range(m), lambda i: pair.query_rank(ROLE_CLEAN, cur | cum[i]) > cur_rank, lo, m - 1
            )
            cur |= 1 << g.order[outside_positions[hi]]
            cur_rank += 1
            lo = hi
        return cur
    for p in outside_positions:
        e = g.order[p]
        got = pair.query_rank(ROLE_CLEAN, cur | 1 << e)
        if got > cur_rank:
            cur |= 1 << e
            cur_rank = got
        if cur_rank == target_rank:
            break
    return cur


def test_rank_additions_match_cumulative_masks():
    rng = random.Random(77)
    searched = linear = 0
    for pair, bd in random_pairs(16, seed=77, n_range=(100, 600), kinds=("partition", "uniform")):
        g, clean = pair.ground, pair.clean
        # the ground puts the dirty basis first, so the clean greedy basis
        # meets it in a maximal clean-independent subset, as after the
        # removals; a random part of that basis has a larger deficiency
        basis = greedy_native(clean, g)
        thinned = basis & bd.mask
        sparse = sum(1 << e for e in iter_bits(basis) if rng.random() < 0.3)
        for cur, cand in ((thinned, g.full_mask & ~bd.mask), (sparse, g.full_mask & ~sparse)):
            cur_rank, target = clean.rank_mask(cur), clean.rank_mask(cur | cand)
            m = cand.bit_count()
            if (target - cur_rank) * ceil_log2(m) <= m:
                searched += 1
            else:
                linear += 1
            new_pair, old_pair = fresh(pair), fresh(pair)
            got = _rank_additions(new_pair, g, cur, cur_rank, target, cand)
            want = _rank_additions_cum(old_pair, g, cur, cur_rank, target, g.positions(cand))
            assert got == want
            assert new_pair.ledger.export_lines() == old_pair.ledger.export_lines()
    assert searched and linear
