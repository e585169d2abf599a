import random
from functools import partial

import pytest

from matoracle import (
    GroundSet,
    IntersectionOracles,
    PartitionMatroid,
    SupersetViolation,
    UniformMatroid,
    build_exchange_graph,
    ceil_log2,
    compute_intersection_errors,
    dirty_intersection,
    textbook_intersection,
    warm_start,
)
from matoracle.core import iter_bits
from matoracle.intersection import shortest_augmenting_path
from matoracle.oracles import ROLE_CLEAN, ROLE_DIRTY

from conftest import masks


def brute_max_common(c1, c2, n):
    return max(
        m.bit_count()
        for m in range(1 << n)
        if c1.is_independent_mask(m) and c2.is_independent_mask(m)
    )


def ox_from(n, c1, c2, d1=None, d2=None):
    g = GroundSet.unit(n)
    return IntersectionOracles(g, c1.rebind(g), c2.rebind(g), (d1 or c1).rebind(g), (d2 or c2).rebind(g))


def random_partition(rng, g):
    n = g.n
    k = rng.randint(1, max(1, n // 2))
    assignment = [rng.randrange(k) for _ in range(n)]
    classes = [[e for e in range(n) if assignment[e] == i] for i in range(k)]
    classes = [c for c in classes if c]
    return PartitionMatroid(g, masks(*classes), [rng.randint(0, len(c)) for c in classes])


def random_pair_instance(rng, n, raises=2):
    g = GroundSet.unit(n)
    c1, c2 = random_partition(rng, g), random_partition(rng, g)

    def raised(spec):
        caps = list(spec.caps)
        for _ in range(raises):
            i = rng.randrange(len(caps))
            caps[i] += rng.randint(0, 1)
        return PartitionMatroid(g, spec.class_masks, caps)

    return IntersectionOracles(g, c1, c2, raised(c1), raised(c2))


def clean_graph(ox, x_mask):
    return build_exchange_graph(partial(ox.query_independent, ROLE_CLEAN), ox.ground.n, x_mask)


def _first_superset_violation(ox):
    """The precheck message by the definition: every subset mask in
    ascending order, matroid 1 before matroid 2."""
    for m in range(1 << ox.ground.n):
        for i in (0, 1):
            if ox.clean[i].is_independent_mask(m) and not ox.dirty[i].is_independent_mask(m):
                return f"set {m:#x} is clean-independent but dirty-dependent in matroid {i + 1}"
    return None


class TestExchangeGraph:
    def test_empty_x(self):
        g = GroundSet.unit(4)
        c1 = UniformMatroid(g, 2)
        c2 = PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 0])
        ox = IntersectionOracles(g, c1, c2)
        graph = clean_graph(ox, 0)
        assert all(not v for v in graph.arcs_out.values())
        assert graph.y1 == [0, 1, 2, 3]
        assert graph.y2 == [0, 1]

    def test_arcs_match_direct_tests(self):
        g = GroundSet.unit(3)
        c1 = UniformMatroid(g, 1)
        c2 = UniformMatroid(g, 1)
        ox = IntersectionOracles(g, c1, c2)
        x = 0b001
        graph = clean_graph(ox, x)
        for y in (1, 2):
            swapped = x & ~0b001 | 1 << y
            assert (y in graph.arcs_out[0]) == c1.is_independent_mask(swapped)
            assert (0 in graph.arcs_out[y]) == c2.is_independent_mask(swapped)

    def test_query_budget(self):
        g = GroundSet.unit(5)
        c1 = UniformMatroid(g, 3)
        c2 = UniformMatroid(g, 2)
        ox = IntersectionOracles(g, c1, c2)
        x = 0b00011
        clean_graph(ox, x)
        xc, out = 2, 3
        assert ox.ledger.clean_independence_count == 2 * xc * out + 2 * out

    def test_exclusion_removes_exactly_one_arc(self):
        g = GroundSet.unit(3)
        c1 = UniformMatroid(g, 1)
        c2 = UniformMatroid(g, 1)
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        x = 0b001
        forbidden = x & ~0b001 | 0b010  # the swap set {1}

        def excluding(which, mask):
            return not (which == 1 and mask == forbidden) and ox.query_independent(ROLE_DIRTY, which, mask)

        full = build_exchange_graph(partial(ox.query_independent, ROLE_DIRTY), 3, x)
        pruned = build_exchange_graph(excluding, 3, x)
        assert set(full.arcs_out[0]) - set(pruned.arcs_out[0]) == {1}
        assert pruned.arcs_out[1] == full.arcs_out[1]

    def test_random_pairs_match_direct_evaluation(self):
        # every list ascends without a sort, and holds exactly the elements
        # the defining sets make independent
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 9)
            ox = random_pair_instance(rng, n, raises=0)
            c1, c2 = ox.clean
            x = rng.getrandbits(n)
            while not (c1.is_independent_mask(x) and c2.is_independent_mask(x)):
                x &= x - 1  # drop the lowest element until X is common independent
            graph = clean_graph(ox, x)
            outside = [y for y in range(n) if not x >> y & 1]
            assert graph.y1 == [y for y in outside if c1.is_independent_mask(x | 1 << y)]
            assert graph.y2 == [y for y in outside if c2.is_independent_mask(x | 1 << y)]
            for e in range(n):
                if x >> e & 1:
                    want = [y for y in outside if c1.is_independent_mask(x & ~(1 << e) | 1 << y)]
                else:
                    want = [v for v in iter_bits(x) if c2.is_independent_mask(x & ~(1 << v) | 1 << e)]
                assert graph.arcs_out[e] == want


class TestShortestPath:
    def test_single_vertex_path(self):
        g = GroundSet.unit(2)
        c1 = UniformMatroid(g, 1)
        c2 = UniformMatroid(g, 1)
        ox = IntersectionOracles(g, c1, c2)
        graph = clean_graph(ox, 0)
        assert shortest_augmenting_path(graph) == [0]

    def test_lexicographic_tie_break(self):
        g = GroundSet.unit(3)
        c1 = UniformMatroid(g, 2)
        c2 = UniformMatroid(g, 2)
        ox = IntersectionOracles(g, c1, c2)
        graph = clean_graph(ox, 0)
        assert shortest_augmenting_path(graph) == [0]


class TestTextbook:
    def test_uniform_pair(self):
        g = GroundSet.unit(5)
        x, _, _ = textbook_intersection(IntersectionOracles(g, UniformMatroid(g, 3), UniformMatroid(g, 2)))
        assert x.bit_count() == 2

    def test_bipartite_matching_encoding(self):
        # elements are edges of a bipartite graph; one partition matroid per
        # side with unit caps encodes a matching
        rng = random.Random(4)
        for _ in range(12):
            left, right = rng.randint(1, 3), rng.randint(1, 3)
            edges = [(u, v) for u in range(left) for v in range(right) if rng.random() < 0.6]
            if not edges:
                continue
            n = len(edges)
            g = GroundSet.unit(n)
            by_left = [[i for i, e in enumerate(edges) if e[0] == u] for u in range(left)]
            by_right = [[i for i, e in enumerate(edges) if e[1] == v] for v in range(right)]
            c1 = PartitionMatroid(g, masks(*(c for c in by_left if c)), [1] * sum(1 for c in by_left if c))
            c2 = PartitionMatroid(g, masks(*(c for c in by_right if c)), [1] * sum(1 for c in by_right if c))
            x, _, _ = textbook_intersection(IntersectionOracles(g, c1, c2))
            best = max(
                (m.bit_count() for m in range(1 << n) if _is_matching(m, edges)),
                default=0,
            )
            assert x.bit_count() == best

    def test_certificate_equality_every_run(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 9)
            ox = random_pair_instance(rng, n, raises=0)
            x, u_mask, _ = textbook_intersection(ox)
            size = x.bit_count()
            assert size == ox.clean[0].rank_mask(u_mask) + ox.clean[1].rank_mask(ox.ground.full_mask & ~u_mask)
            assert size == brute_max_common(ox.clean[0], ox.clean[1], n)


def _is_matching(m, edges):
    used_l, used_r = set(), set()
    for i in iter_bits(m):
        u, v = edges[i]
        if u in used_l or v in used_r:
            return False
        used_l.add(u)
        used_r.add(v)
    return True


class TestDirtyIntersection:
    def test_exact_dirty_oracle(self):
        g = GroundSet.unit(5)
        c1 = PartitionMatroid(g, masks([0, 1, 2], [3, 4]), [1, 1])
        c2 = PartitionMatroid(g, masks([0, 3], [1, 2, 4]), [1, 1])
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        x, led, (f1, f2) = dirty_intersection(ox)
        assert f1 == f2 == []
        assert len(x) == brute_max_common(c1, c2, 5)
        # two clean verification queries per augmenting round; the last round
        # finds no dirty path and needs none
        assert led.clean_independence_count == 2 * len(x)

    def test_single_false_arc_triggers_one_search(self):
        # dirty raises one cap so exactly the one bogus entry arc appears
        g = GroundSet.unit(3)
        c1 = PartitionMatroid(g, masks([0], [1, 2]), [1, 0])
        d1 = PartitionMatroid(g, masks([0], [1, 2]), [1, 1])
        c2 = PartitionMatroid(g, masks([0, 1, 2]), [2])
        ox = IntersectionOracles(g, c1, c2, d1, c2)
        x, led, (f1, f2) = dirty_intersection(ox)
        assert len(x) == brute_max_common(c1, c2, 3) == 1
        assert len(f1) + len(f2) >= 1
        for mask in f1:
            assert d1.is_independent_mask(mask) and not c1.is_independent_mask(mask)

    def test_random_pairs_bound_and_false_lists(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 10)
            ox = random_pair_instance(rng, n)
            eta = compute_intersection_errors(ox.dirty[0], ox.dirty[1], ox.clean[0], ox.clean[1])
            x, led, false_sets = dirty_intersection(ox)
            assert len(x) == brute_max_common(ox.clean[0], ox.clean[1], n)
            bound = (len(x) + 1) * (2 + (eta.eta_1 + eta.eta_2) * (ceil_log2(n) + 2))
            assert led.clean_independence_count <= bound
            for which, lst in enumerate(false_sets, 1):
                for mask in lst:
                    assert ox.dirty[which - 1].is_independent_mask(mask)
                    assert not ox.clean[which - 1].is_independent_mask(mask)

    def test_no_dirty_query_for_a_known_false_set(self):
        # every block of clean records opens with the verification of both
        # matroids; a failed one is followed by the search that adds one set
        # to F1 or F2, so the transcript shows when each false set joined
        rng = random.Random(18)
        joined = 0
        for _ in range(60):
            ox = random_pair_instance(rng, rng.randint(2, 10))
            _, led, false_sets = dirty_intersection(ox)
            pending = [iter(f) for f in false_sets]
            known = (set(), set())
            rec_iter = iter(led.transcript)
            rec = next(rec_iter, None)
            while rec is not None:
                if rec.role == ROLE_DIRTY:
                    assert rec.mask not in known[int(rec.kind[-1]) - 1]
                    rec = next(rec_iter, None)
                    continue
                ok1, ok2 = rec, next(rec_iter)
                assert (ok1.kind, ok2.kind) == ("ind1", "ind2")
                if not (ok1.answer and ok2.answer):
                    which = 1 if not ok1.answer else 2
                    known[which - 1].add(next(pending[which - 1]))
                    joined += 1
                rec = next(rec_iter, None)
                while rec is not None and rec.role == ROLE_CLEAN:
                    rec = next(rec_iter, None)
            assert [next(p, None) for p in pending] == [None, None]
        assert joined > 0

    def test_superset_violation_detected(self):
        g = GroundSet.unit(4)
        c1 = PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 1])
        d1 = PartitionMatroid(g, masks([0, 1], [2, 3]), [0, 1])  # dirty below clean
        c2 = PartitionMatroid(g, masks([0, 1, 2, 3]), [2])
        ox = IntersectionOracles(g, c1, c2, d1, c2)
        with pytest.raises(SupersetViolation):
            dirty_intersection(ox)

    def test_superset_precheck_matches_subset_loop(self):
        # the precheck names the smallest clean-independent, dirty-dependent
        # set, matroid 1 first at a tie, and bills nothing
        rng = random.Random(15)
        seen = set()
        for _ in range(150):
            n = rng.randint(1, 8)
            ox = random_pair_instance(rng, n, raises=rng.randint(0, 2))
            lowered = [
                PartitionMatroid(
                    ox.ground,
                    d.class_masks,
                    [max(0, c - (rng.random() < 0.2)) for c in d.caps],
                )
                for d in ox.dirty
            ]
            ox = IntersectionOracles(ox.ground, *ox.clean, *lowered)
            want = _first_superset_violation(ox)
            seen.add(want and want[-1])
            if want is None:
                dirty_intersection(ox)
                continue
            with pytest.raises(SupersetViolation) as err:
                dirty_intersection(ox)
            assert str(err.value) == want
            assert ox.ledger.transcript == []
        assert seen == {None, "1", "2"}

    def test_superset_precheck_tie_names_matroid_1(self):
        g = GroundSet.unit(2)
        clean = PartitionMatroid(g, masks([0, 1]), [1])
        dirty = PartitionMatroid(g, masks([0, 1]), [0])
        with pytest.raises(SupersetViolation, match="set 0x1 .* in matroid 1$"):
            dirty_intersection(IntersectionOracles(g, clean, clean, dirty, dirty))

    def test_requires_partition_clean(self):
        g = GroundSet.unit(3)
        c1 = UniformMatroid(g, 1)
        c2 = UniformMatroid(g, 1)
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        with pytest.raises(ValueError):
            dirty_intersection(ox)

    def test_augmented_sets_stay_doubly_independent(self):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(2, 9)
            ox = random_pair_instance(rng, n)
            x, _, _ = dirty_intersection(ox)
            assert ox.clean[0].is_independent_mask(x.mask)
            assert ox.clean[1].is_independent_mask(x.mask)


class TestWarmStart:
    def test_exact_dirty(self):
        g = GroundSet.unit(5)
        c1 = PartitionMatroid(g, masks([0, 1, 2], [3, 4]), [1, 1])
        c2 = UniformMatroid(g, 2)
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        s, led = warm_start(ox)
        assert led.clean_independence_count == 2
        assert len(s) == brute_max_common(c1, c2, 5)

    def test_one_removal_each_side(self):
        g = GroundSet.unit(4)
        c1 = PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 1])
        c2 = PartitionMatroid(g, masks([0, 2], [1, 3]), [1, 1])
        d1 = PartitionMatroid(g, masks([0, 1], [2, 3]), [2, 1])
        d2 = PartitionMatroid(g, masks([0, 2], [1, 3]), [2, 1])
        ox = IntersectionOracles(g, c1, c2, d1, d2)
        s, led = warm_start(ox)
        assert ox.clean[0].is_independent_mask(s.mask) and ox.clean[1].is_independent_mask(s.mask)
        assert led.clean_independence_count <= 2 + 2 * (1 + ceil_log2(4))

    def test_size_floor_and_bound_on_random_pairs(self):
        rng = random.Random(15)
        for _ in range(60):
            n = rng.randint(2, 10)
            ox = random_pair_instance(rng, n)
            eta = compute_intersection_errors(ox.dirty[0], ox.dirty[1], ox.clean[0], ox.clean[1])
            s, led = warm_start(ox)
            assert len(s) >= eta.s_d_star - 2 * eta.eta_r
            assert led.clean_independence_count <= 2 + 2 * eta.eta_r * (1 + ceil_log2(n))
            assert ox.clean[0].is_independent_mask(s.mask)
            assert ox.clean[1].is_independent_mask(s.mask)
            # result is a subset of a dirty-optimal solution
            assert ox.dirty[0].is_independent_mask(s.mask) and ox.dirty[1].is_independent_mask(s.mask)

    def test_removals_are_the_dirty_solution_minus_the_output(self, removals):
        # the removal search is algorithms._remove_smallest_dependent, which
        # the removals fixture records: one element per search
        rng = random.Random(16)
        removed = 0
        for _ in range(60):
            ox = random_pair_instance(rng, rng.randint(2, 10))
            s_d, _, _ = textbook_intersection(IntersectionOracles(ox.ground, *ox.clean, *ox.dirty), role=ROLE_DIRTY)
            removals.clear()
            s, _ = warm_start(ox)
            assert len(removals) == s_d.bit_count() - len(s)
            assert set(removals) == set(iter_bits(s_d)) - set(s)
            removed += len(removals)
        assert removed > 0
