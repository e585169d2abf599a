import copy
import random
from collections import deque
from functools import partial
from itertools import groupby

import pytest

from matoracle import (
    ExplicitSystem,
    GraphicMatroid,
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
    unbilled_rows,
    warm_start,
)
from matoracle import intersection
from matoracle.bench import generate, random_intersection_instance, run_trial
from matoracle.core import iter_bits
from matoracle.intersection import _locate_false_set, neighbours, shortest_augmenting_path
from matoracle.oracles import ROLE_CLEAN, ROLE_DIRTY, QueryRecord

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


def clean_textbook(ox, x_mask=0):
    return textbook_intersection(partial(ox.query_rows, ROLE_CLEAN), ox.clean, x_mask)


def clean_graph(ox, x_mask):
    return build_exchange_graph(partial(ox.query_rows, ROLE_CLEAN), ox.ground.n, x_mask)


def _first_superset_violation(ox):
    """The precheck message by the definition: every subset mask in
    ascending order, matroid 1 before matroid 2."""
    for m in range(1 << ox.ground.n):
        for i in (0, 1):
            if ox.clean[i].is_independent_mask(m) and not ox.dirty[i].is_independent_mask(m):
                return f"set {m:#x} is clean-independent but dirty-dependent in matroid {i + 1}"
    return None


def arc_lists(graph):
    """(arcs_out, y1, y2) of graph: each element's successors read through
    the path search's neighbour function, and the elements whose single
    addition stays independent in matroid 1 and 2, each list ascending."""
    arcs_out = {e: list(neighbours(graph, e, 2)) for e in range(len(graph.index))}
    y1, y2 = ([y for y, row in zip(graph.outside, rows) if row[0]] for rows in graph.rows)
    return arcs_out, y1, y2


class TestExchangeGraph:
    def test_empty_x(self):
        g = GroundSet.unit(4)
        c1 = UniformMatroid(g, 2)
        c2 = PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 0])
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        arcs_out, y1, y2 = arc_lists(clean_graph(ox, 0))
        assert all(not v for v in arcs_out.values())
        assert y1 == [0, 1, 2, 3]
        assert y2 == [0, 1]

    def test_arcs_match_direct_tests(self):
        g = GroundSet.unit(3)
        c1 = UniformMatroid(g, 1)
        c2 = UniformMatroid(g, 1)
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        x = 0b001
        arcs_out, _, _ = arc_lists(clean_graph(ox, x))
        for y in (1, 2):
            swapped = x & ~0b001 | 1 << y
            assert (y in arcs_out[0]) == c1.is_independent_mask(swapped)
            assert (0 in arcs_out[y]) == c2.is_independent_mask(swapped)

    def test_query_budget(self):
        g = GroundSet.unit(5)
        c1 = UniformMatroid(g, 3)
        c2 = UniformMatroid(g, 2)
        ox = IntersectionOracles(g, c1, c2, c1, c2)
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
        full, _, _ = arc_lists(build_exchange_graph(partial(ox.query_rows, ROLE_DIRTY), 3, x))
        billed = len(ox.ledger.transcript)
        pruned, _, _ = arc_lists(
            build_exchange_graph(partial(ox.query_rows, ROLE_DIRTY, known_false=({forbidden}, ())), 3, x)
        )
        assert set(full[0]) - set(pruned[0]) == {1}
        assert pruned[1] == full[1]
        # the excluded set is answered unbilled; every other record repeats
        full_records, pruned_records = ox.ledger.transcript[:billed], ox.ledger.transcript[billed:]
        assert pruned_records == [r for r in full_records if (r.kind, r.mask) != ("ind1", forbidden)]

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
            arcs_out, y1, y2 = arc_lists(clean_graph(ox, x))
            outside = [y for y in range(n) if not x >> y & 1]
            assert y1 == [y for y in outside if c1.is_independent_mask(x | 1 << y)]
            assert y2 == [y for y in outside if c2.is_independent_mask(x | 1 << y)]
            for e in range(n):
                if x >> e & 1:
                    want = [y for y in outside if c1.is_independent_mask(x & ~(1 << e) | 1 << y)]
                else:
                    want = [v for v in iter_bits(x) if c2.is_independent_mask(x & ~(1 << v) | 1 << e)]
                assert arcs_out[e] == want

    def test_arcs_in_reverse_arcs_out(self):
        # on common independent X and on X over a dirty cap (whose partition
        # graph asks each set), the arcs into each vertex (a row of matroid 1
        # for y, a column of matroid 2 for x) are the arcs out of each vertex
        # (a row of matroid 2, a column of matroid 1) reversed, each ascending
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(4, 64)
            ox = random_pair_instance(rng, n)
            x, _ = textbook_intersection(unbilled_rows(ox.clean), ox.clean)
            x = rng.choice([x & rng.getrandbits(n), x | rng.getrandbits(n) & rng.getrandbits(n)])
            for role in (ROLE_CLEAN, ROLE_DIRTY):
                graph = build_exchange_graph(partial(ox.query_rows, role), n, x)
                arcs_out, _, _ = arc_lists(graph)
                want = {e: [] for e in range(n)}
                for u in range(n):
                    for v in arcs_out[u]:
                        want[v].append(u)
                assert {e: list(neighbours(graph, e, 1)) for e in range(n)} == want


class TestShortestPath:
    def test_single_vertex_path(self):
        g = GroundSet.unit(2)
        c1 = UniformMatroid(g, 1)
        c2 = UniformMatroid(g, 1)
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        graph = clean_graph(ox, 0)
        assert shortest_augmenting_path(graph) == [0]

    def test_lexicographic_tie_break(self):
        g = GroundSet.unit(3)
        c1 = UniformMatroid(g, 2)
        c2 = UniformMatroid(g, 2)
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        graph = clean_graph(ox, 0)
        assert shortest_augmenting_path(graph) == [0]

    @staticmethod
    def reference_search(arcs_out, y1, y2):
        """(path, to_y2) by the path search's rule over explicit arc lists:
        BFS from y2 over the reversed arcs, then the smallest start of least
        distance and, at each step, the smallest successor one closer."""
        arcs_in = {e: [] for e in arcs_out}
        for u, heads in arcs_out.items():
            for v in heads:
                arcs_in[v].append(u)
        dist = dict.fromkeys(y2, 0)
        queue = deque(y2)
        while queue:
            v = queue.popleft()
            for u in arcs_in[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        reachable = [s for s in y1 if s in dist]
        if not reachable:
            return None, dist
        path = [min(reachable, key=lambda s: (dist[s], s))]
        while dist[path[-1]]:
            path.append(min(v for v in arcs_out[path[-1]] if dist.get(v) == dist[path[-1]] - 1))
        return path, dist

    def test_matches_a_search_over_explicit_arc_lists(self):
        # the test keeps explicit arc lists, built from the rows and edited
        # by hand for each false set that the graph answers False in its row
        rng = random.Random(21)
        found = 0
        for _ in range(60):
            n = rng.randint(2, 40)
            ox = random_pair_instance(rng, n)
            x, _ = textbook_intersection(unbilled_rows(ox.clean), ox.clean)
            x &= rng.getrandbits(n) | rng.getrandbits(n)
            graph = build_exchange_graph(partial(ox.query_rows, ROLE_DIRTY), n, x)
            inside, outside, (rows1, rows2) = graph.inside, graph.outside, graph.rows
            arcs_out = {e: [] for e in range(n)}
            for y, row1, row2 in zip(outside, rows1, rows2):
                arcs_out[y] = [e for e, ok in zip(inside, row2[1:]) if ok]
                for e, ok in zip(inside, row1[1:]):
                    if ok:
                        arcs_out[e].append(y)
            y1 = [y for y, row in zip(outside, rows1) if row[0]]
            y2 = [y for y, row in zip(outside, rows2) if row[0]]
            false_sets = ([], [])
            for _ in range(4):
                path = shortest_augmenting_path(graph)
                assert (path, graph.to_y2) == self.reference_search(arcs_out, y1, y2)
                if path is None:
                    break
                found += 1
                # one exchange the path used, as a failed verification finds
                steps = [(1, None, path[0])] + [
                    (1, u, v) if x >> u & 1 else (2, v, u) for u, v in zip(path, path[1:])
                ] + [(2, None, path[-1])]
                which, out, y = rng.choice(steps)
                false_sets[which - 1].append((x if out is None else x & ~(1 << out)) | 1 << y)
                intersection._answer_false(graph.rows, x, inside, outside, false_sets)
                if out is None:
                    (y1 if which == 1 else y2).remove(y)
                elif which == 1:
                    arcs_out[out].remove(y)
                else:
                    arcs_out[y].remove(out)
        assert found > 150


class TestTextbook:
    def test_uniform_pair(self):
        g = GroundSet.unit(5)
        x, _ = clean_textbook(ox_from(5, UniformMatroid(g, 3), UniformMatroid(g, 2)))
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
            x, _ = clean_textbook(IntersectionOracles(g, c1, c2, c1, c2))
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
            x, u_mask = clean_textbook(ox)
            size = x.bit_count()
            assert size == ox.clean[0].rank_mask(u_mask) + ox.clean[1].rank_mask(ox.ground.full_mask & ~u_mask)
            assert size == brute_max_common(ox.clean[0], ox.clean[1], n)


class TestTextbookStart:
    """Any common independent start reaches a maximum common independent set."""

    @staticmethod
    def random_clean(rng, g, kind):
        if kind == "partition":
            return random_partition(rng, g)
        if kind == "uniform":
            return UniformMatroid(g, rng.randint(0, g.n))
        vertices = rng.randint(2, 6)
        return GraphicMatroid(g, vertices, [(rng.randrange(vertices), rng.randrange(vertices)) for _ in range(g.n)])

    def pairs(self, seed, count):
        """(ox, optimum size) over partition, uniform and graphic pairs at
        n <= 12; partition pairs get raised dirty caps, the others exact dirty
        oracles."""
        rng = random.Random(seed)
        for i in range(count):
            kind = ("partition", "uniform", "graphic")[i % 3]
            n = rng.randint(1, 12)
            if kind == "partition":
                ox = random_pair_instance(rng, n)
            else:
                g = GroundSet.unit(n)
                ox = ox_from(n, self.random_clean(rng, g, kind), self.random_clean(rng, g, kind))
            yield ox, brute_max_common(ox.clean[0], ox.clean[1], n)

    @staticmethod
    def assert_certified(ox, x, u_mask, size):
        c1, c2 = ox.clean
        assert c1.is_independent_mask(x) and c2.is_independent_mask(x)
        assert x.bit_count() == size
        assert size == c1.rank_mask(u_mask) + c2.rank_mask(ox.ground.full_mask & ~u_mask)

    def test_every_start_reaches_the_optimum_with_a_certificate(self):
        rng = random.Random(21)
        for ox, size in self.pairs(seed=20, count=45):
            best, u_mask = clean_textbook(ox)
            self.assert_certified(ox, best, u_mask, size)
            starts = [best] + [best & rng.getrandbits(ox.ground.n) for _ in range(3)]
            starts.append(warm_start(ox)[0].mask)
            for start in starts:
                x, u_mask = clean_textbook(ox, start)
                self.assert_certified(ox, x, u_mask, size)

    def test_optimal_start_costs_one_graph_build(self):
        for ox, size in self.pairs(seed=22, count=30):
            best, _ = clean_textbook(ox)
            before = ox.ledger.clean_independence_count
            x, _ = clean_textbook(ox, best)
            out = ox.ground.n - size
            assert x == best
            assert ox.ledger.clean_independence_count - before == 2 * size * out + 2 * out

    def test_dependent_start_raises(self):
        g = GroundSet.unit(4)
        ox = ox_from(4, UniformMatroid(g, 2), PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 1]))
        for start in (0b111, 0b0011, 1 << 4):
            with pytest.raises(ValueError, match="not independent in both matroids"):
                clean_textbook(ox, start)
        assert ox.ledger.transcript == []  # the start check is unbilled


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

    def test_non_superset_pairs_run_to_the_end_with_the_precheck_off(self, monkeypatch):
        # each set it localises is an exchange the dirty graph just used, and
        # a set already on the false list is answered dependent in every row,
        # so no localisation finds a set twice
        monkeypatch.setattr(intersection, "PRECHECK_GUARD", -1)
        rng = random.Random(19)
        runs = located = 0
        while runs < 200:
            ox = random_pair_instance(rng, rng.randint(4, 14), raises=0)
            shifted = [
                PartitionMatroid(ox.ground, c.class_masks, [max(0, k + rng.choice((-1, 0, 1))) for k in c.caps])
                for c in ox.clean
            ]
            # clean caps never exceed their class, so a lowered cap breaks the superset
            if all(d >= c for spec, lower in zip(ox.clean, shifted) for c, d in zip(spec.caps, lower.caps)):
                continue
            _, _, false_sets = dirty_intersection(IntersectionOracles(ox.ground, *ox.clean, *shifted))
            for found in false_sets:
                assert len(set(found)) == len(found)
                located += len(found)
            runs += 1
        assert located > 100

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
            s_d, _ = textbook_intersection(partial(ox.query_rows, ROLE_DIRTY), ox.dirty)
            removals.clear()
            s, _ = warm_start(ox)
            assert len(removals) == s_d.bit_count() - len(s)
            assert set(removals) == set(iter_bits(s_d)) - set(s)
            removed += len(removals)
        assert removed > 0


class TestIntersectionOraclesFailLoudly:
    def test_bad_role_raises_and_bills_nothing(self):
        g = GroundSet.unit(4)
        c1, c2 = UniformMatroid(g, 2), PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 1])
        ox = IntersectionOracles(g, c1, c2, c1, c2)
        with pytest.raises(ValueError, match="unknown oracle role"):
            ox.query_independent("oracle", 1, 0b1)
        with pytest.raises(ValueError, match="unknown oracle role"):
            ox.query_rows("oracle", 0b1, [0], [1, 2, 3])
        assert (ox.ledger.clean_count, ox.ledger.dirty_count, ox.ledger.transcript) == (0, 0, [])

    def test_explicit_clean_raises(self):
        g = GroundSet.unit(3)
        ex, u = ExplicitSystem(g, masks([0], [1, 2])), UniformMatroid(g, 2)
        for clean in ((ex, u), (u, ex)):
            with pytest.raises(ValueError, match="explicit downward-closed systems"):
                IntersectionOracles(g, *clean, u, u)
        IntersectionOracles(g, u, u, ex, ex)


def per_query_rows(independent):
    """Reference graph test for builds: the row lists of matroid 1 and 2
    through one call of independent(which, mask) per set, in the order a
    graph bills them."""

    def rows(x_mask, inside, outside):
        rows1, rows2 = [], []
        for y in outside:
            grown = x_mask | 1 << y
            row1, row2 = [], []
            for s in [grown, *[grown & ~(1 << x) for x in inside]]:
                row1.append(independent(1, s))
                row2.append(independent(2, s))
            rows1.append(row1)
            rows2.append(row2)
        return rows1, rows2

    return rows


def per_query_dirty_intersection(ox):
    """dirty_intersection with a new per-query build after each failed
    verification: (X, graphs, (F1, F2))."""
    false_sets = ([], [])

    def independent(which, mask):
        return mask not in false_sets[which - 1] and ox.query_independent(ROLE_DIRTY, which, mask)

    graphs, x_mask = [], 0
    while True:
        graphs.append(build_exchange_graph(per_query_rows(independent), ox.ground.n, x_mask))
        path = shortest_augmenting_path(graphs[-1])
        if path is None:
            return x_mask, graphs, false_sets
        flipped = x_mask
        for v in path:
            flipped ^= 1 << v
        ok1 = ox.query_independent(ROLE_CLEAN, 1, flipped)
        ok2 = ox.query_independent(ROLE_CLEAN, 2, flipped)
        if ok1 and ok2:
            x_mask = flipped
        else:
            which = 1 if not ok1 else 2
            false_sets[which - 1].append(_locate_false_set(ox, x_mask, path, which))


class TestRowsMatchPerQueryBuilds:
    """Above the golden grid, the graphs and transcripts of builds that
    answer and bill a whole graph in one call equal those of builds with one
    query per set."""

    @staticmethod
    def instances():
        """Fresh-oracle factories at n = 48 and 64, most of whose runs find
        false sets (seed 3 at n = 48 finds 282 and takes seconds)."""
        for n, seed in ((48, 0), (48, 5), (48, 11), (64, 0), (64, 1), (64, 3)):
            yield generate(random_intersection_instance(n, seed=seed, cap_raises=2)).fresh_oracles

    @staticmethod
    def recording_builds(monkeypatch):
        """(x_mask, graph) of every build through the module attribute."""
        builds = []
        inner = intersection.build_exchange_graph

        def recording(rows, n, x_mask):
            builds.append((x_mask, inner(rows, n, x_mask)))
            return builds[-1][1]

        monkeypatch.setattr(intersection, "build_exchange_graph", recording)
        return builds

    def test_dirty_intersection(self, monkeypatch):
        # a failed verification edits the graph it searched, so each graph
        # is copied as its path search left it
        found = 0
        for fresh in self.instances():
            want_ox, ox = fresh(), fresh()
            want = per_query_dirty_intersection(want_ox)
            searched, inner = [], intersection.shortest_augmenting_path

            def searching(graph):
                path = inner(graph)
                searched.append(copy.deepcopy(graph))
                return path

            monkeypatch.setattr(intersection, "shortest_augmenting_path", searching)
            builds = self.recording_builds(monkeypatch)
            x, _, false_sets = dirty_intersection(ox)
            monkeypatch.undo()
            assert (x.mask, searched, false_sets) == want
            # one build per X, and one more search per failed verification
            replays = len(false_sets[0]) + len(false_sets[1])
            assert len({x_mask for x_mask, _ in builds}) == len(builds) == len(searched) - replays
            assert ox.ledger.export_lines() == want_ox.ledger.export_lines()
            found += bool(false_sets[0] or false_sets[1])
        assert found

    def test_warm_start(self, monkeypatch):
        for fresh in self.instances():
            want_ox, ox = fresh(), fresh()
            want_builds = []

            def per_query(rows, n, x_mask):
                want_rows = per_query_rows(partial(want_ox.query_independent, ROLE_DIRTY))
                want_builds.append((x_mask, build_exchange_graph(want_rows, n, x_mask)))
                return want_builds[-1][1]

            monkeypatch.setattr(intersection, "build_exchange_graph", per_query)
            want = warm_start(want_ox)[0]
            monkeypatch.undo()
            builds = self.recording_builds(monkeypatch)
            assert warm_start(ox)[0] == want
            monkeypatch.undo()
            assert builds == want_builds
            assert ox.ledger.export_lines() == want_ox.ledger.export_lines()

    def test_dirty_dependent_x_with_known_false_sets(self):
        # X is clean-independent but one over a dirty cap in each matroid, so
        # the partition graph asks each set; some of its rows hold known
        # false sets, billed by neither build
        rng = random.Random(48)
        for n in (48, 64):
            ox = generate(random_intersection_instance(n, seed=n, cap_raises=2)).fresh_oracles()
            x_mask, _ = textbook_intersection(unbilled_rows(ox.clean), ox.clean)
            lowered = []
            for d in ox.dirty:
                counts = [(x_mask & m).bit_count() for m in d.class_masks]
                i = rng.choice([i for i, k in enumerate(counts) if k])
                caps = [*d.caps[:i], counts[i] - 1, *d.caps[i + 1 :]]
                lowered.append(PartitionMatroid(ox.ground, d.class_masks, caps))
            assert not any(d.is_independent_mask(x_mask) for d in lowered)
            want_ox, got_ox = (IntersectionOracles(ox.ground, *ox.clean, *lowered) for _ in range(2))
            inside = list(iter_bits(x_mask))
            outside = list(iter_bits(ox.ground.full_mask & ~x_mask))
            # per matroid, one X + y and three X + y - x with distinct y
            known = tuple(
                [x_mask | 1 << rng.choice(outside)]
                + [x_mask & ~(1 << rng.choice(inside)) | 1 << y for y in rng.sample(outside, 3)]
                for _ in range(2)
            )

            def independent(which, mask):
                return mask not in known[which - 1] and want_ox.query_independent(ROLE_DIRTY, which, mask)

            want = build_exchange_graph(per_query_rows(independent), n, x_mask)
            got = build_exchange_graph(partial(got_ox.query_rows, ROLE_DIRTY, known_false=known), n, x_mask)
            assert got == want
            assert got_ox.ledger.export_lines() == want_ox.ledger.export_lines()
            assert len(got_ox.ledger.transcript) == 2 * (len(inside) + 1) * len(outside) - 8


class TestOneCallPerGraph:
    """A build asks each matroid's evaluator for the whole graph in one rows
    call and, when billed, appends it to the ledger in one call; rows answered
    or billed y by y would make one call per y."""

    @staticmethod
    def counted(monkeypatch, evaluator, calls):
        """evaluator with each rows call recorded as (x_mask, outside)."""
        inner = evaluator.rows

        def rows(x_mask, inside, outside):
            calls.append((x_mask, outside))
            return inner(x_mask, inside, outside)

        monkeypatch.setattr(evaluator, "rows", rows)
        return evaluator

    @staticmethod
    def instances():
        """(fresh-oracle factory, algorithm names): partition pairs with
        raised dirty caps, and exact uniform and graphic pairs."""
        rng = random.Random(30)
        for n, seed in ((24, 1), (48, 2)):
            gen = generate(random_intersection_instance(n, seed=seed, cap_raises=2))
            yield gen.fresh_oracles, ("dirty_intersection", "warm_start")
        for kind in ("uniform", "graphic"):
            g = GroundSet.unit(12)
            specs = [TestTextbookStart.random_clean(rng, g, kind) for _ in range(2)]
            yield (lambda specs=specs: ox_from(12, *specs)), ("warm_start",)

    @pytest.mark.parametrize("run", ["dirty_intersection", "warm_start"])
    def test_billed_builds(self, monkeypatch, run):
        for fresh, runs in self.instances():
            if run not in runs:
                continue
            ox = fresh()
            n = ox.ground.n
            calls = ([], [], [], [])  # clean 1, clean 2, dirty 1, dirty 2
            for ev, made in zip(ox._evals[ROLE_CLEAN] + ox._evals[ROLE_DIRTY], calls):
                self.counted(monkeypatch, ev, made)
            appends, inner = [], ox.ledger.record_graph
            monkeypatch.setattr(ox.ledger, "record_graph", lambda *a: appends.append(a[1]) or inner(*a))
            builds = TestRowsMatchPerQueryBuilds.recording_builds(monkeypatch)
            result = getattr(intersection, run)(ox)
            monkeypatch.undo()
            xs = [x_mask for x_mask, _ in builds]
            outside = [[y for y in range(n) if not x_mask >> y & 1] for x_mask in xs]
            assert len(xs) > 1
            assert calls[0] == calls[1] == []
            assert calls[2] == calls[3] == list(zip(xs, outside))
            # each failed verification bills the kept graph of X once more
            replays = sum(map(len, result[2])) if run == "dirty_intersection" else 0
            assert [x_mask for x_mask, _ in groupby(appends)] == xs
            assert len(appends) == len(xs) + replays

    def test_unbilled_builds(self, monkeypatch):
        for fresh, _ in self.instances():
            ox = fresh()
            calls = ([], [])
            for spec, made in zip(ox.clean, calls):
                make = spec.evaluator
                monkeypatch.setattr(
                    spec, "evaluator", lambda make=make, made=made: self.counted(monkeypatch, make(), made)
                )
            builds = TestRowsMatchPerQueryBuilds.recording_builds(monkeypatch)
            textbook_intersection(unbilled_rows(ox.clean), ox.clean)
            monkeypatch.undo()
            xs = [x_mask for x_mask, _ in builds]
            assert len(xs) > 1
            assert [x_mask for x_mask, _ in calls[0]] == [x_mask for x_mask, _ in calls[1]] == xs
            assert ox.ledger.transcript == []

    def test_known_false_at_row_edges(self):
        # matroid 1 knows the first set of the first row false, matroid 2 the
        # last set of a row whose list the evaluator shares with other rows:
        # both are answered False and left unbilled, and the rows that share
        # the list keep its answers
        found = 0
        for seed in range(8):
            ox = generate(random_intersection_instance(24, seed=seed, cap_raises=2)).fresh_oracles()
            n = ox.ground.n
            x, _ = textbook_intersection(unbilled_rows(ox.clean), ox.clean)
            x &= x - 1  # the optimum less its lowest element
            inside = list(iter_bits(x))
            outside = [y for y in range(n) if not x >> y & 1]
            want = unbilled_rows(ox.dirty)(x, inside, outside)
            shared = [r for r, row in enumerate(want[1]) if row[-1] and sum(other is row for other in want[1]) > 1]
            if not shared:
                continue
            found += 1
            r = shared[0]
            known = ([x | 1 << outside[0]], [x & ~(1 << inside[-1]) | 1 << outside[r]])
            got = ox.query_rows(ROLE_DIRTY, x, inside, outside, known_false=known)
            expect = tuple([list(row) for row in rows] for rows in want)
            expect[0][0][0] = False
            expect[1][r][-1] = False
            assert got == expect
            assert [got[1][q] for q in range(len(outside)) if want[1][q] is want[1][r] and q != r] != []
            records = [
                QueryRecord(ROLE_DIRTY, f"ind{k}", int(want[k - 1][q][i]), mask)
                for q, y in enumerate(outside)
                for i, mask in enumerate([x | 1 << y, *[x & ~(1 << e) | 1 << y for e in inside]])
                for k in (1, 2)
                if (k, q, i) not in ((1, 0, 0), (2, r, len(inside)))
            ]
            assert ox.ledger.transcript == records
        assert found > 2

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_rebilled_rows_match_a_build_with_one_more_false_set(self, where):
        # a failed verification bills the kept rows of X again with the new
        # false set's position unbilled: the records of a new build that
        # knows the set false, whether that position falls before or after
        # the positions already unbilled
        for seed in range(3):
            fresh = generate(random_intersection_instance(24, seed=seed, cap_raises=2)).fresh_oracles
            ox, want_ox = fresh(), fresh()
            n = ox.ground.n
            x, _ = textbook_intersection(unbilled_rows(ox.clean), ox.clean)
            inside = list(iter_bits(x))
            outside = [y for y in range(n) if not x >> y & 1]
            mid = len(outside) // 2
            known = ([x & ~(1 << inside[0]) | 1 << outside[mid]], [x | 1 << outside[mid + 1]])
            if where == "before":
                k, f = 1, x | 1 << outside[0]
            else:
                k, f = 0, x & ~(1 << inside[-1]) | 1 << outside[-1]
            rows = ox.query_rows(ROLE_DIRTY, x, inside, outside, known_false=known)
            unbilled = intersection._answer_false(rows, x, inside, outside, known)
            (p,) = intersection._answer_false(rows, x, inside, outside, ([f], []) if k == 0 else ([], [f]))
            assert len(unbilled) == 2 and (p < min(unbilled) if where == "before" else p > max(unbilled))
            ox.ledger.record_graph(ROLE_DIRTY, x, inside, outside, *rows, unbilled | {p})
            want_ox.query_rows(ROLE_DIRTY, x, inside, outside, known_false=known)
            known[k].append(f)
            want_ox.query_rows(ROLE_DIRTY, x, inside, outside, known_false=known)
            assert ox.ledger.export_lines() == want_ox.ledger.export_lines()


def test_partition_rows_count_classes_once_per_x(monkeypatch):
    # each dirty evaluator counts the classes of each X once for all its rows,
    # and a clean query costs at most one count; a count per record would
    # exceed the bound, and rows asked set by set would fall below it
    ox = generate(random_intersection_instance(64, seed=3, cap_raises=2)).fresh_oracles()
    counted = []
    inner = PartitionMatroid._class_counts
    monkeypatch.setattr(
        PartitionMatroid,
        "_class_counts",
        lambda self, mask, *args, **kw: counted.append(mask) or inner(self, mask, *args, **kw),
    )
    builds = TestRowsMatchPerQueryBuilds.recording_builds(monkeypatch)
    _, led, _ = dirty_intersection(ox)
    xs = {x_mask for x_mask, _ in builds}
    assert len(builds) == len(xs) > 10
    assert 2 * len(xs) <= len(counted) <= 2 * len(xs) + led.clean_count
    assert led.dirty_count > 100 * len(counted)


def test_non_superset_pair_above_the_precheck_reports_an_incorrect_trial():
    # dirty caps of matroid 1 one below the clean ones at n = 15: nothing
    # detects the broken superset, the run returns an X smaller than the
    # optimum, and the record says so through correct alone
    inst = random_intersection_instance(15, seed=0, cap_raises=0)
    inst.dirty = dict(inst.dirty, caps=[max(0, k - 1) for k in inst.dirty["caps"]])
    rec = run_trial(inst, "intersect-dirty")
    assert (rec.error, rec.correct, rec.eta_source) == ("", False, "skipped")
