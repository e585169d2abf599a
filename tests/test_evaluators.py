"""Per-run evaluators answer exactly as their spec does, whatever the order of
the queries, and keep their state per pair, never on a spec."""

import random
from functools import partial
from itertools import compress

import pytest

from matoracle import (
    ExplicitSystem,
    GraphicMatroid,
    GroundSet,
    IntersectionOracles,
    OraclePair,
    PartitionMatroid,
    PredictedBasisOracle,
    UniformMatroid,
    greedy_basis,
    greedy_native,
    weighted_basis,
)
from matoracle.bench import generate, random_instance, random_intersection_instance
from matoracle.core import _AnchoredEvaluator, iter_bits, mask_of
from matoracle.intersection import build_exchange_graph, textbook_intersection
from matoracle.oracles import ROLE_CLEAN, ROLE_DIRTY, QueryRecord

from conftest import masks

KINDS = ["partition", "graphic", "uniform", "predicted_basis", "explicit"]


def _random_spec(rng, kind, n):
    g = GroundSet([rng.randint(0, 3) for _ in range(n)])
    if kind == "uniform":
        return UniformMatroid(g, rng.randint(0, n))
    if kind == "graphic":
        # self-loops and parallel edges included
        nv = rng.randint(1, n + 1)
        return GraphicMatroid(g, nv, [(rng.randrange(nv), rng.randrange(nv)) for _ in range(n)])
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for _ in range(n)]
    classes = [c for c in ([e for e in range(n) if assignment[e] == i] for i in range(k)) if c]
    return PartitionMatroid(g, masks(*classes), [rng.randint(0, len(c)) for c in classes])


def _any_spec(rng, kind, n):
    """A random spec of any kind; the explicit systems are mostly not
    matroids."""
    if kind == "predicted_basis":
        return PredictedBasisOracle(GroundSet([rng.randint(0, 3) for _ in range(n)]), rng.getrandbits(n))
    if kind == "explicit":
        g = GroundSet([rng.randint(0, 3) for _ in range(n)])
        return ExplicitSystem(g, [rng.getrandbits(n) for _ in range(rng.randint(1, 4))])
    return _random_spec(rng, kind, n)


def _queries(rng, spec, steps):
    """Masks near a growing independent set: one element added, one
    exchanged, two exchanged for one, a subset of it plus one element,
    subsets of it and random sets, in random order."""
    n, full = spec.n, spec.ground.full_mask
    cur = 0
    for _ in range(steps):
        inside, outside = list(iter_bits(cur)), list(iter_bits(full & ~cur))
        op = rng.random()
        if op < 0.3 and outside:
            mask = cur | 1 << rng.choice(outside)
        elif op < 0.45 and inside and outside:
            mask = cur & ~(1 << rng.choice(inside)) | 1 << rng.choice(outside)
        elif op < 0.55 and len(inside) >= 2 and outside:
            x1, x2 = rng.sample(inside, 2)
            mask = cur & ~(1 << x1 | 1 << x2) | 1 << rng.choice(outside)
        elif op < 0.7 and outside:
            mask = cur & rng.getrandbits(n) | 1 << rng.choice(outside)
        elif op < 0.8:
            mask = cur & rng.getrandbits(n)
        else:
            mask = rng.getrandbits(n)
        yield mask
        if (mask & ~cur or rng.random() < 0.1) and spec.is_independent_mask(mask):
            cur = mask


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_evaluator_matches_the_spec(kind, seed):
    rng = random.Random(f"{kind}:{seed}")
    for _ in range(60):
        spec = _any_spec(rng, kind, rng.randint(1, 40))
        ev = spec.evaluator()
        for mask in _queries(rng, spec, 80):
            if rng.random() < 0.3:
                assert ev.rank(mask) == spec.rank_mask(mask)
            else:
                assert ev.independent(mask) == spec.is_independent_mask(mask)


def _per_query_scan(spec, cur, candidates):
    """Reference pass: one spec query per candidate, cur growing on True."""
    answers = []
    for e in candidates:
        answers.append(spec.is_independent_mask(cur | 1 << e))
        if answers[-1]:
            cur |= 1 << e
    return answers


@pytest.mark.parametrize("kind", KINDS)
def test_greedy_scan_needs_no_full_evaluation(kind, monkeypatch):
    # every query of a greedy scan is the last independent set plus one element
    rng = random.Random(kind)
    spec = _any_spec(rng, kind, 40)
    order = spec.ground.order
    want = mask_of(compress(order, _per_query_scan(spec, 0, order)), spec.n)
    calls = []
    inner = spec._load
    monkeypatch.setattr(spec, "_load", lambda *args: calls.append(args) or inner(*args))
    assert greedy_native(spec) == want
    assert calls == []


@pytest.mark.parametrize("kind", KINDS)
def test_scan_matches_the_per_query_pass(kind):
    # passes from the empty set, from the evaluator's anchor and from a
    # random set (independent or not) inside skip, each on the evaluator the
    # passes before it left behind, with single queries in between
    rng = random.Random(kind)
    for _ in range(40):
        spec = _any_spec(rng, kind, rng.randint(1, 40))
        g, ev, last = spec.ground, spec.evaluator(), 0
        for _ in range(6):
            cur = rng.choice([0, last, rng.getrandbits(spec.n)])
            skip = cur | rng.getrandbits(spec.n) & rng.getrandbits(spec.n)
            candidates = g.outside(skip)
            assert candidates == [e for e in g.order if not skip >> e & 1]
            answers, grown = ev.scan(cur, candidates)
            assert answers == _per_query_scan(spec, cur, candidates)
            last = cur | mask_of(compress(candidates, answers), spec.n)
            assert grown == last
            for mask in (last, last | rng.getrandbits(spec.n), last & rng.getrandbits(spec.n)):
                assert ev.independent(mask) == spec.is_independent_mask(mask)


@pytest.mark.parametrize(
    "spec, cur",
    [(PartitionMatroid(GroundSet.unit(6), masks([0, 1, 2], [3, 4, 5]), [1, 2]), 0b000011),  # over a cap
     (GraphicMatroid(GroundSet.unit(5), 4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]), 0b00111),  # a cycle
     (UniformMatroid(GroundSet.unit(5), 2), 0b00111)],
)
def test_scan_from_a_dependent_set_answers_false(spec, cur):
    candidates = spec.ground.outside(cur)
    ev = spec.evaluator()
    assert ev.scan(cur, candidates) == ([False] * len(candidates), cur)
    assert _per_query_scan(spec, cur, candidates) == [False] * len(candidates)
    # the dependent start did not become the anchor
    assert ev.independent(0b1) and not ev.independent(cur)


@pytest.mark.parametrize("kind", ["partition", "graphic", "uniform", "predicted_basis"])
def test_a_pass_is_not_answered_query_by_query(kind, monkeypatch):
    # at most one full evaluation (of the start set) per pass and no
    # independence query; an explicit state asks its maximal-set test for
    # each candidate, so it is not here
    rng = random.Random(kind)
    for _ in range(10):
        spec = _any_spec(rng, kind, rng.randint(8, 40))
        ev = spec.evaluator()
        ev.independent(rng.getrandbits(spec.n))  # some anchor
        calls = []
        for name in ("independent", "is_independent_mask", "rank_mask", "_load"):
            for obj in (spec, ev):
                if hasattr(obj, name):
                    inner = getattr(obj, name)
                    monkeypatch.setattr(obj, name, lambda *args, name=name, inner=inner: calls.append(name) or inner(*args))
        for start in ("empty", "random", "anchor"):
            cur = {"empty": 0, "random": rng.getrandbits(spec.n), "anchor": ev.anchor}[start]
            calls.clear()
            ev.scan(cur, spec.ground.outside(cur | rng.getrandbits(spec.n)))
            assert calls in ([], ["_load"]), (start, calls)
        monkeypatch.undo()


def _per_query_prefix_pass(query, g, cur, start, skip):
    """Reference run: query((cur | 1 << e) & prefix through e) per element e
    outside skip from position start, up to the first True."""
    answers = []
    for p in range(start, g.n):
        e = g.order[p]
        if not skip >> e & 1:
            answers.append(query((cur | 1 << e) & g.prefix_mask(p)))
            if answers[-1]:
                return p, answers
    return g.n, answers


def _first_pass(rng, n):
    """(cur, start, skip) of a walk's first pass.  cur is a random set, so it
    is dependent (over a cap, with a cycle) as often as not."""
    skip = rng.getrandbits(n)
    return rng.getrandbits(n) & rng.choice([skip, rng.getrandbits(n)]), 0, skip


def _next_pass(rng, g, cur, skip, stop):
    """(cur, start, skip) of the pass after one that stopped at stop: mostly
    the next run with the element at stop added and perhaps one element
    removed, and also a start in the middle (behind or ahead of the walk),
    at 0 or at n, a new cur or a new skip."""
    n = g.n
    op = rng.random()
    if op < 0.6 and stop < n:
        cur |= 1 << g.order[stop]
        if rng.random() < 0.4:
            cur &= ~(1 << rng.choice(list(iter_bits(cur))))
        return cur, stop + 1, skip
    if op < 0.8:
        return cur ^ 1 << rng.randrange(n), rng.randint(0, n), skip
    if op < 0.9:
        return rng.getrandbits(n), rng.choice([0, n]), skip
    return cur, rng.randint(0, n), rng.getrandbits(n)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_prefix_pass_matches_the_per_query_run(kind, seed):
    # each walk also answers single queries between its passes
    rng = random.Random(f"prefix:{kind}:{seed}")
    seen = set()
    for _ in range(30):
        spec = _any_spec(rng, kind, rng.randint(1, 40))
        g, ev = spec.ground, spec.evaluator()
        walk = ev.prefix_walk()
        cur, start, skip = _first_pass(rng, spec.n)
        for _ in range(20):
            got = walk.prefix_pass(cur, start, skip)
            assert got == _per_query_prefix_pass(spec.is_independent_mask, g, cur, start, skip)
            seen.add((start in (0, spec.n), spec.is_independent_mask(cur & g.prefix_mask(start - 1))))
            mask = rng.getrandbits(spec.n)
            assert ev.independent(mask) == spec.is_independent_mask(mask)
            cur, start, skip = _next_pass(rng, g, cur, skip, got[0])
    # starts at 0 or n and in the middle, each below a dependent set of cur
    # and below an independent one
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _count_new_states(walk):
    calls = []
    inner = walk.new_state
    walk.new_state = lambda: calls.append(1) or inner()
    return calls


def test_prefix_pass_from_a_dependent_set():
    # partition over a cap, graphic with a cycle and uniform over k below the
    # start: every answer is False, also where e alone would fit the state,
    # until a removal repairs the set on a new state
    g = GroundSet.unit(6)
    for spec, cur, repaired in [
        (PartitionMatroid(g, masks([0, 1, 2], [3, 4, 5]), [1, 2]), 0b000011, 0b000001),
        (GraphicMatroid(g, 4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)]), 0b000111, 0b000101),
        (UniformMatroid(g, 2), 0b000111, 0b000001),
    ]:
        walk = spec.evaluator().prefix_walk()
        states = _count_new_states(walk)
        assert walk.prefix_pass(cur, 3, 0) == (6, [False] * 3)
        assert walk.prefix_pass(cur, 6, 0) == (6, [])
        assert len(states) == 1
        assert walk.prefix_pass(repaired, 3, 0) == (3, [True])
        assert len(states) == 2


@pytest.mark.parametrize("kind", KINDS)
def test_prefix_walk_starts_again_when_cur_changes_below_it(kind):
    # adding the element at the walk's stop and removing a member above it
    # keep the walk's state, as in the weighted basis; removing a member
    # below the stop builds a new state
    rng = random.Random(f"restart:{kind}")
    seen = 0
    for _ in range(40):
        spec = _any_spec(rng, kind, rng.randint(4, 30))
        g, n = spec.ground, spec.n
        walk = spec.evaluator().prefix_walk()
        states = _count_new_states(walk)
        skip = rng.getrandbits(n)
        cur = greedy_native(spec) & skip
        stop = walk.prefix_pass(cur, 0, skip)[0]
        for restart in (False, True):
            if stop == n:
                break
            cur |= 1 << g.order[stop]
            side = [e for e in iter_bits(cur) if (g.pos[e] < stop) == restart and g.pos[e] != stop]
            if not side:
                break
            cur &= ~(1 << rng.choice(side))
            got = walk.prefix_pass(cur, stop + 1, skip)
            assert got == _per_query_prefix_pass(spec.is_independent_mask, g, cur, stop + 1, skip)
            assert len(states) == 1 + restart
            seen += restart
            stop = got[0]
    assert seen >= 10


def _traced_pass(pair, in_pass):
    inner = pair.query_prefix_pass

    def traced(*args):
        in_pass.append(True)
        try:
            return inner(*args)
        finally:
            in_pass.clear()

    return traced


@pytest.mark.parametrize("kind", ["partition", "graphic", "uniform", "predicted_basis"])
def test_a_weighted_walk_asks_for_no_set_in_full(kind, monkeypatch):
    # these kinds keep the walk's state: no prefix pass of a weighted basis
    # run asks the evaluator or the spec about a whole set, and the run
    # builds one state
    rng = random.Random(f"stateful:{kind}")
    for _ in range(10):
        n = rng.randint(10, 40)
        spec = _any_spec(rng, kind, n).rebind(GroundSet(rng.sample(range(4 * n), n)))
        bd = greedy_native(spec) & rng.getrandbits(n) | rng.getrandbits(n) & rng.getrandbits(n)
        pair = OraclePair(spec, spec, spec.ground).with_dirty_basis(bd)
        in_pass, asked = [], []
        ev = pair._evals[ROLE_CLEAN]
        for obj, name in ((pair.clean, "_class_counts"), (pair.clean, "_load"), (ev, "independent")):
            if hasattr(obj, name):
                inner = getattr(obj, name)
                monkeypatch.setattr(obj, name, lambda *a, name=name, inner=inner: in_pass and asked.append(name) or inner(*a))
        monkeypatch.setattr(pair, "query_prefix_pass", _traced_pass(pair, in_pass))
        states = _count_new_states(pair._walks[ROLE_CLEAN])
        out, _ = weighted_basis(bd, pair)
        assert pair.ground.weight(out.mask) == pair.ground.weight(greedy_native(pair.clean))
        assert asked == []
        assert len(states) == 1
        monkeypatch.undo()


@pytest.mark.parametrize("kind", ["partition", "graphic", "uniform", "predicted_basis"])
def test_two_pairs_over_one_spec_walk_apart(kind):
    # two pairs over one spec take turns: each pair's walk keeps its own
    # cur, position and skip, and bills what one query per set would
    rng = random.Random(f"pairs:{kind}")
    for _ in range(20):
        spec = _any_spec(rng, kind, rng.randint(2, 30))
        g = spec.ground
        pairs = [OraclePair(spec, spec, g) for _ in range(2)]
        refs = [OraclePair(spec, spec, g) for _ in range(2)]
        args = [_first_pass(rng, spec.n) for _ in pairs]
        for _ in range(15):
            for i, (pair, ref) in enumerate(zip(pairs, refs)):
                cur, start, skip = args[i]
                stop = pair.query_prefix_pass(ROLE_CLEAN, cur, start, skip)
                billed_one_by_one = partial(ref.query_independent, ROLE_CLEAN)
                assert stop == _per_query_prefix_pass(billed_one_by_one, g, cur, start, skip)[0]
                args[i] = _next_pass(rng, g, cur, skip, stop)
        for pair, ref in zip(pairs, refs):
            assert pair.ledger.export_lines() == ref.ledger.export_lines()


def _alternate(rng, evaluators, spec, steps):
    streams = [_queries(random.Random(rng.random()), spec, steps) for _ in evaluators]
    for _ in range(steps):
        for ev, stream in zip(evaluators, streams):
            mask = next(stream)
            assert ev.independent(mask) == spec.is_independent_mask(mask)
            assert ev.rank(mask) == spec.rank_mask(mask)


@pytest.mark.parametrize("kind", ["partition", "graphic", "uniform"])
def test_two_fresh_pairs_of_one_instance(kind):
    rng = random.Random(kind)
    for _ in range(10):
        gen = generate(random_instance(rng.randint(4, 30), kind=kind, seed=rng.randrange(10**6)))
        before = dict(vars(gen.pair.clean))
        pairs = [gen.fresh_pair(), gen.fresh_pair()]
        streams = [_queries(random.Random(rng.random()), gen.pair.clean, 60) for _ in pairs]
        for _ in range(60):
            for pair, stream in zip(pairs, streams):
                mask = next(stream)
                assert pair.query_independent(ROLE_CLEAN, mask) == gen.pair.clean.is_independent_mask(mask)
                assert pair.query_rank(ROLE_CLEAN, mask) == gen.pair.clean.rank_mask(mask)
        # no state was kept on the spec
        assert vars(gen.pair.clean) == before
        assert vars(pairs[0].clean).keys() == before.keys()


@pytest.mark.parametrize("kind", ["partition", "graphic", "uniform"])
def test_two_rebind_clones_of_one_spec(kind):
    rng = random.Random(kind)
    for _ in range(10):
        spec = _random_spec(rng, kind, rng.randint(2, 30))
        clones = [spec.rebind(spec.ground.with_dirty_basis(rng.getrandbits(spec.n))) for _ in range(2)]
        _alternate(rng, [c.evaluator() for c in clones], spec, 60)
        assert all(vars(c).keys() == vars(spec).keys() for c in clones)


@pytest.mark.parametrize("kind", ["partition", "graphic", "uniform"])
def test_with_dirty_basis_keeps_the_answers(kind):
    rng = random.Random(kind)
    for _ in range(10):
        gen = generate(random_instance(rng.randint(4, 30), kind=kind, seed=rng.randrange(10**6)))
        pair0 = gen.fresh_pair()
        bd = greedy_basis(pair0)
        pair = pair0.with_dirty_basis(bd.mask)
        assert pair.ledger is pair0.ledger
        for role, spec in ((ROLE_CLEAN, gen.pair.clean), (ROLE_DIRTY, gen.pair.dirty)):
            assert pair.query_independent(role, bd.mask) == spec.is_independent_mask(bd.mask)
            for mask in _queries(rng, spec, 40):
                for p in (pair, pair0):
                    assert p.query_independent(role, mask) == spec.is_independent_mask(mask)
                    assert p.query_rank(role, mask) == spec.rank_mask(mask)


def test_explicit_rank_follows_the_rebased_order():
    # a non-matroid's greedy rank depends on the canonical order, which
    # with_dirty_basis moves
    g = GroundSet.unit(3)
    dirty = ExplicitSystem(g, masks([0], [1, 2]))
    pair0 = OraclePair(UniformMatroid(g, 2), dirty, g)
    assert pair0.query_rank(ROLE_DIRTY, 0b111) == 1
    pair = pair0.with_dirty_basis(0b110)
    assert pair.query_rank(ROLE_DIRTY, 0b111) == 2 == pair.dirty.rank_mask(0b111)


def test_unknown_role_raises_and_bills_nothing():
    rng = random.Random(5)
    gen = generate(random_instance(12, kind="graphic", seed=3))
    pair = gen.fresh_pair()
    greedy_basis(pair)
    counts = (pair.ledger.clean_count, pair.ledger.dirty_count, len(pair.ledger.transcript))
    for query in (pair.query_independent, pair.query_rank):
        with pytest.raises(ValueError, match="unknown oracle role"):
            query("oracle", rng.getrandbits(12))
    assert (pair.ledger.clean_count, pair.ledger.dirty_count, len(pair.ledger.transcript)) == counts

    ox = generate(random_intersection_instance(10, seed=2)).fresh_oracles()
    ox.query_independent(ROLE_CLEAN, 1, 0b1)
    with pytest.raises(ValueError, match="unknown oracle role"):
        ox.query_independent("oracle", 2, 0b11)
    assert (ox.ledger.clean_count, ox.ledger.dirty_count, len(ox.ledger.transcript)) == (1, 0, 1)


@pytest.mark.parametrize("which", [0, 3, -1, True, 1.0, 2.0, "1"])
def test_bad_matroid_index_raises_and_bills_nothing(which):
    ox = generate(random_intersection_instance(10, seed=2)).fresh_oracles()
    for role in (ROLE_CLEAN, ROLE_DIRTY):
        with pytest.raises(ValueError, match="matroid index must be 1 or 2"):
            ox.query_independent(role, which, 0b11)
    assert (ox.ledger.clean_count, ox.ledger.dirty_count, ox.ledger.transcript) == (0, 0, [])
    assert all(ev.state is None for ev in ox._evals[ROLE_CLEAN] + ox._evals[ROLE_DIRTY])


def _count_full_evaluations(monkeypatch, specs):
    calls = []
    for spec in specs:
        inner = spec._class_counts
        monkeypatch.setattr(
            spec, "_class_counts", lambda mask, *args, inner=inner, **kw: calls.append(mask) or inner(mask, *args, **kw)
        )
    return calls


def test_exchange_graph_needs_no_full_evaluation_after_x(monkeypatch):
    # a partition evaluator answers the whole graph from X's count per
    # class, so it costs one full count of X per matroid
    rng = random.Random(3)
    for seed in range(6):
        ox = generate(random_intersection_instance(rng.randint(12, 30), seed=seed)).fresh_oracles()
        direct = lambda x, inside, outside: tuple(_per_query_rows(spec, x, outside) for spec in ox.clean)  # noqa: E731
        x_mask, _ = textbook_intersection(direct, ox.clean)
        x_mask &= ~(1 << next(iter_bits(x_mask), 0))  # the optimum less one element
        want = build_exchange_graph(direct, ox.ground.n, x_mask)
        calls = _count_full_evaluations(monkeypatch, ox.clean)
        graph = build_exchange_graph(partial(ox.query_rows, ROLE_CLEAN), ox.ground.n, x_mask)
        assert graph == want
        assert calls == [x_mask] * 2


def test_weighted_partition_scan_needs_one_full_evaluation(monkeypatch):
    # the dirty basis is the clean max-weight basis less some elements: after
    # the full evaluation of the dirty basis, every single query is the
    # working set plus one element, and the walk answers its runs from its
    # own class counts
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(10, 40)
        spec = _random_spec(rng, "partition", n)
        g = GroundSet(rng.sample(range(4 * n), n))  # distinct weights: one max-weight basis
        spec = spec.rebind(g)
        best = greedy_native(spec)
        bd = best & rng.getrandbits(n)
        pair = OraclePair(spec, spec, g).with_dirty_basis(bd)
        calls = _count_full_evaluations(monkeypatch, [pair.clean])
        out, _ = weighted_basis(bd, pair)
        assert out.mask == best
        assert len(calls) == (bd.bit_count() > 1)


def test_intersection_oracles_answer_as_the_specs():
    rng = random.Random(11)
    for seed in range(6):
        ox = generate(random_intersection_instance(rng.randint(6, 24), seed=seed)).fresh_oracles()
        for role, specs in ((ROLE_CLEAN, ox.clean), (ROLE_DIRTY, ox.dirty)):
            for which, spec in enumerate(specs, 1):
                for mask in _queries(rng, spec, 60):
                    assert ox.query_independent(role, which, mask) == spec.is_independent_mask(mask)


def test_fresh_evaluators_build_no_state():
    # generate does no O(n) work for the evaluators: state comes with the
    # first query
    gen = generate(random_instance(64, kind="partition", seed=1))
    ev = gen.pair._evals[ROLE_CLEAN]
    assert ev.state is None
    gen.pair.query_independent(ROLE_CLEAN, 0b1)
    assert ev.state is not None


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_answers_through_an_anchored_evaluator(kind):
    # a spec gives its state and its full pass; the queries are the
    # evaluator's alone
    spec = _any_spec(random.Random(kind), kind, 12)
    ev = spec.evaluator()
    assert isinstance(ev, _AnchoredEvaluator) and ev.spec is spec and ev.state is None
    assert not any(hasattr(spec, name) for name in ("independent", "rank", "scan", "prefix_walk", "rows"))


def test_explicit_rank_of_a_dependent_one_element_extension():
    # a system that is not a matroid: with the anchor {0, 1}, the rank of
    # {0, 1, 2} is that of the greedy pass in canonical order (2 first,
    # then neither 0 nor 1 fits), not the anchor's size
    g = GroundSet([1, 1, 2])
    pair = OraclePair(UniformMatroid(g, 3), ExplicitSystem(g, masks([0, 1], [2])), g)
    assert pair.query_independent(ROLE_DIRTY, 0b011)
    assert pair._evals[ROLE_DIRTY].anchor == 0b011
    assert pair.query_rank(ROLE_DIRTY, 0b111) == 1 == pair.dirty.rank_mask(0b111)


def _row_masks(x_mask, y):
    grown = x_mask | 1 << y
    return [grown, *[grown ^ 1 << x for x in iter_bits(x_mask)]]


def _per_query_rows(spec, x_mask, outside):
    """Reference rows: one spec query per set."""
    return [[spec.is_independent_mask(m) for m in _row_masks(x_mask, y)] for y in outside]


def _full_class_start(rng, spec):
    """An independent X of the partition spec with some classes at their cap:
    a random subset of a basis, with a random choice of classes kept whole."""
    basis = greedy_native(spec)
    keep = sum(m for m in spec.class_masks if rng.random() < 0.5)
    return basis & (keep | rng.getrandbits(spec.n))


@pytest.mark.parametrize("seed", range(4))
def test_partition_row_matches_the_spec(seed):
    # X independent or one over a cap (the rows fall back to a query per
    # set), and y in a class with room or in a full class; the evaluator
    # also answers single queries between graphs, and a second graph of the
    # same X after them
    rng = random.Random(f"row:{seed}")
    seen = set()
    for _ in range(40):
        spec = _random_spec(rng, "partition", rng.randint(2, 40))
        ev = spec.evaluator()
        for _ in range(4):
            x_mask = _full_class_start(rng, spec)
            room = [(x_mask & m).bit_count() < c for m, c in zip(spec.class_masks, spec.caps)]
            addable = [e for i, m in enumerate(spec.class_masks) for e in iter_bits(m & ~x_mask) if not room[i]]
            over = bool(addable) and rng.random() < 0.4
            if over:
                x_mask |= 1 << rng.choice(addable)
            inside = list(iter_bits(x_mask))
            outside = list(iter_bits(spec.ground.full_mask & ~x_mask))
            want = _per_query_rows(spec, x_mask, outside)
            for y in outside:
                c = next(i for i, m in enumerate(spec.class_masks) if m >> y & 1)
                seen.add((over, room[c]))
            for _ in range(2):
                assert ev.rows(x_mask, inside, outside) == want
                for _ in range(len(outside)):
                    mask = rng.getrandbits(spec.n)
                    assert ev.independent(mask) == spec.is_independent_mask(mask)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("kind", ["graphic", "uniform", "predicted_basis", "explicit"])
def test_generic_row_matches_the_spec(kind):
    # a dirty pair of one kind through the billed graph: the answers and the
    # records, y by y and set by set, ind1 then ind2, are those of the specs
    rng = random.Random(f"row:{kind}")
    for _ in range(20):
        n = rng.randint(2, 30)
        specs = (_any_spec(rng, kind, n), _any_spec(rng, kind, n))
        g = specs[0].ground
        ox = IntersectionOracles(g, UniformMatroid(g, n), UniformMatroid(g, n), *specs)
        want_records = []
        for _ in range(3):
            # a subset of a basis of matroid 1, or any set
            x_mask = rng.getrandbits(n) & (greedy_native(ox.dirty[0]) if rng.random() < 0.7 else -1)
            inside = list(iter_bits(x_mask))
            outside = list(iter_bits(g.full_mask & ~x_mask))
            want = tuple(_per_query_rows(spec, x_mask, outside) for spec in ox.dirty)
            assert ox.query_rows(ROLE_DIRTY, x_mask, inside, outside) == want
            want_records += [
                QueryRecord(ROLE_DIRTY, f"ind{w}", int(want[w - 1][r][i]), m)
                for r, y in enumerate(outside)
                for i, m in enumerate(_row_masks(x_mask, y))
                for w in (1, 2)
            ]
        assert ox.ledger.transcript == want_records
