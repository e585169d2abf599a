"""Per-run evaluators answer exactly as their spec does, whatever the order of
the queries, and keep their state per pair, never on a spec."""

import random

import pytest

from matoracle import (
    ExplicitSystem,
    GraphicMatroid,
    GroundSet,
    OraclePair,
    PartitionMatroid,
    UniformMatroid,
    greedy_basis,
    greedy_native,
)
from matoracle.bench import generate, random_instance, random_intersection_instance
from matoracle.core import greedy_scan, iter_bits
from matoracle.oracles import ROLE_CLEAN, ROLE_DIRTY

from conftest import masks


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


def _queries(rng, spec, steps):
    """Masks near a growing independent set: one element added, one
    exchanged, subsets of it and random sets, in random order."""
    n, full = spec.n, spec.ground.full_mask
    cur = 0
    for _ in range(steps):
        inside, outside = list(iter_bits(cur)), list(iter_bits(full & ~cur))
        op = rng.random()
        if op < 0.4 and outside:
            mask = cur | 1 << rng.choice(outside)
        elif op < 0.65 and inside and outside:
            mask = cur & ~(1 << rng.choice(inside)) | 1 << rng.choice(outside)
        elif op < 0.8:
            mask = cur & rng.getrandbits(n)
        else:
            mask = rng.getrandbits(n)
        yield mask
        if (mask & ~cur or rng.random() < 0.1) and spec.is_independent_mask(mask):
            cur = mask


@pytest.mark.parametrize("kind", ["partition", "graphic", "uniform"])
@pytest.mark.parametrize("seed", range(4))
def test_evaluator_matches_the_spec(kind, seed):
    rng = random.Random(f"{kind}:{seed}")
    for _ in range(60):
        spec = _random_spec(rng, kind, rng.randint(1, 40))
        ev = spec.evaluator()
        for mask in _queries(rng, spec, 80):
            if rng.random() < 0.3:
                assert ev.rank(mask) == spec.rank_mask(mask)
            else:
                assert ev.independent(mask) == spec.is_independent_mask(mask)


@pytest.mark.parametrize("kind", ["partition", "graphic"])
def test_greedy_scan_needs_no_full_evaluation(kind, monkeypatch):
    # every query of a greedy scan is the last independent set plus one element
    rng = random.Random(kind)
    spec = _random_spec(rng, kind, 40)
    want = greedy_scan(spec.is_independent_mask, spec.ground)
    full = {"partition": "_class_counts", "graphic": "_forest"}[kind]
    calls = []
    inner = getattr(spec, full)
    monkeypatch.setattr(spec, full, lambda *args: calls.append(args) or inner(*args))
    assert greedy_native(spec) == want
    assert calls == []


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
    ev = gen.pair._clean_eval
    assert ev.state is None
    gen.pair.query_independent(ROLE_CLEAN, 0b1)
    assert ev.state is not None
