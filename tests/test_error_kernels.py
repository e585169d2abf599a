"""The whole-table subset kernels of ``matoracle.errors`` against scalar
references: one Python loop over every subset mask, as the error oracle did
before its passes were vectorised."""

import random

import numpy as np
import pytest

from matoracle import GroundSet, OraclePair, compute_eta, compute_intersection_errors
from matoracle.core import (
    ExplicitSystem,
    GraphicMatroid,
    PartitionMatroid,
    PredictedBasisOracle,
    UniformMatroid,
    iter_bits,
)
from matoracle.errors import _lex_min, _maximal_masks, independence_array, subset_sizes

from conftest import masks

KINDS = ("uniform", "partition", "graphic", "predicted_basis", "explicit")
WEIGHT_MODES = ("unit", "int", "frac", "zero", "huge")


def _weights(rng, n, mode):
    if mode == "unit":
        return [1] * n
    if mode == "int":
        return [rng.randint(0, 5) for _ in range(n)]
    if mode == "frac":
        return [f"{rng.randint(0, 7)}/{rng.randint(1, 4)}" for _ in range(n)]
    if mode == "huge":
        # totals beyond int64 take the exact Python path
        return [rng.randint(1, 5) << 62 for _ in range(n)]
    return [0] * n


def _random_subset(rng, n):
    return sum(1 << e for e in range(n) if rng.random() < 0.5)


def _random_partition(rng, g):
    n = g.n
    k = rng.randint(1, max(1, n))
    label = [rng.randrange(k) for _ in range(n)]
    classes = [c for c in ([e for e in range(n) if label[e] == i] for i in range(k)) if c]
    return PartitionMatroid(g, masks(*classes), [rng.randint(0, len(c)) for c in classes])


def _random_spec(rng, g, kind):
    n = g.n
    if kind == "uniform":
        return UniformMatroid(g, rng.randint(0, n))
    if kind == "partition":
        return _random_partition(rng, g)
    if kind == "graphic":
        # few vertices, so self-loops and parallel edges are common
        verts = rng.randint(1, max(1, n // 2 + 1))
        edges = [(rng.randrange(verts), rng.randrange(verts)) for _ in range(n)]
        if n >= 2:
            edges[0] = (edges[0][0], edges[0][0])
            edges[-1] = edges[1]
        return GraphicMatroid(g, verts + rng.randint(0, 2), edges)
    if kind == "predicted_basis":
        return PredictedBasisOracle(g, _random_subset(rng, n))
    return ExplicitSystem(g, [_random_subset(rng, n) for _ in range(rng.randint(1, 4))])


def _scalar_independence(spec):
    return [spec.is_independent_mask(m) for m in range(1 << spec.n)]


def _scalar_maximal(ind, n):
    return [
        m for m in range(1 << n)
        if ind[m] and not any(ind[m | 1 << e] for e in range(n) if not m >> e & 1)
    ]


def _scalar_tops(spec, g):
    maximal = _scalar_maximal(_scalar_independence(spec), g.n)
    score = (lambda m: m.bit_count()) if g.unit_weights and any(g.weights) else g.weight
    best = max(score(m) for m in maximal)
    return [m for m in maximal if score(m) == best]


def _scalar_eta(pair):
    g = pair.ground
    r = pair.clean.full_rank()
    if isinstance(pair.dirty, ExplicitSystem):
        dirty_tops = _scalar_maximal(_scalar_independence(pair.dirty), g.n)
    else:
        dirty_tops = _scalar_tops(pair.dirty, g)
    clean_tops = _scalar_tops(pair.clean, g)
    per_basis = {}
    for s in dirty_tops:
        m = max((s & b).bit_count() for b in clean_tops)
        per_basis[s] = (r - m, s.bit_count() - m)
    dist = max(a + rr for a, rr in per_basis.values())
    witness = min((s for s, (a, rr) in per_basis.items() if a + rr == dist), key=lambda s: tuple(iter_bits(s)))
    eta_a = max(a for a, _ in per_basis.values())
    eta_r = max(rr for _, rr in per_basis.values())
    return eta_a, eta_r, witness


def _scalar_intersection(d1, d2, c1, c2):
    n = c1.n
    ic1, ic2 = _scalar_independence(c1), _scalar_independence(c2)
    id1, id2 = _scalar_independence(d1), _scalar_independence(d2)
    eta_1 = sum(d and not c for d, c in zip(id1, ic1))
    eta_2 = sum(d and not c for d, c in zip(id2, ic2))
    common_d = [m for m in range(1 << n) if id1[m] and id2[m]]
    s_d_star = max(m.bit_count() for m in common_d)

    def best_clean_subset(s):
        sub, best = s, 0
        while True:  # every submask of s
            if ic1[sub] and ic2[sub]:
                best = max(best, sub.bit_count())
            if sub == 0:
                return best
            sub = (sub - 1) & s

    eta_r = max(s_d_star - best_clean_subset(s) for s in common_d if s.bit_count() == s_d_star)
    return eta_1, eta_2, s_d_star, eta_r


def test_subset_sizes():
    for n in range(0, 11):
        assert subset_sizes(n).tolist() == [m.bit_count() for m in range(1 << n)]


def test_lex_min_matches_tuple_order():
    # subsets included: a proper prefix sorts before its extensions
    rng = random.Random("lex")
    for _ in range(50):
        n = rng.randint(1, 10)
        masks = sorted({rng.getrandbits(n) for _ in range(rng.randint(1, 12))})
        want = min(masks, key=lambda m: tuple(iter_bits(m)))
        assert _lex_min(np.array(masks), n) == want
    assert _lex_min(np.array([0b111, 0b101, 0b011]), 3) == 0b011


@pytest.mark.parametrize("kind", KINDS)
def test_independence_array_matches_scalar(kind):
    rng = random.Random(f"independence:{kind}")
    for _ in range(25):
        g = GroundSet.unit(rng.randint(0, 10))
        spec = _random_spec(rng, g, kind)
        assert independence_array(spec).tolist() == _scalar_independence(spec)


@pytest.mark.parametrize("kind", KINDS)
def test_maximal_masks_match_scalar(kind):
    rng = random.Random(f"maximal:{kind}")
    for _ in range(25):
        g = GroundSet.unit(rng.randint(0, 10))
        spec = _random_spec(rng, g, kind)
        ind = independence_array(spec)
        assert _maximal_masks(ind, g.n).tolist() == _scalar_maximal(ind.tolist(), g.n)


@pytest.mark.parametrize("weight_mode", WEIGHT_MODES)
def test_compute_eta_matches_scalar(weight_mode):
    rng = random.Random(f"eta:{weight_mode}")
    dirty_kinds = KINDS if weight_mode in ("unit", "zero") else KINDS[:-1]
    for _ in range(60):
        g = GroundSet(_weights(rng, rng.randint(1, 10), weight_mode))
        clean = _random_spec(rng, g, rng.choice(("uniform", "partition", "graphic")))
        pair = OraclePair(clean, _random_spec(rng, g, rng.choice(dirty_kinds)), g)
        rep = compute_eta(pair)
        assert (rep.eta_A, rep.eta_R, rep.witness_basis) == _scalar_eta(pair)


def test_intersection_errors_match_scalar():
    rng = random.Random("intersection")
    for _ in range(40):
        g = GroundSet.unit(rng.randint(1, 10))
        c1, c2 = _random_partition(rng, g), _random_partition(rng, g)
        dirty = []
        for c in (c1, c2):
            caps = [cap + rng.randint(0, 1) for cap in c.caps]
            dirty.append(PartitionMatroid(g, list(c.class_masks), caps))
        rep = compute_intersection_errors(dirty[0], dirty[1], c1, c2)
        assert tuple(rep) == _scalar_intersection(dirty[0], dirty[1], c1, c2)
