import random

import pytest

from matoracle import GroundSet, OraclePair, greedy_basis
from matoracle.bench import generate, random_instance


def make_pair(clean_cfg, dirty_cfg=None, weights=None, n=None):
    """Build an OraclePair (with the dirty-basis order already applied) plus
    the dirty basis computed the billed way."""
    from matoracle.core import spec_from_config

    if n is None:
        n = len(weights) if weights else max(_cfg_n(clean_cfg), 1)
    g = GroundSet(weights if weights is not None else [1] * n)
    clean = spec_from_config(g, clean_cfg)
    dirty = spec_from_config(g, dirty_cfg) if dirty_cfg else clean
    pair0 = OraclePair(clean, dirty, g)
    bd = greedy_basis(pair0)
    return pair0.with_dirty_basis(bd.mask), bd


def masks(*element_lists):
    """The int mask of each element list."""
    return [sum(1 << e for e in elems) for elems in element_lists]


def _cfg_n(cfg):
    kind = cfg["kind"]
    if kind == "partition":
        return sum(len(c) for c in cfg["classes"])
    if kind == "graphic":
        return len(cfg["edges"])
    if kind == "predicted_basis":
        return max(cfg["basis"], default=-1) + 1
    raise ValueError("pass n explicitly for this kind")


def fresh(pair):
    """Same instance, fresh ledger."""
    return OraclePair(pair.clean, pair.dirty, pair.ground)


def random_pairs(count, seed, n_range=(1, 12), kinds=("partition", "graphic", "uniform"), weight_mode="unit"):
    """Seeded stream of (pair-with-bd-order, bd) from the bench generator."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(*n_range)
        kind = rng.choice(list(kinds))
        inst = random_instance(n, kind=kind, weight_mode=weight_mode, seed=rng.randrange(10**9))
        gen = generate(inst)
        pair0 = gen.fresh_pair()
        bd = greedy_basis(pair0)
        out.append((pair0.with_dirty_basis(bd.mask), bd))
    return out


@pytest.fixture(scope="session")
def small_random_pairs():
    return random_pairs(60, seed=1234)


@pytest.fixture
def removals(monkeypatch):
    """Elements removed by binary search, in order, recorded through the module
    attribute the algorithms call; clear it between runs."""
    from matoracle import algorithms

    seen = []
    inner = algorithms._remove_smallest_dependent

    def recording(*args):
        bit = inner(*args)
        seen.append(bit.bit_length() - 1)
        return bit

    monkeypatch.setattr(algorithms, "_remove_smallest_dependent", recording)
    return seen
