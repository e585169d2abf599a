"""Exchange-graph machinery and the two-oracle matroid intersection algorithms.

The dirty augmenting-path algorithm assumes the clean matroids are partition
matroids and that each dirty independence family contains the corresponding
clean one; it finds candidate paths with free dirty queries and pays clean
queries only to verify them and to localize false dirty arcs.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import NamedTuple

import numpy as np

from . import algorithms as alg
from .core import PRECHECK_GUARD, ElementSet, PartitionMatroid, iter_bits
from .errors import independence_array
from .oracles import ROLE_CLEAN, ROLE_DIRTY, QueryLedger


class SupersetViolation(RuntimeError):
    """A clean-independent set behaved dirty-dependent: the superset
    precondition of the dirty augmenting-path algorithm is broken."""


class IntersectionOracles:
    """Two clean (and optionally two dirty) matroids billing into one ledger."""

    def __init__(self, ground, clean1, clean2, dirty1=None, dirty2=None):
        for spec in (clean1, clean2, dirty1, dirty2):
            if spec is not None and spec.n != ground.n:
                raise ValueError("oracles and ground set disagree on n")
        self.ground = ground
        self.clean = (clean1.rebind(ground), clean2.rebind(ground))
        self.dirty = None
        if dirty1 is not None and dirty2 is not None:
            self.dirty = (dirty1.rebind(ground), dirty2.rebind(ground))
        # per-run evaluators: kept state never outlives these oracles
        self._clean_evals = tuple(spec.evaluator() for spec in self.clean)
        self._dirty_evals = self.dirty and tuple(spec.evaluator() for spec in self.dirty)
        self.ledger = QueryLedger(ground.n)

    def query_independent(self, role, which, mask):
        # an unknown role reaches the dirty side; the ledger rejects it unbilled
        evals = self._clean_evals if role == ROLE_CLEAN else self._dirty_evals
        answer = evals[which - 1].independent(mask)
        self.ledger.record(role, f"ind{which}", answer, mask)
        return answer


class ExchangeGraph(NamedTuple):
    """Directed bipartite exchange graph for a common independent set X.

    Arc x -> y is present iff X - x + y is independent in matroid 1, arc
    y -> x iff independent in matroid 2; y1/y2 hold the elements whose single
    addition stays independent in matroid 1/2.  Every list ascends.
    """

    arcs_out: dict  # element -> list of successors
    y1: list
    y2: list


def build_exchange_graph(independent, n, x_mask):
    """Exchange graph of X over elements 0..n-1 through the billed test
    independent(which, mask) of matroid which in {1, 2}; a set the test calls
    dependent produces no arc and no source/sink membership.  Calls the test
    2|X|(n-|X|) + 2(n-|X|) times."""
    outside = [e for e in range(n) if not x_mask >> e & 1]
    inside = list(iter_bits(x_mask))
    arcs_out = {e: [] for e in range(n)}
    y1, y2 = [], []
    # y ascends in the outer loop and x in the inner one: every list ascends
    for y in outside:
        grown = x_mask | 1 << y
        if independent(1, grown):
            y1.append(y)
        if independent(2, grown):
            y2.append(y)
        for x in inside:
            swapped = grown & ~(1 << x)
            if independent(1, swapped):
                arcs_out[x].append(y)
            if independent(2, swapped):
                arcs_out[y].append(x)
    return ExchangeGraph(arcs_out, y1, y2)


def _distances_to_y2(graph):
    """Arc distance to y2 of every vertex with a directed path to y2 (BFS
    over reversed arcs)."""
    dist_t = {t: 0 for t in graph.y2}
    dq = deque(graph.y2)
    preds = {e: [] for e in graph.arcs_out}
    for u, vs in graph.arcs_out.items():
        for v in vs:
            preds[v].append(u)
    while dq:
        v = dq.popleft()
        for u in preds[v]:
            if u not in dist_t:
                dist_t[u] = dist_t[v] + 1
                dq.append(u)
    return dist_t


def shortest_augmenting_path(graph):
    """Lexicographically smallest shortest y1 -> y2 vertex path, or None."""
    if not graph.y1:
        return None
    dist_t = _distances_to_y2(graph)
    reachable = [s for s in graph.y1 if s in dist_t]
    if not reachable:
        return None
    best = min(dist_t[s] for s in reachable)
    start = min(s for s in reachable if dist_t[s] == best)
    path = [start]
    cur = start
    while dist_t[cur] > 0:
        cur = min(v for v in graph.arcs_out[cur] if dist_t.get(v, -1) == dist_t[cur] - 1)
        path.append(cur)
    return path


def textbook_intersection(ox, role=ROLE_CLEAN):
    """Shortest-augmenting-path matroid intersection against one oracle side.

    Returns (x_mask, u_mask, ledger).  U is the set of elements with a directed
    path to y2 (E or the empty set on the degenerate exits), and it certifies
    optimality: |X| = rank1(U) + rank2(E \\ U) under that side's oracles.
    """
    g = ox.ground
    independent = partial(ox.query_independent, role)
    x_mask = 0
    while True:
        graph = build_exchange_graph(independent, g.n, x_mask)
        if not graph.y1:
            return x_mask, g.full_mask, ox.ledger
        if not graph.y2:
            return x_mask, 0, ox.ledger
        path = shortest_augmenting_path(graph)
        if path is None:
            return x_mask, sum(1 << e for e in _distances_to_y2(graph)), ox.ledger
        for v in path:
            x_mask ^= 1 << v
        side = ox.clean if role == ROLE_CLEAN else ox.dirty
        if not (side[0].is_independent_mask(x_mask) and side[1].is_independent_mask(x_mask)):
            raise RuntimeError("augmentation along a shortest exchange path must keep double independence")


def _path_checkpoints(x_mask, path, which):
    """Prefix sets whose step-wise differences are single-arc exchanges.

    For matroid 1 the checkpoints end after each added element (odd prefix
    lengths); for matroid 2 after each removed element plus the full path,
    whose final difference is the exit element.  Each checkpoint's candidate
    false set is returned alongside it.
    """
    sets, candidates = [], []
    pref = x_mask
    for i, v in enumerate(path):
        pref ^= 1 << v
        length = i + 1
        if which == 1 and length % 2 == 1:
            sets.append(pref)
            if length == 1:
                candidates.append(x_mask | 1 << v)
            else:
                candidates.append(x_mask & ~(1 << path[i - 1]) | 1 << v)
        if which == 2 and length % 2 == 0:
            sets.append(pref)
            candidates.append(x_mask & ~(1 << v) | 1 << path[i - 1])
    if which == 2:
        sets.append(pref)
        candidates.append(x_mask | 1 << path[-1])
    return sets, candidates


def _locate_false_set(ox, x_mask, path, which, found):
    """Bisect the failed matroid's checkpoint prefixes to one false dirty set
    and add it to found, that matroid's false sets.

    The final checkpoint is the full symmetric difference, already known
    dependent from the failed verification, so the search costs at most
    ceil(log2 n) clean queries."""
    sets, candidates = _path_checkpoints(x_mask, path, which)
    # X itself (index -1) is clean-feasible
    hi = alg.binary_search_smallest_dependent_prefix(
        range(len(sets)), lambda i: not ox.query_independent(ROLE_CLEAN, which, sets[i]), -1, len(sets) - 1
    )
    if candidates[hi] in found:
        raise SupersetViolation(
            f"false-set candidate for matroid {which} rediscovered; "
            "the dirty oracles cannot be supersets of the clean ones"
        )
    found[candidates[hi]] = None


def dirty_intersection(ox):
    """Augmenting-path intersection driven by the dirty oracles.

    Candidate paths come from the dirty exchange graph (free queries); each is
    verified with two clean queries, and a failed verification pays at most
    ceil(log2 n) further clean queries to localize a false dirty arc, which is
    then excluded.  Requires partition clean matroids with dirty supersets.
    Returns (X, ledger, (F1, F2)), where Fi lists the false sets of matroid i
    (dirty-independent, clean-dependent) in discovery order.
    """
    g = ox.ground
    if ox.dirty is None:
        raise ValueError("dirty oracles are required")
    for spec in ox.clean:
        if not isinstance(spec, PartitionMatroid):
            raise ValueError("dirty augmenting paths require partition clean matroids")
    if g.n <= PRECHECK_GUARD:
        # unbilled: the smallest clean-independent but dirty-dependent set,
        # matroid 1 first at a tie
        bad = [independence_array(c) & ~independence_array(d) for c, d in zip(ox.clean, ox.dirty)]
        either = bad[0] | bad[1]
        if either.any():
            m = int(np.argmax(either))
            raise SupersetViolation(
                f"set {m:#x} is clean-independent but dirty-dependent in matroid {1 if bad[0][m] else 2}"
            )
    false_sets = ({}, {})  # insertion-ordered, one per matroid

    def independent(which, mask):
        # a set already found false is dependent without a query
        return mask not in false_sets[which - 1] and ox.query_independent(ROLE_DIRTY, which, mask)

    x_mask = 0
    while True:
        graph = build_exchange_graph(independent, g.n, x_mask)
        path = shortest_augmenting_path(graph)
        if path is None:
            return ElementSet(g.n, x_mask), ox.ledger, (list(false_sets[0]), list(false_sets[1]))
        flipped = x_mask
        for v in path:
            flipped ^= 1 << v
        ok1 = ox.query_independent(ROLE_CLEAN, 1, flipped)
        ok2 = ox.query_independent(ROLE_CLEAN, 2, flipped)
        if ok1 and ok2:
            x_mask = flipped
            continue
        which = 1 if not ok1 else 2
        _locate_false_set(ox, x_mask, path, which, false_sets[which - 1])


def warm_start(ox):
    """Clean-feasible subset of a dirty-optimal intersection solution.

    Computes a maximum dirty common independent set with dirty queries only,
    then for each clean matroid repeatedly verifies it and binary-searches out
    the first blocking element.  Clean queries: at most 2 + 2 eta_r (1 +
    ceil(log2 n)); the result keeps at least s_d* - 2 eta_r elements.
    """
    g = ox.ground
    if ox.dirty is None:
        raise ValueError("dirty oracles are required")
    cur, _, _ = textbook_intersection(ox, role=ROLE_DIRTY)
    for which in (1, 2):
        cur = alg._strip_dirty_basis(partial(ox.query_independent, ROLE_CLEAN, which), g, cur)
    return ElementSet(g.n, cur), ox.ledger
