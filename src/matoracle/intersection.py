"""Exchange-graph machinery and the two-oracle matroid intersection algorithms.

The dirty augmenting-path algorithm assumes the clean matroids are partition
matroids and that each dirty independence family contains the corresponding
clean one; it finds candidate paths with free dirty queries and pays clean
queries only to verify them and to localize false dirty arcs.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import compress, islice
from typing import NamedTuple

import numpy as np

from . import algorithms as alg
from .core import PRECHECK_GUARD, ElementSet, PartitionMatroid, iter_bits
from .errors import independence_array
from .oracles import KIND_IND_OF, ROLE_CLEAN, ROLE_DIRTY, QueryLedger, by_role


class SupersetViolation(RuntimeError):
    """A clean-independent set behaved dirty-dependent: the superset
    precondition of the dirty augmenting-path algorithm is broken."""


class IntersectionOracles:
    """Two clean and two dirty matroids billing into one ledger; both dirty
    oracles are required.

    Each role has one pair of evaluators, matroid 1's and matroid 2's; a
    query of an unknown role raises a ValueError before anything is
    evaluated or billed."""

    def __init__(self, ground, clean1, clean2, dirty1, dirty2):
        for spec in (clean1, clean2, dirty1, dirty2):
            if spec.n != ground.n:
                raise ValueError("oracles and ground set disagree on n")
        self.ground = ground
        self.clean = (clean1.rebind(ground), clean2.rebind(ground))
        self.dirty = (dirty1.rebind(ground), dirty2.rebind(ground))
        # per-run evaluators: kept state never outlives these oracles
        self._evals = {
            ROLE_CLEAN: tuple(spec.evaluator() for spec in self.clean),
            ROLE_DIRTY: tuple(spec.evaluator() for spec in self.dirty),
        }
        self.ledger = QueryLedger(ground.n)

    def query_independent(self, role, which, mask):
        if type(which) is not int or which not in KIND_IND_OF:
            raise ValueError(f"matroid index must be 1 or 2, got {which!r}")
        answer = by_role(self._evals, role)[which - 1].independent(mask)
        self.ledger.record(role, KIND_IND_OF[which], answer, mask)
        return answer

    def query_rows(self, role, x_mask, inside, outside, known_false=((), ())):
        """Billed exchange graph of X = x_mask in both matroids: the row
        lists of matroid 1 and of matroid 2 (see MatroidSpec.rows; inside and
        outside hold every element in and outside X, ascending), billed in
        one ledger append, y by y and set by set, ind1 then ind2.

        known_false holds, per matroid, sets answered dependent without a
        query: each that is X + y or X + y - x leaves its record out."""
        evals = by_role(self._evals, role)
        answers = tuple(ev.rows(x_mask, inside, outside) for ev in evals)
        unbilled = _known_false_positions(x_mask, inside, outside, known_false)
        width = len(inside) + 1
        for p in unbilled:
            r, i = divmod(p >> 1, width)
            row = answers[p & 1][r] = answers[p & 1][r].copy()  # rows may share a list
            row[i] = False
        self.ledger.record_graph(role, x_mask, inside, outside, *answers, unbilled)
        return answers


def _known_false_positions(x_mask, inside, outside, known_false):
    """Record positions, in the order of QueryLedger.record_graph for X =
    x_mask, of the sets of known_false[k] (false in matroid k + 1) that lie
    in the graph of X: 2 (r (|X| + 1) + i) + k, with r the index of y in
    outside, and i = 0 for X + y or one more than the index of x in inside
    for X + y - x."""
    width = len(inside) + 1
    positions = set()
    for k, fs in enumerate(known_false):
        for f in fs:
            extra, missing = f & ~x_mask, x_mask & ~f
            if extra.bit_count() != 1 or missing.bit_count() > 1:
                continue
            # y's index in outside and x's in inside count the elements
            # below them outside and inside X
            r = (extra - 1 & ~x_mask).bit_count()
            if r >= len(outside):
                continue
            i = (x_mask & missing - 1).bit_count() + 1 if missing else 0
            positions.add(2 * (r * width + i) + k)
    return positions


def unbilled_rows(specs):
    """Graph test of build_exchange_graph answered, unbilled, by fresh
    evaluators of the two matroid specs."""
    eval1, eval2 = (spec.evaluator() for spec in specs)
    return lambda x_mask, inside, outside: (eval1.rows(x_mask, inside, outside), eval2.rows(x_mask, inside, outside))


class ExchangeGraph(NamedTuple):
    """Directed bipartite exchange graph for a common independent set X.

    Arc x -> y is present iff X - x + y is independent in matroid 1, arc
    y -> x iff independent in matroid 2; arcs_in holds the same arcs
    reversed.  y1/y2 hold the elements whose single addition stays
    independent in matroid 1/2.  Every list ascends.  to_y2 is filled by
    each path search over the graph: the arc distance to y2 of every vertex
    with a directed path to y2.
    """

    arcs_out: dict  # element -> list of successors
    arcs_in: dict  # element -> list of predecessors
    y1: list
    y2: list
    to_y2: dict


def build_exchange_graph(rows, n, x_mask):
    """Exchange graph of X over elements 0..n-1 through one call of the
    graph test rows(x_mask, inside, outside), with inside and outside the
    elements in and outside X ascending, which returns the row lists of
    matroid 1 and of matroid 2 (see MatroidSpec.rows): n - |X| rows of
    |X| + 1 answers each.  A set answered dependent produces no arc and no
    source/sink membership."""
    inside = list(iter_bits(x_mask))
    outside = [y for y in range(n) if not x_mask >> y & 1]
    rows1, rows2 = rows(x_mask, inside, outside)
    arcs_out = {e: [] for e in range(n)}
    arcs_in = {e: [] for e in range(n)}
    y1, y2 = [], []
    # y ascends in the outer loop and x in each row: every list ascends
    for y, answers1, answers2 in zip(outside, rows1, rows2):
        if answers1[0]:
            y1.append(y)
        if answers2[0]:
            y2.append(y)
        arcs_out[y] = out = list(compress(inside, islice(answers2, 1, None)))
        for x in out:
            arcs_in[x].append(y)
        arcs_in[y] = into = list(compress(inside, islice(answers1, 1, None)))
        for x in into:
            arcs_out[x].append(y)
    return ExchangeGraph(arcs_out, arcs_in, y1, y2, {})


def _drop_false_set(graph, x_mask, f, which):
    """Remove from the exchange graph of X the arc, or the y1/y2 entry,
    that the set f (X + y or X + y - x) put there as independent in matroid
    which."""
    y = (f & ~x_mask).bit_length() - 1
    missing = x_mask & ~f
    if not missing:
        (graph.y1 if which == 1 else graph.y2).remove(y)
        return
    x = missing.bit_length() - 1
    tail, head = (x, y) if which == 1 else (y, x)
    graph.arcs_out[tail].remove(head)
    graph.arcs_in[head].remove(tail)


def shortest_augmenting_path(graph):
    """Lexicographically smallest shortest y1 -> y2 vertex path, or None.

    Its BFS over arcs_in from y2 refills graph.to_y2, also when y1 is
    empty."""
    dist_t = graph.to_y2
    dist_t.clear()
    dist_t.update(dict.fromkeys(graph.y2, 0))
    dq = deque(graph.y2)
    while dq:
        v = dq.popleft()
        for u in graph.arcs_in[v]:
            if u not in dist_t:
                dist_t[u] = dist_t[v] + 1
                dq.append(u)
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


def textbook_intersection(rows, specs, x_mask=0):
    """Shortest-augmenting-path matroid intersection from the start set X.

    rows is the graph test of build_exchange_graph, and specs are its two
    matroids; they check, unbilled, that the start and every augmented X are
    independent in both (ValueError for a start that is not).  Any common
    independent start reaches a maximum one: X is optimal exactly when its
    exchange graph has no y1 -> y2 path, so an optimal start costs one graph
    build.

    Returns (x_mask, u_mask).  U is the set of elements with a directed
    path to y2 in the last graph, which has no y1 -> y2 path; it is the
    to_y2 of that graph's path search, also when y1 or y2 is empty, and it
    certifies optimality: |X| = rank1(U) + rank2(E \\ U) (Cunningham, SIAM
    J. Comput. 1986).
    """
    g = specs[0].ground
    if x_mask & ~g.full_mask or not all(spec.is_independent_mask(x_mask) for spec in specs):
        raise ValueError(f"start set {x_mask:#x} is not independent in both matroids")
    while True:
        graph = build_exchange_graph(rows, g.n, x_mask)
        path = shortest_augmenting_path(graph)
        if path is None:
            return x_mask, sum(1 << e for e in graph.to_y2)
        del graph  # so that the next build does not hold two graphs at once
        for v in path:
            x_mask ^= 1 << v
        if not (specs[0].is_independent_mask(x_mask) and specs[1].is_independent_mask(x_mask)):
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


def _locate_false_set(ox, x_mask, path, which):
    """Bisect the failed matroid's checkpoint prefixes to one false dirty set
    and return it.

    The final checkpoint is the full symmetric difference, already known
    dependent from the failed verification, so the search costs at most
    ceil(log2 n) clean queries."""
    sets, candidates = _path_checkpoints(x_mask, path, which)
    # X itself (index -1) is clean-feasible
    hi = alg.binary_search_smallest_dependent_prefix(
        range(len(sets)), lambda i: not ox.query_independent(ROLE_CLEAN, which, sets[i]), -1, len(sets) - 1
    )
    return candidates[hi]


def dirty_intersection(ox):
    """Augmenting-path intersection driven by the dirty oracles.

    Candidate paths come from the dirty exchange graph (free queries); each is
    verified with two clean queries, and a failed verification pays at most
    ceil(log2 n) further clean queries to localize a false dirty arc, which is
    then excluded.  Each X is built once: after a failed verification its
    graph is kept less that arc and billed again less the arc's record, as a
    new build would bill it.  Requires partition clean matroids with dirty
    supersets.
    At n <= PRECHECK_GUARD a pair that is not a superset raises
    SupersetViolation before any query; above it nothing detects such a
    pair, and the run may return a common independent X that is too small.
    Returns (X, ledger, (F1, F2)), where Fi lists the false sets of matroid i
    (dirty-independent, clean-dependent) in discovery order.
    """
    g = ox.ground
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
    false_sets = ([], [])
    built = []  # inside, outside and the row lists of the last build

    def rows(x_mask, inside, outside):
        # a set already found false is answered dependent without a query
        # wherever it lies in the graph of X
        built[:] = inside, outside, ox.query_rows(ROLE_DIRTY, x_mask, inside, outside, false_sets)
        return built[2]

    x_mask, graph = 0, None
    while True:
        if graph is None:
            graph = build_exchange_graph(rows, g.n, x_mask)
        path = shortest_augmenting_path(graph)
        if path is None:
            return ElementSet(g.n, x_mask), ox.ledger, false_sets
        flipped = x_mask
        for v in path:
            flipped ^= 1 << v
        ok1 = ox.query_independent(ROLE_CLEAN, 1, flipped)
        ok2 = ox.query_independent(ROLE_CLEAN, 2, flipped)
        if ok1 and ok2:
            x_mask, graph = flipped, None
            continue
        which = 1 if not ok1 else 2
        f = _locate_false_set(ox, x_mask, path, which)
        false_sets[which - 1].append(f)
        # a new build of X would ask the same sets and get the same answers
        # but f's, which the path used: keep the graph less f's arc, and bill
        # its rows again less f's record
        _drop_false_set(graph, x_mask, f, which)
        inside, outside, answers = built
        unbilled = _known_false_positions(x_mask, inside, outside, false_sets)
        ox.ledger.record_graph(ROLE_DIRTY, x_mask, inside, outside, *answers, unbilled)


def warm_start(ox):
    """Clean-feasible subset of a dirty-optimal intersection solution.

    Computes a maximum dirty common independent set with dirty queries only,
    then for each clean matroid repeatedly verifies it and binary-searches out
    the first blocking element.  Clean queries: at most 2 + 2 eta_r (1 +
    ceil(log2 n)); the result keeps at least s_d* - 2 eta_r elements.
    """
    g = ox.ground
    cur, _ = textbook_intersection(partial(ox.query_rows, ROLE_DIRTY), ox.dirty)
    for which in (1, 2):
        cur = alg._strip_dirty_basis(partial(ox.query_independent, ROLE_CLEAN, which), g, cur)
    return ElementSet(g.n, cur), ox.ledger
