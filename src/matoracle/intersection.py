"""Exchange-graph machinery and the two-oracle matroid intersection algorithms.

The dirty augmenting-path algorithm assumes the clean matroids are partition
matroids and that each dirty independence family contains the corresponding
clean one; it finds candidate paths with free dirty queries and pays clean
queries only to verify them and to localize false dirty arcs.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import compress, count, islice
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import algorithms as alg
from .core import PRECHECK_GUARD, ElementSet, ExplicitSystem, PartitionMatroid, iter_bits
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
        if isinstance(clean1, ExplicitSystem) or isinstance(clean2, ExplicitSystem):
            raise ValueError("explicit downward-closed systems are accepted as dirty oracles only")
        self.ground = ground
        self.clean = (clean1.rebind(ground), clean2.rebind(ground))
        self.dirty = (dirty1.rebind(ground), dirty2.rebind(ground))
        # per-run evaluators: kept state never outlives these oracles
        self._evals = {
            ROLE_CLEAN: tuple(spec.evaluator() for spec in self.clean),
            ROLE_DIRTY: tuple(spec.evaluator() for spec in self.dirty),
        }
        self.ledger = QueryLedger()

    def query_independent(self, role, which, mask):
        if type(which) is not int or which not in KIND_IND_OF:
            raise ValueError(f"matroid index must be 1 or 2, got {which!r}")
        answer = by_role(self._evals, role)[which - 1].independent(mask)
        self.ledger.record(role, KIND_IND_OF[which], answer, mask)
        return answer

    def query_rows(self, role, x_mask, inside, outside, known_false=((), ())):
        """Billed exchange graph of X = x_mask in both matroids: the row
        lists of matroid 1 and of matroid 2 (see _AnchoredEvaluator.rows in
        core; inside and outside hold every element in and outside X,
        ascending), billed in one ledger append, y by y and set by set, ind1
        then ind2.

        known_false holds, per matroid, sets answered dependent without a
        query: each that is X + y or X + y - x leaves its record out."""
        evals = by_role(self._evals, role)
        answers = tuple(ev.rows(x_mask, inside, outside) for ev in evals)
        unbilled = _answer_false(answers, x_mask, inside, outside, known_false)
        self.ledger.record_graph(role, x_mask, inside, outside, *answers, unbilled)
        return answers


def _answer_false(answers, x_mask, inside, outside, false_sets):
    """Answer False, in the row lists answers of matroid 1 and 2 for X =
    x_mask, each set of false_sets[k] (false in matroid k + 1) that lies in
    the graph of X.  Returns their record positions in the order of
    QueryLedger.record_graph: 2 (r (|X| + 1) + i) + k, with r the index of
    y in outside, and i = 0 for X + y or one more than the index of x in
    inside for X + y - x."""
    width = len(inside) + 1
    positions = set()
    for k, fs in enumerate(false_sets):
        rows = answers[k]
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
            if rows[r][i]:
                rows[r] = rows[r].copy()  # rows may share a list
                rows[r][i] = False
            positions.add(2 * (r * width + i) + k)
    return positions


def unbilled_rows(specs):
    """Graph test of build_exchange_graph answered, unbilled, by fresh
    evaluators of the two matroid specs."""
    eval1, eval2 = (spec.evaluator() for spec in specs)
    return lambda x_mask, inside, outside: (eval1.rows(x_mask, inside, outside), eval2.rows(x_mask, inside, outside))


class ExchangeGraph(NamedTuple):
    """Directed bipartite exchange graph for a common independent set X, as
    the graph test answered it.

    rows holds the row lists of matroid 1 and of matroid 2: per y of
    outside, the answers for X + y and then for X + y - x, x in inside.
    Arc x -> y is present iff X - x + y is independent in matroid 1, arc
    y -> x iff independent in matroid 2, and y is in y1/y2 iff X + y is
    independent in matroid 1/2.  index maps each element to its index in
    inside or outside, both ascending.  to_y2 is filled by each path search
    over the graph: the arc distance to y2 of every vertex with a directed
    path to y2.
    """

    x_mask: int
    inside: list
    outside: list
    rows: tuple  # (rows1, rows2)
    index: dict  # element -> its row (y) or column (x) index
    to_y2: dict


def build_exchange_graph(rows, n, x_mask):
    """Exchange graph of X over elements 0..n-1 through one call of the
    graph test rows(x_mask, inside, outside), with inside and outside the
    elements in and outside X ascending, which returns the row lists of
    matroid 1 and of matroid 2 (see _AnchoredEvaluator.rows in core): n - |X|
    rows of |X| + 1 answers each.  A set answered dependent produces no arc
    and no source/sink membership."""
    inside = list(iter_bits(x_mask))
    outside = [y for y in range(n) if not x_mask >> y & 1]
    index = dict(zip(inside, count()))
    index.update(zip(outside, count()))
    return ExchangeGraph(x_mask, inside, outside, tuple(rows(x_mask, inside, outside)), index, {})


def neighbours(graph, v, which):
    """The ends of the arcs into v (which = 1) or out of v (which = 2),
    ascending.  An element y outside X reads its row of matroid which, an
    element x of X its column in the rows of the other matroid."""
    j = graph.index[v]
    if graph.x_mask >> v & 1:
        return compress(graph.outside, map(itemgetter(j + 1), graph.rows[2 - which]))
    return compress(graph.inside, islice(graph.rows[which - 1][j], 1, None))


def shortest_augmenting_path(graph):
    """Lexicographically smallest shortest y1 -> y2 vertex path, or None.

    Its BFS over the arcs into each vertex from y2 refills graph.to_y2, also
    when y1 is empty."""
    y1, y2 = (list(compress(graph.outside, map(itemgetter(0), rows))) for rows in graph.rows)
    dist_t = graph.to_y2
    dist_t.clear()
    dist_t.update(dict.fromkeys(y2, 0))
    dq = deque(y2)
    while dq:
        v = dq.popleft()
        for u in neighbours(graph, v, 1):
            if u not in dist_t:
                dist_t[u] = dist_t[v] + 1
                dq.append(u)
    reachable = [s for s in y1 if s in dist_t]
    if not reachable:
        return None
    best = min(dist_t[s] for s in reachable)
    start = min(s for s in reachable if dist_t[s] == best)
    path = [start]
    cur = start
    while dist_t[cur] > 0:
        cur = next(v for v in neighbours(graph, cur, 2) if dist_t.get(v, -1) == dist_t[cur] - 1)
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
    graph is kept with that set answered False and billed again less the
    set's record, as a new build would bill it.  Requires partition clean
    matroids with dirty supersets.
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
    # a set already found false is answered dependent without a query
    # wherever it lies in the graph of X
    rows = partial(ox.query_rows, ROLE_DIRTY, known_false=false_sets)
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
        # but f's, which the path used: keep the graph with f answered
        # False, and bill its rows again less the false sets' records
        unbilled = _answer_false(graph.rows, x_mask, graph.inside, graph.outside, false_sets)
        ox.ledger.record_graph(ROLE_DIRTY, x_mask, graph.inside, graph.outside, *graph.rows, unbilled)


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
