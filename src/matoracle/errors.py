"""Brute-force oracles for the error quantities the query bounds reference.

These are test-time oracles only: the basis algorithms never see them (module
boundary: ``algorithms`` has no dependency on this module).  The one use
outside the error metrics is ``intersection.dirty_intersection``, whose
unbilled superset precheck compares ``independence_array`` tables.
Everything here enumerates subsets under a size guard and is exact.

All subset enumeration runs as whole-array NumPy passes over the 2^n table
indexed by subset mask.  Every pass has one of two shapes: the subsets in
``[2**e, 2**(e+1))`` are the subsets below ``2**e`` plus element e, so a
table grows by its top bit; or each subset without e is paired with the same
subset plus e (see ``_pairs``).  A full table costs O(n·2^n), with no Python
per subset.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import (
    ENUM_GUARD,
    INTERSECTION_GUARD,
    ExplicitSystem,
    GraphicMatroid,
    GuardExceeded,
    PartitionMatroid,
    PredictedBasisOracle,
    UniformMatroid,
    iter_bits,
)


def _subset_sums(values, dtype):
    """Sum of values[e] over e in S for every subset mask S, by top-bit doubling."""
    out = np.zeros(1 << len(values), dtype=dtype)
    for e, v in enumerate(values):
        np.add(out[: 1 << e], v, out=out[1 << e : 2 << e])
    return out


def subset_sizes(n):
    """|S| for every subset mask S of an n-element ground set (int8)."""
    return _subset_sums([1] * n, np.int8)


# below 2**6 the rows of a (-1, 2, 2**e) view are too short for NumPy's inner
# loops, and shifted whole-table slices under a mask are several times faster
_SHIFT_BELOW = 6


def _pairs(n, *tables):
    """For each element e, yield ``(lacks, (lo, hi), ...)``, one pair per
    2^n table: wherever ``lacks`` is true, ``lo`` holds a subset S without e
    and ``hi`` at the same index holds S + e.  Both are views.  Combine them
    so that a false ``lacks`` changes nothing."""
    for e in range(n):
        b = 1 << e
        if e < _SHIFT_BELOW:
            lacks = np.tile(np.arange(2 * b) < b, 1 << (n - 1 - e))[:-b]
            yield lacks, *((t[:-b], t[b:]) for t in tables)
        else:
            yield True, *((v[:, 0], v[:, 1]) for v in (t.reshape(-1, 2, b) for t in tables))


def _close_down(marks, n):
    """In place: mark every subset of a marked set."""
    for lacks, (lo, hi) in _pairs(n, marks):
        lo |= hi & lacks
    return marks


def _subset_max(vals, n):
    """In place: vals[S] becomes the maximum of vals[T] over T ⊆ S (vals >= 0)."""
    for lacks, (lo, hi) in _pairs(n, vals):
        np.maximum(hi, lo * lacks, out=hi)
    return vals


def _partition_step(spec):
    """S + e is independent iff S is and e's class still has room in S."""
    low = np.arange(1 << max(spec.n - 1, 0))
    sizes = subset_sizes(max(spec.n - 1, 0))
    class_of = {}
    for m, c in zip(spec.class_masks, spec.caps):
        for e in iter_bits(m):
            class_of[e] = (m, min(c, spec.n))

    def step(e, half):
        m, cap = class_of[e]
        return sizes[low[:half] & m] < cap

    return step


def _graphic_step(spec):
    """S + e is independent iff S is and e joins two components of S.

    ``lab[S, x]`` is the component label of vertex x in the forest S; the
    labels of S + (u, v) relabel v's component to u's.  Self-loops and
    parallel edges need no special case.  Only vertices some edge touches get
    a column, and the last element's labels are never needed.
    """
    verts = {x: i for i, x in enumerate(sorted({x for edge in spec.edges for x in edge}))}
    lab = np.empty((1 << max(spec.n - 1, 0), len(verts)), dtype=np.int16)
    lab[0] = np.arange(len(verts))

    def step(e, half):
        u, v = (verts[x] for x in spec.edges[e])
        low = lab[:half]
        joins = low[:, u] != low[:, v]
        if 2 * half <= len(lab):
            high = lab[half : 2 * half]
            high[:] = low
            np.copyto(high, low[:, u : u + 1], where=low == low[:, v : v + 1])
        return joins

    return step


def independence_array(spec):
    """Boolean array over all 2^n subset masks: independent or not."""
    n = spec.n
    if n > ENUM_GUARD:
        raise GuardExceeded(f"n={n} exceeds enumeration guard")
    if isinstance(spec, UniformMatroid):
        return subset_sizes(n) <= min(spec.k, n)
    if isinstance(spec, ExplicitSystem):
        ok = np.zeros(1 << n, dtype=bool)
        ok[list(spec.maximal_masks)] = True
        return _close_down(ok, n)
    if isinstance(spec, PartitionMatroid):
        step = _partition_step(spec)
    elif isinstance(spec, GraphicMatroid):
        step = _graphic_step(spec)
    elif isinstance(spec, PredictedBasisOracle):
        step = lambda e, half: bool(spec.basis_mask >> e & 1)  # noqa: E731
    else:
        raise TypeError(f"cannot enumerate kind {spec.kind!r}")
    ok = np.empty(1 << n, dtype=bool)
    ok[0] = True
    for e in range(n):
        half = 1 << e
        np.logical_and(ok[:half], step(e, half), out=ok[half : 2 * half])
    return ok


def is_matroid(spec):
    """Whether a downward-closed system is a matroid, by one O(n·2^n) pass.

    It is one iff r(span(I)) = |I| for every independent I, where span(I) is
    I plus every e with I + e dependent and r(S) is the size of the largest
    independent subset of S: an independent J with |J| > |I| and no e in
    J \\ I that extends I lies inside span(I).
    """
    n = spec.n
    ind = independence_array(spec)
    sizes = subset_sizes(n)
    span = np.arange(1 << n, dtype=np.int32)
    # a set that has e has e in its span already, so lacks needs no check
    for e, (_, (span_lo, _), (_, ind_hi)) in enumerate(_pairs(n, span, ind)):
        span_lo |= ~ind_hi * np.int32(1 << e)
    rank = _subset_max(sizes * ind, n)
    return bool((rank[span[ind]] == sizes[ind]).all())


def _maximal_masks(ind, n):
    """Ascending masks of the inclusion-maximal sets of an independence array."""
    maximal = ind.copy()
    # a set without e is not maximal if adding e keeps it independent
    for lacks, (lo, _), (_, ind_hi) in _pairs(n, maximal, ind):
        lo &= ~(ind_hi & lacks)
    return np.flatnonzero(maximal)


def _weight_scores(cand, ground):
    """Exact scores of the candidate masks that order them as their weights do."""
    den = math.lcm(*(Fraction(w).denominator for w in ground.weights))
    scaled = [int(w * den) for w in ground.weights]
    if sum(scaled) < 1 << 63:
        return _subset_sums(scaled, np.int64)[cand]
    return np.array([ground.weight(int(m)) for m in cand], dtype=object)


def _max_weight_top_masks(spec, ground):
    """Ascending masks of the maximum-weight inclusion-maximal independent sets."""
    ind = independence_array(spec)
    if isinstance(spec, ExplicitSystem):
        cand = _maximal_masks(ind, ground.n)
    else:
        # the maximal independent sets of a matroid are those of full rank
        cand = np.flatnonzero(ind & (subset_sizes(ground.n) == spec.full_rank()))
    scores = _weight_scores(cand, ground)
    return cand[scores == scores.max()]


def _lex_min(masks, n):
    """The mask whose ascending element tuple is lexicographically smallest."""
    if len(masks) == 1:
        return int(masks[0])
    elems = np.arange(n)
    table = np.where((masks[:, None] >> elems) & 1 == 1, elems, n)
    table.sort(axis=1)
    table[table == n] = -1  # pad so that a proper prefix sorts first
    return int(masks[np.lexsort(table.T[::-1])[0]])


def _overlap_table(tops, sizes, n):
    """max over B in tops of |S ∩ B|, for every subset mask S (int8)."""
    closed = np.zeros(1 << n, dtype=bool)
    closed[tops] = True
    _close_down(closed, n)
    return _subset_max(sizes * closed, n)


def enumerate_max_weight_bases(spec, ground=None):
    """Ascending masks of all inclusion-maximal independent sets of maximum
    total weight.

    Exhaustive subset scan, guarded; used only by error metrics and tests.
    """
    return _max_weight_top_masks(spec, ground or spec.ground).tolist()


class ErrorReport(NamedTuple):
    eta_A: int
    eta_R: int
    witness_basis: int  # mask


class IntersectionErrorReport(NamedTuple):
    eta_1: int
    eta_2: int
    s_d_star: int
    eta_r: int


def modification_sets(s, clean, ground=None):
    """Masks of the smallest addition/removal sets turning the mask s into a
    superset/subset of some maximum-weight clean basis (independent
    minimizations; one basis attains both because all maximum-weight bases
    share cardinality).
    """
    g = ground or clean.ground
    if g.n > ENUM_GUARD:
        raise GuardExceeded(f"n={g.n} exceeds enumeration guard")
    tops = _max_weight_top_masks(clean, g)
    overlap = subset_sizes(g.n)[tops & s]
    witness = _lex_min(tops[overlap == overlap.max()], g.n)
    return witness & ~s, s & ~witness


def dirty_top_sets(pair):
    """Ascending masks of the maximum-weight dirty bases; for explicit
    (downward-closed, unweighted) dirty oracles, all inclusion-maximal
    independent sets instead."""
    g = pair.ground
    if isinstance(pair.dirty, ExplicitSystem):
        if not g.unit_weights:
            raise ValueError("explicit dirty systems are supported for unit weights only")
        return _maximal_masks(independence_array(pair.dirty), g.n)
    return _max_weight_top_masks(pair.dirty, g)


def compute_eta(pair):
    """Brute-forced addition/removal errors for a clean/dirty oracle pair.

    Per dirty top set S, |A(S)| = r - max_B |S ∩ B| and |R(S)| = |S| - max_B
    |S ∩ B| over maximum-weight clean bases B.  One overlap table gives max_B
    |S ∩ B| for every S at once: the sets below some B, each scored by its
    size, maximised over subsets.  With unit weights it is the clean rank.
    The pair for one S is ``modification_sets(S, pair.clean, pair.ground)``.
    """
    g = pair.ground
    if g.n > ENUM_GUARD:
        raise GuardExceeded(f"n={g.n} exceeds enumeration guard")
    n = g.n
    r = pair.clean.full_rank()
    sizes = subset_sizes(n)
    dirty_tops = dirty_top_sets(pair)
    overlap = _overlap_table(_max_weight_top_masks(pair.clean, g), sizes, n)[dirty_tops].astype(np.int64)
    adds = r - overlap
    rems = sizes[dirty_tops] - overlap
    eta_a, eta_r = int(adds.max()), int(rems.max())
    dist = adds + rems
    witness = _lex_min(dirty_tops[dist == dist.max()], n)
    # the identity holds for every matroid; only a failure needs to know
    # whether the dirty system is one
    if r != pair.dirty.full_rank() + eta_a - eta_r and is_matroid(pair.dirty):
        raise RuntimeError("rank identity r = r_d + eta_A - eta_R violated")
    return ErrorReport(eta_a, eta_r, witness)


def compute_intersection_errors(dirty1, dirty2, clean1, clean2):
    """Exhaustive intersection error counts (guarded 2^n subset scan).

    Raises ValueError if the dirty systems are not supersets of the clean ones
    (the augmenting-path algorithm's precondition).
    """
    n = clean1.n
    if n > INTERSECTION_GUARD:
        raise GuardExceeded(f"n={n} exceeds intersection enumeration guard")
    ic1, ic2 = independence_array(clean1), independence_array(clean2)
    id1, id2 = independence_array(dirty1), independence_array(dirty2)
    if (ic1 & ~id1).any() or (ic2 & ~id2).any():
        raise ValueError("dirty systems must be supersets of the clean systems")
    eta_1 = int((id1 & ~ic1).sum())
    eta_2 = int((id2 & ~ic2).sum())
    common_d = id1 & id2
    sizes = subset_sizes(n)
    s_d_star = int(sizes[common_d].max())
    # f[S] = size of the largest clean-common subset of S
    f = _subset_max(sizes * (ic1 & ic2), n)
    top = common_d & (sizes == s_d_star)
    eta_r = int((s_d_star - f[top].astype(np.int64)).max())
    return IntersectionErrorReport(eta_1, eta_2, s_d_star, eta_r)
