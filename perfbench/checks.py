"""Reference computations the benchmark checks each trial against.

Nothing here calls the program: maximum-weight bases come from top-cap per
class (partition), top-k (uniform) and a union-find Kruskal (graphic); the
maximum common independent set of two partition matroids from a small
max-flow; the bound table is re-evaluated from the table in the project
README; and eta is brute-forced from its definition at small n.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

# Largest n for which the benchmark brute-forces eta_A / eta_R itself.
OWN_ETA_MAX_N = 16

_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def popcount(masks):
    """Element-wise popcount of an int64 array of non-negative masks, byte by
    byte through a table (np.bitwise_count needs NumPy 2)."""
    masks = np.asarray(masks, dtype=np.int64)
    total = np.zeros(masks.shape, dtype=np.int64)
    for shift in range(0, 63, 8):
        total += _BYTE_POPCOUNT[(masks >> shift) & 0xFF]
    return total


def clog2(x):
    """ceil(log2 x), 0 for x <= 1."""
    return 0 if x <= 1 else (int(x) - 1).bit_length()


def weights_of(spec_weights, n):
    return [1] * n if spec_weights == "unit" else list(spec_weights)


def mask_weight(mask, weights):
    bits = bin(mask)[:1:-1]
    return sum(w for w, b in zip(weights, bits) if b == "1")


class Matroid:
    """Independence and rank for a partition, uniform or graphic config."""

    def __init__(self, cfg, n):
        self.kind = cfg["kind"]
        self.n = n
        if self.kind == "partition":
            self.classes = [list(c) for c in cfg["classes"]]
            self.class_masks = [sum(1 << e for e in c) for c in self.classes]
            self.caps = list(cfg["caps"])
        elif self.kind == "uniform":
            self.k = cfg["k"]
        elif self.kind == "graphic":
            self.vertices = cfg["vertices"]
            self.edges = [tuple(e) for e in cfg["edges"]]
        else:
            raise ValueError(f"no reference for matroid kind {self.kind!r}")

    def _forest(self, elements):
        parent = list(range(self.vertices))

        def root(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        kept = []
        for e in elements:
            u, v = self.edges[e]
            ru, rv = root(u), root(v)
            if ru != rv:
                parent[ru] = rv
                kept.append(e)
        return kept

    def independent(self, mask):
        if self.kind == "partition":
            return all((mask & m).bit_count() <= c for m, c in zip(self.class_masks, self.caps))
        if self.kind == "uniform":
            return mask.bit_count() <= self.k
        members = [e for e in range(self.n) if mask >> e & 1]
        return len(self._forest(members)) == len(members)

    def max_weight_basis(self, weights):
        """(rank, maximum weight of a basis) for non-negative weights."""
        if self.kind == "partition":
            r, best = 0, 0
            for cls, cap in zip(self.classes, self.caps):
                top = sorted((weights[e] for e in cls), reverse=True)[:cap]
                r += len(top)
                best += sum(top)
            return r, best
        if self.kind == "uniform":
            top = sorted(weights, reverse=True)[: self.k]
            return len(top), sum(top)
        kept = self._forest(sorted(range(self.n), key=lambda e: -weights[e]))
        return len(kept), sum(weights[e] for e in kept)


def check_basis(matroid, weights, mask, rank_and_weight):
    """Problems with an algorithm's output basis (empty when it is a
    maximum-weight basis of the clean matroid)."""
    r, best = rank_and_weight
    problems = []
    if not matroid.independent(mask):
        problems.append("output is not clean-independent")
    if mask.bit_count() != r:
        problems.append(f"output has {mask.bit_count()} elements, rank is {r}")
    w = mask_weight(mask, weights)
    if w != best:
        problems.append(f"output weight {w} != maximum {best}")
    return problems


def partition_intersection_size(cfg1, cfg2, n, elements=None):
    """Maximum common independent set size of two partition matroids, as a
    max-flow source -> class of M1 -> element -> class of M2 -> sink."""
    if elements is None:
        elements = range(n)
    c1 = {e: i for i, cls in enumerate(cfg1["classes"]) for e in cls}
    c2 = {e: i for i, cls in enumerate(cfg2["classes"]) for e in cls}
    # nodes: source 0, sink 1, then M1 classes, M2 classes, elements
    source, sink = 0, 1
    a0 = 2
    b0 = a0 + len(cfg1["caps"])
    x0 = b0 + len(cfg2["caps"])
    cap = [dict() for _ in range(x0 + n)]

    def arc(u, v, c):
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    for i, c in enumerate(cfg1["caps"]):
        arc(source, a0 + i, c)
    for j, c in enumerate(cfg2["caps"]):
        arc(b0 + j, sink, c)
    for e in elements:
        arc(a0 + c1[e], x0 + e, 1)
        arc(x0 + e, b0 + c2[e], 1)
    flow = 0
    while True:
        prev = {source: None}
        dq = deque([source])
        while dq and sink not in prev:
            u = dq.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in prev:
                    prev[v] = u
                    dq.append(v)
        if sink not in prev:
            return flow
        v = sink
        while prev[v] is not None:
            u = prev[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1


# ---------------------------------------------------------------------------
# brute force from the definitions, small n only


def _max_weight_sets(matroid, weights, n):
    """All inclusion-maximal independent sets of maximum total weight."""
    masks = np.arange(1 << n, dtype=np.int64)
    ind = np.fromiter((matroid.independent(m) for m in range(1 << n)), dtype=bool, count=1 << n)
    maximal = ind.copy()
    for e in range(n):
        without = masks & (1 << e) == 0
        maximal[without] &= ~ind[masks[without] | (1 << e)]
    tops = masks[maximal]
    total = sum(np.array(weights, dtype=object)[e] * (tops >> e & 1) for e in range(n))
    return tops[total == max(total)]


def basis_eta(clean, dirty, weights, n):
    """(eta_A, eta_R): over maximum-weight dirty bases S, the largest
    |A| = r - max_B |S & B| and |R| = |S| - max_B |S & B|, B ranging over
    maximum-weight clean bases (README: modification sets)."""
    clean_tops = _max_weight_sets(clean, weights, n)
    r = int(clean_tops[0]).bit_count()
    eta_a = eta_r = 0
    for s in _max_weight_sets(dirty, weights, n):
        m = int(popcount(clean_tops & s).max())
        eta_a = max(eta_a, r - m)
        eta_r = max(eta_r, int(s).bit_count() - m)
    return eta_a, eta_r


def _partition_independence(cfg, masks):
    ok = np.ones(masks.shape, dtype=bool)
    for cls, c in zip(cfg["classes"], cfg["caps"]):
        m = np.int64(sum(1 << e for e in cls))
        ok &= popcount(masks & m) <= c
    return ok


def intersection_errors(clean1, clean2, dirty1, dirty2, n):
    """Brute-forced (eta_1, eta_2, s_d*, eta_r) for partition configs:
    eta_i counts sets dirty-independent but clean-dependent in matroid i;
    s_d* is the largest dirty common independent set; eta_r is the most
    elements any such largest set must lose to become clean-common."""
    masks = np.arange(1 << n, dtype=np.int64)
    ic1, ic2 = _partition_independence(clean1, masks), _partition_independence(clean2, masks)
    id1, id2 = _partition_independence(dirty1, masks), _partition_independence(dirty2, masks)
    eta_1 = int((id1 & ~ic1).sum())
    eta_2 = int((id2 & ~ic2).sum())
    sizes = popcount(masks)
    common_d = id1 & id2
    s_d_star = int(sizes[common_d].max())
    worst = 0
    for t in masks[common_d & (sizes == s_d_star)]:
        t = int(t)
        kept = partition_intersection_size(clean1, clean2, n, [e for e in range(n) if t >> e & 1])
        worst = max(worst, s_d_star - kept)
    return eta_1, eta_2, s_d_star, worst


# ---------------------------------------------------------------------------
# bound table (README), exact rationals


def table_bound(tag, n, r=None, r_d=None, eta_A=None, eta_R=None, k=None, p=None,
                eta_1=None, eta_2=None, eta_r=None):
    """Clean-query bound of the README table (for `costly`: total cost)."""
    lg_rd = clog2(r_d) if r_d is not None else None
    if tag == "greedy":
        return Fraction(n)
    if tag == "simple":
        return Fraction(n - r + 1 if eta_A == 0 and eta_R == 0 else n + 1)
    if tag == "errdep":
        return Fraction(n - r + 1 + eta_A + eta_R * lg_rd)
    if tag == "robust":
        return min(Fraction(n - r + k + eta_A + eta_R * (k + 1) * lg_rd), Fraction(n) * (k + 1) / k)
    if tag == "weighted":
        return Fraction(n - r + 1 + 2 * eta_A + eta_R * lg_rd)
    if tag == "weighted-robust":
        return min(Fraction(n - r + k + eta_A * (k + 1) + eta_R * (k + 1) * lg_rd), Fraction(n) * (k + 1) / k)
    if tag == "rank":
        return Fraction(min(n + 1, 2 + eta_R * lg_rd + min(eta_A * clog2(n - r_d), n - r_d)))
    if tag == "pairquery":
        return Fraction(n - r + eta_A - 1)  # strictly below n - r + eta_A
    if tag == "costly":
        p = Fraction(p)
        # cheaper strategy plus the selector's one clean rank call
        return min(p * (n - r) * clog2(n) + p, n + p * (n - r + 1)) + p
    if tag == "intersect-dirty":
        return Fraction((r + 1) * (2 + (eta_1 + eta_2) * (clog2(n) + 2)))
    if tag == "warmstart":
        return Fraction(2 + 2 * eta_r * (1 + clog2(n)))
    raise KeyError(tag)
