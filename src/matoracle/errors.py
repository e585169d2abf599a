"""Brute-force oracles for the error quantities the query bounds reference.

These are test-time oracles only: the basis algorithms never see them (module
boundary: ``algorithms`` has no dependency on this module).  Everything here
enumerates subsets under a size guard and is exact.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_INTERSECTION_GUARD,
    ElementSet,
    ExplicitSystem,
    GraphicMatroid,
    GuardExceeded,
    PartitionMatroid,
    PredictedBasisOracle,
    UniformMatroid,
    enumeration_guard,
    iter_bits,
    mask_of,
)

_POP16 = None


def _popcount_table():
    global _POP16
    if _POP16 is None:
        t = np.zeros(1 << 16, dtype=np.uint8)
        for i in range(16):
            t[(np.arange(1 << 16) >> i) & 1 == 1] += 1
        _POP16 = t
    return _POP16


def popcounts(masks):
    """Vectorized popcount for an int64 array of masks (n <= 32)."""
    t = _popcount_table()
    return t[masks & 0xFFFF].astype(np.int64) + t[(masks >> 16) & 0xFFFF]


def independence_array(spec):
    """Boolean array over all 2^n subset masks: independent or not."""
    n = spec.n
    if n > enumeration_guard():
        raise GuardExceeded(f"n={n} exceeds enumeration guard")
    masks = np.arange(1 << n, dtype=np.int64)
    if isinstance(spec, UniformMatroid):
        return popcounts(masks) <= spec.k
    if isinstance(spec, PartitionMatroid):
        ok = np.ones(1 << n, dtype=bool)
        for m, c in zip(spec.class_masks, spec.caps):
            ok &= popcounts(masks & m) <= c
        return ok
    if isinstance(spec, PredictedBasisOracle):
        return masks & ~np.int64(spec.basis_mask) == 0
    if isinstance(spec, ExplicitSystem):
        ok = np.zeros(1 << n, dtype=bool)
        for m in spec.maximal_masks:
            ok |= masks & ~np.int64(m) == 0
        return ok
    if isinstance(spec, GraphicMatroid):
        ok = np.empty(1 << n, dtype=bool)
        for m in range(1 << n):
            ok[m] = spec.is_independent_mask(m)
        return ok
    raise TypeError(f"cannot enumerate kind {spec.kind!r}")


def _maximal_masks(ind, n):
    """Masks of the inclusion-maximal sets of an independence array over 2^n."""
    masks = np.arange(1 << n, dtype=np.int64)
    # maximal: no single-element extension stays independent
    maximal = ind.copy()
    for e in range(n):
        bit = 1 << e
        without = masks & bit == 0
        ext_ok = np.zeros(1 << n, dtype=bool)
        ext_ok[without] = ind[(masks[without] | bit)]
        maximal &= ~(without & ext_ok)
    return masks[maximal]


def _max_weight_top_masks(spec, ground):
    """Masks of the maximum-weight inclusion-maximal independent sets."""
    cand = _maximal_masks(independence_array(spec), ground.n)
    # equal positive weights rank sets by size; all-zero weights tie every
    # maximal set, which matters for non-matroid systems
    if ground.unit_weights and any(ground.weights):
        sizes = popcounts(cand)
        best = sizes.max()
        return sorted(int(m) for m in cand[sizes == best])
    weights = [ground.weight(int(m)) for m in cand]
    best = max(weights)
    return sorted(int(m) for m, w in zip(cand, weights) if w == best)


def enumerate_max_weight_bases(spec, ground=None):
    """All inclusion-maximal independent sets of maximum total weight.

    Exhaustive subset scan, guarded; used only by error metrics and tests.
    """
    g = ground or spec.ground
    return [ElementSet(g.n, m) for m in _max_weight_top_masks(spec, g)]


class ErrorReport(NamedTuple):
    eta_A: int
    eta_R: int
    witness_basis: ElementSet
    per_basis: dict  # dirty top set (ElementSet) -> (|A|, |R|)


class IntersectionErrorReport(NamedTuple):
    eta_1: int
    eta_2: int
    s_d_star: int
    eta_r: int


def _lex_key(mask):
    return tuple(iter_bits(mask))


def modification_sets(s, clean, ground=None):
    """Smallest addition/removal sets turning s into a superset/subset of some
    maximum-weight clean basis (independent minimizations; one basis attains
    both because all maximum-weight bases share cardinality).
    """
    g = ground or clean.ground
    if g.n > enumeration_guard():
        raise GuardExceeded(f"n={g.n} exceeds enumeration guard")
    s_mask = mask_of(s)
    tops = _max_weight_top_masks(clean, g)
    best = max((s_mask & b).bit_count() for b in tops)
    witness = min((b for b in tops if (s_mask & b).bit_count() == best), key=_lex_key)
    return ElementSet(g.n, witness & ~s_mask), ElementSet(g.n, s_mask & ~witness)


def dirty_top_sets(pair):
    """Maximum-weight dirty bases; for explicit (downward-closed, unweighted)
    dirty oracles, all inclusion-maximal independent sets instead."""
    g = pair.ground
    if isinstance(pair.dirty, ExplicitSystem):
        if not g.unit_weights:
            raise ValueError("explicit dirty systems are supported for unit weights only")
        return sorted(int(m) for m in _maximal_masks(independence_array(pair.dirty), g.n))
    return _max_weight_top_masks(pair.dirty, g)


def compute_eta(pair):
    """Brute-forced addition/removal errors for a clean/dirty oracle pair.

    Per dirty top set S, |A(S)| = r - max_B |S ∩ B| and |R(S)| = |S| - max_B
    |S ∩ B| over maximum-weight clean bases B; with unit weights max_B |S ∩ B|
    is exactly the clean rank of S, which is the cheap shortcut.
    """
    g = pair.ground
    if g.n > enumeration_guard():
        raise GuardExceeded(f"n={g.n} exceeds enumeration guard")
    clean = pair.clean
    r = clean.full_rank()
    dirty_tops = dirty_top_sets(pair)
    use_shortcut = g.unit_weights
    tops = None if use_shortcut else _max_weight_top_masks(clean, g)
    per_basis = {}
    for s_mask in dirty_tops:
        if use_shortcut:
            m = clean.rank_mask(s_mask)
        else:
            m = max((s_mask & b).bit_count() for b in tops)
        per_basis[ElementSet(g.n, s_mask)] = (r - m, s_mask.bit_count() - m)
    eta_a = max(a for a, _ in per_basis.values())
    eta_r = max(rr for _, rr in per_basis.values())
    max_dist = max(a + rr for a, rr in per_basis.values())
    witness = min(
        (s for s, (a, rr) in per_basis.items() if a + rr == max_dist),
        key=lambda s: _lex_key(s.mask),
    )
    if pair.dirty.is_matroid:
        r_d = pair.dirty.full_rank()
        if r != r_d + eta_a - eta_r:
            raise RuntimeError("rank identity r = r_d + eta_A - eta_R violated")
    return ErrorReport(eta_a, eta_r, witness, per_basis)


def compute_intersection_errors(dirty1, dirty2, clean1, clean2):
    """Exhaustive intersection error counts (guarded 2^n subset scan).

    Raises ValueError if the dirty systems are not supersets of the clean ones
    (the augmenting-path algorithm's precondition).
    """
    n = clean1.n
    if n > enumeration_guard(DEFAULT_INTERSECTION_GUARD):
        raise GuardExceeded(f"n={n} exceeds intersection enumeration guard")
    ic1, ic2 = independence_array(clean1), independence_array(clean2)
    id1, id2 = independence_array(dirty1), independence_array(dirty2)
    if (ic1 & ~id1).any() or (ic2 & ~id2).any():
        raise ValueError("dirty systems must be supersets of the clean systems")
    eta_1 = int((id1 & ~ic1).sum())
    eta_2 = int((id2 & ~ic2).sum())
    common_d = id1 & id2
    common_c = ic1 & ic2
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = popcounts(masks)
    s_d_star = int(sizes[common_d].max())
    # f[S] = size of the largest clean-common subset of S, by subset DP
    f = np.where(common_c, sizes, -1)
    for e in range(n):
        bit = np.int64(1 << e)
        idx = masks[(masks & bit) != 0]
        f[idx] = np.maximum(f[idx], f[idx & ~bit])
    top = masks[common_d & (sizes == s_d_star)]
    eta_r = int((s_d_star - f[top]).max())
    return IntersectionErrorReport(eta_1, eta_2, s_d_star, eta_r)
