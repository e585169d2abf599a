"""Two-oracle basis algorithms, each returning (basis, ledger).

All algorithms receive a dirty basis mask that was computed with dirty queries
only and then touch nothing but the clean oracle.  Billing is exact: every
clean query the accounting of the corresponding bound charges is issued
exactly as charged, and none besides.  Sets are int masks throughout; only
the returned basis is an ElementSet.
"""

from __future__ import annotations

from functools import partial

from .core import ElementSet, ceil_log2, greedy_scan
from .oracles import ROLE_CLEAN, ROLE_DIRTY, greedy_basis


def default_k(n):
    """Exposed default; bound tests always sweep k explicitly instead."""
    return max(1, ceil_log2(n) // 2)


def binary_search_smallest_dependent_prefix(member_positions, probe_dependent, lo_idx, hi_idx):
    """Smallest position (from member_positions) whose prefix is dependent.

    probe_dependent(pos) answers "is the prefix through canonical position pos
    dependent"; it must be monotone over the listed positions.  lo_idx indexes
    a position known independent (-1 for the empty prefix), hi_idx one known
    dependent.  Issues at most ceil(log2(hi_idx - lo_idx)) probes, maintaining
    the independent-lo / dependent-hi sandwich throughout.  Searches over
    plain indices pass a range as member_positions.
    """
    lo, hi = lo_idx, hi_idx
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        if probe_dependent(member_positions[mid]):
            hi = mid
        else:
            lo = mid
    return member_positions[hi]


def simple_basis(bd, pair):
    """Keep the dirty basis if it is clean-independent, else greedy from scratch.

    Clean queries: at most n + 1 always; exactly n - r + 1 when the dirty basis
    is a clean basis.
    """
    g = pair.ground
    independent = partial(pair.query_independent, ROLE_CLEAN)
    start = bd if independent(bd) else 0
    return ElementSet(g.n, greedy_scan(independent, g, start, start)), pair.ledger


def _remove_smallest_dependent(independent, g, bd, cur, lo_pos):
    """Bit of the element ending the smallest dependent prefix of cur (known
    dependent), found by binary search with the billed test independent(mask)
    above lo_pos (a member of cur whose prefix is independent, or -1); it
    must lie inside the dirty basis."""
    positions = g.positions(cur)
    lo_idx = positions.index(lo_pos) if lo_pos >= 0 else -1
    pos = binary_search_smallest_dependent_prefix(
        positions, lambda p: not independent(cur & g.prefix_mask(p)), lo_idx, len(positions) - 1
    )
    e = g.element_at(pos)
    if not bd >> e & 1:
        raise RuntimeError("removals must stay inside the dirty basis")
    return 1 << e


def _strip_dirty_basis(independent, g, bd):
    """Remove smallest-dependent-prefix elements from the dirty set bd
    until the billed test independent(mask) passes; returns what is left."""
    cur = bd
    while not independent(cur):
        cur &= ~_remove_smallest_dependent(independent, g, bd, cur, -1)
    return cur


def error_dependent_basis(bd, pair):
    """Binary-search removals from the dirty basis, then greedy augmentation.

    Clean queries: at most n - r + 1 + eta_A + eta_R * ceil(log2 r_d).
    Removal positions strictly increase across iterations, which keeps the
    transcript a strict certificate.
    """
    g = pair.ground
    independent = partial(pair.query_independent, ROLE_CLEAN)
    cur = greedy_scan(independent, g, _strip_dirty_basis(independent, g, bd), bd)
    return ElementSet(g.n, cur), pair.ledger


def robust_basis(bd, pair, k):
    """Segmented removal search: short linear probe, an independence gate, a
    longer linear probe, then binary search; finally greedy augmentation.

    Clean queries: at most min{n - r + k + eta_A + eta_R (k+1) ceil(log2 r_d),
    (1 + 1/k) n}.  The gate query on the whole remaining segment is issued only
    when the first linear probe could not already have covered it.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    g = pair.ground
    independent = partial(pair.query_independent, ROLE_CLEAN)
    lg = ceil_log2(bd.bit_count())
    b = 0
    seg = g.positions(bd)  # pending dirty-basis positions, canonical order

    while seg:
        m = len(seg)
        whole = b
        for p in seg:
            whole |= 1 << g.element_at(p)

        def upto(i):
            # b ∪ (first i segment elements); b sits below the segment, so the
            # canonical prefix through the i-th segment position captures it
            return whole & g.prefix_mask(seg[i - 1]) if i else b

        found = None
        for i in range(1, min(m, k - 1) + 1):  # first linear part
            if not independent(upto(i)):
                found = i
                break
        if found is None:
            if m <= k - 1:
                b, seg = whole, []
                continue
            if independent(whole):  # gate, only when m >= k
                b, seg = whole, []
                continue
            for i in range(k, min(k * lg, m) + 1):  # second linear part
                if not independent(upto(i)):
                    found = i
                    break
            if found is None:
                # remainder (k*lg, m]: prefix k*lg verified independent, the
                # whole segment known dependent from the gate
                found = binary_search_smallest_dependent_prefix(
                    range(m + 1), lambda i: not independent(upto(i)), k * lg, m
                )
        b = upto(found - 1)
        seg = seg[found:]
    cur = greedy_scan(independent, g, b, bd)
    return ElementSet(g.n, cur), pair.ledger


def weighted_basis(bd, pair):
    """Alternating prefix-guided additions and binary-search removals keeping
    the working solution safe through every weight prefix.

    Clean queries: at most n - r + 1 + 2 eta_A + eta_R * ceil(log2 r_d).
    Removed elements are never reconsidered.
    """
    g = pair.ground
    independent = partial(pair.query_independent, ROLE_CLEAN)
    a_mask = 0
    r_mask = bd & ~_strip_dirty_basis(independent, g, bd)
    pre = 0  # prefix mask through position p, kept as the scan walks
    for p in range(g.n):
        e = g.order[p]
        pre |= 1 << e
        if bd >> e & 1:
            continue
        cur = (bd & ~r_mask) | a_mask
        if independent((cur | 1 << e) & pre):
            a_mask |= 1 << e
            cur |= 1 << e
            if not independent(cur):
                r_mask |= _remove_smallest_dependent(independent, g, bd, cur, p)
    return ElementSet(g.n, (bd & ~r_mask) | a_mask), pair.ledger


def robust_weighted_basis(bd, pair, k):
    """Weighted variant with counted linear removal probes and delayed binary
    searches, trading error-dependence against robustness via k.

    Clean queries: at most min{n - r + k + eta_A (k+1) + eta_R (k+1)
    ceil(log2 r_d), (1 + 1/k) n}.

    The full-set independence check that pauses the linear search fires after
    k - 1 removal probes; for k = 1 that is zero probes, so the check runs at
    the start of a search segment whenever the current solution is not already
    known dependent (after a prefix-probe removal the in-iteration check below
    covers it).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    g = pair.ground
    independent = partial(pair.query_independent, ROLE_CLEAN)
    lg = ceil_log2(bd.bit_count())
    positions = g.positions(bd)
    d_max = positions[-1] if positions else -1
    a_mask, r_mask = 0, 0
    q = 0
    ls = True
    known_dep = False  # whether (bd \ R) ∪ A is currently known dependent

    def current():
        return (bd & ~r_mask) | a_mask

    pre = 0  # prefix mask through position p, kept as the scan walks
    for p in range(g.n):
        e = g.order[p]
        pre |= 1 << e
        if not bd >> e & 1:
            cur = current()
            if independent((cur | 1 << e) & pre):
                a_mask |= 1 << e
                ls = True
                # an addition cannot turn a known-dependent solution independent
            continue
        if r_mask >> e & 1 or not ls:
            continue
        if k == 1 and q == 0 and p != d_max and not known_dep:
            # segment-start check (the k-1 = 0 probe point)
            if independent(current()):
                ls = False
                continue
            known_dep = True
        q += 1
        if not independent(current() & pre):
            r_mask |= 1 << e
            q = 0
            known_dep = False
        if p == d_max:
            # prefix through d_max is the whole current solution, so either the
            # probe above just verified it or the removal restored independence
            q = 0
            ls = False
            known_dep = False
        elif q == k - 1:
            if independent(current()):
                q = 0
                ls = False
                known_dep = False
            else:
                known_dep = True
        elif q == k * lg:
            if not known_dep:
                raise RuntimeError("binary search fired without a dependent upper bound")
            r_mask |= _remove_smallest_dependent(independent, g, bd, current(), p)
            q = 0
            known_dep = False
    return ElementSet(g.n, (bd & ~r_mask) | a_mask), pair.ledger


def rank_oracle_basis(bd, pair):
    """Unweighted basis through the clean rank oracle.

    Rank calls: at most min{n + 1, 2 + eta_R ceil(log2 r_d) +
    min{eta_A ceil(log2(n - r_d)), n - r_d}} on instances where one error side
    vanishes, and never more than one call over that on any instance.  Exactly
    2 calls when the dirty basis is already a clean basis.

    Both deficiencies are derived from the two upfront rank calls; a huge
    removal deficiency switches to a plain greedy scan before the second call
    (n + 1 worst case), and a mid-sized combined deficiency whose binary plan
    cannot beat the scan switches after it.
    """
    return ElementSet(pair.ground.n, _rank_oracle_mask(bd, pair)), pair.ledger


def _rank_oracle_mask(bd, pair):
    g = pair.ground
    r_d = bd.bit_count()
    lg_rd = ceil_log2(r_d)
    if bd == 0:
        r = pair.query_rank(ROLE_CLEAN, g.full_mask)
        return _rank_additions(pair, g, 0, 0, r, g.full_mask)

    q1 = pair.query_rank(ROLE_CLEAN, bd)
    d_r = r_d - q1
    if d_r > 0 and d_r * lg_rd >= g.n - 1:
        # removals alone would cost more than scanning everything
        return _rank_scan(pair, g, range(g.n), 0, 0)
    if bd == g.full_mask and d_r > 0:
        # no addition candidates and removals preserve the rank: skip the
        # second upfront call, its answer is already determined
        r, d_a = q1, 0
    else:
        r = pair.query_rank(ROLE_CLEAN, g.full_mask)
        d_a = r - q1
    m = g.n - r_d  # addition candidates: the elements outside the dirty basis
    if d_r > 0:
        planned = 2 + d_r * lg_rd + min(d_a * ceil_log2(m), m)
        if planned > g.n + 1:
            # the binary plan cannot beat the scan; finish greedily, stopping
            # once the full rank is reached
            return _rank_scan(pair, g, range(g.n), 0, 0, r)
    cur = bd
    for _ in range(d_r):
        # the full set stays rank-deficient while removals remain, so it is
        # known dependent without a call
        cur &= ~_remove_smallest_dependent(
            lambda m: pair.query_rank(ROLE_CLEAN, m) == m.bit_count(), g, bd, cur, -1
        )
    return _rank_additions(pair, g, cur, q1, r, g.full_mask & ~bd)


def _rank_additions(pair, g, cur, cur_rank, target_rank, cand):
    """Add the missing elements from the candidate mask cand, by binary
    searches on the smallest rank-increasing prefix of the candidates in
    canonical order when that is cheaper, else linearly.
    """
    outside_positions = g.positions(cand)
    m = len(outside_positions)
    d_a = target_rank - cur_rank
    if d_a * ceil_log2(m) <= m:
        lo = -1
        while cur_rank < target_rank:
            # rank over all candidates reaches the target, so the upper end is
            # known rank-increasing without a probe
            hi = binary_search_smallest_dependent_prefix(
                range(m),
                lambda i: pair.query_rank(ROLE_CLEAN, cur | cand & g.prefix_mask(outside_positions[i])) > cur_rank,
                lo,
                m - 1,
            )
            cur |= 1 << g.element_at(outside_positions[hi])
            cur_rank += 1
            lo = hi  # earlier candidates stay spanned
        return cur
    return _rank_scan(pair, g, outside_positions, cur, cur_rank, target_rank)


def _rank_scan(pair, g, positions, cur, cur_rank, stop_rank=None):
    """Greedy scan by clean rank over the listed canonical positions, adding
    each element that raises the rank and stopping once stop_rank is reached."""
    for p in positions:
        e = g.element_at(p)
        got = pair.query_rank(ROLE_CLEAN, cur | 1 << e)
        if got > cur_rank:
            cur |= 1 << e
            cur_rank = got
        if cur_rank == stop_rank:
            break
    return cur


def pair_query_basis(cur, pair):
    """Augment a clean-independent set by querying non-members two at a time.

    Designed for instances with no removal error and a very large addition
    error, where it beats the n - r + eta_A floor.  Outside that family the
    output need not be clean-independent; when it is, it is a clean basis,
    because every rejected element is spanned by a subset of the output.
    """
    g = pair.ground
    outside = [e for e in g.order if not cur >> e & 1]
    i = 0
    while i < len(outside):
        if len(outside) - i == 1:
            e = outside[i]
            if pair.query_independent(ROLE_CLEAN, cur | 1 << e):
                cur |= 1 << e
            break
        e1, e2 = outside[i], outside[i + 1]
        i += 2
        if pair.query_independent(ROLE_CLEAN, cur | 1 << e1 | 1 << e2):
            cur |= 1 << e1 | 1 << e2
        elif pair.query_independent(ROLE_CLEAN, cur | 1 << e1):
            cur |= 1 << e1
        elif pair.query_independent(ROLE_CLEAN, cur | 1 << e2):
            cur |= 1 << e2
    return ElementSet(g.n, cur), pair.ledger


COSTLY_A = "remove-from-E"
COSTLY_B = "dirty-basis-then-verify"


def costly_strategies(pair):
    """Costly-oracle selector between pure clean removal from E and a dirty
    greedy basis verified cleanly: one clean rank call gives r, and the
    strategy whose closed-form cost is lower runs.

    Returns (basis, total_cost, strategy tag); the executed run's ledger is the
    pair's.  With an exact dirty oracle the executed cost is exactly
    p (n - r) ceil(log2 n) + p or n + p (n - r + 1), plus p for the rank call.
    """
    g = pair.ground
    p = pair.ledger.cost_p
    n = g.n
    r = pair.query_rank(ROLE_CLEAN, g.full_mask)
    if p * (n - r) * ceil_log2(n) + p <= n + p * (n - r + 1):
        basis, tag = _costly_remove_from_e(pair, r), COSTLY_A
    else:
        basis, tag = _costly_dirty_then_verify(pair), COSTLY_B
    return ElementSet(n, basis), pair.ledger.total_cost, tag


def _costly_remove_from_e(pair, r):
    """Start from E and remove smallest dependent-prefix elements.

    One clean query checks E itself (the + p of the strategy's cost); then
    each of the n - r removals is one binary search over the full canonical
    index space, exactly ceil(log2 n) probes.
    """
    g = pair.ground
    cur = g.full_mask
    if not pair.query_independent(ROLE_CLEAN, cur):
        for _ in range(g.n - r):
            pos = binary_search_smallest_dependent_prefix(
                range(g.n), lambda p: not pair.query_independent(ROLE_CLEAN, cur & g.prefix_mask(p)), -1, g.n - 1
            )
            cur &= ~(1 << g.element_at(pos))
    return cur


def _costly_dirty_then_verify(pair):
    bd = greedy_basis(pair, ROLE_DIRTY).mask
    return simple_basis(bd, pair)[0].mask
