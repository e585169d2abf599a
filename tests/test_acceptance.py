"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Trial counts and tolerances are pinned here; every bound is evaluated exactly
(integers / Fractions) with brute-forced or construction-known error values.
"""

import random
import time
from fractions import Fraction

import pytest

from matoracle import (
    GroundSet,
    IntersectionOracles,
    OraclePair,
    PartitionMatroid,
    UniformMatroid,
    ceil_log2,
    compute_eta,
    compute_intersection_errors,
    dirty_intersection,
    error_dependent_basis,
    greedy_basis,
    greedy_native,
    pair_query_basis,
    rank_oracle_basis,
    robust_basis,
    robust_weighted_basis,
    simple_basis,
    textbook_intersection,
    verify_certificate,
    warm_start,
    weighted_basis,
)
from matoracle.algorithms import costly_strategies
from matoracle.bench import bound, family_instance, generate, random_intersection_instance, random_instance
from matoracle.core import spec_from_config
from matoracle.oracles import ROLE_CLEAN

from conftest import fresh, masks


def _report(criterion, detail):
    print(f"\nACCEPTANCE criterion {criterion}: PASS ({detail})")


def _materialize(inst):
    gen = generate(inst)
    pair0 = gen.fresh_pair()
    bd = greedy_basis(pair0)
    return pair0.with_dirty_basis(bd.mask), bd


@pytest.fixture(scope="module")
def unweighted_trials():
    """>= 2000 unit-weight instances, n <= 16, uniform/partition/graphic clean
    matroids with randomized perturbations; eta brute-forced once per instance."""
    rng = random.Random(20260810)
    trials = []
    while len(trials) < 2000:
        kind = ("uniform", "partition", "graphic")[len(trials) % 3]
        n = rng.randint(2, 12 if kind == "graphic" else 16)
        inst = random_instance(n, kind=kind, weight_mode="unit", seed=rng.randrange(10**9))
        pair, bd = _materialize(inst)
        rep = compute_eta(pair)
        trials.append((pair, bd, rep))
    return trials


@pytest.fixture(scope="module")
def weighted_trials():
    """>= 5000 exact-rational-weight instances with n <= 14."""
    rng = random.Random(77001)
    trials = []
    while len(trials) < 4800:
        kind = ("partition", "uniform", "graphic")[len(trials) % 3]
        n = rng.randint(1, 10 if kind == "graphic" else 14)
        inst = random_instance(n, kind=kind, weight_mode="int", seed=rng.randrange(10**9))
        pair, bd = _materialize(inst)
        trials.append((pair, bd))
    # a slice with non-integer rational weights
    while len(trials) < 5000:
        n = rng.randint(1, 10)
        g = GroundSet([Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)])
        clean = _random_partition(rng, g)
        dirty = _random_partition(rng, g)
        pair0 = OraclePair(clean, dirty, g)
        bd = greedy_basis(pair0)
        trials.append((pair0.with_dirty_basis(bd.mask), bd))
    return trials


def _random_partition(rng, g):
    n = g.n
    k = rng.randint(1, max(1, n // 2))
    assignment = [rng.randrange(k) for _ in range(n)]
    classes = [[e for e in range(n) if assignment[e] == i] for i in range(k)]
    classes = [c for c in classes if c]
    return PartitionMatroid(g, masks(*classes), [rng.randint(0, len(c)) for c in classes])


def test_criterion_01_consistency():
    """Exact clean-query counts when the dirty oracle is perfect."""
    t0 = time.perf_counter()
    rng = random.Random(42)
    done = 0
    while done < 500:
        kind = ("uniform", "partition", "graphic")[done % 3]
        n = rng.randint(1, 12 if kind == "graphic" else 16)
        inst = random_instance(n, kind=kind, weight_mode="unit", seed=rng.randrange(10**9),
                               perturbation={"kind": "class_swap", "count": 0, "seed": 0}
                               if kind == "partition"
                               else {"kind": "edge_rewire", "count": 0, "seed": 0}
                               if kind == "graphic"
                               else None)
        if kind == "uniform":
            # identity dirty for uniform: reuse the clean spec directly
            gen = generate(inst)
            g = gen.ground
            pair0 = OraclePair(gen.pair.clean, gen.pair.clean, g)
        else:
            gen = generate(inst)
            pair0 = gen.fresh_pair()
        bd = greedy_basis(pair0)
        if len(bd) == 0:
            continue  # the rank algorithm's 2-call contract presumes B_d != empty
        pair = pair0.with_dirty_basis(bd.mask)
        r = pair.clean.full_rank()
        p1 = fresh(pair)
        _, led = simple_basis(bd.mask, p1)
        assert led.clean_independence_count == pair.ground.n - r + 1
        p2 = fresh(pair)
        _, led2 = rank_oracle_basis(bd.mask, p2)
        assert led2.clean_rank_count == 2
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"500 identity instances exact, {elapsed:.1f}s")


def test_criterion_02_error_dependent_bound(unweighted_trials):
    t0 = time.perf_counter()
    violations = 0
    for pair, bd, rep in unweighted_trials:
        p2 = fresh(pair)
        basis, led = error_dependent_basis(bd.mask, p2)
        g = p2.ground
        r = p2.clean.full_rank()
        cap = g.n - r + 1 + rep.eta_A + rep.eta_R * ceil_log2(len(bd))
        if led.clean_independence_count > cap:
            violations += 1
        assert p2.clean.rank_mask(basis.mask) == len(basis) == r
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 120.0
    _report(2, f"{len(unweighted_trials)} trials, 0 violations, {elapsed:.1f}s")


def test_criterion_03_robustified_bounds(unweighted_trials):
    t0 = time.perf_counter()
    ks = (1, 2, 3, 8)
    checks = 0
    for pair, bd, rep in unweighted_trials:
        g = pair.ground
        n = g.n
        r = pair.clean.full_rank()
        r_d = len(bd)
        lg = ceil_log2(r_d)
        for k in ks:
            for fn, err_branch in (
                (robust_basis, n - r + k + rep.eta_A + rep.eta_R * (k + 1) * lg),
                (robust_weighted_basis, n - r + k + rep.eta_A * (k + 1) + rep.eta_R * (k + 1) * lg),
            ):
                p2 = fresh(pair)
                basis, led = fn(bd.mask, p2, k)
                cap = min(Fraction(err_branch), Fraction(k + 1, k) * n)
                assert Fraction(led.clean_independence_count) <= cap, (fn.__name__, k, n)
                assert p2.clean.rank_mask(basis.mask) == len(basis) == r
                checks += 1
    # adversarial pair: dirty = free matroid, clean = uniform(1)
    for n in (15, 64, 255):
        g = GroundSet.unit(n)
        clean = UniformMatroid(g, 1)
        dirty = UniformMatroid(g, n)
        pair0 = OraclePair(clean, dirty, g)
        bd = greedy_basis(pair0)
        pair = pair0.with_dirty_basis(bd.mask)
        ea, er = 0, n - 1  # construction-known errors for the free dirty matroid
        for k in ks:
            for fn, err_branch in (
                (robust_basis, n - 1 + k + ea + er * (k + 1) * ceil_log2(n)),
                (robust_weighted_basis, n - 1 + k + ea * (k + 1) + er * (k + 1) * ceil_log2(n)),
            ):
                p2 = fresh(pair)
                basis, led = fn(bd.mask, p2, k)
                robust_cap = Fraction(k + 1, k) * n
                assert Fraction(led.clean_independence_count) <= robust_cap, (fn.__name__, n, k)
                assert Fraction(led.clean_independence_count) <= min(Fraction(err_branch), robust_cap)
                assert len(basis) == 1
                checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(3, f"{checks} runs across k={ks}, 0 violations, {elapsed:.1f}s")


def test_criterion_04_weighted_correctness(weighted_trials, removals):
    t0 = time.perf_counter()
    rng = random.Random(5150)
    for pair, bd in weighted_trials:
        g = pair.ground
        best = g.weight(greedy_native(pair.clean, g))
        p2 = fresh(pair)
        basis, _ = weighted_basis(bd.mask, p2)
        assert g.weight(basis.mask) == best
        k = rng.choice((1, 2, 3, 8))
        p3 = fresh(pair)
        basis2, _ = robust_weighted_basis(bd.mask, p3, k)
        assert g.weight(basis2.mask) == best
    # constructed realization of the motivating modification pattern
    g = GroundSet([9 - i for i in range(9)])
    clean = PartitionMatroid(g, masks([0, 5], [1, 2, 3, 4], [6, 7], [8]), [0, 3, 2, 0])
    dirty = spec_from_config(g, {"kind": "predicted_basis", "basis": [2, 3, 4, 7, 8]})
    pair0 = OraclePair(clean, dirty, g)
    bd = greedy_basis(pair0)
    pair = pair0.with_dirty_basis(bd.mask)
    removals.clear()
    basis, _ = weighted_basis(bd.mask, pair)
    assert removals == [8, 4]  # e9 then e5
    assert set(basis) - set(bd) == {1, 6}  # e2 and e7
    assert sorted(basis) == [1, 2, 3, 6, 7]
    elapsed = time.perf_counter() - t0
    _report(4, f"{len(weighted_trials)} weighted trials exact + trace realization, {elapsed:.1f}s")


def test_criterion_05_minimal_modification(weighted_trials):
    t0 = time.perf_counter()
    for pair, bd in weighted_trials:
        if pair.ground.n > 14:
            continue
        rep = compute_eta(pair)
        p2 = fresh(pair)
        basis, _ = weighted_basis(bd.mask, p2)
        adds = len(set(basis) - set(bd))
        rems = len(set(bd) - set(basis))
        assert adds <= rep.eta_A and rems <= rep.eta_R
    elapsed = time.perf_counter() - t0
    _report(5, f"|A| <= eta_A and |R| <= eta_R on {len(weighted_trials)} trials, {elapsed:.1f}s")


def test_criterion_06_rank_oracle_families():
    t0 = time.perf_counter()
    checks = 0
    for n in (16, 32, 64, 128, 256):
        r_d = n // 2
        for eta in (1, 2, 4, 8):
            if eta > r_d:
                continue
            for tag, kw in (("lb_rem", {"eta_R": eta}), ("lb_add", {"eta_A": eta})):
                inst = family_instance(tag, n=n, r_d=r_d, seed=eta, **kw)
                pair, bd = _materialize(inst)
                _, led = rank_oracle_basis(bd.mask, pair)
                cap = bound("rank", n=n, r_d=r_d, eta_A=kw.get("eta_A", 0), eta_R=kw.get("eta_R", 0))
                assert Fraction(led.clean_rank_count) <= cap, (tag, n, eta)
                checks += 1
    elapsed = time.perf_counter() - t0
    _report(6, f"{checks} family grid points within the rank bound, {elapsed:.1f}s")


def test_criterion_07_pair_query_family():
    t0 = time.perf_counter()
    for gap in (8, 16, 32):
        ea = -((-3 * gap) // 4) + 1  # ceil(3/4 gap) + 1
        for seed in range(5):
            r_d = 4
            n = r_d + gap
            inst = family_instance("pairquery", n=n, r_d=r_d, eta_A=ea, seed=seed)
            pair, bd = _materialize(inst)
            r = pair.clean.full_rank()
            basis, led = pair_query_basis(bd.mask, pair)
            # a clean basis: clean-independent, and no outside element can be added
            assert pair.clean.is_independent_mask(basis.mask)
            assert not any(pair.clean.is_independent_mask(basis.mask | 1 << e) for e in set(range(n)) - set(basis))
            assert led.clean_independence_count <= n - r + ea - 1, (gap, seed)
    elapsed = time.perf_counter() - t0
    _report(7, f"pair-query family within n-r+eta_A-1 at gaps 8/16/32, {elapsed:.1f}s")


def test_criterion_08_costly_selector_exact():
    t0 = time.perf_counter()
    points = 0
    for n in (8, 16, 32, 64):
        for r in sorted({1, 2, n // 2, n - 2, n - 1, n}):
            if r < 1:
                continue
            for p in (2, 3, 5, 17):
                inst = family_instance("lb_basic", n=n, r=r)
                gen = generate(inst)
                pair = gen.fresh_pair()
                pair.ledger.cost_p = Fraction(p)
                basis, total, tag = costly_strategies(pair)
                cost_a = Fraction(p) * (n - r) * ceil_log2(n) + p
                cost_b = n + Fraction(p) * (n - r + 1)
                assert total == min(cost_a, cost_b) + p, (n, r, p, tag)
                assert pair.clean.rank_mask(basis.mask) == len(basis) == r
                points += 1
    assert points >= 50
    elapsed = time.perf_counter() - t0
    _report(8, f"{points} (p, n, r) grid points, executed cost exact, {elapsed:.1f}s")


def test_criterion_09_intersection_props():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    done = 0
    while done < 500:
        n = rng.randint(2, 14)
        inst = random_intersection_instance(n, seed=rng.randrange(10**9), cap_raises=rng.randint(0, 3))
        gen = generate(inst)
        ox = gen.fresh_oracles()
        eta = compute_intersection_errors(ox.dirty[0], ox.dirty[1], ox.clean[0], ox.clean[1])
        ref = IntersectionOracles(gen.ground, ox.clean[0], ox.clean[1], ox.clean[0], ox.clean[1])
        optimum, _, _ = textbook_intersection(ref)
        x, led, _ = dirty_intersection(ox)
        assert len(x) == optimum.bit_count()
        cap = (len(x) + 1) * (2 + (eta.eta_1 + eta.eta_2) * (ceil_log2(n) + 2))
        assert led.clean_independence_count <= cap
        ox2 = gen.fresh_oracles()
        s, led2 = warm_start(ox2)
        assert len(s) >= eta.s_d_star - 2 * eta.eta_r
        assert led2.clean_independence_count <= 2 + 2 * eta.eta_r * (1 + ceil_log2(n))
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(9, f"{done} partition-pair instances, both props, {elapsed:.1f}s")


def test_criterion_10_certificate_suite(unweighted_trials):
    t0 = time.perf_counter()
    rng = random.Random(4096)
    checked = 0
    for pair, bd, _rep in unweighted_trials[:600]:
        g = pair.ground
        runs = [
            ("greedy", lambda p: (greedy_basis(p, ROLE_CLEAN), p.ledger)),
            ("simple", lambda p: simple_basis(bd.mask, p)),
            ("errdep", lambda p: error_dependent_basis(bd.mask, p)),
            ("robust", lambda p: robust_basis(bd.mask, p, rng.choice((1, 2, 3, 8)))),
        ]
        for _name, fn in runs:
            p2 = fresh(pair)
            basis, led = fn(p2)
            rep = verify_certificate(led.transcript, basis.mask, g)
            assert rep.ok, _name
            checked += 1
    # negative control: drop one dependence witness from a greedy transcript
    g = GroundSet.unit(6)
    spec = UniformMatroid(g, 3)
    pair = OraclePair(spec, spec, g)
    basis = greedy_basis(pair, ROLE_CLEAN)
    transcript = list(pair.ledger.transcript)
    witness_idx = next(i for i, rec in enumerate(transcript) if not rec.answer)
    mutated = transcript[:witness_idx] + transcript[witness_idx + 1 :]
    assert not verify_certificate(mutated, basis.mask, g).ok
    elapsed = time.perf_counter() - t0
    _report(10, f"{checked} transcripts strict-verified + negative control, {elapsed:.1f}s")


def test_criterion_11_lower_bound_floor():
    t0 = time.perf_counter()
    rng = random.Random(1123)
    for _ in range(40):
        n = rng.randint(2, 16)
        r = rng.randint(1, n)
        inst = family_instance("lb_basic", n=n, r=r)
        pair, bd = _materialize(inst)
        floor = n - r + 1
        runs = [
            ("greedy", lambda p: (greedy_basis(p, ROLE_CLEAN), p.ledger)),
            ("simple", lambda p: simple_basis(bd.mask, p)),
            ("errdep", lambda p: error_dependent_basis(bd.mask, p)),
            ("robust-2", lambda p: robust_basis(bd.mask, p, 2)),
            ("weighted", lambda p: weighted_basis(bd.mask, p)),
        ]
        for name, fn in runs:
            p2 = fresh(pair)
            basis, led = fn(p2)
            cert = verify_certificate(led.transcript, basis.mask, p2.ground)
            if cert.ok:
                assert led.clean_independence_count >= floor, (name, n, r)
    elapsed = time.perf_counter() - t0
    _report(11, f"no certificate-passing run under n-r+1 queries, {elapsed:.1f}s")
