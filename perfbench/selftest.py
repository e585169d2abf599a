"""Self-tests of the benchmark's reference computations against exhaustive
enumeration at small n.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def _random_config(rng, kind, n):
    if kind == "partition":
        n_classes = rng.randint(1, max(1, n // 2))
        assign = [rng.randrange(n_classes) for _ in range(n)]
        classes = [[e for e in range(n) if assign[e] == i] for i in range(n_classes)]
        classes = [c for c in classes if c]
        return {"kind": "partition", "classes": classes, "caps": [rng.randint(0, len(c)) for c in classes]}
    if kind == "uniform":
        return {"kind": "uniform", "k": rng.randint(0, n)}
    vertices = rng.randint(2, n // 2 + 2)
    edges = []
    for _ in range(n):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices - 1)
        edges.append([u, v + (v >= u)])
    return {"kind": "graphic", "vertices": vertices, "edges": edges}


def _subsets(n):
    return range(1 << n)


def test_clog2_convention():
    assert [checks.clog2(x) for x in (0, 1, 2, 3, 4, 5, 8, 9)] == [0, 0, 1, 2, 2, 3, 3, 4]


def test_popcount_matches_bit_count():
    rng = random.Random(3)
    masks = [0, 1, 2**62 - 1, 2**62 + 5] + [rng.randrange(2**63) for _ in range(200)]
    assert checks.popcount(masks).tolist() == [m.bit_count() for m in masks]


def test_max_weight_basis_matches_enumeration():
    rng = random.Random(11)
    for trial in range(150):
        kind = ("partition", "uniform", "graphic")[trial % 3]
        n = rng.randint(1, 9)
        cfg = _random_config(rng, kind, n)
        m = checks.Matroid(cfg, n)
        weights = [rng.randint(0, 6) for _ in range(n)] if trial % 2 else [1] * n
        ind = [s for s in _subsets(n) if m.independent(s)]
        rank = max(s.bit_count() for s in ind)
        best = max(checks.mask_weight(s, weights) for s in ind)
        assert m.max_weight_basis(weights) == (rank, best), (cfg, weights)


def test_graphic_independence_is_acyclicity():
    # a triangle plus a parallel edge
    m = checks.Matroid({"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [2, 0], [0, 1]]}, 4)
    assert m.independent(0b0011) and not m.independent(0b0111) and not m.independent(0b1001)


def test_check_basis_flags_wrong_outputs():
    m = checks.Matroid({"kind": "partition", "classes": [[0, 1], [2, 3]], "caps": [1, 1]}, 4)
    weights = [3, 1, 2, 5]
    rw = m.max_weight_basis(weights)
    assert rw == (2, 8)
    assert checks.check_basis(m, weights, 0b1001, rw) == []
    assert checks.check_basis(m, weights, 0b1010, rw)  # a basis, not of maximum weight
    assert checks.check_basis(m, weights, 0b0011, rw)  # dependent
    assert checks.check_basis(m, weights, 0b1000, rw)  # not a basis


def _brute_common(m1, m2, n, elements_mask):
    best = 0
    for s in _subsets(n):
        if s & ~elements_mask == 0 and m1.independent(s) and m2.independent(s):
            best = max(best, s.bit_count())
    return best


def test_partition_intersection_matches_enumeration():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 10)
        c1, c2 = _random_config(rng, "partition", n), _random_config(rng, "partition", n)
        m1, m2 = checks.Matroid(c1, n), checks.Matroid(c2, n)
        sub = [e for e in range(n) if rng.random() < 0.7]
        sub_mask = sum(1 << e for e in sub)
        assert checks.partition_intersection_size(c1, c2, n) == _brute_common(m1, m2, n, (1 << n) - 1)
        assert checks.partition_intersection_size(c1, c2, n, sub) == _brute_common(m1, m2, n, sub_mask)


def test_intersection_errors_match_enumeration():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 9)
        c1, c2 = _random_config(rng, "partition", n), _random_config(rng, "partition", n)
        d1 = dict(c1, caps=[c + rng.randint(0, 1) for c in c1["caps"]])
        d2 = dict(c2, caps=[c + rng.randint(0, 1) for c in c2["caps"]])
        mc1, mc2, md1, md2 = (checks.Matroid(c, n) for c in (c1, c2, d1, d2))
        eta_1 = sum(1 for s in _subsets(n) if md1.independent(s) and not mc1.independent(s))
        eta_2 = sum(1 for s in _subsets(n) if md2.independent(s) and not mc2.independent(s))
        common_d = [s for s in _subsets(n) if md1.independent(s) and md2.independent(s)]
        s_d = max(s.bit_count() for s in common_d)
        eta_r = max(s_d - _brute_common(mc1, mc2, n, t) for t in common_d if t.bit_count() == s_d)
        assert checks.intersection_errors(c1, c2, d1, d2, n) == (eta_1, eta_2, s_d, eta_r)


def test_basis_eta_on_uniform_pairs():
    # U(k, n) against U(k_d, n) with unit weights: every dirty basis misses
    # max(0, k - k_d) clean elements and has max(0, k_d - k) too many
    for n, k, k_d in itertools.product((4, 6), (0, 2, 3), (1, 3, 4)):
        clean = checks.Matroid({"kind": "uniform", "k": k}, n)
        dirty = checks.Matroid({"kind": "uniform", "k": k_d}, n)
        assert checks.basis_eta(clean, dirty, [1] * n, n) == (max(0, k - k_d), max(0, k_d - k))


def test_basis_eta_weighted_partition():
    # the clean maximum-weight basis is {1, 2}; dirty forbids the heavy
    # element 1, so its basis {0, 2} must drop 0 and gain 1: eta_A = eta_R = 1
    clean = checks.Matroid({"kind": "partition", "classes": [[0, 1], [2]], "caps": [1, 1]}, 3)
    dirty = checks.Matroid({"kind": "partition", "classes": [[0, 2], [1]], "caps": [2, 0]}, 3)
    assert checks.basis_eta(clean, dirty, [1, 5, 2], 3) == (1, 1)


def test_table_bound_values():
    tb = checks.table_bound
    assert tb("greedy", n=10) == 10
    assert tb("simple", n=10, r=4, eta_A=0, eta_R=0) == 7
    assert tb("simple", n=10, r=4, eta_A=1, eta_R=0) == 11
    assert tb("errdep", n=10, r=4, r_d=5, eta_A=1, eta_R=2) == 10 - 4 + 1 + 1 + 2 * 3
    assert tb("robust", n=10, r=4, r_d=5, eta_A=1, eta_R=2, k=2) == min(10 - 4 + 2 + 1 + 2 * 3 * 3, 15)
    assert tb("robust", n=100, r=40, r_d=50, eta_A=0, eta_R=0, k=4) == 64
    assert tb("weighted", n=10, r=4, r_d=5, eta_A=1, eta_R=2) == 10 - 4 + 1 + 2 + 6
    assert tb("weighted-robust", n=10, r=4, r_d=5, eta_A=1, eta_R=1, k=3) == Fraction(40, 3)
    assert tb("rank", n=16, r_d=8, eta_A=1, eta_R=1) == 2 + 3 + 3
    assert tb("rank", n=8, r_d=4, eta_A=4, eta_R=4) == 9
    assert tb("pairquery", n=16, r=12, eta_A=9) == 16 - 12 + 9 - 1
    assert tb("costly", n=8, r=5, p=1) == min(3 * 3 + 1, 8 + 4) + 1
    assert tb("costly", n=8, r=5, p=4) == min(4 * 3 * 3 + 4, 8 + 4 * 4) + 4
    assert tb("intersect-dirty", n=16, r=3, eta_1=2, eta_2=1) == 4 * (2 + 3 * 6)
    assert tb("warmstart", n=16, eta_r=2) == 2 + 2 * 2 * 5


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")


if __name__ == "__main__":
    main()
