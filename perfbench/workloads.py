"""Workload definitions: which instances each workload builds and which trials
it runs on them.

Every random instance has a fixed shape per slot (n, class count, caps,
number of dirty edits); the workload seed only moves element labels, weights,
edges and perturbation draws.  ``bench.random_instance`` and
``bench.random_intersection_instance`` draw the class count and caps from the
seed as well, which moves one trial's cost by more than 10x between seeds, so
the workloads build their own specs in the same JSON shape instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from matoracle.bench import InstanceSpec, family_instance

# Inputs of the trials kept failing (see README, "Kept failing trials") do not
# depend on the workload seed, so they fail in every run and in every round.
KEPT_FAILING_SEED = 7

UNIT_TAGS = ("greedy", "simple", "errdep", "rank")
SWEEP_K = (1, 2, 4)
SWEEP_P = (1, 4)


@dataclass
class InstancePlan:
    """One instance of a workload and the (algorithm, k, p) trials run on it."""

    label: str
    slot: int  # with the workload seed, decides the instance seed
    make: object  # callable(instance seed) -> InstanceSpec
    trials: list  # (algorithm, k, p)
    kept_failing: bool = False


def _spec(seed, doc):
    return InstanceSpec.from_dict(dict(doc, seed=seed))


def _weights(rng, n, weight_mode):
    if weight_mode == "unit":
        return "unit"
    return [rng.randint(0, 2 * n) for _ in range(n)]


def _classes(rng, n, n_classes):
    perm = list(range(n))
    rng.shuffle(perm)
    return [sorted(perm[i::n_classes]) for i in range(n_classes)]


def _shift_caps(rng, caps, delta, count):
    out = list(caps)
    for i in rng.sample(range(len(caps)), count):
        out[i] = max(0, out[i] + delta)
    return out


def partition(n, n_classes, weight_mode, dirty):
    """Equal-size classes with caps at half of each class.

    dirty is ("caps", delta, count): same classes, caps moved by delta on
    count classes (delta > 0 is removal-heavy, delta < 0 addition-heavy); or
    ("swap", count): the program's class_swap perturbation.
    """

    def make(seed):
        rng = random.Random(seed)
        classes = _classes(rng, n, n_classes)
        caps = [len(c) // 2 for c in classes]
        if dirty[0] == "caps":
            _, delta, count = dirty
            dirty_cfg = {"mode": "matroid", "kind": "partition", "classes": classes,
                         "caps": _shift_caps(rng, caps, delta, count)}
        else:
            dirty_cfg = {"mode": "perturb", "kind": "class_swap", "count": dirty[1],
                         "seed": rng.randrange(2**31)}
        return _spec(seed, {
            "n": n,
            "weights": _weights(rng, n, weight_mode),
            "matroid": {"kind": "partition", "classes": classes, "caps": caps},
            "dirty": dirty_cfg,
            "family": {"tag": "partition", "params": {"n": n, "classes": n_classes, "dirty": list(dirty)}},
        })

    return make


def uniform(n, k, k_dirty, weight_mode):
    """U(k, n) clean against U(k_dirty, n) dirty: k_dirty > k is removal-heavy."""

    def make(seed):
        rng = random.Random(seed)
        return _spec(seed, {
            "n": n,
            "weights": _weights(rng, n, weight_mode),
            "matroid": {"kind": "uniform", "k": k},
            "dirty": {"mode": "matroid", "kind": "uniform", "k": k_dirty},
            "family": {"tag": "uniform", "params": {"n": n, "k": k, "k_dirty": k_dirty}},
        })

    return make


def graphic(n, vertices, rewires, weight_mode):
    """Random multigraph with n edges; dirty is the program's edge_rewire."""

    def make(seed):
        rng = random.Random(seed)
        edges = []
        for _ in range(n):
            u = rng.randrange(vertices)
            v = rng.randrange(vertices - 1)
            edges.append([u, v + (v >= u)])
        return _spec(seed, {
            "n": n,
            "weights": _weights(rng, n, weight_mode),
            "matroid": {"kind": "graphic", "vertices": vertices, "edges": edges},
            "dirty": {"mode": "perturb", "kind": "edge_rewire", "count": rewires, "seed": rng.randrange(2**31)},
            "family": {"tag": "graphic", "params": {"n": n, "vertices": vertices, "rewires": rewires}},
        })

    return make


def family(tag, **params):
    """A construction family of the program, materialised by family_instance."""

    def make(seed):
        return family_instance(tag, **params, seed=seed)

    return make


def intersection(n, classes1, classes2, raises):
    """Two partition matroids with caps at half of each class; each dirty side
    raises the caps of `raises` classes by one, so dirty stays a superset."""

    def make(seed):
        rng = random.Random(seed)
        sides = []
        for n_classes in (classes1, classes2):
            classes = _classes(rng, n, n_classes)
            caps = [len(c) // 2 for c in classes]
            sides.append((classes, caps, _shift_caps(rng, caps, 1, raises)))
        (c1, k1, d1), (c2, k2, d2) = sides
        return _spec(seed, {
            "n": n,
            "weights": "unit",
            "matroid": {"kind": "partition", "classes": c1, "caps": k1},
            "dirty": {"mode": "matroid", "kind": "partition", "classes": c1, "caps": d1},
            "matroid2": {"kind": "partition", "classes": c2, "caps": k2},
            "dirty2": {"mode": "matroid", "kind": "partition", "classes": c2, "caps": d2},
            "family": {"tag": "intersection", "params": {"n": n, "classes": [classes1, classes2], "raises": raises}},
        })

    return make


def _unit_sweep():
    return [(t, None, None) for t in UNIT_TAGS] + [("robust", k, None) for k in SWEEP_K] + [
        ("costly", None, p) for p in SWEEP_P
    ]


def _weighted_sweep():
    return [("greedy", None, None), ("weighted", None, None)] + [("weighted-robust", k, None) for k in SWEEP_K]


def _basis_scale():
    # n above the enumeration guard throughout
    plans = [
        ("uniform-32768-add", uniform(32768, 16384, 16384 - 64, "unit"), [("rank", None, None)]),
        ("uniform-32768-add-int", uniform(32768, 16384, 16384 - 64, "int"), [("weighted", None, None)]),
        ("partition4-16384-add", partition(16384, 4, "unit", ("caps", -16, 4)), [("rank", None, None)]),
        ("uniform-4096-rem", uniform(4096, 2048, 2048 + 24, "unit"), [("rank", None, None)]),
        ("uniform-2048-rem", uniform(2048, 1024, 1024 + 16, "unit"),
         [("greedy", None, None), ("simple", None, None), ("errdep", None, None), ("robust", 2, None)]),
        ("uniform-4096-add-int", uniform(4096, 2048, 2048 - 24, "int"),
         [("weighted", None, None), ("weighted-robust", 2, None)]),
        ("partition8-4096-rem", partition(4096, 8, "unit", ("caps", 2, 8)),
         [("errdep", None, None), ("rank", None, None)]),
        ("partition8-4096-add-int", partition(4096, 8, "int", ("caps", -2, 8)),
         [("weighted", None, None), ("weighted-robust", 2, None)]),
        ("partition256-2048-swap", partition(2048, 256, "unit", ("swap", 48)),
         [("errdep", None, None), ("rank", None, None)]),
        ("partition256-2048-swap-int", partition(2048, 256, "int", ("swap", 48)), [("weighted", None, None)]),
        ("graphic-384-rewire", graphic(384, 192, 24, "unit"),
         [("greedy", None, None), ("simple", None, None), ("errdep", None, None), ("robust", 2, None),
          ("rank", None, None)]),
        ("graphic-384-rewire-int", graphic(384, 192, 24, "int"),
         [("weighted", None, None), ("weighted-robust", 2, None)]),
    ]
    out = [InstancePlan(label, i, make, trials) for i, (label, make, trials) in enumerate(plans)]
    # strict-certificate trials above SET_STORAGE_LIMIT: they fail in every
    # run until the certificate check handles unstored transcript sets
    out.append(InstancePlan("kept-uniform-8192", -1, uniform(8192, 4096, 4096 - 16, "unit"),
                            [("greedy", None, None)], kept_failing=True))
    out.append(InstancePlan("kept-partition4-8192", -2, partition(8192, 4, "unit", ("caps", -8, 4)),
                            [("errdep", None, None)], kept_failing=True))
    return out


def _sweep_guarded():
    plans = []
    # the round's median trial falls in the middle of one cluster of equal-cost
    # trials (three n = 16 removal-heavy partition instances, 27 trials), with
    # as many trials cheaper than the cluster as dearer ones, so it does not
    # jump to a neighbouring cost step when the host or the seed shifts a few
    for n in (15, 16, 17):
        for copy in range(3 if n == 16 else 1):
            plans.append((f"partition-{n}-rem-{copy}", partition(n, n // 4, "unit", ("caps", 1, 2)), _unit_sweep()))
        plans.append((f"partition-{n}-add-int", partition(n, n // 4, "int", ("caps", -1, 2)), _weighted_sweep()))
    plans.append(("uniform-13-rem-1", uniform(13, 6, 8, "unit"), _unit_sweep()))
    for n in (13, 14, 15):
        plans.append((f"uniform-{n}-rem", uniform(n, n // 2, n // 2 + 2, "unit"), _unit_sweep()))
        plans.append((f"uniform-{n}-add-int", uniform(n, n // 2, n // 2 - 2, "int"), _weighted_sweep()))
    for n in (11, 12, 13):
        plans.append((f"graphic-{n}", graphic(n, n // 2 + 1, 2, "unit"), _unit_sweep()))
        plans.append((f"graphic-{n}-int", graphic(n, n // 2 + 1, 2, "int"), _weighted_sweep()))
    # each construction family runs the tags it was built to exercise; eta
    # is known from the construction, so these trials are cheap
    n = 16
    plans += [
        ("lb_basic", family("lb_basic", n=n, r=n // 3),
         [("simple", None, None), ("errdep", None, None)] + [("costly", None, p) for p in SWEEP_P]),
        ("lb_add", family("lb_add", n=n, r_d=n // 3, eta_A=3),
         [("errdep", None, None), ("robust", 2, None), ("rank", None, None)]),
        ("lb_rem", family("lb_rem", n=n, r_d=n // 2, eta_R=3),
         [("errdep", None, None), ("robust", 2, None), ("rank", None, None)]),
        ("lb_weighted", family("lb_weighted", n=n), [("weighted", None, None), ("weighted-robust", 2, None)]),
        ("pairquery", family("pairquery", n=n, r_d=n // 4, eta_A=n - n // 4), [("pairquery", None, None)]),
        ("adversarial", family("adversarial", n=n), [("simple", None, None)] + [("robust", k, None) for k in SWEEP_K]),
    ]
    return [InstancePlan(label, i, make, trials) for i, (label, make, trials) in enumerate(plans)]


def _intersection():
    both = [("intersect-dirty", None, None), ("warmstart", None, None)]
    plans = []
    # inside the intersection guard (n <= 16): brute-forced eta_1, eta_2, eta_r
    for n in (10, 12, 14, 16):
        for copy in range(2):
            plans.append((f"guarded-{n}-{copy}", intersection(n, n // 3, n // 4, 2), both))
    # above it one instance's intersect-dirty query count moves by 15-30 %
    # with the seed, so the round holds many n = 24 instances; the larger
    # sizes run only warmstart, whose dirty phase costs the same on every seed
    for copy in range(40):
        plans.append((f"open-24-{copy}", intersection(24, 6, 4, 1), both))
    for copy in range(6):
        plans.append((f"open-32-{copy}", intersection(32, 4, 4, 4), [("warmstart", None, None)]))
    for n in (48, 64):
        plans.append((f"open-{n}", intersection(n, n // 8, n // 8, 2), [("warmstart", None, None)]))
    return [InstancePlan(label, i, make, trials) for i, (label, make, trials) in enumerate(plans)]


WORKLOADS = {
    "basis-scale": _basis_scale,
    "sweep-guarded": _sweep_guarded,
    "intersection": _intersection,
}


def instance_seed(workload_seed, plan):
    """An instance's seed: drawn from the workload seed and the instance's
    slot, or a constant for the kept failing trials."""
    key = f"kept:{KEPT_FAILING_SEED}:{plan.slot}" if plan.kept_failing else f"{workload_seed}:{plan.slot}"
    return random.Random(key).randrange(2**31)
