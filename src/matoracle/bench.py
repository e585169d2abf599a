"""Instance generation, bound evaluation, trial execution, and sweeps.

Instances round-trip through a JSON shape bit-exactly and are fully determined
by their seed.  Bound evaluators state each algorithm's closed-form guarantee exactly, under
the convention ceil(log2 x) = 0 for x <= 1; every trial records its measured
clean queries next to the evaluated bound and a compliance flag.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import algorithms as alg
from . import errors as errmod
from .core import (
    ExplicitSystem,
    GroundSet,
    GuardExceeded,
    ceil_log2,
    greedy_native,
    spec_from_config,
)
from .intersection import (
    IntersectionOracles,
    SupersetViolation,
    dirty_intersection,
    textbook_intersection,
    warm_start,
)
from .oracles import (
    ROLE_CLEAN,
    OraclePair,
    PerturbationSpec,
    TranscriptNotStored,
    greedy_basis,
    make_dirty,
    verify_certificate,
)


class InvalidSpec(ValueError):
    """Instance specification rejected, with field-level diagnostics."""

    def __init__(self, field_name, message):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class MissingParam(KeyError):
    """A bound evaluator was called without a parameter its formula needs."""


ALGORITHMS = (
    "greedy",
    "simple",
    "errdep",
    "robust",
    "weighted",
    "weighted-robust",
    "rank",
    "pairquery",
    "costly",
    "intersect-dirty",
    "warmstart",
)

WEIGHTED_ALGS = {"weighted", "weighted-robust"}
UNWEIGHTED_ALGS = {"simple", "errdep", "robust", "rank", "pairquery", "costly"}
INTERSECTION_ALGS = {"intersect-dirty", "warmstart"}
K_ALGS = {"robust", "weighted-robust"}

# basis tags run as algorithms.<name>(dirty basis, pair[, k]); looked up at
# call time, so a wrapper installed on the module attribute sees every trial
BASIS_ENTRIES = {
    "simple": "simple_basis",
    "errdep": "error_dependent_basis",
    "robust": "robust_basis",
    "weighted": "weighted_basis",
    "weighted-robust": "robust_weighted_basis",
    "rank": "rank_oracle_basis",
    "pairquery": "pair_query_basis",
}


@dataclass
class InstanceSpec:
    """One materialized problem instance (seed-determined, JSON round-trip)."""

    n: int
    weights: object  # "unit" or a list of ints / "p/q" strings
    matroid: dict
    dirty: dict
    seed: int = 0
    family: dict | None = None
    matroid2: dict | None = None
    dirty2: dict | None = None

    def to_json(self):
        doc = {
            "n": self.n,
            "weights": self.weights,
            "matroid": self.matroid,
            "dirty": self.dirty,
            "seed": self.seed,
        }
        if self.family is not None:
            doc["family"] = self.family
        if self.matroid2 is not None:
            doc["matroid2"] = self.matroid2
        if self.dirty2 is not None:
            doc["dirty2"] = self.dirty2
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise InvalidSpec("instance", "must be a JSON object")
        for key in ("n", "weights", "matroid", "dirty"):
            if key not in doc:
                raise InvalidSpec(key, "required field missing")
        if not isinstance(doc["n"], int) or doc["n"] < 0:
            raise InvalidSpec("n", "must be a non-negative integer")
        if "family" in doc and not isinstance(doc["family"], dict):
            raise InvalidSpec("family", "must be an object, or a string tag naming a family group")
        for key in ("matroid", "dirty", "matroid2", "dirty2"):
            if key in doc and not isinstance(doc[key], dict):
                raise InvalidSpec(key, f"must be an object, got {doc[key]!r}")
        return cls(
            n=doc["n"],
            weights=doc["weights"],
            matroid=doc["matroid"],
            dirty=doc["dirty"],
            seed=doc.get("seed", 0),
            family=doc.get("family"),
            matroid2=doc.get("matroid2"),
            dirty2=doc.get("dirty2"),
        )

    @property
    def instance_id(self):
        digest = hashlib.sha256(self.to_json().encode()).hexdigest()[:12]
        tag = self.family.get("tag", "custom") if self.family else "custom"
        return f"{tag}-n{self.n}-s{self.seed}-{digest}"

    @property
    def is_intersection(self):
        return self.matroid2 is not None


def _weights_list(spec):
    if spec.weights == "unit":
        return [1] * spec.n
    if not isinstance(spec.weights, list) or len(spec.weights) != spec.n:
        raise InvalidSpec("weights", "must be 'unit' or a list of length n")
    return spec.weights


def _checked(field_name, build, *args, **kwargs):
    """Call a spec constructor; malformed input becomes InvalidSpec(field_name)."""
    try:
        return build(*args, **kwargs)
    except InvalidSpec:
        raise
    except KeyError as exc:
        raise InvalidSpec(field_name, f"missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidSpec(field_name, str(exc)) from exc


def _build_dirty(clean, dirty_cfg, ground):
    mode = dirty_cfg.get("mode", "matroid")
    if mode == "identity":
        return clean
    if mode == "perturb":
        pert = PerturbationSpec.from_config(dirty_cfg)
        return make_dirty(clean, pert)
    if mode == "predicted_basis":
        return spec_from_config(ground, {"kind": "predicted_basis", "basis": dirty_cfg["basis"]})
    if mode == "matroid":
        return spec_from_config(ground, dirty_cfg)
    if mode == "explicit":
        return spec_from_config(ground, {"kind": "explicit", "maximal_sets": dirty_cfg["maximal_sets"]})
    raise InvalidSpec("dirty.mode", f"unknown mode {mode!r}")


@dataclass
class GeneratedInstance:
    spec: InstanceSpec
    ground: GroundSet
    pair: OraclePair | None = None
    oracles: IntersectionOracles | None = None
    known_eta: dict = field(default_factory=dict)

    def fresh_pair(self, cost_p=1):
        return OraclePair(self.pair.clean, self.pair.dirty, self.ground, cost_p=cost_p)

    def fresh_oracles(self):
        ox = self.oracles
        return IntersectionOracles(self.ground, ox.clean[0], ox.clean[1], ox.dirty[0], ox.dirty[1])


def generate(spec):
    """Materialize an OraclePair (or intersection oracles) from an instance spec.

    Raises InvalidSpec naming the field of a malformed spec.
    """
    ground = _checked("weights", GroundSet, _weights_list(spec))
    if spec.is_intersection:
        c1 = _checked("matroid", spec_from_config, ground, spec.matroid)
        c2 = _checked("matroid2", spec_from_config, ground, spec.matroid2)
        d1 = _checked("dirty", _build_dirty, c1, spec.dirty, ground)
        d2 = _checked("dirty2", _build_dirty, c2, spec.dirty2 or {"mode": "identity"}, ground)
        gen = GeneratedInstance(spec, ground, oracles=IntersectionOracles(ground, c1, c2, d1, d2))
    else:
        clean = _checked("matroid", spec_from_config, ground, spec.matroid)
        dirty = _checked("dirty", _build_dirty, clean, spec.dirty, ground)
        # the error oracle ranks an explicit system's maximal sets by size only
        if isinstance(dirty, ExplicitSystem) and not ground.unit_weights:
            raise InvalidSpec("dirty", "explicit dirty systems need unit weights")
        gen = GeneratedInstance(spec, ground, pair=_checked("matroid", OraclePair, clean, dirty, ground))
    if spec.family and "eta" in spec.family:
        eta = spec.family["eta"]
        if not isinstance(eta, dict) or not all(type(eta.get(key)) is int and eta[key] >= 0 for key in ("eta_A", "eta_R")):
            raise InvalidSpec("family.eta", f"must be an object with non-negative integers eta_A and eta_R, got {eta!r}")
        if gen.pair is not None and not isinstance(gen.pair.dirty, ExplicitSystem):
            # dirty bases of a matroid all have r_d elements, and the clean
            # basis B* = (B_d - R) + A has r
            r, r_d = gen.pair.clean.full_rank(), gen.pair.dirty.full_rank()
            if r != r_d + eta["eta_A"] - eta["eta_R"]:
                raise InvalidSpec("family.eta", f"{eta!r} breaks r = r_d + eta_A - eta_R with r = {r}, r_d = {r_d}")
        gen.known_eta = dict(eta)
    return gen


# ---------------------------------------------------------------------------
# instance families


def _family_lb_basic(n, r, **_):
    """Two-class partition matroid whose bases are C1 plus one C2 element."""
    if not 1 <= r <= n:
        raise InvalidSpec("family.r", "need 1 <= r <= n")
    c1 = list(range(r - 1))
    c2 = list(range(r - 1, n))
    matroid = {"kind": "partition", "classes": [c1, c2] if c1 else [c2], "caps": [r - 1, 1] if c1 else [1]}
    return matroid, {"mode": "identity"}, {"eta_A": 0, "eta_R": 0}


def _family_lb_add(n, r_d, eta_A, seed=0, **_):
    """Dirty sees one full class; the clean matroid additionally opens a
    hidden class of eta_A elements drawn from the blocked remainder."""
    if not (1 <= r_d < n and 1 <= eta_A <= n - r_d):
        raise InvalidSpec("family", "need 1 <= r_d < n and 1 <= eta_A <= n - r_d")
    rng = random.Random(seed)
    c1 = list(range(r_d))
    rest = list(range(r_d, n))
    moved = sorted(rng.sample(rest, eta_A))
    blocked = [e for e in rest if e not in moved]
    classes = [c1, moved] + ([blocked] if blocked else [])
    caps = [r_d, eta_A] + ([0] if blocked else [])
    matroid = {"kind": "partition", "classes": classes, "caps": caps}
    dirty = {"mode": "matroid", "kind": "partition", "classes": [c1, rest], "caps": [r_d, 0]}
    return matroid, dirty, {"eta_A": eta_A, "eta_R": 0}


def _family_lb_rem(n, r_d, eta_R, seed=0, **_):
    """Dirty sees one full class; the clean matroid silently blocks eta_R of
    its elements."""
    if not (1 <= r_d <= n and 1 <= eta_R <= r_d):
        raise InvalidSpec("family", "need 1 <= r_d <= n and 1 <= eta_R <= r_d")
    rng = random.Random(seed)
    c1 = list(range(r_d))
    rest = list(range(r_d, n))
    removed = sorted(rng.sample(c1, eta_R))
    kept = [e for e in c1 if e not in removed]
    blocked = sorted(removed + rest)
    classes = [kept, blocked] if kept else [blocked]
    caps = [r_d - eta_R, 0] if kept else [0]
    matroid = {"kind": "partition", "classes": classes, "caps": caps}
    dirty_classes = [c1, rest] if rest else [c1]
    dirty_caps = [r_d, 0] if rest else [r_d]
    dirty = {"mode": "matroid", "kind": "partition", "classes": dirty_classes, "caps": dirty_caps}
    return matroid, dirty, {"eta_A": 0, "eta_R": eta_R}


def _family_lb_weighted(n, **_):
    """Weighted floor family: weights n..1, near-full class of capacity n-2."""
    if n < 3:
        raise InvalidSpec("family.n", "need n >= 3")
    matroid = {
        "kind": "partition",
        "classes": [list(range(n - 1)), [n - 1]],
        "caps": [n - 2, 1],
    }
    return matroid, {"mode": "identity"}, {"eta_A": 0, "eta_R": 0}


def _family_pairquery(n, r_d, eta_A, seed=0, **_):
    matroid, dirty, eta = _family_lb_add(n, r_d, eta_A, seed)
    if not eta_A >= Fraction(3, 4) * (n - r_d) + 1:
        raise InvalidSpec("family.eta_A", "pair-query family needs eta_A >= 3/4 (n - r_d) + 1")
    return matroid, dirty, eta


def _family_adversarial(n, **_):
    """Free dirty matroid against a rank-one clean matroid."""
    matroid = {"kind": "uniform", "k": 1}
    dirty = {"mode": "matroid", "kind": "uniform", "k": n}
    return matroid, dirty, {"eta_A": 0, "eta_R": n - 1}


FAMILIES = {
    "lb_basic": _family_lb_basic,
    "lb_add": _family_lb_add,
    "lb_rem": _family_lb_rem,
    "lb_weighted": _family_lb_weighted,
    "pairquery": _family_pairquery,
    "adversarial": _family_adversarial,
}


def is_family_group(cfg):
    """Whether a gen spec or sweep entry names a family group by its string
    tag; an instance written by gen carries its family as an object and is a
    plain instance."""
    return isinstance(cfg, dict) and isinstance(cfg.get("family"), str)


def group_params(group):
    """A copy of a family group's params object (default empty)."""
    params = group.get("params", {})
    if not isinstance(params, dict):
        raise InvalidSpec("params", f"must be an object, got {params!r}")
    return dict(params)


def family_instance(tag, **params):
    """Materialize a named family instance as a full InstanceSpec."""
    if tag == "random":
        return _checked("family.params", random_instance, **params)
    if tag == "random_intersection":
        return _checked("family.params", random_intersection_instance, **params)
    if tag not in FAMILIES:
        raise InvalidSpec("family.tag", f"unknown family {tag!r}")
    matroid, dirty, eta = _checked("family.params", FAMILIES[tag], **params)
    n = params["n"]
    seed = params.get("seed", 0)
    weights = [n - i for i in range(n)] if tag == "lb_weighted" else "unit"
    return InstanceSpec(
        n=n,
        weights=weights,
        matroid=matroid,
        dirty=dirty,
        seed=seed,
        family={"tag": tag, "params": {k: v for k, v in params.items()}, "eta": eta},
    )


def _random_partition_cfg(rng, n):
    k = rng.randint(1, max(1, n // 2))
    assignment = [rng.randrange(k) for _ in range(n)]
    classes = [[e for e in range(n) if assignment[e] == i] for i in range(k)]
    classes = [c for c in classes if c]
    caps = [rng.randint(0, len(c)) for c in classes]
    return {"kind": "partition", "classes": classes, "caps": caps}


def _random_graphic_cfg(rng, n):
    nv = rng.randint(2, max(2, n // 2 + 2))
    edges = []
    for _ in range(n):
        u = rng.randrange(nv)
        v = rng.randrange(nv - 1)
        if v >= u:
            v += 1
        edges.append([u, v])
    return {"kind": "graphic", "vertices": nv, "edges": edges}


def random_instance(n, kind="partition", weight_mode="unit", perturbation=None, seed=0, **_):
    """Seed-determined random instance with an optional dirty perturbation."""
    rng = random.Random(seed)
    if kind == "partition":
        matroid = _random_partition_cfg(rng, n)
    elif kind == "graphic":
        matroid = _random_graphic_cfg(rng, n)
    elif kind == "uniform":
        matroid = {"kind": "uniform", "k": rng.randint(0, n)}
    else:
        raise InvalidSpec("family.kind", f"unknown random kind {kind!r}")
    if weight_mode == "unit":
        weights = "unit"
    elif weight_mode == "int":
        weights = [rng.randint(0, 2 * n) for _ in range(n)]
    else:
        raise InvalidSpec("family.weight_mode", f"unknown weight mode {weight_mode!r}")
    if perturbation is None:
        compat = {"partition": "class_swap", "graphic": "edge_rewire", "uniform": None}[kind]
        if compat is None:
            dirty = {"mode": "matroid", "kind": "uniform", "k": rng.randint(0, n)}
        else:
            dirty = {"mode": "perturb", "kind": compat, "count": rng.randint(0, max(1, n // 3)), "seed": seed + 1}
    else:
        dirty = dict(perturbation)
        dirty["mode"] = "perturb"
    return InstanceSpec(
        n=n,
        weights=weights,
        matroid=matroid,
        dirty=dirty,
        seed=seed,
        family={"tag": "random", "params": {"n": n, "kind": kind, "weight_mode": weight_mode, "seed": seed}},
    )


def random_intersection_instance(n, seed=0, cap_raises=1, **_):
    """Random partition-matroid pair with dirty caps raised (keeps supersets)."""
    rng = random.Random(seed)
    m1 = _random_partition_cfg(rng, n)
    m2 = _random_partition_cfg(rng, n)

    def raised(cfg):
        caps = list(cfg["caps"])
        for _ in range(cap_raises):
            if not caps:
                break
            i = rng.randrange(len(caps))
            caps[i] += rng.randint(0, 1)
        return {"mode": "matroid", "kind": "partition", "classes": cfg["classes"], "caps": caps}

    return InstanceSpec(
        n=n,
        weights="unit",
        matroid=m1,
        dirty=raised(m1),
        seed=seed,
        family={"tag": "random_intersection", "params": {"n": n, "seed": seed, "cap_raises": cap_raises}},
        matroid2=m2,
        dirty2=raised(m2),
    )


# ---------------------------------------------------------------------------
# bound formulas


def _need(params, *names):
    for name in names:
        if params.get(name) is None:
            raise MissingParam(name)
    return [params[name] for name in names]


def _bound_greedy(p):
    (n,) = _need(p, "n")
    return Fraction(n)


def _bound_simple(p):
    n, r = _need(p, "n", "r")
    if p.get("eta_A") == 0 and p.get("eta_R") == 0:
        return Fraction(n - r + 1)
    return Fraction(n + 1)


def _bound_errdep(p):
    n, r, r_d, ea, er = _need(p, "n", "r", "r_d", "eta_A", "eta_R")
    return Fraction(n - r + 1 + ea + er * ceil_log2(r_d))


def _bound_robust(p):
    n, r, r_d, ea, er, k = _need(p, "n", "r", "r_d", "eta_A", "eta_R", "k")
    lg = ceil_log2(r_d)
    return min(Fraction(n - r + k + ea + er * (k + 1) * lg), Fraction(k + 1, k) * n)


def _bound_weighted(p):
    n, r, r_d, ea, er = _need(p, "n", "r", "r_d", "eta_A", "eta_R")
    return Fraction(n - r + 1 + 2 * ea + er * ceil_log2(r_d))


def _bound_weighted_robust(p):
    n, r, r_d, ea, er, k = _need(p, "n", "r", "r_d", "eta_A", "eta_R", "k")
    lg = ceil_log2(r_d)
    return min(Fraction(n - r + k + ea * (k + 1) + er * (k + 1) * lg), Fraction(k + 1, k) * n)


def _bound_rank(p):
    n, r_d, ea, er = _need(p, "n", "r_d", "eta_A", "eta_R")
    err = 2 + er * ceil_log2(r_d) + min(ea * ceil_log2(n - r_d), n - r_d)
    return Fraction(min(n + 1, err))


def _bound_pairquery(p):
    n, r, ea = _need(p, "n", "r", "eta_A")
    return Fraction(n - r + ea - 1)


def _bound_costly(p):
    n, r, cost = _need(p, "n", "r", "p")
    cost = Fraction(cost)
    cost_a = cost * (n - r) * ceil_log2(n) + cost
    cost_b = n + cost * (n - r + 1)
    return min(cost_a, cost_b) + cost


def _bound_intersect_dirty(p):
    n, r, e1, e2 = _need(p, "n", "r", "eta_1", "eta_2")
    return Fraction((r + 1) * (2 + (e1 + e2) * (ceil_log2(n) + 2)))


def _bound_warmstart(p):
    n, er = _need(p, "n", "eta_r")
    return Fraction(2 + 2 * er * (1 + ceil_log2(n)))


BOUNDS = {
    "greedy": _bound_greedy,
    "simple": _bound_simple,
    "errdep": _bound_errdep,
    "robust": _bound_robust,
    "weighted": _bound_weighted,
    "weighted-robust": _bound_weighted_robust,
    "rank": _bound_rank,
    "pairquery": _bound_pairquery,
    "costly": _bound_costly,
    "intersect-dirty": _bound_intersect_dirty,
    "warmstart": _bound_warmstart,
}


def bound(tag, **params):
    """Exact closed-form bound value for the algorithm tag (min over branches)."""
    if tag not in BOUNDS:
        raise MissingParam(f"no bound formula for {tag!r}")
    return BOUNDS[tag](params)


# ---------------------------------------------------------------------------
# trials


@dataclass
class TrialRecord:
    """One CSV row; the defaults describe a trial that never ran."""

    instance_id: str
    algorithm: str
    k: int | None
    p: str | None
    n: int
    r: int | None = None
    r_d: int | None = None
    eta_A: int | None = None
    eta_R: int | None = None
    eta_1: int | None = None
    eta_2: int | None = None
    eta_r: int | None = None
    clean_ind_queries: int = 0
    clean_rank_queries: int = 0
    dirty_queries: int = 0
    bound: str | None = None
    within_bound: bool | None = None
    correct: bool | None = None
    certificate: str = "n/a"
    eta_source: str = "skipped"
    error: str = ""
    wall_time_s: float = 0.0

    def to_row(self):
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)

        return [cell(getattr(self, c)) for c in self.COLUMNS]

    def to_json(self):
        return json.dumps({c: getattr(self, c) for c in self.COLUMNS}, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(**{c: doc[c] for c in cls.COLUMNS})

    @property
    def clean_queries(self):
        return self.clean_ind_queries + self.clean_rank_queries

    @property
    def violation(self):
        """Bound exceeded, wrong output, or a strict certificate left unchecked."""
        return self.within_bound is False or self.correct is False or self.certificate == "unverified"


TrialRecord.COLUMNS = tuple(f.name for f in fields(TrialRecord))


def _eta_for_trial(gen, pair):
    if gen.known_eta:
        return gen.known_eta.get("eta_A"), gen.known_eta.get("eta_R"), "construction"
    try:
        report = errmod.compute_eta(pair)
        return report.eta_A, report.eta_R, "bruteforce"
    except GuardExceeded:
        return None, None, "skipped"


def _basis_trial(gen, algorithm, k, p):
    spec = gen.spec
    pair0 = gen.fresh_pair(cost_p=1 if p is None else p)
    k_eff = k or (alg.default_k(pair0.ground.n) if algorithm in K_ALGS else None)
    t0 = time.perf_counter()
    if algorithm == "costly":
        basis, _total, _tag = alg.costly_strategies(pair0)
        pair = pair0
    else:
        bd = greedy_basis(pair0).mask
        pair = pair0.with_dirty_basis(bd)
        if algorithm == "greedy":
            basis = greedy_basis(pair, ROLE_CLEAN)
        else:
            extra = (k_eff,) if algorithm in K_ALGS else ()
            basis, _ = getattr(alg, BASIS_ENTRIES[algorithm])(bd, pair, *extra)
    wall = time.perf_counter() - t0
    g = pair.ground
    clean = pair.clean
    r = clean.full_rank()
    r_d = pair.dirty.full_rank()
    baseline = greedy_native(clean, g)
    correct = g.weight(basis.mask) == g.weight(baseline) and clean.is_independent_mask(basis.mask)
    eta_a, eta_r_, eta_source = _eta_for_trial(gen, pair)
    bound_val = None
    within = None
    if algorithm == "costly":
        # the closed-form strategy costs describe the exact-dirty-oracle
        # setting; with a wrong dirty oracle only correctness is checked
        if eta_a == 0 and eta_r_ == 0:
            bound_val = bound("costly", n=g.n, r=r, p=pair.ledger.cost_p)
            within = pair.ledger.total_cost <= bound_val
    elif algorithm == "pairquery":
        # the accounting guarantee exists only on the dedicated family
        if (spec.family or {}).get("tag") == "pairquery" and eta_a is not None:
            bound_val = bound("pairquery", n=g.n, r=r, eta_A=eta_a)
            within = Fraction(pair.ledger.clean_independence_count) <= bound_val
    elif eta_a is not None:
        bound_val = bound(
            algorithm,
            n=g.n,
            r=r,
            r_d=r_d,
            eta_A=eta_a,
            eta_R=eta_r_,
            k=k_eff,
            p=pair.ledger.cost_p,
        )
        measured = pair.ledger.clean_rank_count if algorithm == "rank" else pair.ledger.clean_independence_count
        within = Fraction(measured) <= bound_val
    elif algorithm in K_ALGS:
        # above the enumeration guard only the robustness branch is checkable
        bound_val = Fraction(k_eff + 1, k_eff) * g.n
        within = Fraction(pair.ledger.clean_independence_count) <= bound_val
    cert = "n/a"
    if algorithm in ("greedy", "simple", "errdep", "robust"):
        rep = verify_certificate(pair.ledger.transcript, basis.mask, g)
        cert = "strict-pass" if rep.ok else "strict-fail"
    elif algorithm in WEIGHTED_ALGS:
        cert = "relaxed"
    return TrialRecord(
        instance_id=spec.instance_id,
        algorithm=algorithm,
        k=k,
        p=_p_text(p),
        n=g.n,
        r=r,
        r_d=r_d,
        eta_A=eta_a,
        eta_R=eta_r_,
        clean_ind_queries=pair.ledger.clean_independence_count,
        clean_rank_queries=pair.ledger.clean_rank_count,
        dirty_queries=pair.ledger.dirty_count,
        bound=str(bound_val) if bound_val is not None else None,
        within_bound=within,
        correct=correct,
        certificate=cert,
        eta_source=eta_source,
        # on unit weights a clean-independent pairquery output is a clean
        # basis, so a wrong output is one that left the clean family
        error="FamilyViolation" if algorithm == "pairquery" and not correct else "",
        wall_time_s=round(wall, 6),
    )


def _intersection_trial(gen, algorithm):
    spec = gen.spec
    ox = gen.fresh_oracles()
    g = ox.ground
    try:
        eta = errmod.compute_intersection_errors(ox.dirty[0], ox.dirty[1], ox.clean[0], ox.clean[1])
        eta_source = "bruteforce"
    except (GuardExceeded, ValueError):
        # too large to enumerate, or the superset precondition is broken (the
        # algorithm then witnesses and reports it)
        eta = None
        eta_source = "skipped"
    optimum, _, _ = textbook_intersection(IntersectionOracles(g, *ox.clean))  # clean reference, separate ledger
    bound_val = within = correct = None
    error, wall = "", 0.0
    t0 = time.perf_counter()
    try:
        if algorithm == "intersect-dirty":
            x, _, _ = dirty_intersection(ox)
            correct = len(x) == optimum.bit_count()
            if eta is not None:
                bound_val = bound("intersect-dirty", n=g.n, r=len(x), eta_1=eta.eta_1, eta_2=eta.eta_2)
        else:
            x, _ = warm_start(ox)
            if eta is not None:
                correct = len(x) >= eta.s_d_star - 2 * eta.eta_r
                bound_val = bound("warmstart", n=g.n, eta_r=eta.eta_r)
            else:
                correct = ox.clean[0].is_independent_mask(x.mask) and ox.clean[1].is_independent_mask(x.mask)
        if bound_val is not None:
            within = Fraction(ox.ledger.clean_independence_count) <= bound_val
        wall = round(time.perf_counter() - t0, 6)
    except SupersetViolation as exc:
        error = f"SupersetViolation: {exc}"
    return TrialRecord(
        instance_id=spec.instance_id,
        algorithm=algorithm,
        k=None,
        p=None,
        n=g.n,
        r=optimum.bit_count(),
        eta_1=eta.eta_1 if eta else None,
        eta_2=eta.eta_2 if eta else None,
        eta_r=eta.eta_r if eta else None,
        clean_ind_queries=ox.ledger.clean_independence_count,
        clean_rank_queries=ox.ledger.clean_rank_count,
        dirty_queries=ox.ledger.dirty_count,
        bound=str(bound_val) if bound_val is not None else None,
        within_bound=within,
        correct=correct,
        eta_source=eta_source,
        error=error,
        wall_time_s=wall,
    )


def _p_text(p):
    return str(p) if p is not None else None


def _check_k_p(k=None, p=None):
    """Reject a trade-off k that is not a positive integer and a clean-call
    cost p below 1 (None selects the default)."""
    if k is not None and (type(k) is not int or k < 1):
        raise InvalidSpec("k", f"must be a positive integer, got {k!r}")
    if p is not None:
        try:
            ok = not isinstance(p, bool) and Fraction(p) >= 1
        except (TypeError, ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            raise InvalidSpec("p", f"must be a number >= 1, got {p!r}")


def unverified_record(spec, algorithm, k, p, exc):
    """The row of a trial whose strict certificate could not be checked."""
    return TrialRecord(spec.instance_id, algorithm, k, _p_text(p), spec.n,
                       certificate="unverified", error=f"TranscriptNotStored: {exc}")


def run_trial(spec, algorithm, k=None, p=None):
    """Execute one algorithm on one instance and fill a TrialRecord.

    Raises InvalidSpec for a malformed spec, k or p, or an algorithm that does
    not apply, and TranscriptNotStored when a strict certificate cannot be
    checked because the ledger stored no query sets (n above
    SET_STORAGE_LIMIT).
    """
    if algorithm not in ALGORITHMS:
        raise InvalidSpec("algorithm", f"unknown algorithm {algorithm!r}")
    _check_k_p(k, p)
    gen = generate(spec)
    if algorithm in INTERSECTION_ALGS:
        if not spec.is_intersection:
            raise InvalidSpec("matroid2", f"{algorithm} needs an intersection instance")
        return _intersection_trial(gen, algorithm)
    if spec.is_intersection:
        raise InvalidSpec("algorithm", f"{algorithm} does not apply to intersection instances")
    if algorithm in UNWEIGHTED_ALGS and not gen.ground.unit_weights:
        raise InvalidSpec("algorithm", f"{algorithm} targets the unweighted problem; instance has non-unit weights")
    return _basis_trial(gen, algorithm, k, p)


def sweep(config, out_path=None):
    """Run instance specs x algorithms x parameter grids; returns (records,
    violations).  Rows are sorted by instance id, algorithm, k before write.

    A malformed instance, algorithm list, family group or k / p grid raises
    InvalidSpec before any trial runs.  An algorithm that does not apply to an
    instance gives an error row; a trial whose strict certificate could not be
    checked gives an error row with certificate "unverified", which counts as
    a violation.
    """
    records = []
    instances = []
    inst_cfgs = config.get("instances", [])
    if not isinstance(inst_cfgs, list):
        raise InvalidSpec("instances", "must be a list")
    for inst_cfg in inst_cfgs:
        if is_family_group(inst_cfg):
            params = group_params(inst_cfg)
            seeds = inst_cfg.get("seeds", [params.get("seed", 0)])
            if not isinstance(seeds, list) or not all(type(seed) is int for seed in seeds):
                raise InvalidSpec("seeds", f"must be a list of integers, got {seeds!r}")
            for seed in seeds:
                params["seed"] = seed
                instances.append(family_instance(inst_cfg["family"], **params))
        else:
            instances.append(InstanceSpec.from_dict(inst_cfg))
    for inst in instances:
        generate(inst)
    algorithms = config.get("algorithms", [])
    if not isinstance(algorithms, list) or not all(algo in ALGORITHMS for algo in algorithms):
        raise InvalidSpec("algorithms", f"must be a list of tags from {', '.join(ALGORITHMS)}, got {algorithms!r}")
    ks = config.get("k", [None])
    ps = config.get("p", [None])
    for name, grid in (("k", ks), ("p", ps)):
        if not isinstance(grid, list):
            raise InvalidSpec(name, "must be a list")
        for value in grid:
            _check_k_p(**{name: value})
    for inst in instances:
        for algo in algorithms:
            k_grid = ks if algo in K_ALGS else [None]
            p_grid = ps if algo == "costly" else [None]
            for k in k_grid:
                for p in p_grid:
                    try:
                        records.append(run_trial(inst, algo, k=k, p=p))
                    except (InvalidSpec, GuardExceeded) as exc:
                        records.append(TrialRecord(inst.instance_id, algo, k, _p_text(p), inst.n, error=str(exc)))
                    except TranscriptNotStored as exc:
                        records.append(unverified_record(inst, algo, k, p, exc))
    records.sort(key=lambda rec: (rec.instance_id, rec.algorithm, rec.k or 0, rec.p or ""))
    if out_path is not None:
        write_csv(records, out_path)
    violations = [rec for rec in records if rec.violation]
    return records, violations


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(TrialRecord.COLUMNS)
        for rec in records:
            writer.writerow(rec.to_row())


def summary_lines(records):
    """One line per algorithm: max measured/bound ratio and violation count."""
    by_algo = {}
    for rec in records:
        by_algo.setdefault(rec.algorithm, []).append(rec)
    lines = []
    for algo in sorted(by_algo):
        recs = by_algo[algo]
        ratios = [
            Fraction(rec.clean_queries) / Fraction(rec.bound)
            for rec in recs
            if rec.bound not in (None, "", "0") and rec.within_bound is not None
        ]
        worst = max(ratios) if ratios else None
        bad = sum(1 for rec in recs if rec.violation)
        errored = sum(1 for rec in recs if rec.error)
        worst_txt = f"{float(worst):.3f}" if worst is not None else "n/a"
        line = f"{algo}: trials={len(recs)} max(measured/bound)={worst_txt} violations={bad}"
        if errored:
            line += f" errors={errored}"
        lines.append(line)
    return lines


def plot_data_series(records):
    """(k, queries) and (eta, queries) series for external plotting."""
    k_series = [
        {"algorithm": r.algorithm, "k": r.k, "queries": r.clean_queries}
        for r in records
        if r.k is not None
    ]
    eta_series = [
        {
            "algorithm": r.algorithm,
            "eta_A": r.eta_A,
            "eta_R": r.eta_R,
            "queries": r.clean_queries,
        }
        for r in records
        if r.eta_A is not None
    ]
    return {"by_k": k_series, "by_eta": eta_series}
