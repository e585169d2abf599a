"""Wrappers the benchmark installs around the program's public functions,
from outside the program.

``Capture`` records what the outermost algorithm call of a trial returned,
so the benchmark can check outputs and count queries even when
``run_trial`` raises after the algorithm finished.  It wraps one call per
trial and is installed in every run.

``Tracer`` times the calls into each module's public functions and keeps
spans in memory; it is installed only for the traced phase of a
``--trace 1`` run and never for end-to-end numbers.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from time import perf_counter_ns

import matoracle.algorithms as m_alg
import matoracle.bench as m_bench
import matoracle.core as m_core
import matoracle.errors as m_err
import matoracle.intersection as m_int
from matoracle.oracles import ROLE_CLEAN, OraclePair

# algorithm entry points: (module, attribute, tag); tag None for the
# intersection algorithms, whose tag is the trial's
ALGORITHM_ENTRIES = (
    (m_alg, "simple_basis", "simple"),
    (m_alg, "error_dependent_basis", "errdep"),
    (m_alg, "robust_basis", "robust"),
    (m_alg, "weighted_basis", "weighted"),
    (m_alg, "robust_weighted_basis", "weighted-robust"),
    (m_alg, "rank_oracle_basis", "rank"),
    (m_alg, "pair_query_basis", "pairquery"),
    (m_alg, "costly_strategies", "costly"),
    (m_bench, "greedy_basis", "greedy"),
    (m_bench, "dirty_intersection", None),
    (m_bench, "warm_start", None),
)


class Patches:
    """Module and class attributes replaced by wrappers, restorable."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make_wrapper):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Capture:
    """Output set and ledger of the outermost algorithm call of a trial."""

    def __init__(self):
        self.depth = 0
        self.reset()

    def reset(self):
        self.output = None  # ElementSet
        self.ledger = None

    def _wrapper(self, original, name):
        def call(*args, **kwargs):
            self.depth += 1
            try:
                result = original(*args, **kwargs)
            finally:
                self.depth -= 1
            if self.depth == 0:
                self._take(name, args, kwargs, result)
            return result

        return call

    def _take(self, name, args, kwargs, result):
        if name == "greedy_basis":
            role = args[1] if len(args) > 1 else kwargs.get("role")
            if role != ROLE_CLEAN:
                return  # the dirty basis every trial computes first
            self.output, self.ledger = result, args[0].ledger
        elif name == "costly_strategies":
            self.output, self.ledger = result[0], args[0].ledger
        else:
            self.output, self.ledger = result[0], result[1]

    def install(self, patches):
        for owner, name, _tag in ALGORITHM_ENTRIES:
            patches.wrap(owner, name, lambda f, name=name: self._wrapper(f, name))


EVAL_CLASSES = (m_core.PartitionMatroid, m_core.GraphicMatroid, m_core.UniformMatroid,
                m_core.PredictedBasisOracle, m_core.ExplicitSystem)


class Tracer:
    """In-memory spans at layer boundaries, with self times per layer.

    A frame's self time is its duration minus the durations of the spans
    directly inside it; summing self times per layer therefore subtracts
    exactly the time spent in other layers' spans.
    """

    def __init__(self):
        self.stack = []  # frames: [child_ns, span_id]
        self.agg = defaultdict(lambda: [0, 0, 0])  # (layer, name, tag) -> [calls, ns, self_ns]
        self.spans = []  # (id, parent, trial, layer, name, start_ns, end_ns)
        self._ids = itertools.count()
        self.trial = None  # (round, slot)
        self.tag = None
        self.instance = None
        self.active = defaultdict(int)
        self.candidate_paths = 0
        self.eta_instances = set()
        self.groundset_peak_bytes = 0
        self._groundset_max_n = -1
        self.transcript_peak_bytes = 0
        self._transcript_max_len = -1

    def _wrapper(self, original, layer, name, keep_span, after=None):
        stack, agg, spans, active, ids = self.stack, self.agg, self.spans, self.active, self._ids
        raised = name + "!raised"  # calls that raise count in their layer, not under the call's name

        def call(*args, **kwargs):
            span_id = next(ids) if keep_span else None
            parent = stack[-1][1] if stack else None
            frame = [0, span_id]
            stack.append(frame)
            active[name] += 1
            completed = False
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                completed = True
            finally:
                t1 = perf_counter_ns()
                dt = t1 - t0
                active[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                a = agg[(layer, name if completed else raised, self.tag)]
                a[0] += 1
                a[1] += dt
                a[2] += dt - frame[0]
                if keep_span:
                    spans.append((span_id, parent, self.trial, layer, name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return call

    def _after_groundset(self, args, _result):
        g = args[0]
        if g.n > self._groundset_max_n:
            self._groundset_max_n = g.n
            masks = g._prefix_masks
            self.groundset_peak_bytes = sys.getsizeof(masks) + sum(sys.getsizeof(m) for m in masks)

    def _after_path(self, _args, result):
        if result is not None and self.active["dirty_intersection"]:
            self.candidate_paths += 1

    def _after_eta(self, _args, _result):
        self.eta_instances.add(self.instance)

    def note_ledger(self, ledger):
        """Size of the largest transcript seen (records, list and stored sets)."""
        if ledger is None or len(ledger.transcript) <= self._transcript_max_len:
            return
        self._transcript_max_len = len(ledger.transcript)
        size = sys.getsizeof(ledger.transcript)
        for rec in ledger.transcript:
            size += sys.getsizeof(rec) + (sys.getsizeof(rec.mask) if rec.mask is not None else 0)
        self.transcript_peak_bytes = size

    def run_trial(self, run_trial):
        """run_trial wrapped as the bench layer's top span."""
        return self._wrapper(run_trial, "bench", "run_trial", True)

    def install(self, patches):
        """Wrap every traced entry point with its layer and span name.  The hot
        leaves (evaluation, billing, positions, binary searches) are only
        aggregated; the other calls are also kept as spans."""
        w = self._wrapper
        for cls in EVAL_CLASSES:
            for meth in ("is_independent_mask", "rank_mask"):
                patches.wrap(cls, meth, lambda f, k=cls.kind: w(f, "core", f"eval.{k}", False))
        patches.wrap(m_core.GroundSet, "__init__",
                     lambda f: w(f, "core", "groundset", True, self._after_groundset))
        patches.wrap(m_core.GroundSet, "positions", lambda f: w(f, "core", "positions", False))
        for meth in ("query_independent", "query_rank"):
            patches.wrap(OraclePair, meth, lambda f: w(f, "oracles", "billing", False))
        patches.wrap(m_int.IntersectionOracles, "query_independent", lambda f: w(f, "oracles", "billing", False))
        patches.wrap(m_bench, "verify_certificate", lambda f: w(f, "oracles", "verify", True))
        patches.wrap(m_bench, "make_dirty", lambda f: w(f, "oracles", "make_dirty", True))
        for owner, name, tag in ALGORITHM_ENTRIES:
            layer = "algorithms" if tag else "intersection"
            patches.wrap(owner, name, lambda f, layer=layer, name=name: w(f, layer, name, True))
        patches.wrap(m_alg, "greedy_basis", lambda f: w(f, "algorithms", "greedy_basis", True))
        patches.wrap(m_alg, "binary_search_smallest_dependent_prefix",
                     lambda f: w(f, "algorithms", "binary_search", False))
        patches.wrap(m_int, "build_exchange_graph", lambda f: w(f, "intersection", "graph_build", True))
        patches.wrap(m_int, "shortest_augmenting_path",
                     lambda f: w(f, "intersection", "path_search", True, self._after_path))
        patches.wrap(m_int, "textbook_intersection", lambda f: w(f, "intersection", "textbook", True))
        patches.wrap(m_bench, "textbook_intersection", lambda f: w(f, "intersection", "reference", True))
        patches.wrap(m_err, "compute_eta", lambda f: w(f, "errors", "compute_eta", True, self._after_eta))
        patches.wrap(m_err, "compute_intersection_errors", lambda f: w(f, "errors", "intersection_errors", True))
        patches.wrap(m_bench, "generate", lambda f: w(f, "bench", "generate", True))
        patches.wrap(m_bench, "greedy_native", lambda f: w(f, "bench", "baseline", True))

    # -- reduction to per-layer metrics ---------------------------------

    def _sum(self, index, layer=None, name=None, tag=None, name_prefix=None):
        total = 0
        for (lay, nm, tg), vals in self.agg.items():
            if layer is not None and lay != layer:
                continue
            if name is not None and nm != name:
                continue
            if name_prefix is not None and not nm.startswith(name_prefix):
                continue
            if tag is not None and tg != tag:
                continue
            total += vals[index]
        return total

    def metrics(self, rounds, instances, augmentations, basis_tags):
        """Per-layer metrics per round of the traced phase."""
        calls = lambda **kw: self._sum(0, **kw) / rounds  # noqa: E731
        secs = lambda **kw: self._sum(1, **kw) / rounds / 1e9  # noqa: E731
        self_secs = lambda **kw: self._sum(2, **kw) / rounds / 1e9  # noqa: E731

        def per_call_ns(layer, name):
            n = self._sum(0, layer=layer, name=name)
            return self._sum(2, layer=layer, name=name) / n if n else 0.0

        eval_calls = calls(layer="core", name_prefix="eval.")
        eta_calls = calls(layer="errors", name="compute_eta")
        generate_calls = calls(layer="bench", name="generate")
        out = {
            "core.eval_calls": (eval_calls, "count"),
            "core.eval_s": (self_secs(layer="core", name_prefix="eval."), "s"),
            "core.eval_ns.partition": (per_call_ns("core", "eval.partition"), "ns"),
            "core.eval_ns.graphic": (per_call_ns("core", "eval.graphic"), "ns"),
            "core.eval_ns.uniform": (per_call_ns("core", "eval.uniform"), "ns"),
            "core.groundset_s": (self_secs(layer="core", name="groundset"), "s"),
            "core.groundset_peak_mb": (self.groundset_peak_bytes / 2**20, "MB"),
            "core.positions_s": (self_secs(layer="core", name="positions"), "s"),
            "oracles.billing_s": (self_secs(layer="oracles", name="billing"), "s"),
            "oracles.billing_ns": (per_call_ns("oracles", "billing"), "ns"),
            "oracles.transcript_mb": (self.transcript_peak_bytes / 2**20, "MB"),
            "oracles.verify_s": (secs(layer="oracles", name="verify"), "s"),
            "oracles.make_dirty_s": (secs(layer="oracles", name="make_dirty"), "s"),
            "algorithms.self_s": (self_secs(layer="algorithms"), "s"),
        }
        for tag in basis_tags:
            out[f"algorithms.self_s.{tag}"] = (self_secs(layer="algorithms", tag=tag), "s")
        paths = self.candidate_paths / rounds
        out.update({
            "algorithms.binary_searches": (calls(layer="algorithms", name="binary_search"), "count"),
            "intersection.graph_builds": (calls(layer="intersection", name="graph_build"), "count"),
            "intersection.graph_s": (secs(layer="intersection", name="graph_build"), "s"),
            "intersection.path_search_s": (secs(layer="intersection", name="path_search"), "s"),
            "intersection.self_s": (self_secs(layer="intersection"), "s"),
            "intersection.reference_s": (secs(layer="intersection", name="reference"), "s"),
            "intersection.path_yield": (augmentations / paths if paths else 0.0, "ratio"),
            "errors.eta_calls": (eta_calls, "count"),
            "errors.eta_s": (secs(layer="errors", name="compute_eta"), "s"),
            "errors.eta_calls_per_instance": (
                eta_calls / len(self.eta_instances) if self.eta_instances else 0.0, "ratio"),
            "errors.intersection_s": (secs(layer="errors", name="intersection_errors"), "s"),
            "bench.generate_s": (secs(layer="bench", name="generate"), "s"),
            "bench.generate_calls_per_instance": (generate_calls / instances, "ratio"),
            "bench.baseline_s": (secs(layer="bench", name="baseline"), "s"),
            "bench.trial_self_s": (self_secs(layer="bench", name="run_trial"), "s"),
        })
        return out
