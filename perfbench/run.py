#!/usr/bin/env python3
"""Benchmark for matoracle: runs one workload (or all three, each in its own
process) and prints one JSON result as the last line of standard output.

    python3 perfbench/run.py --workload basis-scale --seed 1 --seconds 10 --trace 0

Every trial is one call of ``matoracle.bench.run_trial``.  The workload's
trials form a round; a run repeats whole rounds until the next one would end
after ``--seconds``.  With ``--trace 0`` the result holds the end-to-end
metrics, with times scaled to a reference host speed (see hostspeed.py);
with ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the result holds the per-layer metrics of the traced rounds
(the tracing overhead is written to the output file and to stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_BATCH_SECONDS = 0.1  # one set-up sample times a batch of whole set-ups at least this long
INTERSECTION_GUARD = 16  # the library's default intersection enumeration guard
ROBUST_TAGS = ("robust", "weighted-robust")
STRICT_TAGS = ("greedy", "simple", "errdep", "robust")  # run_trial verifies their certificate
BASIS_TAGS = ("greedy", "simple", "errdep", "robust", "weighted", "weighted-robust", "rank", "pairquery", "costly")
KEPT_FAILURE = "transcript sets were not stored"
WORKLOADS = ("basis-scale", "sweep-guarded", "intersection")


def _pin_environment():
    # the library's default enumeration guards (20 basis, 16 intersection,
    # 14 superset precheck) decide which trials brute-force eta, whatever
    # the caller's environment says
    os.environ.pop("MATORACLE_GUARD_N", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    src = ROOT / "src"
    if not (src / "matoracle" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, str(src))
    import matoracle

    if Path(matoracle.__file__).resolve().parent != (src / "matoracle").resolve():
        raise SystemExit(f"perfbench: imported matoracle from {matoracle.__file__}, not from {src}")


class Slot:
    """One trial of a round: an instance and an (algorithm, k, p)."""

    def __init__(self, index, instance, plan, alg, k, p):
        self.index = index
        self.instance = instance
        self.plan = plan
        self.alg = alg
        self.k = k
        self.p = p
        self.first = None  # signature of the first round's result


class Reference:
    """What the benchmark computes itself about one instance."""

    def __init__(self, spec, generated_dirty_cfg):
        import checks

        n = spec.n
        if spec.is_intersection:
            self.m1 = checks.Matroid(spec.matroid, n)
            self.m2 = checks.Matroid(spec.matroid2, n)
            self.optimum = checks.partition_intersection_size(spec.matroid, spec.matroid2, n)
            self.errors = None
            if n <= INTERSECTION_GUARD:
                self.errors = checks.intersection_errors(spec.matroid, spec.matroid2, spec.dirty, spec.dirty2, n)
            return
        self.weights = checks.weights_of(spec.weights, n)
        self.clean = checks.Matroid(spec.matroid, n)
        self.rank_weight = self.clean.max_weight_basis(self.weights)
        dirty = checks.Matroid(generated_dirty_cfg, n)
        self.r_d = dirty.max_weight_basis([1] * n)[0]
        self.eta = None
        if n <= checks.OWN_ETA_MAX_N:
            self.eta = checks.basis_eta(self.clean, dirty, self.weights, n)


def _dirty_config(spec, bench):
    mode = spec.dirty.get("mode", "matroid")
    if spec.is_intersection or mode == "matroid":
        return spec.dirty
    # perturbed dirty oracles are defined by the program's make_dirty
    return bench.generate(spec).pair.dirty.to_config()


def set_up(plans, seed, batch):
    """Generate every instance spec from its seed, round-trip it through
    InstanceSpec JSON and materialise it, `batch` times over; returns (specs,
    seconds per set-up)."""
    from matoracle import bench
    from matoracle.bench import InstanceSpec

    import workloads

    t0 = time.perf_counter()
    for _ in range(batch):
        specs = []
        for plan in plans:
            spec = InstanceSpec.from_json(plan.make(workloads.instance_seed(seed, plan)).to_json())
            bench.generate(spec)
            specs.append(spec)
    return specs, (time.perf_counter() - t0) / batch


class SetupSampler:
    """Set-up timed as samples of `batch` whole set-ups, one sample after each
    round of the timed phase, so the samples span the run as the trials do;
    the untimed first set-up sizes the batch."""

    def __init__(self, plans, seed):
        self.plans = plans
        self.seed = seed
        self.specs, first = set_up(plans, seed, 1)
        self.batch = max(1, math.ceil(SETUP_BATCH_SECONDS / first))
        self.samples = []  # seconds per set-up, at reference host speed
        self.wall_samples = []

    def sample(self):
        gc.collect()
        before = hostspeed.unit_seconds()
        dt = set_up(self.plans, self.seed, self.batch)[1]
        self.samples.append(hostspeed.scale(dt, before, hostspeed.unit_seconds()))
        self.wall_samples.append(dt)


def _counts(ledger):
    return ledger.clean_independence_count, ledger.clean_rank_count, ledger.dirty_count


def check_basis_trial(slot, spec, ref, rec, output, ledger):
    import checks

    problems = []
    n = spec.n
    if output is None:
        return ["no algorithm output captured"]
    problems += checks.check_basis(ref.clean, ref.weights, output.mask, ref.rank_weight)
    ci, cr, d = _counts(ledger)
    k = slot.k
    if slot.alg != "costly" and d != n:
        problems.append(f"{d} dirty queries, expected n = {n}")
    if slot.alg == "greedy" and ci != n:
        problems.append(f"greedy billed {ci} clean queries, expected n = {n}")
    if slot.alg == "simple" and ci > n + 1:
        problems.append(f"simple billed {ci} > n + 1")
    if slot.alg in ROBUST_TAGS and ci > Fraction(n) * (k + 1) / k:
        problems.append(f"{slot.alg} billed {ci} > (1 + 1/k) n")
    if slot.alg == "rank" and (cr > n + 1 or ci):
        problems.append(f"rank billed {cr} rank and {ci} independence calls")
    if rec is None:
        return problems
    if (rec.clean_ind_queries, rec.clean_rank_queries, rec.dirty_queries) != (ci, cr, d):
        problems.append("record counts differ from the algorithm's ledger")
    if rec.r != ref.rank_weight[0] or rec.r_d != ref.r_d:
        problems.append(f"record r={rec.r}, r_d={rec.r_d}; reference {ref.rank_weight[0]}, {ref.r_d}")
    if rec.correct is not True:
        problems.append(f"record says correct={rec.correct}")
    if slot.alg in STRICT_TAGS and rec.certificate != "strict-pass":
        problems.append(f"record certificate {rec.certificate!r}, expected 'strict-pass'")
    if ref.eta is not None and rec.eta_A is not None and (rec.eta_A, rec.eta_R) != ref.eta:
        problems.append(f"record eta {(rec.eta_A, rec.eta_R)} != brute force {ref.eta}")
    eta_known = rec.eta_A is not None
    if slot.alg == "costly":
        applies = eta_known and rec.eta_A == 0 and rec.eta_R == 0
        measured = d + Fraction(slot.p) * (ci + cr)
    elif slot.alg == "pairquery":
        applies = eta_known and (spec.family or {}).get("tag") == "pairquery"
        measured = ci
    else:
        applies = eta_known or slot.alg in ROBUST_TAGS
        measured = cr if slot.alg == "rank" else ci
    if applies:
        if eta_known:
            own = checks.table_bound(slot.alg, n=n, r=rec.r, r_d=rec.r_d, eta_A=rec.eta_A, eta_R=rec.eta_R,
                                     k=k, p=slot.p)
        else:
            own = Fraction(n) * (k + 1) / k
        if rec.bound is None or Fraction(rec.bound) != own:
            problems.append(f"record bound {rec.bound} != table bound {own}")
        if measured > own or rec.within_bound is not True:
            problems.append(f"measured {measured} over table bound {own} (within_bound={rec.within_bound})")
    elif rec.within_bound is not None:
        problems.append("record checked a bound the table does not give here")
    return problems


def check_intersection_trial(slot, spec, ref, rec, output, ledger):
    import checks

    if output is None:
        return ["no algorithm output captured"]
    problems = []
    x = output.mask
    size = x.bit_count()
    if not (ref.m1.independent(x) and ref.m2.independent(x)):
        problems.append("output is not common independent")
    if slot.alg == "intersect-dirty" and size != ref.optimum:
        problems.append(f"intersect-dirty found {size}, max-flow optimum is {ref.optimum}")
    if slot.alg == "warmstart":
        if size > ref.optimum:
            problems.append("warmstart larger than the optimum")
        if ref.errors is not None and size < ref.errors[2] - 2 * ref.errors[3]:
            problems.append(f"warmstart kept {size} < s_d* - 2 eta_r = {ref.errors[2] - 2 * ref.errors[3]}")
    if rec is None:
        return problems
    ci, cr, d = _counts(ledger)
    if (rec.clean_ind_queries, rec.clean_rank_queries, rec.dirty_queries) != (ci, cr, d):
        problems.append("record counts differ from the algorithm's ledger")
    if rec.r != ref.optimum or rec.correct is not True:
        problems.append(f"record r={rec.r}, correct={rec.correct}; optimum {ref.optimum}")
    if ref.errors is None:
        if rec.within_bound is not None:
            problems.append("record checked a bound above the intersection guard")
        return problems
    eta_1, eta_2, _s_d, eta_r = ref.errors
    if (rec.eta_1, rec.eta_2, rec.eta_r) != (eta_1, eta_2, eta_r):
        problems.append(f"record eta {(rec.eta_1, rec.eta_2, rec.eta_r)} != brute force {ref.errors}")
    own = checks.table_bound(slot.alg, n=spec.n, r=size, eta_1=eta_1, eta_2=eta_2, eta_r=eta_r)
    if rec.bound is None or Fraction(rec.bound) != own:
        problems.append(f"record bound {rec.bound} != table bound {own}")
    if ci > own or rec.within_bound is not True:
        problems.append(f"{ci} clean queries over table bound {own} (within_bound={rec.within_bound})")
    return problems


class Runner:
    def __init__(self, slots, specs, refs, capture):
        from matoracle import bench

        self.slots = slots
        self.specs = specs
        self.refs = refs
        self.capture = capture
        self.run_trial = bench.run_trial
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.round_seconds = []  # wall time spent in run_trial per round
        self.trial_seconds = []  # wall time of each call
        self.scaled_seconds = []  # the same at reference host speed
        self.tracer = None

    def _trial(self, slot, round_index):
        spec = self.specs[slot.instance]
        cap = self.capture
        cap.reset()
        if self.tracer is not None:
            self.tracer.trial = (round_index, slot.index)
            self.tracer.tag = slot.alg
            self.tracer.instance = slot.instance
        rec = error = None
        unit_before = hostspeed.unit_seconds()
        t0 = time.perf_counter()
        try:
            rec = self.run_trial(spec, slot.alg, k=slot.k, p=slot.p)
        except Exception as exc:  # a failing trial is one failed operation
            error = exc
        dt = time.perf_counter() - t0
        self.scaled_seconds.append(hostspeed.scale(dt, unit_before, hostspeed.unit_seconds()))
        self.attempted += 1
        problems = []
        if error is not None:
            self.failed += 1
            if not (slot.plan.kept_failing and isinstance(error, ValueError) and KEPT_FAILURE in str(error)):
                problems.append(f"raised {type(error).__name__}: {error}")
        if self.tracer is not None:
            self.tracer.note_ledger(cap.ledger)
        out_mask = cap.output.mask if cap.output is not None else None
        counts = _counts(cap.ledger) if cap.ledger is not None else None
        checked = rec.within_bound is not None if rec is not None else False
        signature = (out_mask, counts, checked, error is None)
        if slot.first is None:
            slot.first = signature
            check = check_intersection_trial if spec.is_intersection else check_basis_trial
            problems += check(slot, spec, self.refs[slot.instance], rec, cap.output, cap.ledger)
        elif signature != slot.first:
            problems.append("result differs from the first round")
        for p in problems:
            self.problems.append(f"{slot.plan.label} {slot.alg} k={slot.k} p={slot.p}: {p}")
        return dt

    def run(self, budget_s, after_round=None):
        gc.collect()
        start = time.perf_counter()
        rounds = 0
        while True:
            times = [self._trial(slot, rounds) for slot in self.slots]
            rounds += 1
            self.trial_seconds += times
            self.round_seconds.append(sum(times))
            if after_round is not None:
                after_round()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > budget_s:
                return rounds


def build_slots(plans):
    slots = []
    for i, plan in enumerate(plans):
        for alg, k, p in plan.trials:
            slots.append(Slot(len(slots), i, plan, alg, k, p))
    return slots


def run_workload(name, seed, seconds, trace):
    _pin_environment()
    _import_program()
    from matoracle import bench

    import probes
    import workloads

    plans = workloads.WORKLOADS[name]()
    setup = SetupSampler(plans, seed)
    specs = setup.specs
    refs = [Reference(spec, _dirty_config(spec, bench)) for spec in specs]
    slots = build_slots(plans)

    patches = probes.Patches()
    capture = probes.Capture()
    capture.install(patches)
    runner = Runner(slots, specs, refs, capture)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "trials_per_round": len(slots), "instances": len(specs), "setup_batch": setup.batch}
    try:
        if not trace:
            rounds = runner.run(seconds, after_round=setup.sample)
            per_round = _per_round_counts(slots)
            # each trial's median over the rounds, so that a slow stretch of
            # the host moves no trial's time unless it covers half the rounds
            typical = _typical(runner.scaled_seconds, len(slots))
            wall_typical = _typical(runner.trial_seconds, len(slots))
            detail.update(setup_s_samples=setup.samples, wall_setup_s_samples=setup.wall_samples, wall_metrics={
                "setup_s": statistics.median(setup.wall_samples),
                "trials_per_s": len(slots) / sum(wall_typical),
                "trial_p50_s": statistics.median(wall_typical),
            })
            metrics = {
                "setup_s": (statistics.median(setup.samples), "s"),
                "trials_per_s": (len(slots) / sum(typical), "trials/s"),
                "trial_p50_s": (statistics.median(typical), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "clean_queries": (per_round["clean"], "count"),
                "dirty_queries": (per_round["dirty"], "count"),
                "bound_checks": (per_round["checked"], "count"),
            }
        else:
            untraced_rounds = runner.run(seconds / 2)
            untraced = statistics.mean(runner.round_seconds)
            tracer = probes.Tracer()
            tracer.install(patches)
            runner.tracer = tracer
            runner.run_trial = tracer.run_trial(bench.run_trial)
            before = len(runner.round_seconds)
            rounds = runner.run(seconds / 2)
            traced = statistics.mean(runner.round_seconds[before:])
            augmentations = sum(
                s.first[0].bit_count() for s in slots if s.alg == "intersect-dirty" and s.first[0] is not None
            )
            metrics = tracer.metrics(rounds, len(specs), augmentations, BASIS_TAGS)
            overhead = traced / untraced - 1
            detail.update(untraced_rounds=untraced_rounds, untraced_round_s=untraced, traced_round_s=traced,
                          trace_overhead=overhead, spans=len(tracer.spans))
            print(f"perfbench: {name} tracing overhead {overhead:+.1%} "
                  f"({untraced:.3f} s untraced, {traced:.3f} s traced per round)", file=sys.stderr)
            _write(OUT_DIR / f"trace-{name}-seed{seed}.json", {
                "overhead": overhead,
                "aggregates": [[*key, *vals] for key, vals in sorted(tracer.agg.items(), key=str)],
                "spans": tracer.spans,
            })
    finally:
        patches.restore()
    per_slot = len(slots)
    detail.update(rounds=rounds, round_s=runner.round_seconds, problems=runner.problems, slot_s=[
        [s.plan.label, s.alg, s.k, s.p, s.first[1], runner.trial_seconds[s.index::per_slot]] for s in slots])
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail["result"] = result
    _write(OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json", detail)
    for p in runner.problems[:20]:
        print(f"perfbench: CHECK FAILED {p}", file=sys.stderr)
    return result


def _typical(seconds, per_round):
    """Each trial's median time over the rounds (`seconds` is round-major)."""
    return [statistics.median(seconds[i::per_round]) for i in range(per_round)]


def _per_round_counts(slots):
    clean = dirty = checked = 0
    for s in slots:
        _mask, counts, was_checked, _ok = s.first
        if counts is not None:
            clean += counts[0] + counts[1]
            dirty += counts[2]
        checked += was_checked
    return {"clean": clean, "dirty": dirty, "checked": checked}


def _write(path, doc):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, default=str)


def run_all(args):
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
