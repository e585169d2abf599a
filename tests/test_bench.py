import csv
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from matoracle import ElementSet, bench, compute_eta, greedy_basis, oracles
from matoracle.bench import (
    TAGS,
    InstanceSpec,
    InvalidSpec,
    MissingParam,
    TrialRecord,
    bound,
    family_instance,
    generate,
    plot_data_series,
    run_trial,
    summary_lines,
    sweep,
    write_csv,
)


class TestInstanceSpec:
    def test_json_round_trip_bit_exact(self):
        inst = family_instance("lb_rem", n=12, r_d=6, eta_R=2, seed=9)
        text = inst.to_json()
        again = InstanceSpec.from_json(text)
        assert again.to_json() == text
        assert again.instance_id == inst.instance_id

    def test_seed_determines_instance(self):
        a = family_instance("random", n=10, kind="partition", weight_mode="int", seed=5)
        b = family_instance("random", n=10, kind="partition", weight_mode="int", seed=5)
        c = family_instance("random", n=10, kind="partition", weight_mode="int", seed=6)
        assert a.to_json() == b.to_json()
        assert a.to_json() != c.to_json()

    def test_missing_field_diagnostics(self):
        with pytest.raises(InvalidSpec) as err:
            InstanceSpec.from_json('{"n": 3, "weights": "unit", "matroid": {"kind": "uniform", "k": 1}}')
        assert err.value.field == "dirty"


class TestFamilies:
    def test_lb_basic_structure(self):
        inst = family_instance("lb_basic", n=10, r=4)
        assert inst.matroid["classes"] == [[0, 1, 2], [3, 4, 5, 6, 7, 8, 9]]
        assert inst.matroid["caps"] == [3, 1]
        gen = generate(inst)
        assert gen.pair.clean.full_rank() == 4

    def test_lb_rem_eta_matches_request(self):
        inst = family_instance("lb_rem", n=16, r_d=8, eta_R=2, seed=1)
        gen = generate(inst)
        rep = compute_eta(gen.fresh_pair())
        assert (rep.eta_A, rep.eta_R) == (0, 2)
        assert gen.pair.clean.full_rank() == 6  # r_d - eta_R

    def test_lb_add_eta_matches_request(self):
        inst = family_instance("lb_add", n=14, r_d=6, eta_A=3, seed=2)
        gen = generate(inst)
        rep = compute_eta(gen.fresh_pair())
        assert (rep.eta_A, rep.eta_R) == (3, 0)

    def test_identity_perturbation_instance(self):
        inst = family_instance("random", n=8, kind="partition", weight_mode="unit", seed=3,
                               perturbation={"kind": "class_swap", "count": 0, "seed": 0})
        rep = compute_eta(generate(inst).fresh_pair())
        assert (rep.eta_A, rep.eta_R) == (0, 0)

    def test_lb_weighted_unique_dirty_top(self):
        inst = family_instance("lb_weighted", n=7)
        gen = generate(inst)
        bd = greedy_basis(gen.fresh_pair())
        assert sorted(bd) == [0, 1, 2, 3, 4, 6]  # everything but e_{n-1}

    def test_family_validation(self):
        with pytest.raises(InvalidSpec):
            family_instance("lb_rem", n=8, r_d=4, eta_R=5)
        with pytest.raises(InvalidSpec):
            family_instance("pairquery", n=12, r_d=4, eta_A=2)
        with pytest.raises(InvalidSpec):
            family_instance("nope", n=4)


class TestBound:
    def test_robust_weighted_arithmetic(self):
        assert bound("weighted-robust", n=9, r=4, r_d=4, k=1, eta_A=2, eta_R=2) == 18

    def test_simple_branches(self):
        assert bound("simple", n=10, r=4, eta_A=0, eta_R=0) == 7
        assert bound("simple", n=10, r=4, eta_A=1, eta_R=0) == 11

    def test_rank_prop_example(self):
        assert bound("rank", n=16, r_d=8, eta_A=1, eta_R=1) == 8

    def test_costly_formula(self):
        assert bound("costly", n=16, r=14, p=2) == 18 + 2

    def test_robustness_branch_is_rational(self):
        assert bound("robust", n=10, r=2, r_d=9, k=3, eta_A=5, eta_R=5) == Fraction(40, 3)

    def test_missing_param(self):
        with pytest.raises(MissingParam):
            bound("errdep", n=5, r=2, r_d=2, eta_A=1)  # no eta_R


class TestRunTrial:
    def test_identity_simple(self):
        inst = family_instance("lb_basic", n=10, r=4)
        rec = run_trial(inst, "simple")
        assert rec.within_bound and rec.correct
        assert rec.clean_ind_queries == 10 - 4 + 1
        assert rec.certificate == "strict-pass"
        assert rec.eta_source == "construction"

    def test_lb_family_robust(self):
        inst = family_instance("lb_rem", n=12, r_d=6, eta_R=2, seed=7)
        rec = run_trial(inst, "robust", k=2)
        assert rec.within_bound and rec.correct

    def test_superset_violation_recorded(self):
        inst = family_instance("random_intersection", n=6, seed=1)
        # sabotage: lower one dirty cap below clean
        doc = json.loads(inst.to_json())
        doc["dirty"] = {"mode": "matroid", "kind": "partition",
                        "classes": doc["matroid"]["classes"],
                        "caps": [0 for _ in doc["matroid"]["caps"]]}
        bad = InstanceSpec.from_dict(doc)
        rec = run_trial(bad, "intersect-dirty")
        assert "SupersetViolation" in rec.error or rec.error

    def test_weighted_algorithms_on_weighted_instance(self):
        inst = family_instance("random", n=9, kind="partition", weight_mode="int", seed=12)
        rec = run_trial(inst, "weighted")
        assert rec.correct and rec.within_bound
        assert rec.certificate == "relaxed"

    @pytest.mark.parametrize("algorithm, k, p", [("weighted", 3, None), ("greedy", 1, None), ("robust", 2, 4),
                                                  ("errdep", None, 1), ("costly", 2, 4)])
    def test_unused_param_rejected(self, algorithm, k, p):
        inst = family_instance("lb_basic", n=8, r=4)
        with pytest.raises(InvalidSpec) as err:
            run_trial(inst, algorithm, k=k, p=p)
        assert err.value.field == ("p" if algorithm != "costly" and p is not None else "k")

    def test_unweighted_algorithm_rejects_weights(self):
        inst = family_instance("random", n=6, kind="partition", weight_mode="int", seed=2)
        with pytest.raises(InvalidSpec):
            run_trial(inst, "errdep")

    def test_intersection_trial(self):
        inst = family_instance("random_intersection", n=8, seed=4)
        rec = run_trial(inst, "intersect-dirty")
        assert rec.correct and rec.within_bound
        rec2 = run_trial(inst, "warmstart")
        assert rec2.correct and rec2.within_bound

    @pytest.mark.parametrize("algorithm,entry", [("intersect-dirty", "dirty_intersection"), ("warmstart", "warm_start")])
    def test_clean_dependent_output_of_optimum_size_is_incorrect(self, monkeypatch, algorithm, entry):
        inst = family_instance("random_intersection", n=8, seed=4)
        rec = run_trial(inst, algorithm)
        assert rec.correct and rec.eta_r is not None
        c1, c2 = generate(inst).oracles.clean
        bad = next(
            m for m in range(1 << inst.n)
            if m.bit_count() == rec.r and not (c1.is_independent_mask(m) and c2.is_independent_mask(m))
        )

        def clean_dependent(ox):
            x = ElementSet(ox.ground.n, bad)
            return (x, ox.ledger, ([], [])) if entry == "dirty_intersection" else (x, ox.ledger)

        monkeypatch.setattr(bench, entry, clean_dependent)
        rec = run_trial(inst, algorithm)
        assert rec.correct is False
        assert rec.r == bad.bit_count()

    @pytest.mark.parametrize("algorithm", [tag for tag, row in TAGS.items() if row.intersection])
    def test_intersection_trial_creates_no_reference_ledger(self, monkeypatch, algorithm):
        created, generated = [], []
        init = oracles.QueryLedger.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        def tracking_generate(spec, inner=bench.generate):
            generated.append(inner(spec))
            return generated[-1]

        monkeypatch.setattr(oracles.QueryLedger, "__init__", tracking_init)
        monkeypatch.setattr(bench, "generate", tracking_generate)
        rec = run_trial(family_instance("random_intersection", n=8, seed=4), algorithm)
        # generate's ledger, then the trial's, which holds every billed query
        assert len(created) == 2
        assert created[0] is generated[0].oracles.ledger
        assert created[1].clean_independence_count == rec.clean_ind_queries
        assert created[1].dirty_count == rec.dirty_queries


# r = 2 and r_d = 3: brute force gives eta_A = 0 and eta_R = 1
U24_DIRTY_U3 = {
    "n": 4,
    "weights": "unit",
    "matroid": {"kind": "uniform", "k": 2},
    "dirty": {"mode": "matroid", "kind": "uniform", "k": 3},
}


def _counting(monkeypatch, name):
    """Count the calls of errors.<name>, which run_trial looks up at call time."""
    calls = []
    original = getattr(bench.errmod, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bench.errmod, name, counted)
    return calls


class TestErrorMemo:
    """The brute-forced errors of an instance are computed once for its
    trials in a row, and never served to another instance."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(bench, "_last_errors", [None, None])

    def test_sweep_brute_forces_each_instance_once(self, monkeypatch):
        calls = _counting(monkeypatch, "compute_eta")
        config = {
            "instances": [{"family": "random", "params": {"n": 10, "kind": "partition", "weight_mode": "unit"},
                           "seeds": [0, 1]}],
            "algorithms": ["greedy", "simple", "errdep", "robust", "weighted", "rank"],
            "k": [1, 2],
        }
        records, violations = sweep(config)
        assert len(records) == 2 * 7 and not violations
        assert all(rec.eta_source == "bruteforce" for rec in records)
        assert len(calls) == 2

    def test_alternating_specs_each_get_their_own_eta(self, monkeypatch):
        calls = _counting(monkeypatch, "compute_eta")
        a = family_instance("random", n=10, kind="partition", weight_mode="unit", seed=3)
        b = family_instance("random", n=10, kind="graphic", weight_mode="int", seed=4)
        want = {}
        for spec in (a, b):
            rep = compute_eta(generate(spec).fresh_pair())
            want[spec.instance_id] = (rep.eta_A, rep.eta_R)
        assert want[a.instance_id] != want[b.instance_id]
        for spec in (a, b, a):
            rec = run_trial(spec, "weighted")
            assert (rec.eta_A, rec.eta_R) == want[spec.instance_id]
        assert len(calls) == 3

    def test_spec_edited_in_place_is_brute_forced_again(self):
        spec = InstanceSpec.from_json(json.dumps(U24_DIRTY_U3))
        rec = run_trial(spec, "errdep")
        assert (rec.eta_A, rec.eta_R) == (0, 1)
        spec.dirty["k"] = 1
        rec = run_trial(spec, "errdep")
        assert (rec.eta_A, rec.eta_R) == (1, 0)
        rep = compute_eta(generate(spec).fresh_pair())
        assert (rec.eta_A, rec.eta_R) == (rep.eta_A, rep.eta_R)

    def test_intersection_errors_once_for_both_tags(self, monkeypatch):
        calls = _counting(monkeypatch, "compute_intersection_errors")
        inst = family_instance("random_intersection", n=10, seed=2)
        recs = [run_trial(inst, algo) for algo in ("intersect-dirty", "warmstart")]
        assert len(calls) == 1
        assert all(rec.eta_source == "bruteforce" and rec.within_bound for rec in recs)
        assert recs[0].eta_1 == recs[1].eta_1 and recs[0].eta_r == recs[1].eta_r

    def test_non_superset_pair_gives_the_same_record_on_repeat(self, monkeypatch):
        calls = _counting(monkeypatch, "compute_intersection_errors")
        # n = 15 is above the superset precheck, so the algorithm runs and
        # only the brute force sees that the dirty caps sit below the clean
        doc = json.loads(family_instance("random_intersection", n=15, seed=1).to_json())
        doc["dirty"] = dict(doc["dirty"], caps=[0 for _ in doc["matroid"]["caps"]])
        bad = InstanceSpec.from_dict(doc)
        first, again = (run_trial(bad, "warmstart") for _ in range(2))
        assert first.eta_source == again.eta_source == "skipped"
        first.wall_time_s = again.wall_time_s = 0.0
        assert first == again
        assert len(calls) == 1

    def test_no_serialization_above_the_guard(self, monkeypatch):
        serialized = []
        to_json = InstanceSpec.to_json
        monkeypatch.setattr(InstanceSpec, "to_json", lambda self: serialized.append(self.n) or to_json(self))
        spec = InstanceSpec.from_json(json.dumps(dict(U24_DIRTY_U3, n=24)))
        serialized.clear()
        rec = run_trial(spec, "errdep")
        assert rec.eta_source == "skipped"
        # the one call builds the record's instance id
        assert serialized == [24]


class TestSweep:
    def test_empty_config(self, tmp_path):
        records, violations = sweep({}, out_path=tmp_path / "r.csv")
        assert records == [] and violations == []
        rows = list(csv.reader(open(tmp_path / "r.csv")))
        assert rows == [list(TrialRecord.COLUMNS)]

    def test_unknown_family_parameter_rejected_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bench, "run_trial", lambda *args, **kw: ran.append(args))
        config = {
            "instances": [
                {"family": "lb_basic", "params": {"n": 8, "r": 4}},
                {"family": "lb_rem", "params": {"n": 10, "r_d": 5, "eta_R": 1, "sede": 5}, "seeds": [1, 2]},
            ],
            "algorithms": ["errdep"],
        }
        with pytest.raises(InvalidSpec, match="'sede'") as err:
            sweep(config)
        assert err.value.field == "family.params"
        assert ran == []

    def test_k_sweep_rows_and_order(self, tmp_path):
        config = {
            "instances": [
                {"family": "lb_rem", "params": {"n": 10, "r_d": 5, "eta_R": 1}, "seeds": [1, 2]},
            ],
            "algorithms": ["simple", "robust"],
            "k": [1, 2, 4, 8],
        }
        records, violations = sweep(config, out_path=tmp_path / "r.csv")
        assert len(records) == 2 * (1 + 4)
        assert not violations
        keys = [(r.instance_id, r.algorithm, r.k or 0) for r in records]
        assert keys == sorted(keys)

    def test_csv_schema_stable_and_json_round_trip(self, tmp_path):
        inst = family_instance("lb_basic", n=8, r=3)
        rec = run_trial(inst, "errdep")
        write_csv([rec], tmp_path / "one.csv")
        rows = list(csv.reader(open(tmp_path / "one.csv")))
        assert rows[0] == list(TrialRecord.COLUMNS)
        assert rows[1][rows[0].index("algorithm")] == "errdep"
        doc = json.loads(rec.to_json())
        assert doc["clean_ind_queries"] == rec.clean_ind_queries
        assert TrialRecord.from_json(rec.to_json()) == rec

    def test_lb_weighted_row(self, tmp_path):
        config = {
            "instances": [{"family": "lb_weighted", "params": {"n": 9}}],
            "algorithms": ["weighted"],
        }
        records, violations = sweep(config, out_path=tmp_path / "w.csv")
        assert len(records) == 1 and not violations
        assert records[0].clean_ind_queries == 2  # the weighted floor behavior

    def test_summary_and_plot_series(self):
        inst = family_instance("lb_rem", n=10, r_d=5, eta_R=1, seed=3)
        recs = [run_trial(inst, "robust", k=k) for k in (1, 2)]
        lines = summary_lines(recs)
        assert any(line.startswith("robust:") for line in lines)
        series = plot_data_series(recs)
        assert {pt["k"] for pt in series["by_k"]} == {1, 2}
        assert all(pt["eta_R"] == 1 for pt in series["by_eta"])

    def test_summary_measures_costly_by_total_cost(self):
        # lb_basic has an exact dirty oracle, so costly's total cost dirty +
        # p * clean sits exactly at its bound for every p
        config = {"instances": [{"family": "lb_basic", "params": {"n": 16, "r": 5}, "seeds": [0, 1, 2]}],
                  "algorithms": ["costly"], "p": [1, 4]}
        records, violations = sweep(config)
        assert len(records) == 6 and not violations
        assert all(rec.measured == ("cost", Fraction(rec.bound)) for rec in records)
        assert summary_lines(records) == ["costly: trials=6 max(measured/bound)=1.000 violations=0"]

    def test_k_sweep_100_seeds_no_violations(self, tmp_path):
        config = {
            "instances": [
                {"family": "random", "params": {"n": 10, "kind": "partition", "weight_mode": "unit"},
                 "seeds": list(range(100))},
            ],
            "algorithms": ["robust"],
            "k": [1, 2, 4, 8],
        }
        records, violations = sweep(config, out_path=tmp_path / "k.csv")
        assert len(records) == 400
        assert not violations

    def test_correctness_failure_flags_sweep(self, tmp_path):
        # pair-query misused outside its family: the output is not a clean
        # basis, so the row is incorrect and the sweep reports a violation
        inst = InstanceSpec(
            n=5,
            weights="unit",
            matroid={"kind": "uniform", "k": 1},
            dirty={"mode": "matroid", "kind": "uniform", "k": 3},
        )
        records, violations = sweep(
            {"instances": [json.loads(inst.to_json())], "algorithms": ["pairquery"]},
            out_path=tmp_path / "v.csv",
        )
        assert len(records) == 1
        assert records[0].error == "FamilyViolation"
        assert violations and violations[0].correct is False

    def test_fraction_weights_round_trip(self):
        inst = InstanceSpec(
            n=3,
            weights=["7/2", 3, "1/3"],
            matroid={"kind": "uniform", "k": 2},
            dirty={"mode": "identity"},
        )
        again = InstanceSpec.from_json(inst.to_json())
        assert again.to_json() == inst.to_json()
        gen = generate(again)
        assert gen.ground.weights[0] == Fraction(7, 2)
        rec = run_trial(again, "weighted")
        assert rec.correct and rec.within_bound


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "matoracle.cli", *args],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
        )

    def test_gen_run_verify_bench(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "lb_rem", "params": {"n": 12, "r_d": 6, "eta_R": 2, "seed": 5}}))
        inst = tmp_path / "inst.json"
        out = self.run_cli("gen", "--spec", str(spec), "--out", str(inst))
        assert out.returncode == 0, out.stderr
        rec = tmp_path / "rec.json"
        out = self.run_cli("run", "--instance", str(inst), "--alg", "errdep", "--out", str(rec))
        assert out.returncode == 0, out.stderr
        doc = json.loads(rec.read_text())
        assert doc["within_bound"] is True
        out = self.run_cli("verify", "--instance", str(inst), "--all")
        assert out.returncode == 0, out.stdout + out.stderr
        assert "PASS" in out.stdout and "FAIL" not in out.stdout
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "instances": [{"family": "lb_rem", "params": {"n": 10, "r_d": 5, "eta_R": 1}, "seeds": [1, 2]}],
            "algorithms": ["simple", "robust"],
            "k": [1, 2],
        }))
        results = tmp_path / "results.csv"
        plot = tmp_path / "plot.json"
        out = self.run_cli("bench", "--config", str(config), "--out", str(results), "--plot-data", str(plot))
        assert out.returncode == 0, out.stdout + out.stderr
        assert results.exists() and plot.exists()
        assert "violations=0" in out.stdout
