import itertools
import json

import pytest

from matoracle import cli
from matoracle.bench import InstanceSpec, InvalidSpec, family_instance, generate, run_trial, sweep
from matoracle.oracles import SET_STORAGE_LIMIT

UNCOVERED = {
    "n": 4,
    "weights": "unit",
    "matroid": {"kind": "partition", "classes": [[0, 1], [2]], "caps": [1, 1]},
    "dirty": {"mode": "identity"},
}

SHORT_WEIGHTS = {
    "n": 4,
    "weights": [3, 2, 1],
    "matroid": {"kind": "uniform", "k": 2},
    "dirty": {"mode": "identity"},
}

# the error oracle ranks an explicit system's maximal sets by size only
WEIGHTED_EXPLICIT = {
    "n": 4,
    "weights": [4, 3, 2, 1],
    "matroid": {"kind": "uniform", "k": 2},
    "dirty": {"mode": "explicit", "maximal_sets": [[0, 1], [2, 3]]},
}

# above SET_STORAGE_LIMIT the ledger keeps no query sets, so greedy's strict
# certificate cannot be checked
UNSTORED = {
    "n": SET_STORAGE_LIMIT + 1,
    "weights": "unit",
    "matroid": {"kind": "uniform", "k": 4},
    "dirty": {"mode": "matroid", "kind": "uniform", "k": 4},
}

# r = 2 and r_d = 3, so a consistent family.eta has eta_R = eta_A + 1
U24_DIRTY_U3 = {
    "n": 4,
    "weights": "unit",
    "matroid": {"kind": "uniform", "k": 2},
    "dirty": {"mode": "matroid", "kind": "uniform", "k": 3},
}

LB_BASIC_GROUP = {"family": "lb_basic", "params": {"n": 8, "r": 4}}
LB_BASIC = family_instance(LB_BASIC_GROUP["family"], **LB_BASIC_GROUP["params"])


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


class TestSpecErrors:
    def test_uncovered_partition_names_the_field(self):
        with pytest.raises(InvalidSpec) as err:
            generate(InstanceSpec.from_dict(UNCOVERED))
        assert err.value.field == "matroid"

    def test_weights_message_has_one_prefix(self):
        with pytest.raises(InvalidSpec) as err:
            generate(InstanceSpec.from_dict(SHORT_WEIGHTS))
        assert str(err.value) == "weights: must be 'unit' or a list of length n"

    def test_missing_family_parameter(self):
        with pytest.raises(InvalidSpec) as err:
            family_instance("lb_rem", n=8, r_d=4)
        assert err.value.field == "family.params"

    def test_run_exits_2(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", UNCOVERED)
        code = cli.main(["run", "--instance", inst, "--alg", "errdep", "--out", str(tmp_path / "rec.json")])
        assert code == 2
        assert "matroid: classes do not cover the ground set" in _one_line_error(capsys)

    @pytest.mark.parametrize("command", ["run", "verify", "bench"])
    def test_weighted_explicit_dirty_exits_2(self, tmp_path, capsys, command):
        inst = _write(tmp_path, "inst.json", WEIGHTED_EXPLICIT)
        args = {
            "run": ["run", "--instance", inst, "--alg", "weighted", "--out", str(tmp_path / "rec.json")],
            "verify": ["verify", "--instance", inst, "--all"],
            "bench": ["bench", "--config", _write(tmp_path, "sweep.json", {"instances": [WEIGHTED_EXPLICIT]}),
                      "--out", str(tmp_path / "r.csv")],
        }[command]
        assert cli.main(args) == 2
        assert "dirty: explicit dirty systems need unit weights" in _one_line_error(capsys)

    def test_verify_wrong_weight_length_fails(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", SHORT_WEIGHTS)
        assert cli.main(["verify", "--instance", inst, "--all"]) == 2
        out = capsys.readouterr()
        assert "skipped" not in out.out
        assert "weights: must be" in out.err and "weights: weights:" not in out.err

    def test_bench_malformed_instance_exits_2(self, tmp_path, capsys):
        config = _write(tmp_path, "sweep.json", {"instances": [UNCOVERED], "algorithms": ["errdep"]})
        assert cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")]) == 2
        assert "matroid:" in _one_line_error(capsys)

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", '{"n": 4,')
        assert cli.main(["run", "--instance", inst, "--alg", "errdep", "--out", str(tmp_path / "rec.json")]) == 2
        assert "not valid JSON" in _one_line_error(capsys)

    @pytest.mark.parametrize(
        "eta", [5, None, {"eta_A": 0}, {"eta_A": True, "eta_R": 0}, {"eta_A": 0, "eta_R": -1}, {"eta_A": "x", "eta_R": 0}]
    )
    @pytest.mark.parametrize("command", ["run", "verify", "bench"])
    def test_malformed_family_eta_exits_2(self, tmp_path, capsys, command, eta):
        doc = json.loads(LB_BASIC.to_json())
        doc["family"]["eta"] = eta
        inst = _write(tmp_path, "inst.json", doc)
        args = {
            "run": ["run", "--instance", inst, "--alg", "errdep", "--out", str(tmp_path / "rec.json")],
            "verify": ["verify", "--instance", inst, "--all"],
            "bench": ["bench", "--config", _write(tmp_path, "sweep.json", {"instances": [doc]}),
                      "--out", str(tmp_path / "r.csv")],
        }[command]
        assert cli.main(args) == 2
        assert "matoracle: invalid spec: family.eta: must be" in _one_line_error(capsys)

    @pytest.mark.parametrize("command", ["gen", "run", "verify", "bench"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.json")
        args = {
            "gen": ["gen", "--spec", missing, "--out", str(tmp_path / "inst.json")],
            "run": ["run", "--instance", missing, "--alg", "errdep", "--out", str(tmp_path / "rec.json")],
            "verify": ["verify", "--instance", missing, "--all"],
            "bench": ["bench", "--config", missing, "--out", str(tmp_path / "r.csv")],
        }[command]
        assert cli.main(args) == 2
        assert f"matoracle: invalid spec: {missing}: cannot read" in _one_line_error(capsys)

    @pytest.mark.parametrize("command", ["run", "verify", "bench"])
    def test_family_eta_against_the_ranks_exits_2(self, tmp_path, capsys, command):
        # U(2, 4) against a dirty U(3): r = 2, r_d = 3, so eta_R = 1 is needed
        doc = dict(U24_DIRTY_U3, family={"tag": "edited", "eta": {"eta_A": 0, "eta_R": 0}})
        inst = _write(tmp_path, "inst.json", doc)
        args = {
            "run": ["run", "--instance", inst, "--alg", "errdep", "--out", str(tmp_path / "rec.json")],
            "verify": ["verify", "--instance", inst, "--all"],
            "bench": ["bench", "--config", _write(tmp_path, "sweep.json", {"instances": [doc]}),
                      "--out", str(tmp_path / "r.csv")],
        }[command]
        assert cli.main(args) == 2
        err = _one_line_error(capsys)
        assert "matoracle: invalid spec: family.eta: " in err and "r = 2, r_d = 3" in err

    @pytest.mark.parametrize("eta", [{"eta_A": 0, "eta_R": 1}, {"eta_A": 1, "eta_R": 2}])
    def test_family_eta_matching_the_ranks_is_used(self, eta):
        # values that satisfy r = r_d + eta_A - eta_R are trusted as given
        inst = InstanceSpec.from_dict(dict(U24_DIRTY_U3, family={"tag": "edited", "eta": eta}))
        rec = run_trial(inst, "errdep")
        assert (rec.eta_A, rec.eta_R, rec.eta_source) == (eta["eta_A"], eta["eta_R"], "construction")

    def test_family_eta_with_an_explicit_dirty_system_is_not_checked(self):
        # an explicit system need not be a matroid, so the identity does not apply
        doc = dict(U24_DIRTY_U3, dirty={"mode": "explicit", "maximal_sets": [[0, 1, 2], [3]]},
                   family={"tag": "edited", "eta": {"eta_A": 0, "eta_R": 0}})
        assert generate(InstanceSpec.from_dict(doc)).known_eta == {"eta_A": 0, "eta_R": 0}

    @pytest.mark.parametrize("command", ["gen", "run", "bench", "plot-data"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        nodir = str(tmp_path / "nodir" / "out.json")
        inst = _write(tmp_path, "inst.json", LB_BASIC.to_json())
        config = _write(tmp_path, "sweep.json", {"instances": [LB_BASIC_GROUP], "algorithms": ["errdep"]})
        args = {
            "gen": ["gen", "--spec", _write(tmp_path, "spec.json", LB_BASIC_GROUP), "--out", nodir],
            "run": ["run", "--instance", inst, "--alg", "errdep", "--out", nodir],
            "bench": ["bench", "--config", config, "--out", nodir],
            "plot-data": ["bench", "--config", config, "--out", str(tmp_path / "r.csv"), "--plot-data", nodir],
        }[command]
        assert cli.main(args) == 2
        assert f"matoracle: cannot write {nodir}: " in _one_line_error(capsys)

    @pytest.mark.parametrize(
        "field, doc",
        [("matroid", dict(UNCOVERED, matroid="uniform")),
         ("dirty", dict(UNCOVERED, dirty="identity")),
         ("matroid2", dict(U24_DIRTY_U3, matroid2=3)),
         ("dirty2", dict(U24_DIRTY_U3, matroid2={"kind": "uniform", "k": 2}, dirty2="x")),
         ("weights", dict(U24_DIRTY_U3, weights=["1/0", 1, 1, 1]))],
    )
    @pytest.mark.parametrize("command", ["run", "verify", "bench"])
    def test_malformed_field_exits_2(self, tmp_path, capsys, command, field, doc):
        inst = _write(tmp_path, "inst.json", doc)
        args = {
            "run": ["run", "--instance", inst, "--alg", "greedy", "--out", str(tmp_path / "rec.json")],
            "verify": ["verify", "--instance", inst, "--all"],
            "bench": ["bench", "--config", _write(tmp_path, "sweep.json", {"instances": [doc], "algorithms": ["greedy"]}),
                      "--out", str(tmp_path / "r.csv")],
        }[command]
        assert cli.main(args) == 2
        assert f"matoracle: invalid spec: {field}: " in _one_line_error(capsys)

    @pytest.mark.parametrize(
        "field, config",
        [("algorithms", {"instances": [LB_BASIC_GROUP], "algorithms": "errdep"}),
         ("algorithms", {"instances": [LB_BASIC_GROUP], "algorithms": ["nope"]}),
         ("seeds", {"instances": [dict(LB_BASIC_GROUP, seeds=5)], "algorithms": ["errdep"]}),
         ("seeds", {"instances": [dict(LB_BASIC_GROUP, seeds=[1, "2"])], "algorithms": ["errdep"]}),
         ("params", {"instances": [dict(LB_BASIC_GROUP, params=3)], "algorithms": ["errdep"]}),
         ("instances", {"instances": 3, "algorithms": ["errdep"]})],
    )
    def test_malformed_sweep_config_exits_2(self, tmp_path, capsys, field, config):
        out = tmp_path / "r.csv"
        assert cli.main(["bench", "--config", _write(tmp_path, "sweep.json", config), "--out", str(out)]) == 2
        assert f"matoracle: invalid spec: {field}: must be" in _one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, doc",
        [("weights", {"n": 2, "weights": ["1/0", 1], "matroid": {"kind": "uniform", "k": 1},
                      "dirty": {"mode": "identity"}}),
         ("matroid", UNCOVERED),
         ("weights", SHORT_WEIGHTS),
         ("dirty", WEIGHTED_EXPLICIT)],
    )
    def test_gen_rejects_what_run_rejects(self, tmp_path, capsys, field, doc):
        out = tmp_path / "inst.json"
        assert cli.main(["gen", "--spec", _write(tmp_path, "spec.json", doc), "--out", str(out)]) == 2
        assert f"matoracle: invalid spec: {field}: " in _one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, doc",
        [("matroid: classes[0]: must be a list", {"n": 2, "weights": "unit", "dirty": {"mode": "identity"},
                                                 "matroid": {"kind": "partition", "classes": [3], "caps": [1]}}),
         ("dirty: basis: must be a list", dict(U24_DIRTY_U3, dirty={"mode": "predicted_basis", "basis": 3})),
         ("dirty: maximal_sets[0]: must be a list", dict(U24_DIRTY_U3, dirty={"mode": "explicit", "maximal_sets": [3, [2]]})),
         ("matroid: classes[0]: element True is not an integer",
          {"n": 2, "weights": "unit", "dirty": {"mode": "identity"},
           "matroid": {"kind": "partition", "classes": [[True], [0]], "caps": [1, 1]}}),
         ("dirty: basis: element 4 outside 0..3", dict(U24_DIRTY_U3, dirty={"mode": "predicted_basis", "basis": [0, 4]}))],
    )
    def test_element_lists_are_not_read_as_bitmasks(self, tmp_path, capsys, where, doc):
        spec, out = _write(tmp_path, "spec.json", doc), tmp_path / "out.json"
        for args in (["gen", "--spec", spec, "--out", str(out)],
                     ["run", "--instance", spec, "--alg", "greedy", "--out", str(out)]):
            assert cli.main(args) == 2
            assert f"matoracle: invalid spec: {where}" in _one_line_error(capsys)
            assert not out.exists()

    def test_gen_group_params_not_an_object_exits_2(self, tmp_path, capsys):
        spec = _write(tmp_path, "spec.json", dict(LB_BASIC_GROUP, params=3))
        assert cli.main(["gen", "--spec", spec, "--out", str(tmp_path / "inst.json")]) == 2
        assert "matoracle: invalid spec: params: must be an object" in _one_line_error(capsys)


class TestVerifyAlgorithms:
    def test_equal_weights_list_runs_the_unweighted_algorithms(self, tmp_path, capsys):
        # run_trial accepts the unweighted algorithms on any equal weights, so
        # verify --all runs them too
        doc = {
            "n": 4,
            "weights": [1, 1, 1, 1],
            "matroid": {"kind": "uniform", "k": 2},
            "dirty": {"mode": "matroid", "kind": "uniform", "k": 3},
        }
        assert cli.main(["verify", "--instance", _write(tmp_path, "inst.json", doc), "--all"]) == 0
        ran = [line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()]
        assert ran == ["greedy", "simple", "errdep", "robust", "weighted", "weighted-robust", "rank", "costly"]


def test_explicit_dirty_non_matroid_at_n_14_runs(tmp_path, capsys):
    # U(6, 14) against every 6-subset plus {7, ..., 13}: the rank identity
    # fails, and telling whether the dirty system is a matroid must not
    # compare every pair of its independent sets
    sets = [list(c) for c in itertools.combinations(range(14), 6)] + [list(range(7, 14))]
    doc = {"n": 14, "weights": "unit", "matroid": {"kind": "uniform", "k": 6},
           "dirty": {"mode": "explicit", "maximal_sets": sets}}
    out = tmp_path / "rec.json"
    assert cli.main(["run", "--instance", _write(tmp_path, "inst.json", doc), "--alg", "errdep", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert (rec["eta_A"], rec["eta_R"], rec["eta_source"], rec["within_bound"]) == (0, 1, "bruteforce", True)


class TestParamErrors:
    """A k or p that is out of range exits 2 with one line, never a false
    pass with a default or an unchecked value."""

    @pytest.mark.parametrize(
        "alg, flag, value",
        [("robust", "--k", "0"), ("robust", "--k", "-2"), ("weighted-robust", "--k", "0"),
         ("costly", "--p", "0"), ("costly", "--p", "-3")],
    )
    def test_run_exits_2(self, tmp_path, capsys, alg, flag, value):
        inst = _write(tmp_path, "inst.json", LB_BASIC.to_json())
        args = ["run", "--instance", inst, "--alg", alg, flag, value, "--out", str(tmp_path / "rec.json")]
        assert cli.main(args) == 2
        assert f"matoracle: invalid spec: {flag[2:]}: must be" in _one_line_error(capsys)
        assert not (tmp_path / "rec.json").exists()

    def test_verify_exits_2(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", LB_BASIC.to_json())
        assert cli.main(["verify", "--instance", inst, "--all", "--p", "0"]) == 2
        assert "matoracle: invalid spec: p: must be" in _one_line_error(capsys)

    @pytest.mark.parametrize("grid", [{"k": [0]}, {"p": [0]}, {"k": [2, -1]}, {"p": [2, "x"]}, {"k": 2}])
    def test_bench_grid_exits_2(self, tmp_path, capsys, grid):
        doc = {"instances": [LB_BASIC_GROUP], "algorithms": ["robust", "costly"], **grid}
        config = _write(tmp_path, "sweep.json", doc)
        assert cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")]) == 2
        assert f"matoracle: invalid spec: {next(iter(grid))}: must be" in _one_line_error(capsys)
        assert not (tmp_path / "r.csv").exists()

    def test_valid_k_and_p_pass(self, tmp_path, capsys):
        doc = {"instances": [LB_BASIC_GROUP], "algorithms": ["robust", "costly"], "k": [1, 3], "p": [1, 4]}
        config = _write(tmp_path, "sweep.json", doc)
        assert cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")]) == 0
        assert "4 rows" in capsys.readouterr().out


class TestFamilyObjects:
    """An instance file written by gen carries its family as an object; only a
    string family names a family group."""

    def _gen(self, tmp_path, spec):
        out = tmp_path / "inst.json"
        code = cli.main(["gen", "--spec", _write(tmp_path, "spec.json", spec), "--out", str(out)])
        return code, out

    def test_bench_runs_a_gen_instance_inline(self, tmp_path, capsys):
        code, out = self._gen(tmp_path, LB_BASIC_GROUP)
        assert code == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["family"], dict)
        config = _write(tmp_path, "sweep.json", {"instances": [doc], "algorithms": ["errdep"]})
        assert cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")]) == 0
        assert "1 rows" in capsys.readouterr().out

    def test_gen_copies_a_gen_instance(self, tmp_path):
        code, out = self._gen(tmp_path, LB_BASIC_GROUP)
        first = out.read_text()
        assert code == 0
        assert self._gen(tmp_path, json.loads(first)) == (0, out)
        assert out.read_text() == first

    @pytest.mark.parametrize("family", [5, ["lb_basic"], None])
    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_other_family_values_exit_2(self, tmp_path, capsys, command, family):
        doc = dict(json.loads(LB_BASIC.to_json()), family=family)
        if command == "gen":
            code, _ = self._gen(tmp_path, doc)
        else:
            config = _write(tmp_path, "sweep.json", {"instances": [doc], "algorithms": ["errdep"]})
            code = cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "matoracle: invalid spec: family: must be" in _one_line_error(capsys)


class TestUnstoredTranscript:
    def test_run_trial_still_raises(self):
        with pytest.raises(ValueError, match="transcript sets were not stored"):
            run_trial(InstanceSpec.from_dict(UNSTORED), "greedy")

    def test_sweep_records_a_violation_row_and_continues(self):
        records, violations = sweep({"instances": [UNSTORED], "algorithms": ["greedy", "rank"]})
        by_alg = {rec.algorithm: rec for rec in records}
        assert by_alg["greedy"].certificate == "unverified"
        assert "transcript sets were not stored" in by_alg["greedy"].error
        assert by_alg["rank"].correct and not by_alg["rank"].error
        assert violations == [by_alg["greedy"]]

    def test_run_exits_1(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", UNSTORED)
        assert cli.main(["run", "--instance", inst, "--alg", "greedy", "--out", str(tmp_path / "rec.json")]) == 1
        assert "transcript sets were not stored" in _one_line_error(capsys)

    def test_bench_exits_1(self, tmp_path, capsys):
        config = _write(tmp_path, "sweep.json", {"instances": [UNSTORED], "algorithms": ["greedy"]})
        assert cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")]) == 1
        assert "violations=1" in capsys.readouterr().out

    def test_verify_fails_each_strict_tag_and_runs_the_rest(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", UNSTORED)
        assert cli.main(["verify", "--instance", inst, "--all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        status = {line.split()[1].rstrip(":"): line.split()[0] for line in lines}
        assert status == {"greedy": "FAIL", "simple": "FAIL", "errdep": "FAIL", "robust": "FAIL",
                          "weighted": "PASS", "weighted-robust": "PASS", "rank": "PASS", "costly": "PASS"}
        assert all(" cert=unverified error=TranscriptNotStored: " in line for line in lines if line.startswith("FAIL"))
