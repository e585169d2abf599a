import itertools
import json

import pytest

from matoracle import bench, cli
from matoracle.bench import TAGS, InstanceSpec, InvalidSpec, family_instance, generate, run_trial, sweep
from matoracle.oracles import CertificateReport

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

# greedy's strict certificate above n = 4096
U4097 = {
    "n": 4097,
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

# an intersection instance whose clean sides are not partition matroids:
# warmstart applies, intersect-dirty does not
UNIFORM_PAIR = {
    "n": 6,
    "weights": "unit",
    "matroid": {"kind": "uniform", "k": 3},
    "matroid2": {"kind": "uniform", "k": 2},
    "dirty": {"mode": "identity"},
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

    @pytest.mark.parametrize("n", [4, 17])
    @pytest.mark.parametrize("field", ["matroid", "matroid2"])
    def test_explicit_clean_side_of_an_intersection_exits_2(self, tmp_path, capsys, n, field):
        # the clean reference is exact only for matroids: with {0} and
        # {1, 2} maximal, warmstart reported r = 1 although {1, 2} is common
        # independent, and only brute force at n = 4 caught it
        doc = {"n": n, "weights": "unit", "dirty": {"mode": "identity"},
               "matroid": {"kind": "uniform", "k": 2}, "matroid2": {"kind": "uniform", "k": 2}}
        doc[field] = {"kind": "explicit", "maximal_sets": [[0], [1, 2]]}
        inst, out = _write(tmp_path, "inst.json", doc), tmp_path / "out.json"
        for args in (["gen", "--spec", inst, "--out", str(out)],
                     ["run", "--instance", inst, "--alg", "warmstart", "--out", str(out)],
                     ["verify", "--instance", inst, "--all"]):
            assert cli.main(args) == 2
            err = _one_line_error(capsys)
            assert f"matoracle: invalid spec: {field}: explicit downward-closed systems" in err
            assert not out.exists()

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


    @pytest.mark.parametrize(
        "group, key",
        [({"family": "random", "params": {"n": 10, "kind": "graphic", "wieght_mode": "int"}}, "wieght_mode"),
         ({"family": "lb_rem", "params": {"n": 12, "r_d": 6, "eta_R": 2, "sede": 5}}, "sede"),
         ({"family": "random_intersection", "params": {"n": 8, "cap_raise": 2}}, "cap_raise")],
    )
    def test_gen_unknown_family_parameter_exits_2(self, tmp_path, capsys, group, key):
        out = tmp_path / "inst.json"
        assert cli.main(["gen", "--spec", _write(tmp_path, "spec.json", group), "--out", str(out)]) == 2
        err = _one_line_error(capsys)
        assert "matoracle: invalid spec: family.params: " in err and repr(key) in err
        assert repr(group["family"]) in err and "_family_" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "alg, flag, value",
        [("weighted", "--k", "3"), ("errdep", "--k", "2"), ("weighted", "--p", "4"), ("robust", "--p", "2")],
    )
    def test_run_unused_param_exits_2(self, tmp_path, capsys, alg, flag, value):
        # a k for a tag that takes none, or a p for any tag but costly, is
        # neither ignored nor written to the record
        inst = _write(tmp_path, "inst.json", LB_BASIC.to_json())
        args = ["run", "--instance", inst, "--alg", alg, flag, value, "--out", str(tmp_path / "rec.json")]
        assert cli.main(args) == 2
        assert f"matoracle: invalid spec: {flag[2:]}: " in _one_line_error(capsys)
        assert not (tmp_path / "rec.json").exists()

    def test_verify_passes_each_param_to_its_tags(self, tmp_path, capsys, monkeypatch):
        calls = []
        inner = cli.run_trial

        def spy(inst, algo, k, p):
            calls.append((algo, k, p))
            return inner(inst, algo, k, p)

        monkeypatch.setattr(cli, "run_trial", spy)
        inst = _write(tmp_path, "inst.json", LB_BASIC.to_json())
        assert cli.main(["verify", "--instance", inst, "--all", "--k", "2", "--p", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert {"robust", "weighted-robust", "costly", "errdep"} <= {algo for algo, _, _ in calls}
        for algo, k, p in calls:
            assert (k, p) == (2 if TAGS[algo].takes_k else None, 3 if algo == "costly" else None)

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


# a three-element instance whose integer fields the cases below replace
U13 = {"n": 3, "weights": "unit", "matroid": {"kind": "uniform", "k": 1}, "dirty": {"mode": "identity"}}
P3 = {"kind": "partition", "classes": [[0, 1, 2]], "caps": [1]}


@pytest.mark.parametrize(
    "field, doc",
    [("matroid", dict(U13, matroid={"kind": "uniform", "k": 1.5})),
     ("dirty", dict(U13, dirty={"mode": "matroid", "kind": "uniform", "k": 1.5})),
     ("matroid", dict(U13, matroid={"kind": "uniform", "k": True})),
     ("matroid", dict(U13, matroid=dict(P3, caps=[1.5]))),
     ("matroid", dict(U13, matroid=dict(P3, caps=[True]))),
     ("matroid", dict(U13, matroid={"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [0, 1.5]]})),
     ("matroid", dict(U13, matroid={"kind": "graphic", "vertices": True, "edges": [[0, 0]] * 3})),
     ("n", dict(U13, n=True)),
     ("dirty", dict(U13, matroid=P3, dirty={"mode": "perturb", "kind": "class_swap", "count": 1.7})),
     ("dirty", dict(U13, matroid=P3, dirty={"mode": "perturb", "kind": "class_swap", "count": 1, "seed": 1.5})),
     ("weights", dict(U13, weights=[True, False, 1]))],
)
def test_integer_fields_reject_other_numbers(tmp_path, capsys, field, doc):
    """A float or a JSON true in an integer field is neither truncated nor
    read as 1: gen and run exit 2 naming the field, and gen writes nothing."""
    spec, out = _write(tmp_path, "spec.json", doc), tmp_path / "out.json"
    for args in (["gen", "--spec", spec, "--out", str(out)],
                 ["run", "--instance", spec, "--alg", "greedy", "--out", str(out)]):
        assert cli.main(args) == 2
        assert _one_line_error(capsys).startswith(f"matoracle: invalid spec: {field}: ")
        assert not out.exists()


@pytest.mark.parametrize("idx", [True, -1, 3, 5, 1.0])
def test_stale_snapshot_edit_index_out_of_range(tmp_path, capsys, idx):
    """An edit index of a three-edge graph that is not an integer in 0..2
    makes gen exit 2 naming dirty, with no traceback and no file written."""
    graphic = {"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
    dirty = {"mode": "perturb", "kind": "stale_snapshot", "edits": [["set_edge", idx, 0, 0]]}
    spec, out = _write(tmp_path, "spec.json", dict(U13, matroid=graphic, dirty=dirty)), tmp_path / "out.json"
    assert cli.main(["gen", "--spec", spec, "--out", str(out)]) == 2
    assert _one_line_error(capsys).startswith("matoracle: invalid spec: dirty: ")
    assert not out.exists()


class TestFailedCertificate:
    """A strict certificate that fails is a violation for run, verify and
    bench alike."""

    @pytest.fixture(autouse=True)
    def failing_certificate(self, monkeypatch):
        monkeypatch.setattr(bench, "verify_certificate", lambda *args: CertificateReport(False, True, (0,)))

    def test_record_is_a_violation(self):
        rec = run_trial(LB_BASIC, "errdep")
        assert rec.certificate == "strict-fail" and rec.within_bound and rec.correct
        assert rec.violation

    def test_run_exits_1(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", LB_BASIC.to_json())
        assert cli.main(["run", "--instance", inst, "--alg", "errdep", "--out", str(tmp_path / "rec.json")]) == 1
        assert capsys.readouterr().out.rstrip().endswith("[VIOLATION]")

    def test_verify_fails_each_strict_tag(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", LB_BASIC.to_json())
        assert cli.main(["verify", "--instance", inst, "--all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL")]
        assert failed == [tag for tag, row in TAGS.items() if row.certificate == "strict"]
        assert all(line.endswith(" cert=strict-fail") for line in lines if line.startswith("FAIL"))

    def test_sweep_counts_one_violation(self):
        records, violations = sweep({"instances": [LB_BASIC_GROUP], "algorithms": ["errdep", "rank"]})
        assert [rec.algorithm for rec in violations] == ["errdep"]


class TestCertificateAtN4097:
    """At n = 4097 the strict certificate is checked from the ledger's kept
    sets like at any other n."""

    def test_run_trial_passes(self):
        rec = run_trial(InstanceSpec.from_dict(U4097), "greedy")
        assert (rec.clean_queries, rec.r, rec.r_d, rec.correct) == (4097, 4, 4, True)
        assert rec.certificate == "strict-pass" and not rec.violation and not rec.error

    def test_run_exits_0(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", U4097)
        assert cli.main(["run", "--instance", inst, "--alg", "greedy", "--out", str(tmp_path / "rec.json")]) == 0
        assert capsys.readouterr().out.rstrip().endswith("greedy: clean=4097 bound=None [ok]")

    def test_bench_exits_0(self, tmp_path, capsys):
        config = _write(tmp_path, "sweep.json", {"instances": [U4097], "algorithms": ["greedy"]})
        assert cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")]) == 0
        assert "violations=0" in capsys.readouterr().out

    def test_verify_prints_only_pass_lines(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", U4097)
        assert cli.main(["verify", "--instance", inst, "--all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        status = {line.split()[1].rstrip(":"): line.split()[0] for line in lines}
        assert status == dict.fromkeys(
            ["greedy", "simple", "errdep", "robust", "weighted", "weighted-robust", "rank", "costly"], "PASS"
        )
        strict = [line for line in lines if line.split()[1].rstrip(":") in ("greedy", "simple", "errdep", "robust")]
        assert len(strict) == 4 and all(line.endswith(" cert=strict-pass") for line in strict)
        assert lines[0] == "PASS greedy: clean=4097 bound=None correct=True cert=strict-pass"


class TestUnstoredTranscript:
    """U(4, 4097), one element past where the ledger once dropped its query
    sets: the sweep row and the verify lines carry the billed counts, and a
    failing strict certificate there is a violation like at any other n."""

    @pytest.fixture
    def failing_certificate(self, monkeypatch):
        monkeypatch.setattr(bench, "verify_certificate", lambda *args: CertificateReport(False, True, (0,)))

    def test_sweep_row_reports_the_billed_counts(self):
        records, violations = sweep({"instances": [U4097], "algorithms": ["greedy", "rank"]})
        assert violations == []
        by_alg = {rec.algorithm: rec for rec in records}
        rec = by_alg["greedy"]
        assert (rec.clean_ind_queries, rec.dirty_queries, rec.r, rec.r_d) == (4097, 4097, 4, 4)
        assert (rec.correct, rec.certificate, rec.error) == (True, "strict-pass", "")
        assert by_alg["rank"].correct and not by_alg["rank"].error

    def test_sweep_records_a_violation_row_and_continues(self, failing_certificate):
        records, violations = sweep({"instances": [U4097], "algorithms": ["greedy", "rank"]})
        by_alg = {rec.algorithm: rec for rec in records}
        assert by_alg["greedy"].certificate == "strict-fail" and by_alg["greedy"].correct
        assert by_alg["rank"].correct and not by_alg["rank"].error
        assert violations == [by_alg["greedy"]]

    def test_verify_fails_each_strict_tag_and_runs_the_rest(self, tmp_path, capsys, failing_certificate):
        inst = _write(tmp_path, "inst.json", U4097)
        assert cli.main(["verify", "--instance", inst, "--all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        status = {line.split()[1].rstrip(":"): line.split()[0] for line in lines}
        assert status == {"greedy": "FAIL", "simple": "FAIL", "errdep": "FAIL", "robust": "FAIL",
                          "weighted": "PASS", "weighted-robust": "PASS", "rank": "PASS", "costly": "PASS"}
        assert all(line.endswith(" cert=strict-fail") for line in lines if line.startswith("FAIL"))

    def test_verify_fail_line_reports_the_billed_counts(self, tmp_path, capsys, failing_certificate):
        inst = _write(tmp_path, "inst.json", U4097)
        assert cli.main(["verify", "--instance", inst, "--all"]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "FAIL greedy: clean=4097 bound=None correct=True cert=strict-fail"


class TestIntersectDirtyNeedsPartition:
    """intersect-dirty runs on partition clean matroids only; elsewhere it is
    rejected like any algorithm that does not apply."""

    def test_run_exits_2(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", UNIFORM_PAIR)
        args = ["run", "--instance", inst, "--alg", "intersect-dirty", "--out", str(tmp_path / "rec.json")]
        assert cli.main(args) == 2
        err = _one_line_error(capsys)
        assert "matoracle: invalid spec: matroid: intersect-dirty needs a partition matroid, got uniform" in err
        assert not (tmp_path / "rec.json").exists()

    def test_bench_writes_an_error_row(self, tmp_path, capsys):
        doc = {"instances": [UNIFORM_PAIR], "algorithms": ["intersect-dirty", "warmstart"]}
        config = _write(tmp_path, "sweep.json", doc)
        assert cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")]) == 0
        assert "violations=0" in capsys.readouterr().out
        rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and "intersect-dirty needs a partition matroid" in rows[0]

    def test_verify_runs_only_warmstart(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", UNIFORM_PAIR)
        assert cli.main(["verify", "--instance", inst, "--all"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS warmstart: ") and len(out.splitlines()) == 1


class TestUntracedBranches:
    """CLI branches that the other tests reach only through a subprocess, or
    not at all."""

    def test_run_off_family_pairquery_reports_the_violation(self, tmp_path, capsys):
        # rank-one clean under a rank-three dirty matroid: the output leaves
        # the clean family
        doc = {"n": 5, "weights": "unit", "matroid": {"kind": "uniform", "k": 1},
               "dirty": {"mode": "matroid", "kind": "uniform", "k": 3}}
        out = tmp_path / "rec.json"
        args = ["run", "--instance", _write(tmp_path, "inst.json", doc), "--alg", "pairquery", "--out", str(out)]
        assert cli.main(args) == 1
        assert capsys.readouterr().out.rstrip().endswith("[FamilyViolation]")
        rec = json.loads(out.read_text())
        assert (rec["error"], rec["correct"]) == ("FamilyViolation", False)

    def test_run_over_the_bound_reports_a_violation(self, tmp_path, capsys):
        # a family.eta of zeros understates the errors of an explicit dirty
        # system, which no rank check can see: errdep bills 16 clean queries
        # against the bound n - r + 1 = 7
        doc = {"n": 8, "weights": "unit",
               "matroid": {"kind": "partition", "classes": [[0, 1, 2, 3], [4, 5, 6, 7]], "caps": [1, 1]},
               "dirty": {"mode": "explicit", "maximal_sets": [[0, 1, 2, 3, 4, 5]]},
               "family": {"eta": {"eta_A": 0, "eta_R": 0}}}
        out = tmp_path / "rec.json"
        args = ["run", "--instance", _write(tmp_path, "inst.json", doc), "--alg", "errdep", "--out", str(out)]
        assert cli.main(args) == 1
        assert capsys.readouterr().out.rstrip().endswith(": clean=16 bound=7 [VIOLATION]")
        assert json.loads(out.read_text())["within_bound"] is False

    def test_run_reports_costly_total_cost(self, tmp_path, capsys):
        # costly's bound caps dirty + p * clean, not the 13 clean queries
        inst = _write(tmp_path, "inst.json", family_instance("lb_basic", n=16, r=5).to_json())
        args = ["run", "--instance", inst, "--alg", "costly", "--out", str(tmp_path / "rec.json")]
        assert cli.main(args) == 0
        assert capsys.readouterr().out.rstrip().endswith(" costly: cost=29 bound=29 [ok]")

    def test_verify_without_all_exits_2(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", LB_BASIC.to_json())
        assert cli.main(["verify", "--instance", inst]) == 2
        assert "nothing to do (pass --all)" in _one_line_error(capsys)

    def test_bench_array_config_exits_2(self, tmp_path, capsys):
        config = _write(tmp_path, "sweep.json", [LB_BASIC_GROUP])
        assert cli.main(["bench", "--config", config, "--out", str(tmp_path / "r.csv")]) == 2
        assert "a sweep config must be a JSON object" in _one_line_error(capsys)
        assert not (tmp_path / "r.csv").exists()

    def test_bench_plot_data(self, tmp_path, capsys):
        doc = {"instances": [LB_BASIC_GROUP], "algorithms": ["errdep", "robust"], "k": [1, 2]}
        plot = tmp_path / "plot.json"
        args = ["bench", "--config", _write(tmp_path, "sweep.json", doc), "--out", str(tmp_path / "r.csv"),
                "--plot-data", str(plot)]
        assert cli.main(args) == 0
        assert f"plot series -> {plot}" in capsys.readouterr().out
        series = json.loads(plot.read_text())
        assert sorted(pt["k"] for pt in series["by_k"]) == [1, 2]
        assert len(series["by_eta"]) == 3
