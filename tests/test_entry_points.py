"""Every algorithm tag reaches its entry point through a module attribute.

An outside profiler or benchmark wraps these attributes to see each trial's
output and ledger.  A function object bound at import time inside ``bench``
would slip past such a wrapper, so each test replaces the attribute with a
recording pass-through and runs the trial through ``run_trial``.
"""

import re

import pytest

import matoracle.algorithms as alg_mod
import matoracle.bench as bench_mod
from matoracle import ElementSet, OraclePair, QueryLedger, cli
from matoracle.bench import ALGORITHMS, TAGS, family_instance, random_instance, random_intersection_instance, run_trial
from matoracle.oracles import ROLE_CLEAN

ENTRY_POINTS = {
    "greedy": (bench_mod, "greedy_basis"),
    "simple": (alg_mod, "simple_basis"),
    "errdep": (alg_mod, "error_dependent_basis"),
    "robust": (alg_mod, "robust_basis"),
    "weighted": (alg_mod, "weighted_basis"),
    "weighted-robust": (alg_mod, "robust_weighted_basis"),
    "rank": (alg_mod, "rank_oracle_basis"),
    "pairquery": (alg_mod, "pair_query_basis"),
    "costly": (alg_mod, "costly_strategies"),
    "intersect-dirty": (bench_mod, "dirty_intersection"),
    "warmstart": (bench_mod, "warm_start"),
}


def _instance(tag):
    if tag in ("intersect-dirty", "warmstart"):
        return random_intersection_instance(7, seed=3)
    if tag == "pairquery":
        return family_instance("pairquery", n=16, r_d=4, eta_A=10, seed=1)
    weight_mode = "int" if tag in ("weighted", "weighted-robust") else "unit"
    return random_instance(9, kind="partition", weight_mode=weight_mode, seed=4)


def test_every_tag_has_an_entry_point():
    assert set(ENTRY_POINTS) == set(ALGORITHMS)


def test_tag_entries_are_algorithms_functions():
    # a tag without an entry runs through bench's own import
    for tag, row in TAGS.items():
        if row.entry is None:
            assert ENTRY_POINTS[tag][0] is bench_mod
        else:
            assert callable(getattr(alg_mod, row.entry))
            assert ENTRY_POINTS[tag] == (alg_mod, row.entry)


def test_run_accepts_exactly_the_tags(capsys):
    assert ALGORITHMS == tuple(TAGS)
    with pytest.raises(SystemExit):
        cli.main(["run", "--instance", "inst.json", "--alg", "nope", "--out", "rec.json"])
    choices = capsys.readouterr().err.split("choose from", 1)[1]
    assert tuple(re.findall(r"[\w-]+", choices)) == tuple(TAGS)


@pytest.mark.parametrize("tag", ALGORITHMS)
def test_run_trial_calls_the_module_entry_point(tag, monkeypatch):
    owner, name = ENTRY_POINTS[tag]
    original = getattr(owner, name)
    calls = []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(owner, name, recording)
    rec = run_trial(_instance(tag), tag, k=2 if TAGS[tag].takes_k else None, p=3 if tag == "costly" else None)
    assert not rec.error and rec.correct
    if tag == "greedy":
        # the dirty basis first, then the clean run with the role positional
        assert [len(args) for args, _, _ in calls] == [1, 2]
        args, kwargs, output = calls[1]
        assert args[1] == ROLE_CLEAN and not kwargs
        ledger = args[0].ledger
    else:
        ((args, kwargs, result),) = calls
        output = result[0]
        if tag == "costly":
            assert isinstance(args[0], OraclePair)
            ledger = args[0].ledger
        else:
            ledger = result[1]
    assert isinstance(output, ElementSet) and isinstance(ledger, QueryLedger)
    # the basis mask an outside benchmark reads: a plain int over 0..n-1
    assert type(output.mask) is int and output.mask >= 0 and not output.mask >> output.n
    assert output.n == rec.n
    assert (ledger.clean_independence_count, ledger.clean_rank_count, ledger.dirty_count) == (
        rec.clean_ind_queries, rec.clean_rank_queries, rec.dirty_queries
    )
