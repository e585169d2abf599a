"""Golden-transcript gate for refactors.

Runs a fixed grid of (instance, algorithm, k, p) trials through
``bench.run_trial`` and pins two sha256 digests:

- ``LEDGER_DIGEST`` over the ``export_lines()`` of every non-empty ledger a
  trial creates (clean and dirty transcripts);
- ``RECORD_DIGEST`` over every ``TrialRecord.to_json()`` with the
  ``wall_time_s`` field dropped.

A change that alters no query, answer, order or record leaves both digests
unchanged.  A change that is meant to alter transcripts (a new algorithm
variant, a changed tie-break) updates the digests in the same change and
says why.
"""

import hashlib
import json
import random

import pytest

from matoracle import oracles
from matoracle.bench import (
    TAGS,
    InstanceSpec,
    family_instance,
    random_instance,
    random_intersection_instance,
    run_trial,
)

LEDGER_DIGEST = "9c6be8dd51f6f8795389f8ae6dee63c1289e5647c38df784785a801a398572eb"
RECORD_DIGEST = "d5a8d9fb6cd596c01890e600158ba23308b5326d958cac954ad87d689eca9faf"

BASIS_SIZES = (1, 5, 9, 13, 40, 200)
SMALL_SIZES = (6, 10, 14, 24)
EXPLICIT_SIZES = (6, 10)
PREDICTED_SIZES = (5, 13, 40)
KS = (1, 2, 3, 5)
PS = (1, 4)
SEEDS = (1, 2)
UNIT_TAGS = ("greedy", "simple", "errdep", "robust", "weighted", "weighted-robust", "rank", "pairquery", "costly")


def _family_params(tag, n):
    if tag == "lb_basic":
        return {"n": n, "r": n // 2}
    if tag == "lb_add":
        return {"n": n, "r_d": n // 2, "eta_A": max(1, n // 4), "seed": n}
    if tag == "lb_rem":
        return {"n": n, "r_d": n // 2, "eta_R": max(1, n // 6), "seed": n}
    if tag == "pairquery":
        return {"n": n, "r_d": n // 3, "eta_A": n - n // 3, "seed": n}
    return {"n": n}


def _explicit_dirty_instance(n, seed):
    # not-necessarily-matroid dirty systems take their own maximal-set path
    # through the error oracle
    rng = random.Random(seed)
    sets = [sorted(rng.sample(range(n), rng.randint(1, n - 1))) for _ in range(3)]
    clean = random_instance(n, seed=seed).matroid
    return InstanceSpec(n=n, weights="unit", matroid=clean, dirty={"mode": "explicit", "maximal_sets": sets}, seed=seed)


def _predicted_basis_instance(n, kind, weight_mode, seed):
    # a predicted-basis dirty oracle: a random subset of the ground set, over
    # the clean matroid and weights of a random instance
    rng = random.Random(seed)
    inst = random_instance(n, kind=kind, weight_mode=weight_mode, seed=seed)
    basis = [e for e in range(n) if rng.random() < 0.5]
    return InstanceSpec(n=n, weights=inst.weights, matroid=inst.matroid,
                        dirty={"mode": "predicted_basis", "basis": basis}, seed=seed)


def _instances():
    for kind in ("partition", "graphic", "uniform"):
        for weight_mode in ("unit", "int"):
            for n in BASIS_SIZES:
                for seed in SEEDS:
                    yield random_instance(n, kind=kind, weight_mode=weight_mode, seed=7 * n + seed)
    for n in SMALL_SIZES:
        for tag in ("lb_basic", "lb_add", "lb_rem", "lb_weighted", "pairquery", "adversarial"):
            yield family_instance(tag, **_family_params(tag, n))
        for seed in SEEDS:
            yield random_intersection_instance(n, seed=7 * n + seed)
    for n in EXPLICIT_SIZES:
        for seed in SEEDS:
            yield _explicit_dirty_instance(n, 7 * n + seed)
    for kind in ("partition", "graphic", "uniform"):
        for weight_mode in ("unit", "int"):
            for n in PREDICTED_SIZES:
                yield _predicted_basis_instance(n, kind, weight_mode, 11 * n + len(kind))


def _trials(inst):
    if inst.is_intersection:
        tags = [tag for tag, row in TAGS.items() if row.intersection]
    elif inst.weights == "unit":
        tags = UNIT_TAGS
    else:
        tags = [tag for tag, row in TAGS.items() if not (row.unit_only or row.intersection)]
    for tag in tags:
        if tag in ("robust", "weighted-robust"):
            for k in KS:
                yield tag, k, None
        elif tag == "costly":
            for p in PS:
                yield tag, None, p
        else:
            yield tag, None, None


def _digests(monkeypatch):
    ledgers = []
    original_init = oracles.QueryLedger.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        ledgers.append(self)

    monkeypatch.setattr(oracles.QueryLedger, "__init__", tracking_init)
    ledger_hash = hashlib.sha256()
    record_hash = hashlib.sha256()
    for inst in _instances():
        for tag, k, p in _trials(inst):
            key = f"{inst.instance_id} {tag} k={k} p={p}\n"
            del ledgers[:]
            try:
                rec = run_trial(inst, tag, k=k, p=p)
            except ValueError as exc:
                record_hash.update(f"{key}{type(exc).__name__}: {exc}\n".encode())
            else:
                doc = json.loads(rec.to_json())
                del doc["wall_time_s"]
                record_hash.update((key + json.dumps(doc, sort_keys=True) + "\n").encode())
            ledger_hash.update(key.encode())
            for ledger in ledgers:
                lines = ledger.export_lines()
                if lines:
                    ledger_hash.update(("\n".join(lines) + "\n--\n").encode())
    return ledger_hash.hexdigest(), record_hash.hexdigest()


def test_golden_transcripts_and_records(monkeypatch):
    monkeypatch.delenv("MATORACLE_GUARD_N", raising=False)
    ledger_digest, record_digest = _digests(monkeypatch)
    assert ledger_digest == LEDGER_DIGEST
    assert record_digest == RECORD_DIGEST


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    try:
        mp.delenv("MATORACLE_GUARD_N", raising=False)
        print(*_digests(mp), sep="\n")
    finally:
        mp.undo()
