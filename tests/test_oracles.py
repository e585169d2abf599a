import random
from fractions import Fraction

import pytest

from matoracle import (
    GraphicMatroid,
    GroundSet,
    IncompatiblePerturbation,
    OraclePair,
    PartitionMatroid,
    PerturbationSpec,
    QueryLedger,
    UniformMatroid,
    compute_eta,
    greedy_basis,
    make_dirty,
    replay_record,
    verify_certificate,
)
from matoracle.core import ExplicitSystem, iter_bits
from matoracle.oracles import ROLE_CLEAN, ROLE_DIRTY

from conftest import fresh, make_pair, masks


def simple_pair(n=5, k=2, cost_p=1):
    g = GroundSet.unit(n)
    spec = UniformMatroid(g, k)
    return OraclePair(spec, spec, g, cost_p=cost_p)


class TestLedger:
    def test_dirty_call_counts_only_dirty(self):
        pair = simple_pair()
        pair.query_independent(ROLE_DIRTY, 0b11)
        assert pair.ledger.dirty_count == 1
        assert pair.ledger.clean_independence_count == 0
        assert pair.ledger.clean_rank_count == 0

    def test_empty_set_clean_query(self):
        pair = simple_pair()
        assert pair.query_independent(ROLE_CLEAN, 0) is True
        assert pair.ledger.clean_independence_count == 1

    def test_no_memoization_by_default(self):
        pair = simple_pair()
        pair.query_independent(ROLE_CLEAN, 0b11)
        pair.query_independent(ROLE_CLEAN, 0b11)
        assert pair.ledger.clean_independence_count == 2
        assert len(pair.ledger.transcript) == 2

    def test_unknown_role_rejected_unbilled(self):
        pair = simple_pair()
        with pytest.raises(ValueError, match="unknown oracle role"):
            pair.query_independent("oracle", 0b11)
        with pytest.raises(ValueError, match="unknown oracle role"):
            pair.query_rank("oracle", 0b11)
        assert pair.ledger.transcript == []

    def test_counts_match_transcript(self):
        pair = simple_pair()
        rng = random.Random(0)
        for _ in range(30):
            role = rng.choice([ROLE_CLEAN, ROLE_DIRTY])
            if rng.random() < 0.3:
                pair.query_rank(role, rng.randrange(32))
            else:
                pair.query_independent(role, rng.randrange(32))
        led = pair.ledger
        assert led.clean_independence_count == sum(
            1 for r in led.transcript if r.role == ROLE_CLEAN and r.kind == "ind"
        )
        assert led.clean_rank_count == sum(
            1 for r in led.transcript if r.role == ROLE_CLEAN and r.kind == "rank"
        )
        assert led.dirty_count == sum(1 for r in led.transcript if r.role == ROLE_DIRTY)

    def test_total_cost(self):
        pair = simple_pair(cost_p=3)
        pair.query_independent(ROLE_DIRTY, 0b1)
        pair.query_independent(ROLE_CLEAN, 0b1)
        pair.query_rank(ROLE_CLEAN, 0b11)
        assert pair.ledger.total_cost == 1 + 3 * 2

    def test_cost_p_rational_and_validated(self):
        pair = simple_pair(cost_p=Fraction(7, 2))
        assert pair.ledger.cost_p == Fraction(7, 2)
        with pytest.raises(ValueError):
            QueryLedger(4, cost_p=Fraction(1, 2))

    def test_replay_reproduces_answers(self):
        pair, bd = make_pair({"kind": "partition", "classes": [[0, 1, 2], [3, 4]], "caps": [2, 1]})
        greedy_basis(fresh(pair), ROLE_CLEAN)
        p2 = fresh(pair)
        greedy_basis(p2, ROLE_CLEAN)
        for rec in p2.ledger.transcript:
            assert replay_record(p2, rec) == rec.answer

    def test_export_lines_format(self):
        pair = simple_pair()
        pair.query_independent(ROLE_CLEAN, 0b101)
        line = pair.ledger.export_lines()[0]
        assert line == "0,clean,ind,1,5"

    def test_replay_determinism_bit_identical_transcripts(self, small_random_pairs):
        from matoracle import error_dependent_basis, robust_weighted_basis

        for pair, bd in small_random_pairs[:15]:
            runs = []
            for _ in range(2):
                p2 = fresh(pair)
                error_dependent_basis(bd.mask, p2)
                robust_weighted_basis(bd.mask, p2, 2)
                runs.append(p2.ledger.export_lines())
            assert runs[0] == runs[1]

    def test_size_guard_drops_sets(self):
        led = QueryLedger(5000)
        led.record(ROLE_CLEAN, "ind", True, 0b1)
        assert led.transcript[0].mask is None
        assert led.clean_independence_count == 1


class TestBilledRank:
    def test_rank_examples(self):
        pair = simple_pair(n=5, k=2)
        assert pair.query_rank(ROLE_CLEAN, 0) == 0
        assert pair.query_rank(ROLE_CLEAN, pair.ground.full_mask) == 2
        assert pair.ledger.clean_rank_count == 2

    def test_rank_on_perturbed_dirty_basis(self):
        g = GroundSet.unit(6)
        clean = PartitionMatroid(g, masks([0, 1, 2], [3, 4, 5]), [2, 1])
        dirty = PartitionMatroid(g, masks([0, 1, 2, 3], [4, 5]), [2, 1])
        pair0 = OraclePair(clean, dirty, g)
        bd = greedy_basis(pair0)
        pair = pair0.with_dirty_basis(bd.mask)
        got = pair.query_rank(ROLE_CLEAN, bd.mask)
        brute = max(
            m.bit_count()
            for m in range(1 << 6)
            if m & ~bd.mask == 0 and clean.is_independent_mask(m)
        )
        assert got == brute == pair.clean.rank_mask(bd.mask)


class TestMakeDirty:
    def test_identity_perturbation(self):
        g = GroundSet.unit(4)
        clean = PartitionMatroid(g, masks([0, 1], [2, 3]), [1, 1])
        dirty = make_dirty(clean, PerturbationSpec("class_swap", count=0, seed=1))
        pair = OraclePair(clean, dirty, g)
        rep = compute_eta(pair)
        assert (rep.eta_A, rep.eta_R) == (0, 0)

    def test_class_swap_moves_one_element(self):
        g = GroundSet.unit(4)
        clean = PartitionMatroid(g, masks([0, 1, 2], [3]), [2, 0])
        dirty = make_dirty(clean, PerturbationSpec("class_swap", count=1, seed=3))
        assert isinstance(dirty, PartitionMatroid)
        assert _single_element_move(clean, dirty)
        # determinism under the seed
        again = make_dirty(clean, PerturbationSpec("class_swap", count=1, seed=3))
        assert dirty.to_config() == again.to_config()

    def test_class_swap_error_shape(self):
        # moving the zero-cap element into the open class creates one
        # addition and one removal error
        g = GroundSet.unit(4)
        clean = PartitionMatroid(g, masks([0, 1, 2], [3]), [2, 0])
        dirty = PartitionMatroid(g, masks([0, 1, 2, 3]), [2])
        rep = compute_eta(OraclePair(clean, dirty, g))
        assert (rep.eta_A, rep.eta_R) == (1, 1)

    def test_stale_snapshot_example(self):
        # clean: triangle 0-1-2 plus pendant edge to 3; the snapshot replaces
        # the triangle chord with an edge closing a 4-cycle instead
        g = GroundSet.unit(4)
        clean = GraphicMatroid(g, 4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        pert = PerturbationSpec("stale_snapshot", edits=[("set_edge", 2, 3, 0)])
        dirty = make_dirty(clean, pert)
        assert dirty.edges[2] == (3, 0)
        rep = compute_eta(OraclePair(clean, dirty, g))
        assert (rep.eta_A, rep.eta_R) == (1, 1)

    def test_capacity_shift_and_edge_rewire_stay_valid(self):
        rng = random.Random(5)
        g = GroundSet.unit(6)
        clean_p = PartitionMatroid(g, masks([0, 1, 2], [3, 4, 5]), [2, 1])
        clean_g = GraphicMatroid(g, 4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
        for seed in range(6):
            d1 = make_dirty(clean_p, PerturbationSpec("capacity_shift", count=rng.randint(0, 3), seed=seed))
            assert isinstance(d1, PartitionMatroid)
            d2 = make_dirty(clean_g, PerturbationSpec("edge_rewire", count=rng.randint(0, 3), seed=seed))
            assert isinstance(d2, GraphicMatroid)
            # downward closure on random chains
            for _ in range(10):
                m = rng.randrange(1 << 6)
                if d1.is_independent_mask(m):
                    sub = m & rng.randrange(1 << 6)
                    assert d1.is_independent_mask(sub)
                if d2.is_independent_mask(m):
                    sub = m & rng.randrange(1 << 6)
                    assert d2.is_independent_mask(sub)

    def test_incompatible_perturbation(self):
        g = GroundSet.unit(3)
        clean = UniformMatroid(g, 2)
        with pytest.raises(IncompatiblePerturbation):
            make_dirty(clean, PerturbationSpec("class_swap", count=1))
        clean_p = PartitionMatroid(g, masks([0, 1, 2]), [2])
        with pytest.raises(IncompatiblePerturbation):
            make_dirty(clean_p, PerturbationSpec("edge_rewire", count=1))


class TestExplicitAsOracle:
    def test_explicit_clean_rejected(self):
        g = GroundSet.unit(3)
        ex = ExplicitSystem(g, masks([0, 1]))
        with pytest.raises(ValueError):
            OraclePair(ex, UniformMatroid(g, 1), g)

    def test_explicit_dirty_accepted(self):
        g = GroundSet.unit(3)
        ex = ExplicitSystem(g, masks([0, 1], [2]))
        pair = OraclePair(UniformMatroid(g, 2), ex, g)
        assert pair.query_independent(ROLE_DIRTY, 0b011) is True


class TestCertificates:
    def test_greedy_transcript_verifies(self, small_random_pairs):
        for pair, _ in small_random_pairs:
            p2 = fresh(pair)
            basis = greedy_basis(p2, ROLE_CLEAN)
            rep = verify_certificate(p2.ledger.transcript, basis.mask, p2.ground)
            assert rep.ok

    def test_single_basis_query_insufficient(self):
        pair = simple_pair(n=4, k=2)
        basis = 0b0011
        pair.query_independent(ROLE_CLEAN, basis)
        rep = verify_certificate(pair.ledger.transcript, basis, pair.ground)
        assert not rep.ok
        assert set(rep.unwitnessed) == {2, 3}

    def test_dirty_records_ignored(self):
        pair = simple_pair(n=2, k=2)
        greedy_basis(pair, ROLE_DIRTY)
        rep = verify_certificate(pair.ledger.transcript, 0b11, pair.ground)
        assert not rep.ok and not rep.independence_witnessed

    def test_one_pass_matches_per_element_definition(self):
        # reference: e is witnessed by a dependent clean record that contains
        # e and lies inside output + e; rank and dirty records never witness
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 8)
            pair = simple_pair(n=n, k=rng.randint(0, n))
            out = rng.getrandbits(n)
            for _ in range(rng.randint(0, 12)):
                mask = rng.getrandbits(n)
                if rng.random() < 0.6:
                    mask = (out & mask) | 1 << rng.randrange(n)
                query = rng.choice((pair.query_independent, pair.query_independent, pair.query_rank))
                query(rng.choice((ROLE_CLEAN, ROLE_CLEAN, ROLE_DIRTY)), mask)
            records = pair.ledger.transcript
            dep = [r.mask for r in records if r.role == ROLE_CLEAN and r.kind == "ind" and not r.answer]
            want = tuple(
                e for e in range(n)
                if not out >> e & 1 and not any(m >> e & 1 and m & ~(out | 1 << e) == 0 for m in dep)
            )
            rep = verify_certificate(records, out, pair.ground)
            assert rep.unwitnessed == want
            assert rep.ok == (rep.independence_witnessed and not want)

    def test_empty_output_needs_no_independence_witness(self):
        g = GroundSet.unit(2)
        spec = UniformMatroid(g, 0)
        pair = OraclePair(spec, spec, g)
        basis = greedy_basis(pair, ROLE_CLEAN)
        assert basis.mask == 0
        rep = verify_certificate(pair.ledger.transcript, 0, g)
        assert rep.ok


def _single_element_move(clean, dirty):
    """True iff dirty's classes equal clean's after relocating one element."""

    def classes_without(spec, e):
        return {frozenset(iter_bits(m & ~(1 << e))) - {-1} for m in spec.class_masks} - {frozenset()}

    same = {frozenset(iter_bits(m)) for m in clean.class_masks} == {
        frozenset(iter_bits(m)) for m in dirty.class_masks
    }
    if same:
        return False
    return any(classes_without(clean, e) == classes_without(dirty, e) for e in range(clean.n))
