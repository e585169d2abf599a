import random
from fractions import Fraction

import pytest

from matoracle import (
    GraphicMatroid,
    GroundSet,
    IncompatiblePerturbation,
    OraclePair,
    PartitionMatroid,
    QueryLedger,
    UniformMatroid,
    compute_eta,
    greedy_basis,
    make_dirty,
    verify_certificate,
)
from matoracle.core import ExplicitSystem, iter_bits
from matoracle.intersection import IntersectionOracles
from matoracle.oracles import ROLE_CLEAN, ROLE_DIRTY, QueryRecord

from conftest import fresh, make_pair, masks


def _columns_and_counts(led):
    counts = (led.clean_independence_count, led.clean_rank_count, led.dirty_count)
    return bytes(led._codes), list(led._answers), list(zip(led._changes, led._shifts, led._bulk)), counts


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
        pair.query_scan(ROLE_CLEAN, 0b1, 0b101)
        # the graph of X = {0} over {0, 1}, one row of X + y and X + y - x
        # for y = 1, whose X + y is known dependent in matroid 2: 3 billed
        # records, not 4
        g = GroundSet.unit(2)
        one_class = PartitionMatroid(g, masks([0, 1]), [1])
        ox = IntersectionOracles(g, UniformMatroid(g, 2), one_class, UniformMatroid(g, 2), one_class)
        ox.query_rows(ROLE_CLEAN, 0b1, [0], [1], known_false=((), (0b11,)))
        ox.query_independent(ROLE_DIRTY, 2, 0b1)
        assert [(r.kind, r.mask) for r in ox.ledger.transcript[:3]] == [("ind1", 0b11), ("ind1", 0b10), ("ind2", 0b10)]
        for led in (pair.ledger, ox.ledger):
            assert led.clean_independence_count == sum(
                1 for r in led.transcript if r.role == ROLE_CLEAN and r.kind in ("ind", "ind1", "ind2")
            )
            assert led.clean_rank_count == sum(
                1 for r in led.transcript if r.role == ROLE_CLEAN and r.kind == "rank"
            )
            assert led.dirty_count == sum(1 for r in led.transcript if r.role == ROLE_DIRTY)
        assert (ox.ledger.clean_independence_count, ox.ledger.clean_rank_count, ox.ledger.dirty_count) == (3, 0, 1)

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
            QueryLedger(cost_p=Fraction(1, 2))

    def test_replay_reproduces_answers(self):
        pair, bd = make_pair({"kind": "partition", "classes": [[0, 1, 2], [3, 4]], "caps": [2, 1]})
        greedy_basis(fresh(pair), ROLE_CLEAN)
        p2 = fresh(pair)
        greedy_basis(p2, ROLE_CLEAN)
        for rec in p2.ledger.transcript:
            assert int(p2.clean.is_independent_mask(rec.mask)) == rec.answer

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

    @pytest.mark.parametrize("n", [12, 4097])
    def test_columns_match_a_record_list(self, n):
        # the columns give back what a list of QueryRecord tuples would hold,
        # with singles, greedy passes, prefix-walk runs and exchange graphs
        # interleaved; a kept mask may repeat the one before it (no change),
        # lose bits or gain them, and a bulk append may start from the
        # single's set before it
        rng = random.Random(n)
        led = QueryLedger()
        order = tuple(rng.sample(range(n), n))
        kinds = ["ind", "rank", "ind1", "ind2"]
        want = []
        last = 0  # the mask the ledger kept last

        def expect(role, kind, answer, mask):
            want.append(QueryRecord(role, kind, int(answer), mask))

        def next_mask():
            # the last mask again, a subset of it, a superset of it, or a
            # fresh one
            pick = rng.random()
            if pick < 0.2:
                return last
            if pick < 0.4:
                return last & rng.getrandbits(n)
            if pick < 0.6:
                return last | 1 << rng.randrange(n)
            return rng.getrandbits(n)

        for _ in range(300):
            role, append = rng.choice([ROLE_CLEAN, ROLE_DIRTY]), rng.random()
            if append < 0.1:
                cur = last = next_mask()
                candidates = rng.sample(range(n), rng.randint(0, 8))
                answers = [rng.random() < 0.5 for _ in candidates]
                led.record_scan(role, cur, candidates, answers)
                for e, ok in zip(candidates, answers):
                    expect(role, "ind", ok, cur | 1 << e)
                    cur |= ok << e
            elif append < 0.2:
                x_mask = last if rng.random() < 0.3 else sum(1 << e for e in rng.sample(range(n), rng.randint(0, 3)))
                last = x_mask
                inside = list(iter_bits(x_mask))
                outside = sorted(rng.sample([y for y in range(n) if not x_mask >> y & 1], rng.randint(0, 5)))
                rows = [[[rng.random() < 0.5 for _ in range(len(inside) + 1)] for _ in outside] for _ in range(2)]
                records = [
                    (f"ind{k + 1}", rows[k][r][i], mask)
                    for r, y in enumerate(outside)
                    for i, mask in enumerate([x_mask | 1 << y, *[x_mask & ~(1 << x) | 1 << y for x in inside]])
                    for k in (0, 1)
                ]
                unbilled = set(rng.sample(range(len(records)), min(len(records), rng.randint(0, 2))))
                led.record_graph(role, x_mask, inside, outside, *rows, unbilled)
                for p, record in enumerate(records):
                    if p not in unbilled:
                        expect(role, *record)
            elif append < 0.3:
                cur, skip = next_mask(), rng.getrandbits(n)
                last = cur
                start = rng.choice([0, n, rng.randrange(n)])
                candidates = [p for p in range(start, n) if not skip >> order[p] & 1][: rng.randint(0, 8)]
                answers = [False] * len(candidates)
                if answers and rng.random() < 0.7:
                    answers[-1] = True
                led.record_prefix_pass(role, cur, order, start, skip, answers)
                for p, ok in zip(candidates, answers):
                    prefix = sum(1 << e for e in order[: p + 1])
                    expect(role, "ind", ok, (cur | 1 << order[p]) & prefix)
            else:
                kind = rng.choice(kinds)
                answer = rng.randrange(n) if kind == "rank" else rng.random() < 0.5
                mask = last = next_mask()
                led.record(role, kind, answer, mask)
                expect(role, kind, answer, mask)
        assert led.transcript == want
        assert list(led.records()) == want
        assert all(type(rec.answer) is int for rec in led.transcript)
        assert led.export_lines() == [f"{seq},{r.role},{r.kind},{r.answer},{r.mask:x}" for seq, r in enumerate(want)]
        # each change is kept shifted down past its zero low bits, so it is
        # odd or zero, and a bulk append that starts from the single's set
        # before it keeps a zero change
        assert all(change & 1 for change in led._changes if change)
        kept = list(zip(led._changes, led._bulk))
        assert any(bulk is not None and change == 0 and prev is None for (_, prev), (change, bulk) in zip(kept, kept[1:]))
        clean = [r for r in want if r.role == ROLE_CLEAN]
        assert led.clean_rank_count == sum(r.kind == "rank" for r in clean)
        assert led.clean_independence_count == len(clean) - led.clean_rank_count
        assert led.dirty_count == len(want) - len(clean)

    def test_prefix_runs_over_two_orders_and_a_start_behind(self):
        # a read carries each run's prefix mask from the run before while the
        # order stays and the start does not go back; runs that walk forward
        # between singles and passes, switch to a second order (as
        # with_dirty_basis does on a shared ledger), come back to the first
        # order past where it stopped, or start behind, all read as their
        # per-query records
        rng = random.Random(5)
        n = 40
        orders = [tuple(rng.sample(range(n), n)) for _ in range(2)]
        led, want = QueryLedger(), []
        for which, start in [(0, 0), (0, 7), (0, 15), (1, 3), (1, 20), (0, 21), (0, 9), (0, 30), (1, 0)]:
            order = orders[which]
            cur, skip = rng.getrandbits(n), rng.getrandbits(n)
            positions = [p for p in range(start, n) if not skip >> order[p] & 1][: rng.randint(1, 6)]
            answers = [False] * (len(positions) - 1) + [True]
            led.record_prefix_pass(ROLE_CLEAN, cur, order, start, skip, answers)
            for p, ok in zip(positions, answers):
                prefix = sum(1 << e for e in order[: p + 1])
                want.append(QueryRecord(ROLE_CLEAN, "ind", int(ok), (cur | 1 << order[p]) & prefix))
            mask = rng.getrandbits(n)
            if rng.random() < 0.5:
                led.record(ROLE_DIRTY, "ind", True, mask)
                want.append(QueryRecord(ROLE_DIRTY, "ind", 1, mask))
            else:
                led.record_scan(ROLE_DIRTY, mask, [0], [False])
                want.append(QueryRecord(ROLE_DIRTY, "ind", 0, mask | 1))
        assert list(led.records()) == want

    def test_transcript_ignores_later_edits_of_the_arguments(self):
        # a pass, a run or a graph keeps its own copy of what it was given
        led = QueryLedger()
        candidates, answers = [1, 2, 3], [True, False, True]
        led.record_scan(ROLE_CLEAN, 0b1, candidates, answers)
        inside, outside = [0], [1, 2]
        rows1, rows2 = [[True, False], [False, True]], [[True, True], [False, False]]
        unbilled = {1}
        led.record_graph(ROLE_DIRTY, 0b1, inside, outside, rows1, rows2, unbilled)
        run = [False, True]
        led.record_prefix_pass(ROLE_CLEAN, 0b1, tuple(range(8)), 2, 0b1000, run)
        before = led.export_lines()
        assert len(before) == 3 + 2 * 2 * 2 - 1 + 2
        assert before[-2:] == ["10,clean,ind,0,5", "11,clean,ind,1,11"]
        candidates[:], answers[:] = [5, 6, 7], [False] * 3
        inside[:], outside[:] = [4], [6, 7]
        rows1[0][0], rows2[1][:] = False, [True, True]
        unbilled.add(0)
        run[:] = [True] * 5
        assert led.export_lines() == before

    def test_rank_answer_above_a_byte(self):
        g = GroundSet.unit(400)
        pair = OraclePair(UniformMatroid(g, 300), UniformMatroid(g, 300), g)
        assert pair.query_rank(ROLE_CLEAN, g.full_mask) == 300
        assert pair.ledger.transcript == [QueryRecord(ROLE_CLEAN, "rank", 300, g.full_mask)]
        assert pair.ledger.export_lines() == [f"0,clean,rank,300,{g.full_mask:x}"]

    def test_unknown_role_leaves_the_columns(self):
        led = QueryLedger()
        led.record(ROLE_DIRTY, "ind2", False, 0b11)
        before = _columns_and_counts(led)
        assert before[3] == (0, 0, 1)
        with pytest.raises(ValueError, match="unknown oracle role"):
            led.record("oracle", "ind", True, 0b1)
        assert _columns_and_counts(led) == before
        assert led.transcript == [QueryRecord(ROLE_DIRTY, "ind2", 0, 0b11)]
        with pytest.raises(ValueError, match="unknown oracle role"):
            led.record_graph("oracle", 0b1, [0], [1], [[True, True]], [[False, True]])
        assert _columns_and_counts(led) == before
        with pytest.raises(ValueError, match="unknown oracle role"):
            led.record_scan("oracle", 0, [0, 1], [True, False])
        assert _columns_and_counts(led) == before
        with pytest.raises(ValueError, match="unknown oracle role"):
            led.record_prefix_pass("oracle", 0, tuple(range(8)), 0, 0, [False, True])
        assert _columns_and_counts(led) == before

    def test_unknown_role_scan_touches_nothing(self):
        g = GroundSet.unit(6)
        pair = OraclePair(PartitionMatroid(g, masks([0, 1, 2], [3, 4, 5]), [1, 2]), UniformMatroid(g, 3), g)
        with pytest.raises(ValueError, match="unknown oracle role"):
            pair.query_scan("oracle", 0b1)
        assert _columns_and_counts(pair.ledger) == (b"", [], [], (0, 0, 0))
        clean_eval = pair._evals[ROLE_CLEAN]
        assert clean_eval.state is None and clean_eval.anchor == 0

    @pytest.mark.parametrize(
        "query",
        [
            lambda pair, ox: pair.query_independent("oracle", 0b11),
            lambda pair, ox: pair.query_rank("oracle", 0b11),
            lambda pair, ox: pair.query_scan("oracle", 0b1),
            lambda pair, ox: pair.query_prefix_pass("oracle", 0b1, 0),
            lambda pair, ox: ox.query_independent("oracle", 1, 0b11),
            lambda pair, ox: ox.query_rows("oracle", 0b1, [0], [1, 2, 3, 4, 5]),
        ],
        ids=[
            "pair.query_independent",
            "pair.query_rank",
            "pair.query_scan",
            "pair.query_prefix_pass",
            "ox.query_independent",
            "ox.query_rows",
        ],
    )
    def test_unknown_role_evaluates_nothing(self, query):
        # partition evaluators on both sides keep state, so an evaluation
        # before the role is rejected would show in state or anchor
        g = GroundSet.unit(6)
        p1 = PartitionMatroid(g, masks([0, 1, 2], [3, 4, 5]), [1, 2])
        p2 = PartitionMatroid(g, masks([0, 3], [1, 4], [2, 5]), [1, 1, 1])
        pair = OraclePair(p1, p2, g)
        ox = IntersectionOracles(g, p1, p2, p2, p1)
        with pytest.raises(ValueError, match="unknown oracle role"):
            query(pair, ox)
        evals = [*pair._evals.values(), *ox._evals[ROLE_CLEAN], *ox._evals[ROLE_DIRTY]]
        assert len(evals) == 6
        assert all(ev.state is None and ev.anchor == 0 for ev in evals)
        assert all(walk.skip is None for walk in pair._walks.values())
        for led in (pair.ledger, ox.ledger):
            assert _columns_and_counts(led) == (b"", [], [], (0, 0, 0))

    @pytest.mark.parametrize("n", [12, 4097])
    def test_row_equals_its_records(self, n):
        # the rows of one graph bill as their records one by one, y by y and
        # set by set, ind1 then ind2, less the unbilled positions of that
        # order; at the larger n X has at most two elements, so a graph
        # stays near 6n records
        rng = random.Random(n)
        by_graph, by_record = QueryLedger(), QueryLedger()
        for _ in range(40 if n < 100 else 3):
            role = rng.choice([ROLE_CLEAN, ROLE_DIRTY])
            x_mask = rng.getrandbits(n) if n < 100 else 1 << rng.randrange(n) | 1 << rng.randrange(n)
            inside = list(iter_bits(x_mask))
            outside = [y for y in range(n) if not x_mask >> y & 1]
            answers = [[[rng.random() < 0.5 for _ in range(len(inside) + 1)] for _ in outside] for _ in range(2)]
            size = 2 * len(outside) * (len(inside) + 1)
            unbilled = rng.sample(range(size), min(size, rng.randint(0, 2)))
            by_graph.record_graph(role, x_mask, inside, outside, *answers, unbilled)
            records = [
                (f"ind{k + 1}", answers[k][r][i], mask)
                for r, y in enumerate(outside)
                for i, mask in enumerate([x_mask | 1 << y, *[x_mask & ~(1 << x) | 1 << y for x in inside]])
                for k in (0, 1)
            ]
            for p, (kind, answer, mask) in enumerate(records):
                if p not in unbilled:
                    by_record.record(role, kind, answer, mask)
        assert by_graph.transcript == by_record.transcript
        assert (by_graph.clean_count, by_graph.dirty_count) == (by_record.clean_count, by_record.dirty_count)

    @pytest.mark.parametrize("n", [12, 4097])
    def test_scan_equals_its_queries(self, n):
        # a billed pass records what one query per candidate records, with
        # single queries before, between and after the passes
        rng = random.Random(n)
        g = GroundSet([rng.randint(0, 3) for _ in range(n)], rng.getrandbits(n))
        classes = [[e for e in range(n) if e % 5 == c] for c in range(5)]
        clean = PartitionMatroid(g, masks(*classes), [rng.randint(0, len(c)) for c in classes])
        dirty = UniformMatroid(g, rng.randint(0, n))
        by_scan, by_query = OraclePair(clean, dirty, g), OraclePair(clean, dirty, g)
        for _ in range(4):
            role = rng.choice([ROLE_CLEAN, ROLE_DIRTY])
            cur = rng.choice([0, rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)])
            skip = cur | rng.getrandbits(n) & rng.getrandbits(n)
            got = by_scan.query_scan(role, cur, skip)
            for e in g.order:
                if not skip >> e & 1 and by_query.query_independent(role, cur | 1 << e):
                    cur |= 1 << e
            assert got == cur
            single = rng.getrandbits(n)
            for pair in (by_scan, by_query):
                pair.query_independent(role, single)
        led_s, led_q = by_scan.ledger, by_query.ledger
        assert led_s.export_lines() == led_q.export_lines()
        assert (led_s.clean_independence_count, led_s.clean_rank_count, led_s.dirty_count) == (
            led_q.clean_independence_count, led_q.clean_rank_count, led_q.dirty_count)


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
        dirty = make_dirty(clean, {"kind": "class_swap", "count": 0, "seed": 1})
        pair = OraclePair(clean, dirty, g)
        rep = compute_eta(pair)
        assert (rep.eta_A, rep.eta_R) == (0, 0)

    def test_class_swap_moves_one_element(self):
        g = GroundSet.unit(4)
        clean = PartitionMatroid(g, masks([0, 1, 2], [3]), [2, 0])
        dirty = make_dirty(clean, {"kind": "class_swap", "count": 1, "seed": 3})
        assert isinstance(dirty, PartitionMatroid)
        assert _single_element_move(clean, dirty)
        # determinism under the seed
        again = make_dirty(clean, {"kind": "class_swap", "count": 1, "seed": 3})
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
        pert = {"kind": "stale_snapshot", "edits": [("set_edge", 2, 3, 0)]}
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
            d1 = make_dirty(clean_p, {"kind": "capacity_shift", "count": rng.randint(0, 3), "seed": seed})
            assert isinstance(d1, PartitionMatroid)
            d2 = make_dirty(clean_g, {"kind": "edge_rewire", "count": rng.randint(0, 3), "seed": seed})
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
            make_dirty(clean, {"kind": "class_swap", "count": 1})
        clean_p = PartitionMatroid(g, masks([0, 1, 2]), [2])
        with pytest.raises(IncompatiblePerturbation):
            make_dirty(clean_p, {"kind": "edge_rewire", "count": 1})


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

    def test_one_shot_stream_gives_the_list_report(self, small_random_pairs):
        # the records are read once, as they are decoded; outputs with one
        # element dropped or added fail the same way from both
        from matoracle import error_dependent_basis

        for pair, bd in small_random_pairs:
            p2 = fresh(pair)
            basis, led = error_dependent_basis(bd.mask, p2)
            g = p2.ground
            for out in {basis.mask, basis.mask & (basis.mask - 1), basis.mask | (g.full_mask & ~basis.mask) & 1}:
                want = verify_certificate(led.transcript, out, g)
                assert verify_certificate(led.records(), out, g) == want
                assert verify_certificate(iter(led.transcript), out, g) == want

    @pytest.mark.parametrize(
        "alg, spec",
        [
            ("greedy", {"matroid": {"kind": "uniform", "k": 4096}, "dirty": {"kind": "uniform", "k": 4080}}),
            (
                "errdep",
                {
                    "matroid": {"kind": "partition", "classes": [list(range(c, 8192, 4)) for c in range(4)],
                                "caps": [1024] * 4},
                    "dirty": {"kind": "partition", "classes": [list(range(c, 8192, 4)) for c in range(4)],
                              "caps": [1016] * 4},
                },
            ),
        ],
        ids=["greedy-uniform", "errdep-partition4"],
    )
    def test_strict_pass_at_n_8192(self, alg, spec):
        from matoracle.bench import InstanceSpec, run_trial

        doc = {"n": 8192, "weights": "unit", "matroid": spec["matroid"], "dirty": {"mode": "matroid", **spec["dirty"]}}
        rec = run_trial(InstanceSpec.from_dict(doc), alg)
        assert (rec.certificate, rec.correct, rec.violation) == ("strict-pass", True, False)

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
