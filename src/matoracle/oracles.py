"""Billed oracle wrappers with transcripts, dirty-oracle construction, and the
certificate verifier.

Every billed call appends one record to the run's :class:`QueryLedger`; the
ledger's counts are the artifact's central measured quantity.  Dirty calls
are free under the default cost model but still counted and recorded.
"""

from __future__ import annotations

import random
from fractions import Fraction
from array import array
from itertools import chain
from typing import NamedTuple

from .core import (
    ElementSet,
    ExplicitSystem,
    GraphicMatroid,
    PartitionMatroid,
    iter_bits,
)

ROLE_CLEAN = "clean"
ROLE_DIRTY = "dirty"

KIND_IND = "ind"
KIND_RANK = "rank"
# independence kind of each intersection matroid, by its index 1 or 2
KIND_IND_OF = {1: "ind1", 2: "ind2"}

# one byte per record: the index of its (role, kind) in this table
RECORD_CODES = tuple(
    (role, kind) for role in (ROLE_CLEAN, ROLE_DIRTY) for kind in (KIND_IND, KIND_RANK, *KIND_IND_OF.values())
)
# role -> kind -> code
_CODE_OF = {
    role: {kind: code for code, (r, kind) in enumerate(RECORD_CODES) if r == role} for role in (ROLE_CLEAN, ROLE_DIRTY)
}


def by_role(table, role):
    """The entry of role in table, a dict keyed by oracle role; a ValueError
    for any other role."""
    try:
        return table[role]
    except (KeyError, TypeError):
        raise ValueError(f"unknown oracle role {role!r}") from None


class IncompatiblePerturbation(ValueError):
    """Perturbation kind does not apply to the given matroid kind."""


class QueryRecord(NamedTuple):
    role: str
    kind: str
    answer: int
    mask: int


class _Prefixes:
    """Masks of the first positions of a canonical order, asked run by run
    of the prefix walks in a ledger's record order (see _PrefixPass): the
    mask is carried from one run's start to the next while the order stays
    the same and the start does not go back, and built from position 0
    otherwise, so a walk that goes forward costs one step per position."""

    def __init__(self):
        self.order, self.pos, self.prefix = None, 0, 0

    def mask(self, order, start):
        """The mask of order[:start]."""
        if order is not self.order or start < self.pos:
            self.order, self.pos, self.prefix = order, 0, 0
        prefix = self.prefix
        for p in range(self.pos, start):
            prefix |= 1 << order[p]
        self.pos, self.prefix = start, prefix
        return prefix


class _Scan(NamedTuple):
    """The query sets of one greedy pass from its mask cur (see
    QueryLedger.record_scan)."""

    candidates: tuple
    answers: tuple

    def sets(self, cur, _prefixes):
        for e, ok in zip(self.candidates, self.answers):
            grown = cur | 1 << e
            yield grown
            if ok:
                cur = grown


class _PrefixPass(NamedTuple):
    """The query sets of one run of a prefix walk from its mask cur (see
    QueryLedger.record_prefix_pass)."""

    order: tuple
    start: int
    skip: int
    size: int

    def sets(self, cur, prefixes):
        # e plus cur's members below e's position, for each e outside skip
        # from position start on
        order, skip, size = self.order, self.skip, self.size
        below = cur & prefixes.mask(order, self.start)
        for p in range(self.start, len(order)):
            if not size:
                break
            bit = 1 << order[p]
            if not skip & bit:
                yield below | bit
                size -= 1
            below |= cur & bit


class _Graph(NamedTuple):
    """The query sets of one exchange graph from its mask X (see
    QueryLedger.record_graph)."""

    inside: tuple
    outside: tuple
    unbilled: tuple

    def sets(self, x_mask, _prefixes):
        # X, then X - x for each x of inside, each with y added, once for
        # ind1 and once for ind2
        base = [x_mask, *[x_mask ^ 1 << x for x in self.inside]]
        sets = ((s | 1 << y) for y in self.outside for s in base for _kind in (1, 2))
        return (s for p, s in enumerate(sets) if p not in self.unbilled)


class QueryLedger:
    """Per-run transcript of clean and dirty oracle queries.

    Records are kept in columns: a code byte per record (its index in
    RECORD_CODES) and a list of answers.  The query sets are kept per
    append: one mask per single record, greedy pass (its cur), prefix-walk
    run (its cur) or exchange graph (its X), and for each of the last three
    a descriptor from which its sets are built when the records are read.
    Each kept mask is coded as its change from the mask kept before it: the
    XOR of the two, shifted down past its zero low bits, and the shift.  The
    counts are read from the code column; no tally is kept beside it."""

    def __init__(self, cost_p=1):
        self.cost_p = Fraction(cost_p)
        if self.cost_p < 1:
            raise ValueError("clean-call cost p must be >= 1")
        self._codes = bytearray()
        self._answers = []  # a list, not bytes: a rank answer can exceed 255
        # per kept mask: its shifted change, the shift, and None for a
        # single record or the descriptor of a bulk append
        self._changes = []
        self._shifts = array("Q")
        self._bulk = []
        self._last = 0  # the mask kept last

    def _keep(self, mask, bulk=None):
        change = mask ^ self._last
        shift = (change & -change).bit_length() - 1 if change else 0
        self._changes.append(change >> shift)
        self._shifts.append(shift)
        self._bulk.append(bulk)
        self._last = mask

    def record(self, role, kind, answer, mask):
        self._codes.append(by_role(_CODE_OF, role)[kind])
        self._answers.append(answer)
        self._keep(mask)

    def record_scan(self, role, cur, candidates, answers):
        """One greedy pass as one append per column: the independence
        record of cur + e for each element e of candidates in order, cur
        growing by e on each True answer."""
        code = by_role(_CODE_OF, role)[KIND_IND]
        self._codes += bytes((code,)) * len(answers)
        self._answers += answers
        self._keep(cur, _Scan(tuple(candidates), tuple(answers)))

    def record_prefix_pass(self, role, cur, order, start, skip, answers):
        """One run of a prefix walk as one append per column: the
        independence record of (cur | 1 << e) & prefix through e, for each
        element e outside the mask skip at the positions of the canonical
        order (a tuple) from start on, one per answer."""
        code = by_role(_CODE_OF, role)[KIND_IND]
        self._codes += bytes((code,)) * len(answers)
        self._answers += answers
        self._keep(cur, _PrefixPass(order, start, skip, len(answers)))

    def record_graph(self, role, x_mask, inside, outside, rows1, rows2, unbilled=()):
        """One exchange graph as one append per column: for each y of
        outside and each set of its row (X + y, then X + y - x for each x of
        inside), the set's ind1 record and then its ind2 record, with rows1
        and rows2 the answer lists of matroid 1 and 2 per y.  unbilled holds
        the positions, in that record order, of records left out."""
        codes = by_role(_CODE_OF, role)
        # every interleaved column is built before any column grows
        size = len(outside) * (len(inside) + 1)
        graph_codes = bytearray((codes[KIND_IND_OF[1]], codes[KIND_IND_OF[2]])) * size
        answers = [None] * (2 * size)
        answers[::2] = chain.from_iterable(rows1)
        answers[1::2] = chain.from_iterable(rows2)
        unbilled = sorted(unbilled, reverse=True)
        for p in unbilled:
            del graph_codes[p], answers[p]
        self._codes += graph_codes
        self._answers += answers
        self._keep(x_mask, _Graph(tuple(inside), tuple(outside), tuple(unbilled)))

    def _sets(self):
        mask = 0
        prefixes = _Prefixes()  # shared by the prefix-walk runs
        for change, shift, bulk in zip(self._changes, self._shifts, self._bulk):
            mask ^= change << shift
            if bulk is None:
                yield mask
            else:
                yield from bulk.sets(mask, prefixes)

    def records(self):
        """The records in order, one QueryRecord at a time, each query set
        decoded as it is reached."""
        for code, answer, mask in zip(self._codes, self._answers, self._sets()):
            yield QueryRecord(*RECORD_CODES[code], int(answer), mask)

    @property
    def transcript(self):
        """Read-only view of the records: a new list of QueryRecord built
        from the columns on each access."""
        return list(self.records())

    @property
    def clean_independence_count(self):
        """Clean ind, ind1 and ind2 records."""
        return sum(self._codes.count(code) for kind, code in _CODE_OF[ROLE_CLEAN].items() if kind != KIND_RANK)

    @property
    def clean_rank_count(self):
        return self._codes.count(_CODE_OF[ROLE_CLEAN][KIND_RANK])

    @property
    def dirty_count(self):
        return len(self._codes) - self.clean_count

    @property
    def clean_count(self):
        return self.clean_independence_count + self.clean_rank_count

    @property
    def total_cost(self):
        return self.dirty_count + self.cost_p * self.clean_count

    def export_lines(self):
        """Line-oriented transcript: seq,role,kind,answer,hex(bitset), where
        seq is the record's position."""
        return [f"{seq},{rec.role},{rec.kind},{rec.answer},{rec.mask:x}" for seq, rec in enumerate(self.records())]


class OraclePair:
    """A clean/dirty oracle pair over one ground set, billing into one ledger.

    Each role has one evaluator; a query of an unknown role raises a
    ValueError before anything is evaluated or billed."""

    def __init__(self, clean, dirty, ground, ledger=None, cost_p=1):
        if isinstance(clean, ExplicitSystem):
            raise ValueError("explicit downward-closed systems are accepted as dirty oracles only")
        if clean.n != ground.n or dirty.n != ground.n:
            raise ValueError("oracles and ground set disagree on n")
        self.ground = ground
        self.clean = clean.rebind(ground)
        self.dirty = dirty.rebind(ground)
        # per-pair evaluators: kept state never outlives the pair's run
        self._evals = {ROLE_CLEAN: self.clean.evaluator(), ROLE_DIRTY: self.dirty.evaluator()}
        self._walks = {role: ev.prefix_walk() for role, ev in self._evals.items()}
        self.ledger = ledger if ledger is not None else QueryLedger(cost_p=cost_p)

    def query_independent(self, role, mask):
        answer = by_role(self._evals, role).independent(mask)
        self.ledger.record(role, KIND_IND, answer, mask)
        return answer

    def query_rank(self, role, mask):
        answer = by_role(self._evals, role).rank(mask)
        self.ledger.record(role, KIND_RANK, answer, mask)
        return answer

    def query_scan(self, role, cur, skip=0):
        """Billed greedy pass from the mask cur over the elements outside the
        mask skip (which holds cur), in canonical order: the same records as
        query_independent(role, cur | 1 << e) for each such e, cur growing
        by e on each True, answered and billed in one call each.  Returns the
        final mask."""
        candidates = self.ground.outside(skip)
        answers, grown = by_role(self._evals, role).scan(cur, candidates)
        self.ledger.record_scan(role, cur, candidates, answers)
        return grown

    def query_prefix_pass(self, role, cur, start, skip=0):
        """Billed run of the role's prefix walk (see core._PrefixWalk): the
        same records as query_independent(role, (cur | 1 << e) &
        ground.prefix_mask(pos e)) for each element e outside the mask skip,
        position by position from start, up to and including the first
        True, answered and billed in one call.  Returns the position of the
        True answer, n when there is none."""
        stop, answers = by_role(self._walks, role).prefix_pass(cur, start, skip)
        self.ledger.record_prefix_pass(role, cur, self.ground.order, start, skip, answers)
        return stop

    def with_dirty_basis(self, bd):
        """Same oracles and ledger, rebased on the order around the dirty
        basis mask bd."""
        ground = self.ground.with_dirty_basis(bd)
        return OraclePair(self.clean, self.dirty, ground, ledger=self.ledger)


def greedy_basis(pair, role=ROLE_DIRTY):
    """Greedy max-weight basis through the billed oracle: n queries, each
    testing the current set plus one element in canonical order."""
    return ElementSet(pair.ground.n, pair.query_scan(role, 0))


def make_dirty(clean, cfg):
    """Derive a dirty matroid spec from a clean one by the seeded,
    structure-preserving perturbation of the config dict cfg.

    kinds: class_swap(count), capacity_shift(count) for partition matroids;
    edge_rewire(count), stale_snapshot(edits) for graphic matroids, with
    ``seed`` (default 0) seeding the draws.  A zero count (or empty edit
    list) is the identity.
    """
    kind = cfg["kind"]
    if kind not in ("class_swap", "capacity_shift", "edge_rewire", "stale_snapshot"):
        raise ValueError(f"unknown perturbation kind {kind!r}")
    count, seed = cfg.get("count", 0), cfg.get("seed", 0)
    for name, value in (("count", count), ("seed", seed)):
        if type(value) is not int:  # a JSON true or 1.7 is not read as 1
            raise ValueError(f"{name} must be an integer, got {value!r}")
    rng = random.Random(seed)
    if kind in ("class_swap", "capacity_shift"):
        if not isinstance(clean, PartitionMatroid):
            raise IncompatiblePerturbation(f"{kind} needs a partition matroid")
        classes = [sorted(iter_bits(m)) for m in clean.class_masks]
        caps = list(clean.caps)
        if kind == "class_swap":
            for _ in range(count):
                if len(classes) < 2 or clean.n == 0:
                    break
                src = rng.randrange(len(classes))
                while not classes[src]:
                    src = rng.randrange(len(classes))
                dst = rng.randrange(len(classes) - 1)
                if dst >= src:
                    dst += 1
                e = classes[src].pop(rng.randrange(len(classes[src])))
                classes[dst].append(e)
                classes[dst].sort()
        else:
            for _ in range(count):
                i = rng.randrange(len(caps))
                caps[i] = max(0, caps[i] + rng.choice((-1, 1)))
        keep = [(c, k) for c, k in zip(classes, caps) if c]
        return PartitionMatroid(clean.ground, [sum(1 << e for e in c) for c, _ in keep], [k for _, k in keep])
    if not isinstance(clean, GraphicMatroid):
        raise IncompatiblePerturbation(f"{kind} needs a graphic matroid")
    edges = [list(e) for e in clean.edges]
    nv = clean.num_vertices
    if kind == "edge_rewire":
        for _ in range(count):
            if nv < 2:
                break
            i = rng.randrange(len(edges))
            side = rng.randrange(2)
            other = edges[i][1 - side]
            v = rng.randrange(nv - 1)
            if v >= other:
                v += 1
            edges[i][side] = v
    else:
        for op, idx, u, v in cfg.get("edits", ()):
            if op != "set_edge":
                raise IncompatiblePerturbation(f"unknown stale_snapshot edit {op!r}")
            if type(idx) is not int or not 0 <= idx < len(edges):
                raise ValueError(f"stale_snapshot edge index must be an integer in 0..{len(edges) - 1}, got {idx!r}")
            edges[idx] = [u, v]
    return GraphicMatroid(clean.ground, nv, [tuple(e) for e in edges])


class CertificateReport(NamedTuple):
    ok: bool
    independence_witnessed: bool
    unwitnessed: tuple


def verify_certificate(records, out, ground):
    """Check that the clean queries alone prove the mask out is a basis.

    records is read once, in order: a ledger's records() or its transcript.
    Independence needs some clean query answered independent whose set contains
    the output (the empty set is independent axiomatically).  Maximality needs,
    for each e outside the output, a clean query answered dependent whose set
    is a subset of output + e that contains e, that is, whose elements outside
    the output are exactly {e}.  One pass over the records collects both.
    """
    outside = ground.full_mask & ~out
    ind_ok = out == 0
    witnessed = 0
    for r in records:
        if r.role != ROLE_CLEAN or r.kind == KIND_RANK:
            continue
        if not r.answer:
            extra = r.mask & outside
            if extra & (extra - 1) == 0:
                witnessed |= extra  # zero or the single element e
        elif not ind_ok:
            ind_ok = r.mask & out == out
    unwitnessed = tuple(iter_bits(outside & ~witnessed))
    return CertificateReport(ind_ok and not unwitnessed, ind_ok, unwitnessed)
